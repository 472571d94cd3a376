"""Summarise and compare benchmark records (perfbench/out/*.json).

    python3 perfbench/report.py summary RECORD...      # JSON summary to stdout
    python3 perfbench/report.py compare OLD NEW        # two summaries

A summary groups records by workload and trace mode and gives, per metric,
the median, quartiles and spread (q3 - q1) / median over the records, as
statistics.quantiles(values, n=4) gives them, plus the environment stamp
of the records.  `compare` prints NEW's median over OLD's per metric, and
says so when the two were measured with different numpy or Python versions
or on a different CPU.
"""
from __future__ import annotations

import json
import statistics
import sys


def summary(paths: list[str]) -> dict:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        groups.setdefault(f"{rec['workload']}/trace{rec['trace']}", []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / abs(med) if med else None,
                             "unit": recs[0]["metrics"][name]["unit"], "runs": len(values)}
        envs = {json.dumps({k: v for k, v in r["env"].items() if k != "git_sha"},
                           sort_keys=True) for r in recs}
        out[key] = {"seeds": [r["seed"] for r in recs],
                    "failed": sum(r["failed"] for r in recs),
                    "attempted": sum(r["attempted"] for r in recs),
                    "env": [json.loads(e) for e in sorted(envs)],
                    "git_sha": sorted({str(r["env"]["git_sha"]) for r in recs}),
                    "metrics": metrics}
    return out


def compare(old: dict, new: dict) -> None:
    for key in sorted(set(old) & set(new)):
        for field in ("numpy", "python", "cpu", "nproc"):
            a = {e[field] for e in old[key]["env"]}
            b = {e[field] for e in new[key]["env"]}
            if a != b:
                print(f"{key}: WARNING: {field} differs ({sorted(map(str, a))} vs "
                      f"{sorted(map(str, b))}); the comparison mixes environments")
        for name, m in old[key]["metrics"].items():
            if name in new[key]["metrics"]:
                n = new[key]["metrics"][name]
                ratio = n["median"] / m["median"] if m["median"] else float("nan")
                print(f"{key:<18} {name:<34} {m['median']:>12.6g} -> {n['median']:>12.6g} "
                      f"{m['unit']:<6} x{ratio:.3f} (spread {m['spread'] or 0:.3f} -> "
                      f"{n['spread'] or 0:.3f})")


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "summary":
        print(json.dumps(summary(argv[1:]), indent=1))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        docs = []
        for path in argv[1:]:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
        compare(*docs)
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
