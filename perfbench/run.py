"""Benchmark of momentsq's exact experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0

Workloads: scan, count, qp_norms, real_norms (see perfbench/README.md).
Run from anywhere; the package is imported from src/ next to perfbench/.

--trace 0 measures end-to-end metrics for --seconds seconds: fresh-process
passes of the workload through the public API (threads=1), the workload's
CLI command at --threads 2, and set-up probes.  --trace 1 makes one traced
pass of every workload (spans around each call into the public functions of
syzygy, vinogradov and extension), one untraced pass of the named workload,
and the cli probes, and reports the per-layer metrics.

Every pass and CLI run is checked (see passes.py); failed/attempted is the
failed_frac.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.  A record with the environment stamp, every sample and
(traced) every span is written to perfbench/out/.  Exits 2 without a
result when the momentsq sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from passes import COUNT_REPORTS, SCAN_CONFIGS, WORKLOADS, cfg_tag  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402

CLI_COMMANDS = {
    "scan": ["syzygy", "--scan", "--p", "5", "--n", "3", "--s", "1"],
    "count": ["vino", "--n", "3", "--N", "300"],
    "qp_norms": ["verify", "--suite", "theorem1", "--seed", "7", "--trials", "6",
                 "--format", "json"],
    "real_norms": ["ratio", "--n", "2", "--N-list", "10,20,40"],
}
STARTUP_COMMAND = ["bounds", "--table", "theorem1", "--n-max", "2"]
CLI_THREADS = 2
SETUP_PROBES = 4       # set-up-only processes before the first measured run
CLI_PROBES = 3         # import / startup probes per traced run
RUN_LIMIT_S = 170.0    # no new process is started after this
WARM_MB = 1536         # above the largest peak RSS of any pass (count: 1.2 GB)


def ref_path(name: str) -> Path:
    return HERE / "ref" / "cli" / f"{name}.out"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Run:
    """Checks, samples and spans collected over one benchmark invocation."""

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.start = time.monotonic()
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []
        self.env = child_env()

    def time_left(self) -> float:
        return self.start + RUN_LIMIT_S - time.monotonic()

    def fail(self, what: str):
        self.attempted += 1
        self.failures.append(what)

    def run_pass(self, workload: str, mode: str) -> dict | None:
        """One fresh-process pass; the child's own rusage comes from wait4."""
        spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "passes.py"), workload,
                                 str(self.seed), mode],
                                stdout=subprocess.PIPE, cwd=ROOT, env=self.env)
        timer = threading.Timer(max(1.0, self.time_left()), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read().decode()
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        lines = out.splitlines()
        ready = [ln for ln in lines if ln.startswith("ready ")]
        what = f"{workload} {mode} pass"
        if proc.returncode != 0 or not ready:
            self.fail(f"{what} exited with {proc.returncode}")
            return None
        res = {"setup_s": float(ready[0].split()[1]) - spawn,
               "peak_rss_mb": usage.ru_maxrss / 1024}
        if mode == "setup":
            return res
        try:
            body = json.loads(lines[-1])
        except json.JSONDecodeError:
            self.fail(f"{what} printed no result")
            return None
        self.attempted += body["attempted"]
        self.failures += [f"{what}: {f}" for f in body["failures"]]
        self.spans += body["spans"]
        res["wall_s"] = body["wall_s"]
        return res

    def run_cli(self, name: str, args: list[str], threads: int | None) -> float | None:
        """Run one CLI command in a fresh interpreter; check its stdout bytes
        against the recorded reference and return its wall time."""
        cmd = [sys.executable, "-m", "momentsq.cli", *args]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        label = " ".join(cmd[3:])
        self.attempted += 1
        with self.tracer.span(f"cli.{args[0]}", threads=threads or 1):
            start = time.monotonic()
            try:
                proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=self.env,
                                      timeout=max(1.0, self.time_left()))
            except subprocess.TimeoutExpired:
                self.failures.append(f"cli {label}: timed out")
                return None
            wall = time.monotonic() - start
        if proc.returncode != 0:
            self.failures.append(f"cli {label}: exit {proc.returncode}")
        elif proc.stdout != ref_path(name).read_bytes():
            self.failures.append(f"cli {label}: stdout differs from {ref_path(name).name}")
        return wall

    def time_import(self) -> float:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", "import momentsq"], cwd=ROOT,
                              env=self.env, capture_output=True,
                              timeout=max(1.0, self.time_left()))
        wall = time.monotonic() - start
        self.attempted += 1
        if proc.returncode != 0:
            self.failures.append(f"import momentsq: exit {proc.returncode}")
        return wall


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def warm_memory():
    """Touch WARM_MB of fresh memory, in a child process, and free it.

    On a VM that hands freed guest memory back to its host, the first large
    allocation after an idle spell also pays the host's page faults (about
    1 s per GB on the baseline machine), which later allocations do not.
    Touching the memory first keeps that cost out of the first sample.  It
    runs in a child because a process spawned from this one reports this
    one's peak RSS as a floor of its own ru_maxrss."""
    subprocess.run([sys.executable, "-c", f"import numpy; numpy.ones({WARM_MB * 2 ** 20 // 8})"],
                   cwd=ROOT, capture_output=True, timeout=60)


def end_to_end(workload: str, seconds: float, run: Run) -> tuple[dict, dict]:
    setups, walls, rss, cli = [], [], [], []

    def probe_setup():
        res = run.run_pass(workload, "setup")
        if res:
            setups.append(res["setup_s"])
    for _ in range(SETUP_PROBES):
        probe_setup()
    deadline = run.start + seconds
    last = {"pass": 0.0, "cli": 0.0}
    spent = {"pass": 0.0, "cli": 0.0}
    while run.time_left() > 0:
        # The kind with less time measured so far goes next, so both kinds
        # sample the whole run.  Each runs at least once, and later only if
        # its last duration still fits before the deadline.
        for kind in sorted(spent, key=spent.get):
            if not spent[kind] or time.monotonic() + last[kind] <= deadline:
                break
        else:
            break
        start = time.monotonic()
        if kind == "pass":
            res = run.run_pass(workload, "plain")
            if res:
                setups.append(res["setup_s"])
                walls.append(res["wall_s"])
                rss.append(res["peak_rss_mb"])
        else:
            wall = run.run_cli(workload, CLI_COMMANDS[workload], CLI_THREADS)
            if wall is not None:
                cli.append(wall)
        last[kind] = time.monotonic() - start
        spent[kind] += last[kind]
        # The host's speed drifts over tens of seconds; one set-up probe
        # after each measured run spreads the set-up samples over the run.
        probe_setup()
    metrics = {
        "wall_s": (median(walls), "s"),
        "cli_wall_s": (median(cli), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "setup_s": (median(setups), "s"),
    }
    return metrics, {"wall_s": walls, "cli_wall_s": cli, "peak_rss_mb": rss,
                     "setup_s": setups}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[dict]) -> dict:
    by_key = {(sp["pass"], sp["id"]): sp for sp in spans}

    def dur(sp):
        return sp["end"] - sp["start"]

    def parent(sp):
        return by_key.get((sp["pass"], sp["parent"])) if sp["parent"] is not None else None

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    m = {}
    # syzygy: spot checks are grouped by the bench.scan span that holds them
    for sp in named("syzygy.scan_strong_diagonal"):
        t = sp["tags"]
        m[f"syzygy.scan_s.{cfg_tag(t['p'], t['n'], t['s'])}"] = (dur(sp), "s")
    spots: dict[str, list] = {}
    for sp in named("syzygy.syzygy_set_nonarch"):
        spots.setdefault(parent(sp)["tags"]["cfg"], []).append(sp)
    cold = spots["p7n2s2"][0]
    m["syzygy.index_build_s.p7n2s2"] = (
        dur(cold) - median([dur(sp) for sp in spots["p7n2s2"][1:]]), "s")
    m["syzygy.query_s"] = (median([dur(sp) for group in spots.values()
                                   for sp in group[1:]]), "s")
    m["syzygy.index_rss_mb"] = (cold["maxrss_after_mb"] - cold["rss_before_mb"], "MB")
    tuples = sum(p ** (n * s * n) for p, n, s in SCAN_CONFIGS)
    syz_time = sum(dur(sp) for sp in spans if sp["name"].startswith("syzygy.")
                   and parent(sp) is not None and parent(sp)["name"] == "bench.scan")
    m["syzygy.tuples"] = (tuples, "count")
    m["syzygy.tuples_per_s"] = (tuples / syz_time, "1/s")

    joins = {(sp["tags"]["n"], sp["tags"]["N"]): sp
             for sp in named("vinogradov.count_solutions")}
    for n, n_list in COUNT_REPORTS:
        N = max(n_list)
        m[f"vinogradov.hash_join_s.n{n}N{N}"] = (dur(joins[n, N]), "s")
    m["vinogradov.keys_per_s"] = (sum(N ** n for n, N in joins)
                                  / sum(dur(sp) for sp in joins.values()), "1/s")
    big = joins[2, 5000]
    m["vinogradov.rss_mb"] = (big["maxrss_after_mb"] - big["rss_before_mb"], "MB")
    m["vinogradov.formula_s"] = (sum(dur(sp) for sp in named("vinogradov.permutation_count")
                                     if parent(sp)["name"] == "bench.count"), "s")

    norms: dict[str, list] = {}
    for sp in named("extension.weighted_norms"):
        bench = parent(sp)
        key = (f"qp_s{bench['tags']['s']}" if bench["name"] == "bench.qp_norms"
               else "real")
        norms.setdefault(key, []).append(sp)
    qp2 = [dur(sp) for sp in norms["qp_s2"]]
    qp1 = [dur(sp) for sp in norms["qp_s1"]]
    m["extension.qp_norm_s.s2.p50"] = (median(qp2), "s")
    m["extension.qp_norm_s.s1.p50"] = (median(qp1), "s")
    m["extension.qp_norm_s.s1.p90"] = (statistics.quantiles(qp1, n=10)[8], "s")
    m["extension.qp_norm_rss_mb"] = (max(sp["maxrss_after_mb"] - sp["rss_before_mb"]
                                         for sp in norms["qp_s2"] + norms["qp_s1"]), "MB")
    m["extension.real_norm_s.res8.p50"] = (median([dur(sp) for sp in norms["real"]]), "s")
    for sp in named("extension.comb_ratio"):
        m[f"extension.comb_ratio_s.N{sp['tags']['N']}"] = (dur(sp), "s")

    self_s = self_times(spans)
    for layer in ("syzygy", "vinogradov", "extension"):
        m[f"{layer}.self_s"] = (sum(t for key, t in self_s.items()
                                    if by_key[key]["name"].startswith(layer + ".")), "s")
    return m


def per_layer(workload: str, run: Run) -> tuple[dict, dict]:
    imports = [run.time_import() for _ in range(CLI_PROBES)]
    startups = [run.run_cli("startup", STARTUP_COMMAND, None) for _ in range(CLI_PROBES)]
    threads1 = run.run_cli(workload, CLI_COMMANDS[workload], 1)
    threads2 = run.run_cli(workload, CLI_COMMANDS[workload], CLI_THREADS)
    plain = run.run_pass(workload, "plain")
    traced = {w: run.run_pass(w, "traced") for w in WORKLOADS}
    if run.failures:
        return {}, {}
    m = layer_metrics(run.spans)
    m["cli.import_s"] = (median(imports), "s")
    m["cli.startup_s"] = (median(startups), "s")
    m["cli.wall_s.threads1"] = (threads1, "s")
    m["cli.wall_s.threads2"] = (threads2, "s")
    m["cli.threads_speedup"] = (threads1 / threads2, "x")
    m["trace.overhead_frac"] = (
        (traced[workload]["wall_s"] - plain["wall_s"]) / plain["wall_s"], "frac")
    return m, {"import_s": imports, "startup_s": startups,
               "pass_wall_s": {"plain": plain["wall_s"],
                               **{f"traced.{w}": r["wall_s"] for w, r in traced.items()}}}


# ---------------------------------------------------------------------------

def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "momentsq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "momentsq" / "__init__.py").is_file():
        print(f"error: no momentsq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    warm_memory()
    run = Run(args.seed, Tracer("parent") if args.trace else NullTracer())
    if args.trace:
        metrics, samples = per_layer(args.workload, run)
    else:
        metrics, samples = end_to_end(args.workload, args.seconds, run)
    # a metric with no sample (every pass failed) is left out, not printed as NaN
    metrics = {k: (v, u) for k, (v, u) in metrics.items() if math.isfinite(v)}
    run.spans += run.tracer.spans
    failed = len(run.failures)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "samples": samples, "attempted": run.attempted, "failed": failed,
              "failures": run.failures, "spans": run.spans}
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']!r}, git {env['git_sha']}, src sha256 {env['src_sha256'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<34} {value:>14.6g} {unit}")
    print(f"{args.workload:<10} {'failed_frac':<34} {failed / max(1, run.attempted):>14.6g} "
          f"({failed}/{run.attempted} checks)")
    for f in run.failures:
        print(f"FAILED: {f}")
    print(f"record: {out}")
    print(json.dumps({"correct": failed == 0 and run.attempted > 0 and bool(metrics),
                      "attempted": max(1, run.attempted), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
