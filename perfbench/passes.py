"""One measured pass of a workload, run in a fresh interpreter.

    python3 perfbench/passes.py WORKLOAD SEED MODE

MODE is `setup` (import and input generation only), `plain` or `traced`.
The pass prints `ready <t>` when set-up ends, t being time.monotonic() just
before its first timed call, and then, as its last line, a JSON object with
the pass's wall time, its checks, and (traced) its spans.  Every check
compares a result with an oracle computed here, outside the code path
under test, or recorded in ref/; an exception inside a check counts as a
failed check.
"""
from __future__ import annotations

import json
import math
import random
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import NullTracer, Tracer  # noqa: E402

SCAN_CONFIGS = ((5, 2, 2), (5, 3, 1), (7, 2, 2))
SPOT_CHECKS = 3
# n=2 first: the N=5000 join is then the largest allocation so far in the
# process, so its peak-RSS growth is readable at its span boundary.
COUNT_REPORTS = ((2, (1000, 2000, 5000)), (3, (50, 100, 200, 300)))
QP_FUNCTIONS = {2: 20, 1: 100}          # s -> seeded f per pass; s=2 first
REAL_FUNCTIONS = 20
REAL_RESOLUTION = 8
COMB_N = (10, 20, 40)
# Test functions are drawn from fixed pools whose ratios are recorded in
# ref/norms.json, so every seed's draw is checked against recorded values.
POOLS = {"qp_s2": 100, "qp_s1": 500, "real_res8": 100}
QP_LIMIT = min(math.sqrt(2), 2 ** 0.25) + 1e-9   # min(C_{Q_p,2}, S^(1/4))
REAL_LIMIT = math.sqrt(14) * 1.02
RATIO_TOL = 1e-9


def cfg_tag(p: int, n: int, s: int) -> str:
    return f"p{p}n{n}s{s}"


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as exc:  # any exception is a failed check
            ok = False
            name = f"{name}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(name)


def load_refs() -> dict:
    with open(Path(__file__).with_name("ref") / "norms.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# workloads: inputs(seed) -> inputs, run(inputs, tracer, checks)
# ---------------------------------------------------------------------------

def orbit_size(idx) -> int:
    """Number of distinct permutations of idx: n! / prod(multiplicity!)."""
    size = math.factorial(len(idx))
    for mult in Counter(idx).values():
        size //= math.factorial(mult)
    return size


def orbit_sizes(p: int, n: int, s: int) -> list[int]:
    """orbit_size of every base tuple, in the order of its code
    sum(idx[k] * q^k), q = p^s, which is the order of scan.cardinalities."""
    q = p ** s
    return [orbit_size([code // q ** k % q for k in range(n)]) for code in range(q ** n)]


def scan_inputs(seed: int):
    rng = random.Random(seed)
    return [((p, n, s), [tuple(rng.randrange(p ** s) for _ in range(n))
                         for _ in range(SPOT_CHECKS)])
            for p, n, s in SCAN_CONFIGS]


def scan_run(inputs, tr, ck):
    from momentsq import syzygy
    from momentsq.local_field import cell_tuple, padic, padic_scale
    for (p, n, s), bases in inputs:
        syzygy.clear_index_cache()
        field, scale = padic(p), padic_scale(p, s)
        with tr.span("bench.scan", cfg=cfg_tag(p, n, s)):
            # The first spot check meets a cold index and builds it.
            for idx in bases:
                ck.check(f"spot {cfg_tag(p, n, s)} {idx}", lambda: set(
                    syzygy.syzygy_set_nonarch(cell_tuple(field, scale, idx)).member_indices)
                    == set(permutations(idx)))

            scans = []

            def scan_ok():
                scan = syzygy.scan_strong_diagonal(p, n, s)
                scans.append(scan)
                return (scan.all_match_permutations and not scan.mismatches
                        and scan.bases == p ** (s * n)
                        and scan.max_cardinality <= math.factorial(n))
            ck.check(f"scan {cfg_tag(p, n, s)}", scan_ok)
        # Outside the span: the oracle's time is not the layer's.  The scan
        # compares its member sets with permutations itself; this check does
        # not rely on that comparison.
        ck.check(f"scan {cfg_tag(p, n, s)} cardinalities equal orbit sizes",
                 lambda: list(scans[0].cardinalities) == orbit_sizes(p, n, s))
        syzygy.clear_index_cache()


def count_inputs(seed: int):
    return COUNT_REPORTS


def count_run(inputs, tr, ck):
    from momentsq import vinogradov
    for n, n_list in inputs:
        rows = []

        def report_ok():
            rows.extend(vinogradov.asymptotic_report(n, n_list))
            return [r.N for r in rows] == list(n_list)
        with tr.span("bench.count", n=n):
            ck.check(f"asymptotic_report n={n}", report_ok)
            for row in rows:
                ck.check(f"J_{n}({row.N})", lambda: row.count == vinogradov.permutation_count(n, row.N)
                         and row.method is vinogradov.CountMethod.HASH_JOIN)


def _pool_draw(rng: random.Random, pool: str, k: int) -> list[int]:
    return rng.sample(range(POOLS[pool]), k)


def qp_inputs(seed: int):
    from momentsq.extension import random_locally_constant
    from momentsq.local_field import padic
    rng = random.Random(seed)
    return [(s, [(fs, random_locally_constant(padic(5), 2, fs))
                 for fs in _pool_draw(rng, f"qp_s{s}", k)])
            for s, k in QP_FUNCTIONS.items()], load_refs()


def qp_run(inputs, tr, ck):
    from momentsq import extension
    from momentsq.local_field import padic_scale
    families, refs = inputs
    for s, fns in families:
        ref = refs[f"qp_s{s}"]
        with tr.span("bench.qp_norms", s=s):
            for fs, f in fns:
                def ok():
                    r = extension.weighted_norms(f, padic_scale(5, s), n=2).ratio
                    return r <= QP_LIMIT and abs(r - ref[fs]) <= RATIO_TOL
                ck.check(f"qp ratio s={s} f={fs}", ok)


def real_inputs(seed: int):
    from momentsq.extension import random_locally_constant
    from momentsq.local_field import REAL
    rng = random.Random(seed)
    fns = [(fs, random_locally_constant(REAL, REAL_RESOLUTION, fs))
           for fs in _pool_draw(rng, "real_res8", REAL_FUNCTIONS)]
    return fns, load_refs()


def comb_closed_form(N: int) -> float:
    return ((2 * N * N - N) / (N * N + 2)) ** 0.25


def real_run(inputs, tr, ck):
    from momentsq import extension
    from momentsq.local_field import real_scale
    fns, refs = inputs
    ref = refs["real_res8"]
    with tr.span("bench.real_norms", res=REAL_RESOLUTION):
        for fs, f in fns:
            def ok():
                r = extension.weighted_norms(f, real_scale(REAL_RESOLUTION), n=2).ratio
                return r <= REAL_LIMIT and abs(r - ref[fs]) <= RATIO_TOL
            ck.check(f"real ratio res={REAL_RESOLUTION} f={fs}", ok)
    with tr.span("bench.comb"):
        for N in COMB_N:
            ck.check(f"comb N={N}", lambda: abs(extension.comb_ratio(2, N)
                                                 - comb_closed_form(N)) <= RATIO_TOL)


WORKLOADS = {
    "scan": (scan_inputs, scan_run),
    "count": (count_inputs, count_run),
    "qp_norms": (qp_inputs, qp_run),
    "real_norms": (real_inputs, real_run),
}


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    make_inputs, run = WORKLOADS[workload]
    from momentsq import extension, syzygy, vinogradov
    inputs = make_inputs(seed)
    tracer = NullTracer()
    if mode == "traced":
        tracer = Tracer(f"{workload}/{seed}")
        tracer.install(syzygy, vinogradov, extension)
    start = time.monotonic()
    print(f"ready {start!r}", flush=True)
    if mode == "setup":
        return 0
    checks = Checks()
    run(inputs, tracer, checks)
    wall = time.monotonic() - start
    print(json.dumps({"wall_s": wall,
                      "attempted": checks.attempted, "failures": checks.failures,
                      "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
