"""Re-record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py

Writes ref/norms.json (the weighted-norm ratio of every pooled test
function) and ref/cli/*.out (the stdout of each CLI command at
--threads 1).  The committed files were recorded before any optimisation;
re-record only when an output is meant to change, and say why.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import CLI_COMMANDS, HERE, ROOT, STARTUP_COMMAND, child_env

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from momentsq.extension import random_locally_constant, weighted_norms
    from momentsq.local_field import REAL, padic, padic_scale, real_scale
    from passes import POOLS, REAL_RESOLUTION

    refs = {
        "qp_s2": [weighted_norms(random_locally_constant(padic(5), 2, k),
                                 padic_scale(5, 2), n=2).ratio
                  for k in range(POOLS["qp_s2"])],
        "qp_s1": [weighted_norms(random_locally_constant(padic(5), 2, k),
                                 padic_scale(5, 1), n=2).ratio
                  for k in range(POOLS["qp_s1"])],
        "real_res8": [weighted_norms(random_locally_constant(REAL, REAL_RESOLUTION, k),
                                     real_scale(REAL_RESOLUTION), n=2).ratio
                      for k in range(POOLS["real_res8"])],
    }
    (HERE / "ref").mkdir(exist_ok=True)
    (HERE / "ref" / "norms.json").write_text(json.dumps(refs, indent=0) + "\n",
                                             encoding="utf-8")
    (HERE / "ref" / "cli").mkdir(exist_ok=True)
    for name, args in {**CLI_COMMANDS, "startup": STARTUP_COMMAND}.items():
        out = subprocess.run([sys.executable, "-m", "momentsq.cli", *args], cwd=ROOT,
                             env=child_env(), capture_output=True, check=True).stdout
        (HERE / "ref" / "cli" / f"{name}.out").write_bytes(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
