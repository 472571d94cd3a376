"""Smoke tests of scripts/: each runs in a fresh interpreter on the package in src/."""
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from momentsq import comb_ratio

ROOT = pathlib.Path(__file__).parents[1]


def run(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_vinogradov_table_matches_the_cli():
    table = run(ROOT / "scripts" / "vinogradov_table.py", "--n", "2", "--N", "5", "10", "--csv")
    assert table == run("-m", "momentsq.cli", "vino", "--n", "2", "--N-list", "5,10")


def test_syzygy_scan_matches_the_oracle():
    rows = json.loads(run(ROOT / "scripts" / "syzygy_scan.py", "--configs", "3,2,1", "--json"))
    assert [(r["p"], r["n"], r["s"], r["bases"]) for r in rows] == [(3, 2, 1, 9)]
    assert rows[0]["all_match_permutation_oracle"] is True


def test_comb_ratio_curve_matches_comb_ratio():
    out = run(ROOT / "scripts" / "comb_ratio_curve.py", "--n", "2", "--N", "5", "10")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["N"]) for r in rows] == [5, 10]
    for r in rows:
        assert float(r["ratio"]) == pytest.approx(comb_ratio(2, int(r["N"])), abs=1e-10)
