import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from momentsq import cli, vinogradov

CLI = [sys.executable, "-m", "momentsq.cli"]
BASELINE_DIR = pathlib.Path(__file__).parent.parent / "docs" / "baselines"


def run(*args, expect=0):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def test_syzygy_single_json():
    doc = json.loads(run("syzygy", "--p", "5", "--n", "2", "--s", "1", "--tuple", "0,1"))
    assert doc["schema"] == "1"
    assert doc["cardinality"] == 2
    assert doc["members"] == [[0, 1], [1, 0]]
    assert doc["epsilon"] == "1/25"
    assert doc["within_bound"] is True


def test_syzygy_repeated_cell():
    doc = json.loads(run("syzygy", "--p", "5", "--n", "2", "--s", "1", "--tuple", "2,2"))
    assert doc["cardinality"] == 1


def test_syzygy_budget_exit_code():
    run("syzygy", "--p", "5", "--n", "2", "--s", "9", "--tuple", "0,1", expect=2)


def test_syzygy_usage_error():
    run("syzygy", "--p", "5", "--n", "2", "--s", "1", "--tuple", "0,1,2", expect=1)


def test_syzygy_scan():
    doc = json.loads(run("syzygy", "--p", "5", "--n", "2", "--s", "1", "--scan"))
    assert doc["all_match_permutation_oracle"] is True
    assert doc["bases"] == 25
    assert doc["max_cardinality"] == 2


def test_syzygy_real_sampler():
    doc = json.loads(run("syzygy", "--field", "real", "--n", "2",
                         "--delta-inv", "8", "--tuple", "2,5"))
    assert [2, 5] in doc["members"] and [5, 2] in doc["members"]
    assert doc["cardinality"] <= doc["bound"] == 50


def test_vino_json_counts_as_strings():
    doc = json.loads(run("vino", "--n", "2", "--N", "10"))
    assert doc["count"] == "190"
    assert doc["diagonal"] == "100"
    assert doc["permutation_count"] == "190"
    assert "elapsed_seconds" not in doc


def test_vino_csv_table():
    out = run("vino", "--n", "2", "--N-list", "10,100")
    lines = out.strip().splitlines()
    assert lines[0].startswith("N,count,leading,residual")
    assert lines[1].startswith("10,190,200,10,")
    assert lines[2].startswith("100,19900,20000,100,")


def test_bounds_csv():
    out = run("bounds", "--table", "theorem1", "--n-max", "5", "--field", "padic")
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert lines[0] == "name,n,field,value,formula"


@pytest.mark.parametrize("args,last", [
    # 81,749,606,400 prints as a float would, with no trailing zero
    (["--table", "refined", "--n-max", "12"], "refined_diagonal,12,-,8.17496064e+10,"),
    # from here each value's radicand or integer is past float range at the last n
    (["--table", "fewnomial", "--n-max", "41"], "fewnomial,41,-,60459.37426,"),
    (["--table", "refined", "--n-max", "155"], "refined_diagonal,155,-,3.836718669e+310,"),
    (["--table", "theorem1", "--field", "complex", "--n-max", "221"], "theorem1,221,C,74.33034374,"),
    (["--table", "theorem1", "--field", "real", "--n-max", "442"], "theorem1,442,R,47.01063709,"),
    (["--table", "wronskian", "--n-max", "30"], "moment_wronskian,30,-,5.717556982e+415,"),
    # from n = 3076 over C, C_{K,n} = 5^(2n) has more digits than str() converts
    (["--table", "theorem1", "--field", "complex", "--n-max", "3100"],
     'theorem1,3100,C,278.3882181,"(5^6200)^(1/6200)*sqrt(3100)"'),
    # the moment curve's Wronskian is a closed form; 171! on is past float range
    (["--table", "bezout", "--field", "complex", "--n-max", "200"], "bezout,200,C,3470.456413,"),
    # from n = 1559, prod deg = n! has more digits than str() converts
    (["--table", "bezout", "--field", "real", "--n-max", "1600"],
     'bezout,1600,R,1374.614605,"(2*1600+1)^(1/2)*(1600!)^(1/3200)"'),
])
def test_bounds_last_row(args, last):
    lines = run("bounds", *args).splitlines()
    assert lines[-1].startswith(last)


def test_bounds_bezout_defaults_to_the_reals():
    # the Bezout table has no Q_p row, so without --field it runs over R
    out = run("bounds", "--table", "bezout")
    assert out == run("bounds", "--table", "bezout", "--field", "real")
    assert out.splitlines()[1].startswith("bezout,2,R,")
    assert run("bounds").splitlines()[1].startswith("theorem1,2,Q_5,")


@pytest.mark.parametrize("n_max", ["1", "0"])
def test_bounds_rejects_n_max_below_2(n_max):
    proc = subprocess.run(CLI + ["bounds", "--n-max", n_max], capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("error: ")


def test_ratio_json():
    doc = json.loads(run("ratio", "--n", "2", "--N-list", "1,10"))
    assert doc["results"][0]["ratio"] == pytest.approx(1)
    assert doc["results"][1]["ratio"] == pytest.approx(1.168257, abs=1e-5)
    assert doc["limit"] == pytest.approx(2 ** 0.25, abs=1e-9)


def test_verify_subcommand_exit_zero():
    out = run("verify", "--suite", "bounds")
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_suites():
    out = run("verify", "--suite", "all", "--seed", "7", "--trials", "3")
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_honours_trials():
    from momentsq import verify
    details = {r.name: r.detail for r in verify.run_suite("symmetric", trials=4)}
    assert details["permutation_invariance"] == "4 shuffles, exact"
    details = {r.name: r.detail for r in verify.run_suite("symmetric")}
    assert details["permutation_invariance"] == "300 shuffles, exact"


def test_verify_trials_honoured_or_rejected():
    from momentsq import verify
    details = {r.name: r.detail for r in verify.run_suite("local_field", trials=5)}
    assert details["character_homomorphism"] == "5 random rational pairs, tolerance 1e-12"
    details = {r.name: r.detail for r in verify.run_suite("syzygy", trials=4)}
    assert details["membership_symmetry_reflexivity"] == "4 random pairs over Q_5"
    details = {r.name: r.detail for r in verify.run_suite("syzygy")}
    assert details["membership_symmetry_reflexivity"] == "30 random pairs over Q_5"
    for suite in ("vinogradov", "bounds"):
        run("verify", "--suite", suite, "--trials", "3", expect=1)
    run("verify", "--suite", "symmetric", "--trials", "0", expect=1)


IGNORED_FLAGS = [
    ["bounds", "--format", "json"],  # bounds writes CSV only
    ["ratio", "--format", "csv"],
    ["syzygy", "--tuple", "0,1", "--format", "csv"],
    ["verify", "--suite", "bounds", "--format", "csv"],
    ["syzygy", "--tuple", "0,1", "--epsilon", "1/3"],  # real-sampler options over Q_p
    ["syzygy", "--tuple", "0,1", "--grid-step", "1/64"],
    ["syzygy", "--tuple", "0,1", "--delta-inv", "8"],
    ["vino", "--N-list", "10", "--timing"],  # the CSV table has no timing column
    ["vino", "--format", "csv", "--timing"],
    ["vino", "--N-list", "10", "--method", "brute_force"],
    ["vino", "--N-list", "10", "--format", "json"],
    ["syzygy", "--field", "real", "--tuple", "2,5", "--p", "7"],  # Q_p options over R
    ["syzygy", "--field", "real", "--tuple", "2,5", "--s", "3"],
    ["syzygy", "--scan", "--tuple", "0,1"],  # the scan takes every base tuple
    ["vino", "--N-list", "10", "--N", "5"],  # the list replaces --N
    ["ratio", "--N-list", "10", "--N", "5"],
    ["bounds", "--field", "real", "--p", "7"],
    ["bounds", "--table", "wronskian", "--p", "7"],  # tables without a field
    ["bounds", "--table", "refined", "--field", "padic"],
    ["bounds", "--table", "fewnomial", "--field", "real"],
    ["verify", "--suite", "bounds", "--seed", "7"],  # suites that draw nothing
    ["verify", "--suite", "vinogradov", "--seed", "3"],
]


@pytest.mark.parametrize("args", IGNORED_FLAGS, ids=" ".join)
def test_ignored_flags_are_usage_errors(args):
    proc = subprocess.run(CLI + args, capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["ratio", "--bogus"],
    ["vino", "--method", "nope"],
    ["ratio", "--grid-step", "1/8"],  # the comb ratio is exact: no grid to choose
    ["syzygy", "--field", "real", "--tuple", "2,5", "--epsilon", "1/0"],
    ["--config", "no-such-dir/run.cfg", "vino"],
    ["vino", "--N-list", ","],  # a list with no values would fall back to --N
    ["ratio", "--N-list", ","],
    ["vino", "--N-list", "10,"],  # an empty entry is not skipped either
], ids=" ".join)
def test_argparse_errors_exit_1(args):
    # 2 is the budget code, so argparse's own usage errors must not use it
    proc = subprocess.run(CLI + args, capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert "error: " in proc.stderr


def test_method_choices_are_the_count_methods():
    # written out so that parsing imports no engine; an unknown one is argparse's error
    assert cli._METHODS == [m.value for m in vinogradov.CountMethod]
    proc = subprocess.run(CLI + ["vino", "--method", "nope"], capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("usage: ")
    assert "argument --method: invalid choice: 'nope'" in proc.stderr


def test_scan_rejects_negative_s():
    proc = subprocess.run(CLI + ["syzygy", "--scan", "--s", "-1"],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("n", ["1", "0", "-1"])
def test_scan_rejects_n_below_2(n):
    proc = subprocess.run(CLI + ["syzygy", "--scan", "--n", n],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("flag", ["--grid-step=0", "--epsilon=-1/100"])
def test_real_sampler_rejects_bad_values(flag):
    proc = subprocess.run(CLI + ["syzygy", "--field", "real", "--n", "2", "--delta-inv", "8",
                                 "--tuple", "2,5", flag], capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("error: ")


def test_vino_overflowing_keys_exit_2():
    # n = 8 centred sums overflow from N = 27; the join refuses before enumerating
    proc = subprocess.run(CLI + ["vino", "--n", "8", "--N", "27"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and not proc.stdout
    assert "overflow" in proc.stderr


@pytest.mark.parametrize("n,N", [("4", "160"), ("5", "74")])
def test_vino_large_joins_exit_0(n, N):
    # 1.35M heads at (5, 74): the join runs under its step, byte and c_k guards
    out = run("vino", "--n", n, "--N", N)
    assert '"method":"hash_join"' in out
    assert json.loads(out)["count"] == str(vinogradov.permutation_count(int(n), int(N)))


def test_engine_invariant_failure_exits_3(monkeypatch, capsys):
    # a repeated head row makes the join raise: one stderr line, no traceback
    def repeated_keys(folds, n):
        return [np.array([1, 2, 2, 3], dtype=np.int64) ** k for k in range(1, len(folds) + 1)]
    monkeypatch.setattr(vinogradov, "_sorted_folds", repeated_keys)
    assert cli.main(["vino", "--n", "2", "--N", "4"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("invariant failure: ") and "Girard-Newton fails" in err
    assert err.count("\n") == 1


def test_ratio_n8_approaches_limit():
    doc = json.loads(run("ratio", "--n", "8", "--N-list", "10,1000,1000000"))
    ratios = [r["ratio"] for r in doc["results"]]
    limit = math.factorial(8) ** (1 / 16)
    assert doc["limit"] == pytest.approx(limit, abs=1e-12)
    assert ratios == sorted(ratios) and ratios[-1] < limit
    assert limit - ratios[-1] < 1e-5 * limit


def test_ratio_rejects_n_above_170():
    # the ratio and its limit reach n!, and 171! overflows a float
    proc = subprocess.run(CLI + ["ratio", "--n", "200", "--N", "10"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("error: ") and "170" in proc.stderr


def test_verify_unknown_suite_is_usage_error():
    run("verify", "--suite", "bogus", expect=1)


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    run("--config", str(cfg), "vino", expect=1)
    cfg.write_text("format = json\n")  # a format bounds does not write
    run("--config", str(cfg), "bounds", expect=1)


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nn = 2\ns = 1\ntuple = 2,2\nscan = no\n")
    doc = json.loads(run("--config", str(cfg), "syzygy"))
    assert doc["base"] == [2, 2]
    # explicit flag beats the file
    doc = json.loads(run("--config", str(cfg), "syzygy", "--tuple", "0,1"))
    assert doc["base"] == [0, 1]


@pytest.mark.parametrize("line", [
    "field = complex",  # not a choice of syzygy --field
    "command = bounds",  # not a flag: the subcommand is named on the command line
    "n = two",  # --n takes an int
    "scan = ture",  # a switch takes true or false
])
def test_config_file_values_checked_like_flags(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    proc = subprocess.run(CLI + ["--config", str(cfg), "syzygy", "--tuple", "2,5"],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout


def test_thread_count_byte_identical():
    base = ["vino", "--n", "3", "--N", "40"]
    outs = {run(*base, "--threads", str(t)) for t in (1, 4)}
    assert len(outs) == 1


def test_threads_below_1_are_usage_errors():
    base = ["vino", "--n", "2", "--N", "10", "--threads"]
    for t in ("0", "-4"):
        proc = subprocess.run(CLI + base + [t], capture_output=True, text=True)
        assert proc.returncode == 1 and not proc.stdout
    assert len({run(*base, t) for t in ("1", "2", "8")}) == 1


BASELINES = [
    (["syzygy", "--p", "5", "--n", "2", "--s", "1", "--tuple", "0,1"],
     "syzygy_q5_n2_s1.json"),
    (["vino", "--n", "2", "--N", "10"], "vino_n2_N10.json"),
    (["bounds", "--table", "theorem1", "--n-max", "5", "--field", "padic"],
     "bounds_theorem1_padic.csv"),
    (["ratio", "--n", "2", "--N-list", "10,20,40"], "ratio_n2.json"),
    (["ratio", "--n", "3", "--N-list", "2,3,5,8"], "ratio_n3.json"),
    (["verify", "--suite", "theorem1", "--seed", "7", "--trials", "6", "--format", "json"],
     "verify_theorem1_seed7.json"),
    (["syzygy", "--scan", "--p", "5", "--n", "3", "--s", "1"], "syzygy_scan_q5_n3_s1.json"),
    (["vino", "--n", "3", "--N", "300"], "vino_n3_N300.json"),
    (["vino", "--n", "3", "--N-list", "10,300,2000"], "vino_n3_table.csv"),
    (["syzygy", "--field", "real", "--n", "2", "--delta-inv", "8", "--tuple", "2,5"],
     "syzygy_real_n2_d8.json"),
    (["syzygy", "--field", "real", "--n", "3", "--delta-inv", "4", "--tuple", "0,1,3"],
     "syzygy_real_n3_d4.json"),
    # p divides n: Girard-Newton's division by j fails mod p, yet S(I) is the orbit
    (["syzygy", "--scan", "--p", "3", "--n", "3", "--s", "1"], "syzygy_scan_q3_n3_s1.json"),
    (["syzygy", "--p", "3", "--n", "3", "--s", "1", "--tuple", "0,1,2"],
     "syzygy_q3_n3_s1.json"),
    # the largest scan config; and gcd(n, q) = 2, so two residues of p_1 are keyed
    (["syzygy", "--scan", "--p", "7", "--n", "3", "--s", "1"], "syzygy_scan_q7_n3_s1.json"),
    (["syzygy", "--scan", "--p", "2", "--n", "2", "--s", "2"], "syzygy_scan_q2_n2_s2.json"),
    # the sampler's 8.4M hit entries cross 9 blocks of 2^20
    (["syzygy", "--field", "real", "--n", "2", "--delta-inv", "64", "--tuple", "1,2"],
     "syzygy_real_n2_d64.json"),
    # the largest |S| (48) of the n = 3, delta = 1/8 bases
    (["syzygy", "--field", "real", "--n", "3", "--delta-inv", "8", "--tuple", "2,3,5"],
     "syzygy_real_n3_d8.json"),
]


@pytest.mark.parametrize("args,name", BASELINES, ids=[n for _, n in BASELINES])
def test_regression_baselines(args, name):
    assert run(*args) == (BASELINE_DIR / name).read_text()


def _config_lines(flags, sep):
    """The key = value lines standing for flags; sep joins the words of a key."""
    lines, i = [], 0
    while i < len(flags):
        key = flags[i][2:].replace("-", sep)
        if i + 1 < len(flags) and not flags[i + 1].startswith("--"):
            lines.append(f"{key} = {flags[i + 1]}")
            i += 2
        else:  # a switch
            lines.append(f"{key} = true")
            i += 1
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("args,name", BASELINES, ids=[n for _, n in BASELINES])
def test_config_file_matches_flags(tmp_path, args, name):
    expected = (BASELINE_DIR / name).read_text()
    command, flags = args[0], args[1:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_lines(flags, "-"))
    assert run("--config", str(cfg), command) == expected
    cfg.write_text(_config_lines(flags, "_"))
    assert run(f"--config={cfg}", command) == expected
