"""The package root is lazy and each CLI command imports only its engine."""
import importlib
import json
import subprocess
import sys

import pytest

import momentsq

# every name the package root exports, by the module that defines it
EXPORTS = {
    "budget": ["BudgetExceededError"],
    "curves": ["Curve"],
    "local_field": ["COMPLEX", "REAL", "Cell", "CellTuple", "FieldKind", "FieldSpec",
                    "PAdicApprox", "Scale", "abs_value", "cell_representatives", "cell_tuple",
                    "character", "padic", "padic_scale", "partition", "real_scale"],
    "symmetric": ["GNDefect", "MonicPolynomial", "SymmetricData", "elementary_from_power",
                  "gn_defect", "gn_division_loss", "power_sums", "vieta_polynomial"],
    "syzygy": ["StrongDiagonalScan", "SyzygyMethod", "SyzygyReport", "is_syzygy_nonarch",
               "permutation_orbit", "permutation_predicate", "scan_strong_diagonal",
               "syzygy_bound", "syzygy_set_nonarch", "syzygy_set_oracle", "syzygy_set_real"],
    "vinogradov": ["AsymptoticRow", "CountMethod", "CountResult", "asymptotic_report",
                   "count_solutions", "diagonal_count", "permutation_count"],
    "extension": ["AtomicComb", "LocallyConstant", "NormRatio", "TestFunction", "comb_ratio",
                  "extension_op", "qp_comb_ratio", "random_locally_constant",
                  "square_function", "weighted_norms"],
    "bounds": ["BoundReport", "bezout_constant", "bezout_syzygy_bound", "bounds_table",
               "diagonal_refinement_max", "factorial_variant_constant", "fewnomial_constant",
               "field_constant", "lipschitz_norm", "moment_wronskian", "nondegenerate",
               "refined_diagonal_bound", "theorem1_constant", "wronskian"],
}
ENGINES = ("bounds", "extension", "kernel", "syzygy", "verify", "vinogradov")


def test_root_exports_the_defining_objects():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(momentsq.__all__) == sorted(names + ["clear_caches", "extension", "syzygy"])
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"momentsq.{module}")
        for name in names:
            assert getattr(momentsq, name) is getattr(home, name), name
    assert momentsq.syzygy is sys.modules["momentsq.syzygy"]
    assert momentsq.extension is sys.modules["momentsq.extension"]
    assert set(momentsq.__all__) <= set(dir(momentsq))
    assert momentsq.__version__ == "0.1.0"


def test_root_refuses_unknown_names():
    with pytest.raises(AttributeError, match="nope"):
        momentsq.nope
    with pytest.raises(ImportError):
        from momentsq import nope  # noqa: F401


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli_run(*args: str) -> str:
    return ("import contextlib, io\nfrom momentsq import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(args)!r}) == 0\n")


def test_root_import_loads_no_engine():
    loaded = _loaded_after("import momentsq")
    assert {m for m in loaded if m.startswith("momentsq.")} == set()
    assert "numpy" not in loaded


def test_cli_import_loads_no_engine():
    loaded = _loaded_after("import momentsq.cli")
    assert "numpy" not in loaded
    assert not {f"momentsq.{m}" for m in ENGINES} & loaded


BOUNDS = {"bounds", "budget", "curves", "local_field", "polys"}
VINO = {"budget", "curves", "kernel", "polys", "vinogradov"}
SYZYGY = BOUNDS | {"kernel", "syzygy"}
NORMS = SYZYGY | {"extension", "vinogradov"}
# each command, the momentsq modules it loads, and whether it loads numpy
COMMAND_MODULES = [
    (["vino", "--n", "3", "--N", "30"], VINO, True),
    (["vino", "--n", "2", "--N-list", "5,10"], VINO, True),
    (["bounds", "--table", "theorem1", "--n-max", "2"], BOUNDS, False),
    (["bounds", "--table", "wronskian", "--n-max", "3"], BOUNDS, False),
    (["syzygy", "--p", "5", "--n", "2", "--tuple", "0,1"], SYZYGY, True),
    (["syzygy", "--field", "real", "--n", "2", "--delta-inv", "4", "--tuple", "1,2"],
     SYZYGY, True),
    (["ratio", "--n", "2", "--N", "10"], NORMS, True),
    (["verify", "--suite", "bounds"], BOUNDS | {"verify"}, False),
    (["verify", "--suite", "theorem1", "--trials", "1"], SYZYGY | {"extension", "verify"}, True),
]


@pytest.mark.parametrize("args,modules,numpy", COMMAND_MODULES,
                         ids=[" ".join(args) for args, _, _ in COMMAND_MODULES])
def test_command_loads_only_its_engine(args, modules, numpy):
    # vino loads neither the Q_p engine nor the norms, bounds and the verify
    # suite of the same name run without numpy, and the theorem1 suite loads
    # neither the symmetric functions nor the Vinogradov count
    loaded = _loaded_after(_cli_run(*args))
    assert {m for m in loaded if m.startswith("momentsq.")} == {
        f"momentsq.{m}" for m in modules | {"cli"}}
    assert ("numpy" in loaded) is numpy
