"""Exact enumeration and numerical experiments for square-function
estimates along the moment curve over R, C and Q_p.

The package root imports nothing up front: each name below, and each
submodule (`momentsq.syzygy`), is imported on first access (PEP 562), so
a process loads only the engines it uses.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "budget": ("BudgetExceededError",),
    "curves": ("Curve",),
    "local_field": ("COMPLEX", "REAL", "Cell", "CellTuple", "FieldKind", "FieldSpec",
                    "PAdicApprox", "Scale", "abs_value", "cell_representatives",
                    "cell_tuple", "character", "padic", "padic_scale", "partition",
                    "real_scale"),
    "symmetric": ("GNDefect", "MonicPolynomial", "elementary_from_power",
                  "gn_defect", "gn_division_loss", "power_sums", "vieta_polynomial"),
    "syzygy": ("StrongDiagonalScan", "SyzygyMethod", "SyzygyReport", "is_syzygy_nonarch",
               "permutation_orbit", "permutation_predicate", "scan_strong_diagonal",
               "syzygy_bound", "syzygy_set_nonarch", "syzygy_set_oracle", "syzygy_set_real"),
    "vinogradov": ("AsymptoticRow", "CountMethod", "CountResult", "asymptotic_report",
                   "count_solutions", "diagonal_count", "permutation_count"),
    "extension": ("AtomicComb", "LocallyConstant", "NormRatio", "TestFunction", "comb_ratio",
                  "extension_op", "qp_comb_ratio", "random_locally_constant",
                  "square_function", "weighted_norms"),
    "bounds": ("BoundReport", "bezout_constant", "bezout_syzygy_bound", "bounds_table",
               "diagonal_refinement_max", "factorial_variant_constant", "fewnomial_constant",
               "field_constant", "lipschitz_norm", "moment_wronskian", "nondegenerate",
               "refined_diagonal_bound", "theorem1_constant", "wronskian"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "kernel", "polys")  # the modules the root used to load

__all__ = [*_HOME, "extension", "syzygy", "clear_caches"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # binds the attribute
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


def clear_caches():
    """Empty every cache: the Q_p pair relations and Parseval levels
    (`syzygy.clear_index_cache`) and the resident real norm grid, which
    holds 411 MB after an n = 2 call at resolution 16."""
    from . import extension, syzygy
    syzygy.clear_index_cache()
    extension._real_grids.cache_clear()
