"""Exact enumeration and numerical experiments for square-function
estimates along the moment curve over R, C and Q_p."""

from .budget import BudgetExceededError
from .curves import Curve
from .local_field import (COMPLEX, REAL, Cell, CellTuple, FieldKind, FieldSpec,
                          PAdicApprox, Scale, abs_value, cell_representatives,
                          cell_tuple, character, padic, padic_scale, partition,
                          real_scale)
from .symmetric import (GNDefect, MonicPolynomial, SymmetricData,
                        elementary_from_power, gn_defect, gn_division_loss,
                        power_sums, vieta_polynomial)
from .syzygy import (StrongDiagonalScan, SyzygyMethod, SyzygyReport,
                     is_syzygy_nonarch, permutation_orbit, permutation_predicate,
                     scan_strong_diagonal, syzygy_bound, syzygy_set_nonarch,
                     syzygy_set_oracle, syzygy_set_real)
from .vinogradov import (AsymptoticRow, CountMethod, CountResult,
                         asymptotic_report, count_solutions, diagonal_count,
                         permutation_count)
from .extension import (AtomicComb, LocallyConstant, NormRatio, TestFunction,
                        comb_ratio, extension_op, qp_comb_ratio,
                        random_locally_constant, square_function, weighted_norms)
from .bounds import (BoundReport, bezout_constant, bezout_syzygy_bound,
                     bounds_table, diagonal_refinement_max,
                     factorial_variant_constant, fewnomial_constant,
                     field_constant, lipschitz_norm, moment_wronskian,
                     nondegenerate, refined_diagonal_bound, theorem1_constant,
                     wronskian)

from . import extension, syzygy

__version__ = "0.1.0"


def clear_caches():
    """Empty every cache: the Q_p pair relations and Parseval levels
    (`syzygy.clear_index_cache`) and the resident real norm grid, which
    holds 411 MB after an n = 2 call at resolution 16."""
    syzygy.clear_index_cache()
    extension._real_grids.cache_clear()
