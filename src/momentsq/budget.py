"""Budget guards shared by the enumeration engines."""
import math


class BudgetExceededError(RuntimeError):
    """Raised instead of silently running an enumeration forever."""


DEFAULT_ENUMERATION_BUDGET = 10 ** 8   # sorted tuples, point tuples or array entries at once
DEFAULT_COUNT_BUDGET = 3 * 10 ** 7    # sorted n-tuples over [1,N] the join's check covers;
# it folds only those with t_1 = 1, so its memory is checked in bytes, not by this count
MEMORY_BUDGET = 2 * 2 ** 30  # bytes, checked where a build's bytes per row are measured


def check_budget(work: int, budget: int, what: str):
    if work > budget:
        raise BudgetExceededError(
            f"{what} needs {work} enumeration steps, over the budget of {budget}"
        )


def check_bytes(nbytes: int, what: str):
    if nbytes > MEMORY_BUDGET:
        raise BudgetExceededError(
            f"{what} needs about {nbytes} bytes, over the memory budget of {MEMORY_BUDGET} bytes"
        )


def check_sorted_tuples(m: int, n: int, key_bound: int, budget: int, values: str):
    """Guard the C(m+n-1, n) sorted n-tuples over the m `values`, whose
    packed int64 keys stay below key_bound, before anything is allocated."""
    check_budget(math.comb(m + n - 1, n), budget,
                 f"enumeration of the sorted {n}-tuples over {values}")
    if key_bound >= 2 ** 62:
        raise BudgetExceededError("packed keys would overflow 64-bit integers")
