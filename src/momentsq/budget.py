"""The work limits of the enumeration engines, and their guards.  Every
guard reads the three limits when it runs, so one assignment, such as
`momentsq.budget.ENUMERATION_BUDGET = 10 ** 9`, moves a limit for every engine."""
import math


class BudgetExceededError(RuntimeError):
    """Raised instead of silently running an enumeration forever."""


ENUMERATION_BUDGET = 10 ** 8   # sorted tuples, point tuples or array entries at once
COUNT_BUDGET = 3 * 10 ** 7    # sorted n-tuples over [1,N] the join's check covers;
# it folds only those with t_1 = 1, so its memory is checked in bytes, not by this count
MEMORY_BUDGET = 2 * 2 ** 30  # bytes, checked where a build's bytes per row are measured


def check_budget(work: int, what: str, *, count: bool = False):
    """Refuse `work` steps over ENUMERATION_BUDGET, or over COUNT_BUDGET for a count."""
    limit = COUNT_BUDGET if count else ENUMERATION_BUDGET
    if work > limit:
        raise BudgetExceededError(
            f"{what} needs {work} enumeration steps, over the budget of {limit}"
        )


def check_bytes(nbytes: int, what: str):
    if nbytes > MEMORY_BUDGET:
        raise BudgetExceededError(
            f"{what} needs about {nbytes} bytes, over the memory budget of {MEMORY_BUDGET} bytes"
        )


def check_sorted_tuples(m: int, n: int, key_bound: int, values: str, *, count: bool = False):
    """Guard the C(m+n-1, n) sorted n-tuples over the m `values`, whose
    packed int64 keys stay below key_bound, before anything is allocated."""
    check_budget(math.comb(m + n - 1, n), f"enumeration of the sorted {n}-tuples over {values}",
                 count=count)
    check_key_bound(key_bound)


def check_key_bound(key_bound: int):
    """Refuse packed int64 keys that could reach key_bound >= 2^62."""
    if key_bound >= 2 ** 62:
        raise BudgetExceededError("packed keys would overflow 64-bit integers")
