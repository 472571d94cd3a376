"""The work limits of the enumeration engines, and their guards.  Every
guard reads the two limits when it runs, so one assignment, such as
`momentsq.budget.ENUMERATION_BUDGET = 10 ** 9`, moves a limit for every engine."""


class BudgetExceededError(RuntimeError):
    """Raised instead of silently running an enumeration forever."""


ENUMERATION_BUDGET = 10 ** 8   # sorted tuples, point tuples, tuple pairs or array entries at once
MEMORY_BUDGET = 2 * 2 ** 30  # bytes, checked where a build's bytes per row are measured


def check_budget(work: int, what: str):
    """Refuse `work` steps over ENUMERATION_BUDGET."""
    if work > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"{what} needs {work} enumeration steps, over the budget of {ENUMERATION_BUDGET}"
        )


def check_bytes(nbytes: int, what: str):
    if nbytes > MEMORY_BUDGET:
        raise BudgetExceededError(
            f"{what} needs about {nbytes} bytes, over the memory budget of {MEMORY_BUDGET} bytes"
        )


def check_key_bound(key_bound: int):
    """Refuse packed int64 keys that could reach key_bound >= 2^62."""
    if key_bound >= 2 ** 62:
        raise BudgetExceededError("packed keys would overflow 64-bit integers")
