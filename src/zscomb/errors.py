"""Exception types shared across the package, and the enumeration budget."""

import os

from .groups import _decimal, _integer

DEFAULT_LIMIT = 10_000_000


class ExactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder.

    Every counting formula in this package divides an integer divisor sum by a
    group order (or by a+b for rational Catalan numbers), and the result is a
    cardinality, so the division can only fail if the implementation is wrong.
    """


class EnumerationLimitError(RuntimeError):
    """A brute-force enumeration of `candidates` would exceed its budget `limit`."""

    def __init__(self, candidates: int, limit: int):
        super().__init__(candidates, limit)  # args rebuild it when unpickled
        self.candidates, self.limit = candidates, limit

    def __str__(self) -> str:
        count, limit = _decimal(self.candidates), _decimal(self.limit)
        return f"{count} candidates exceed the enumeration limit {limit}"


def default_limit() -> int:
    """Candidate budget; override with the ZSCOMB_LIMIT environment variable."""
    raw = os.environ.get("ZSCOMB_LIMIT")
    try:
        return _check_budget(0, int(raw) if raw else DEFAULT_LIMIT)
    except ValueError:
        raise ValueError(f"ZSCOMB_LIMIT must be an integer >= 0, got {raw!r}") from None


def _check_budget(candidates: int, limit: int | None) -> int:
    """Charge candidates to the budget limit (default_limit() if None); return it."""
    cap = default_limit() if limit is None else _integer(limit, "the budget")
    if cap < 0:
        raise ValueError(f"the budget must be >= 0, got {cap}")
    if candidates > cap:
        raise EnumerationLimitError(candidates, cap)
    return cap


class InvariantError(RuntimeError):
    """A post-condition the package guarantees did not hold.

    Raised on valid input only, so it always means the implementation is
    wrong.  `check` names the broken invariant and `context` holds the
    JSON-ready values that locate it (group order, mass, rotation, ...).
    """

    def __init__(self, check: str, **context):
        self.check = check
        self.context = context
        detail = ", ".join(f"{key}={value}" for key, value in context.items())
        super().__init__(f"{check} ({detail})" if detail else check)


def _check(ok: bool, check: str, **context) -> None:
    """Raise InvariantError unless ok; unlike assert, survives python -O."""
    if not ok:
        raise InvariantError(check, **context)
