"""Error taxonomy shared by every module.

Validation errors carry the violated law and a witness that reproduces the
violation; resource errors carry the size that overflowed.  Every
refusal of work goes through _charge, the one place where a budget of
None means DEFAULT_BUDGET.  _charge keeps no record of what it admits:
the one thing kept across calls, a walk in fuzzy._MEMO (kept by
quantale and hom, and shared by a base's upper sets and its dual's
lower sets), keeps its own count and charges it again on every later
call.
"""

DEFAULT_BUDGET = 5_000_000


class QidealError(Exception):
    pass


class ValidationError(QidealError):
    def __init__(self, law, witness=None, detail=""):
        self.law = law
        self.witness = witness
        self.detail = detail
        msg = law
        if witness is not None:
            msg += f" [witness: {witness!r}]"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotALattice(ValidationError):
    pass


class NotAssociative(ValidationError):
    pass


class NotCommutative(ValidationError):
    pass


class NotIntegral(ValidationError):
    pass


class NotDistributive(ValidationError):
    pass


class ChainNotClosed(ValidationError):
    pass


class EmptyCarrier(ValidationError):
    def __init__(self, detail=""):
        super().__init__("carrier is empty", detail=detail)


class QuantaleMismatch(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class BaseMismatch(ValidationError):
    pass


class NotLower(ValidationError):
    pass


class NotUpper(ValidationError):
    pass


class NotForwardCauchy(ValidationError):
    pass


class DecompositionMismatch(ValidationError):
    pass


def _number_text(number):
    """number in decimal up to 30 digits, past that as "at least 2^k":
    Python makes no decimal string of more than 4,300 digits."""
    return str(number) if number < 10 ** 30 else f"at least 2^{number.bit_length() - 1}"


class BudgetExceeded(QidealError):
    """partial: the work was refused part-way, so count is a lower bound
    on what the whole of it needs."""

    def __init__(self, count, budget, what, partial=False):
        self.count = count
        self.budget = budget
        self.what = what
        self.partial = partial
        super().__init__(f"{_number_text(count)} {what} exceed the budget of "
                         f"{_number_text(budget)}"
                         + (" (a lower bound: the work stopped part-way)" if partial else ""))


def _charge(count, budget, what, partial=False):
    """Refuse work of count units, named by what, over the budget (None
    for DEFAULT_BUDGET), before the work starts; partial marks a running
    count of work that goes on past it."""
    if budget is None:
        budget = DEFAULT_BUDGET
    if count > budget:
        raise BudgetExceeded(count, budget, what, partial)


class GridTooCoarse(QidealError):
    def __init__(self, points, minimum=17):
        self.points = points
        self.minimum = minimum
        super().__init__(f"grid has {points} points; at least {minimum} required")


class UnknownSuite(QidealError):
    def __init__(self, name, known):
        self.name = name
        self.known = tuple(known)
        super().__init__(f"unknown suite {name!r}; known: {', '.join(self.known)}")
