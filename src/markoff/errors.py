"""Exception types shared across the package."""


class MarkoffError(Exception):
    """Base class for all errors raised by this package."""


class ModulusMismatch(MarkoffError):
    """Operands belong to different prime fields."""


class IUnavailable(MarkoffError):
    """A square root of -1 was required but p = 3 (mod 4)."""


class ParseError(MarkoffError):
    """Malformed polynomial expression.  Carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class NotSolution(MarkoffError):
    """Triple does not satisfy the surface equation."""


class NotFundamental(MarkoffError):
    """Operation requires a fundamental triple."""


class AllConstant(MarkoffError):
    """A triple has height <= 0.  Descent raises it with its input and the
    constant triple it reaches, rendered only if printed; the census counts it."""

    def __str__(self):
        if len(self.args) != 2:
            return super().__str__()
        return "{} descends to the constant solution {}".format(*(t.render() for t in self.args))


class UnclassifiableInput(MarkoffError):
    """Fundamental triple does not match any known form (internal inconsistency)."""


class ConstantFormNeedsConstantA(MarkoffError):
    """The constant family of fundamental triples exists only for constant A."""


class NotOnUnitTree(MarkoffError):
    """Integer triple is not a vertex of the (1,0)-Euclid tree."""


class NotEuclidSum(MarkoffError):
    """Integer triple does not satisfy tau3 = tau1 + tau2."""


class NonConstantA(MarkoffError):
    """Cumulative signature bounds are only defined for constant A."""


class ConstantANotSupported(MarkoffError):
    """No closed-form finite-field count is implemented for constant A."""


class BudgetExceeded(MarkoffError):
    """Requested work exceeds its limit.

    Carries the `quantity` that ran over, the `requested` amount (a number,
    or text such as "more than 5^100001" where the number itself would be
    too large to build) and the `limit` it exceeds.
    """

    def __init__(self, quantity, requested, limit):
        super().__init__(f"{quantity} {requested} exceeds budget {limit}")
        self.quantity = quantity
        self.requested = requested
        self.limit = limit
