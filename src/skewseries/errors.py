"""Exception hierarchy.

Three branches matter to callers: mathematical precondition failures,
precision exhaustion, and schema/context problems.  The command line
driver maps them to exit codes 1, 2 and 3 respectively.
"""


class SkewSeriesError(Exception):
    """Base class for all library errors."""


class MathematicalError(SkewSeriesError):
    """A precondition of an algebraic operation is violated (exit code 1)."""


class NotAUnit(MathematicalError):
    """Inversion of an element whose constant part is not invertible."""


class NotDivisible(MathematicalError):
    """Division requires a divisor of finite reduced order."""


class NotPreparable(MathematicalError):
    """Preparation requires a series of finite reduced order."""


class InvalidAction(MathematicalError):
    """The twist exponent does not define a valid action (eps != 1 mod p)."""


class DegenerateAction(MathematicalError):
    """The twist acts trivially at this precision, so descent cannot proceed."""


class SubstitutionDiverges(MathematicalError):
    """Composition with a series whose constant term is a unit."""


class PrecisionError(SkewSeriesError):
    """The working precision K cannot support the request (exit code 2)."""


class InternalPrecisionLoss(PrecisionError):
    """An intermediate quantity failed a required visibility assertion."""


class VanishedAtPrecision(PrecisionError):
    """A quantity became indistinguishable from zero at this precision."""


class PrecisionInsufficient(PrecisionError):
    """A reported rank would not be trustworthy at this precision."""


class SystemSingularAtPrecision(PrecisionError):
    """A linear system could not be solved at the working precision."""


class SchemaError(SkewSeriesError):
    """Malformed or non-canonical serialized input (exit code 3)."""


class ContextMismatch(SkewSeriesError):
    """Operands live over different (p, K, mode) or different twist data."""
