"""Exception types shared across the toolkit."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatch(AlgebraError):
    """Operands live in different rings."""


class NotHomogeneous(AlgebraError):
    """An element or map fails to be graded."""


class PositivityViolation(AlgebraError):
    """The grading functional is not strictly positive on a ring variable."""


class BadBigrading(AlgebraError):
    """Variable bidegrees do not have the required shape."""


class BadBase(AlgebraError):
    """The parameter relations are not a base the engine handles: a single
    relation with a repeated factor, or declared components that do not
    cut out the relations."""


class InvalidFiber(AlgebraError):
    """A fiber point does not lie on the parameter variety, or is otherwise unusable."""


class NotOnVariety(InvalidFiber):
    """Closed-point coordinates fail the base relations."""


class BaseNotDomain(AlgebraError):
    """An operation needs an integral parameter ring."""


class NotStandardGraded(AlgebraError):
    """Sheaf-level output needs all variable degrees equal to 1."""


class DualityMismatch(AlgebraError):
    """The two local cohomology routes disagree; this always indicates an engine bug."""


class MultiplicityMismatch(AlgebraError):
    """Multiplicities of a rational map break an identity they satisfy
    (e_sat = degY degG, or j = d^r on forms primary to the irrelevant
    ideal); this always indicates an engine bug."""


class NotGenericallyFinite(AlgebraError):
    """The rational map has positive dimensional general fibers."""


class UnstableLimit(AlgebraError):
    """A finite-difference limit did not stabilize within the requested cutoff."""


class ScriptError(AlgebraError):
    """Session script parse or evaluation failure, with position info."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class ParseError(ScriptError):
    """The session script is not well formed."""


class UndeclaredName(ScriptError):
    """A command refers to a name with no prior declaration."""
