"""Exception types shared across the package."""


class AffgebraError(Exception):
    """Base class for all errors raised by this package."""


class SizeMismatch(AffgebraError, ValueError):
    """Operands have incompatible matrix sizes."""


class FieldMismatch(AffgebraError, ValueError):
    """Operands belong to different scalar fields."""


class DivisionByZero(AffgebraError, ZeroDivisionError):
    """Division by the zero element of a field."""


class NonInvertibleSurd(AffgebraError, ArithmeticError):
    """Division by a surd with more than one term; only single-term
    surd divisors are supported."""


class NonInvertibleScalar(AffgebraError, ArithmeticError):
    """An integer scalar a construction must divide by is zero in the
    field (characteristic obstruction)."""


class SingularMatrix(AffgebraError, ArithmeticError):
    """Matrix inversion hit a zero pivot column."""


class Infeasible(AffgebraError, ValueError):
    """A linear constraint system has no solution."""


class ClassViolation(AffgebraError, ValueError):
    """A matrix fails the defining equations of the requested class."""


class NotIdempotent(AffgebraError, ValueError):
    """A bracket expected to satisfy [a, a] = a failed the witness check."""


class MalformedWire(AffgebraError, ValueError):
    """A wire document or scalar has the wrong JSON type or shape."""


class UnknownCheck(AffgebraError, KeyError):
    """Check identifier not present in the catalogue."""
