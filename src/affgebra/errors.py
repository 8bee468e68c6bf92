"""Exception types shared across the package."""


class AffgebraError(Exception):
    """Base class for all errors raised by this package."""


class SizeMismatch(AffgebraError, ValueError):
    """Operands have incompatible matrix sizes."""


class FieldMismatch(AffgebraError, ValueError):
    """Operands belong to different scalar fields."""


class DivisionByZero(AffgebraError, ZeroDivisionError):
    """Division by the zero element of a field."""


class NonInvertibleScalar(AffgebraError, ArithmeticError):
    """An integer scalar a construction must divide by is zero in the
    field (characteristic obstruction)."""


class SingularMatrix(AffgebraError, ArithmeticError):
    """Matrix inversion hit a zero pivot column."""


class Infeasible(AffgebraError, ValueError):
    """A linear constraint system has no solution."""


class ClassViolation(AffgebraError, ValueError):
    """A matrix fails the defining equations of the requested class."""


class MalformedWire(AffgebraError, ValueError):
    """A wire document or scalar has the wrong JSON type or shape."""


class DigitLimit(AffgebraError, ValueError):
    """A matrix entry holds an integer longer than the interpreter's
    limit on writing an integer as a decimal string."""


def wire_field(doc: dict, name: str, kind: type | None, what: str):
    """``doc[name]`` of the JSON type ``kind`` (``str``, ``int`` or
    ``bool``; a bool is not an int; any type for None); MalformedWire
    naming the field of the ``what`` document otherwise."""
    if name not in doc:
        raise MalformedWire(f"{what} lacks field {name!r}")
    value = doc[name]
    if kind is not None and type(value) is not kind:
        raise MalformedWire(f"{what} field {name!r} must be {kind.__name__}, got {type(value).__name__} {value!r}")
    return value


class UnknownCheck(AffgebraError, KeyError):
    """Check identifier not present in the catalogue."""
