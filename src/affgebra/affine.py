"""Vector-free affine-space operations on matrix carriers.

Everything here treats a square matrix as a point of an affine space and
never picks an origin: the primitive operations are the ternary heap
``<a,b,c> = a - b + c`` and the base-pointed scalar action
``alpha |>_a b = alpha*b - alpha*a + a``.  Brackets, retracts and the
associated products are combinations of those two.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedWire, NotIdempotent, wire_field
from .matrix import Matrix, combine, commutator_shift
from .scalars import Field, rational_value


def heap(a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """<a, b, c> = a - b + c."""
    a._guard(b)
    a._guard(c)
    return combine(((1, a), (-1, b), (1, c)))


def heap5(a: Matrix, b: Matrix, c: Matrix, d: Matrix, e: Matrix) -> Matrix:
    """<a, b, c, d, e> = a - b + c - d + e (heap associativity makes
    bracketing irrelevant)."""
    a._guard(b)
    a._guard(c)
    a._guard(d)
    a._guard(e)
    return combine(((1, a), (-1, b), (1, c), (-1, d), (1, e)))


def action(alpha, base: Matrix, b: Matrix) -> Matrix:
    """alpha |>_base b = alpha*b - alpha*base + base."""
    base._guard(b)
    field = base.field
    alpha = field.coerce(alpha)
    if field.characteristic:
        # alpha a residue: alpha*b + (1 - alpha)*base
        a = alpha.residue
        return combine(((a, b), (1 - a, base)))
    r = rational_value(alpha)
    if r is not None:
        # alpha = p/q: (p*b + (q - p)*base) / q
        p, q = int(r.numerator), int(r.denominator)
        return combine(((p, b), (q - p, base)), q)
    # a non-real or irrational alpha: (alpha·I)·(b - base) + base
    return Matrix.diagonal(field, [alpha] * base.size) @ (b - base) + base


@dataclass(frozen=True)
class Zeta:
    """Bracket [a, b] = zeta |>_a b for a fixed scalar zeta."""

    zeta: object

    def label(self) -> str:
        return f"zeta({self.zeta})"


@dataclass(frozen=True)
class AffineCommutator:
    """Bracket [a, b] = ab - ba + b."""

    def label(self) -> str:
        return "commutator"


BracketKind = Zeta | AffineCommutator
COMMUTATOR = AffineCommutator()


def bracket(kind, a: Matrix, b: Matrix) -> Matrix:
    """Evaluate a bracket.  ``kind`` is Zeta, AffineCommutator, or any
    callable (a, b) -> point for experimenting with custom brackets."""
    if isinstance(kind, Zeta):
        return action(kind.zeta, a, b)
    if isinstance(kind, AffineCommutator):
        return commutator_shift(a, b)
    if callable(kind):
        return kind(a, b)
    raise TypeError(f"not a bracket kind: {kind!r}")


def retract_add(o: Matrix, a: Matrix, b: Matrix) -> Matrix:
    """Group addition of the retract at o: a + b = <a, o, b>."""
    return heap(a, o, b)


def retract_neg(o: Matrix, a: Matrix) -> Matrix:
    """Group inverse of the retract at o: -a = <o, a, o>."""
    return heap(o, a, o)


def retract_sub(o: Matrix, a: Matrix, b: Matrix) -> Matrix:
    """a - b in the retract at o, i.e. <a, b, o>."""
    return heap(a, b, o)


def retract_scale(o: Matrix, alpha, a: Matrix) -> Matrix:
    """Scalar multiple in the vector space at o: alpha . a = alpha |>_o a."""
    return action(alpha, o, a)


def translate(o: Matrix, obar: Matrix, a: Matrix) -> Matrix:
    """The translation a -> <a, o, obar>, an isomorphism between the
    retracts at o and at obar."""
    return heap(a, o, obar)


def lie_retract_bracket(kind: BracketKind, o: Matrix, a: Matrix, b: Matrix) -> Matrix:
    """[a, b]_o = <[a,b], [a,o], [o,o], [o,b], o>.

    This is the bilinear Lie bracket of the retract at o written with
    ambient matrix operations (the final o is the retract's zero).
    """
    return heap5(
        bracket(kind, a, b),
        bracket(kind, a, o),
        bracket(kind, o, o),
        bracket(kind, o, b),
        o,
    )


def assoc_retract_product(o: Matrix, a: Matrix, b: Matrix) -> Matrix:
    """The associative product on the retract at o induced by the matrix
    product: a . b = ab - ao + oo - ob computed in the retract group,
    i.e. ab - ao + o^2 - ob + o in ambient arithmetic.

    Equivalently o + (a - o)(b - o); o is its absorbing zero.
    """
    return a @ b - a @ o + o @ o - o @ b + o


def vector_bracket(kind: BracketKind, a: Matrix, b: Matrix) -> Matrix:
    """[a, b]_v = [a, b] - b, a vector-valued bracket.

    Only well defined when the bracket is idempotent; the inputs serve
    as witnesses and NotIdempotent is raised if either fails [x, x] = x.
    """
    for witness in (a, b):
        if bracket(kind, witness, witness) != witness:
            label = kind.label() if hasattr(kind, "label") else repr(kind)
            raise NotIdempotent(f"bracket {label} is not idempotent on a witness")
    return bracket(kind, a, b) - b


# -- bracket kind wire form --------------------------------------------


def kind_to_wire(kind: BracketKind, field: Field) -> dict:
    if isinstance(kind, Zeta):
        return {"kind": "zeta", "zeta": field.format(field.coerce(kind.zeta))}
    return {"kind": "commutator"}


def kind_from_wire(doc: dict, field: Field) -> BracketKind:
    if not isinstance(doc, dict):
        raise MalformedWire(f"a bracket must be a JSON object, got {type(doc).__name__}")
    kind = wire_field(doc, "kind", str, "bracket")
    if kind == "commutator":
        return COMMUTATOR
    if kind == "zeta":
        return Zeta(field.parse(wire_field(doc, "zeta", str, "bracket")))
    raise ValueError(f"unknown bracket kind {kind!r}")
