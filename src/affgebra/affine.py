"""Vector-free affine-space operations, and the carriers they run on.

Everything here treats a square matrix as a point of an affine space and
never picks an origin: the primitive operations are the ternary heap
``<a,b,c> = a - b + c`` and the base-pointed scalar action
``alpha |>_a b = alpha*b - alpha*a + a``.  Brackets, retracts and the
associated products are combinations of those two.

``Carrier`` is the space a check runs on; each retract operation is
written once as its method, from the carrier's heap, action, bracket
and product.  The public retract functions are those methods on
``MatrixCarrier``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedWire, wire_field
from .matrix import Matrix, combine, commutator_shift
from .scalars import rational_value


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
    alpha = base.field.coerce(alpha)
    r = rational_value(alpha)
    if r is not None:
        # alpha = p/q: (p*b + (q - p)*base) / q; a residue r is r/1
        p, q = int(r.numerator), int(r.denominator)
        return combine(((p, b), (q - p, base)), q)
    # a non-real or irrational alpha: alpha·(b - base) + base
    return (b - base).scale(alpha) + base


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


def is_zeta(kind) -> bool:
    return isinstance(kind, Zeta)


def is_commutator(kind) -> bool:
    return isinstance(kind, AffineCommutator)


def bracket(kind: BracketKind, a: Matrix, b: Matrix) -> Matrix:
    """Evaluate a bracket (TypeError for anything but a Zeta or the
    AffineCommutator)."""
    if isinstance(kind, Zeta):
        return action(kind.zeta, a, b)
    if isinstance(kind, AffineCommutator):
        return commutator_shift(a, b)
    raise TypeError(f"not a bracket kind: {kind!r}")


# -- carriers and their retracts ------------------------------------------


class Carrier:
    """A space under test: what the checks need from it, and its retracts.

    A carrier defines six methods: ``sample_point(rng)``,
    ``sample_scalar(rng)``, ``heap(a, b, c)``, ``action(alpha, base, b)``,
    ``bracket(kind, a, b)`` and ``contains(x)``, its ``action`` taking
    the ints 0 and 1 as scalars; a check that reaches a missing one raises
    ``AttributeError``, which names it.  It may define ``product``.  Every
    retract operation is written once below from those, so a custom
    carrier gets all of them (the retract product needs ``product``); it
    may override ``heap5``.  It writes and reads its reports: the writers
    below have defaults (``scalar_to_wire`` also writes a zeta), and the
    readers ``point_from_wire(doc)`` and ``scalar_from_wire(doc)``, which
    ``checks.replay`` calls, have none.
    """

    def describe(self) -> str:
        return type(self).__name__

    def product(self, a, b):
        raise ValueError(f"{self.describe()} has no product, which the retract product needs")

    def heap5(self, a, b, c, d, e):
        """<a, b, c, d, e> = <<a, b, c>, d, e>."""
        return self.heap(self.heap(a, b, c), d, e)

    def retract_add(self, o, a, b):
        """Group addition of the retract at o: a + b = <a, o, b>."""
        return self.heap(a, o, b)

    def retract_neg(self, o, a):
        """Group inverse of the retract at o: -a = <o, a, o>."""
        return self.heap(o, a, o)

    def retract_sub(self, o, a, b):
        """a - b in the retract at o, i.e. <a, b, o>."""
        return self.heap(a, b, o)

    def retract_scale(self, o, alpha, a):
        """Scalar multiple in the vector space at o: alpha . a = alpha |>_o a."""
        return self.action(alpha, o, a)

    def translate(self, o, obar, a):
        """The translation a -> <a, o, obar>, an isomorphism between the
        retracts at o and at obar."""
        return self.heap(a, o, obar)

    def lie_retract_bracket(self, kind: BracketKind, o, a, b):
        """[a, b]_o = <[a,b], [a,o], [o,o], [o,b], o>, the bilinear Lie
        bracket of the retract at o (the final o is the retract's zero)."""
        br = self.bracket
        return self.heap5(br(kind, a, b), br(kind, a, o), br(kind, o, o), br(kind, o, b), o)

    def retract_product(self, o, a, b):
        """a . b = <ab, ao, oo, ob, o> = o + (a - o)(b - o), the associative
        product of the retract at o; o is its absorbing zero."""
        p = self.product
        return self.heap5(p(a, b), p(a, o), p(o, o), p(o, b), o)

    # wire writers; only needed for counterexample serialisation
    def point_to_wire(self, x):
        return repr(x)

    def scalar_to_wire(self, alpha):
        return repr(alpha)

    def class_wire(self) -> dict | None:
        return None


class MatrixCarrier(Carrier):
    """Square matrices under the module functions above.  A method body
    looks its function up in the module at each call, so rebinding
    ``affine.heap`` and the others reaches every retract operation."""

    def heap(self, a, b, c):
        return heap(a, b, c)

    def heap5(self, a, b, c, d, e):
        return heap5(a, b, c, d, e)

    def action(self, alpha, base, b):
        return action(alpha, base, b)

    def bracket(self, kind, a, b):
        return bracket(kind, a, b)

    def product(self, a, b):
        return a @ b


_MATRICES = MatrixCarrier()
retract_add = _MATRICES.retract_add
retract_neg = _MATRICES.retract_neg
retract_sub = _MATRICES.retract_sub
retract_scale = _MATRICES.retract_scale
translate = _MATRICES.translate
lie_retract_bracket = _MATRICES.lie_retract_bracket
assoc_retract_product = _MATRICES.retract_product


# -- bracket kind wire form --------------------------------------------


def kind_to_wire(kind: BracketKind, write) -> dict:
    """The wire form of a bracket kind, its zeta written by ``write``."""
    if isinstance(kind, Zeta):
        return {"kind": "zeta", "zeta": write(kind.zeta)}
    return {"kind": "commutator"}


def kind_from_wire(doc: dict, read) -> BracketKind:
    if not isinstance(doc, dict):
        raise MalformedWire(f"a bracket must be a JSON object, got {type(doc).__name__}")
    kind = wire_field(doc, "kind", str, "bracket")
    if kind == "commutator":
        return COMMUTATOR
    if kind == "zeta":
        return Zeta(read(wire_field(doc, "zeta", str, "bracket")))
    raise ValueError(f"unknown bracket kind {kind!r}")
