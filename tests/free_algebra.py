"""The free associative algebra as a check carrier.

A point is a noncommutative polynomial in generators x_0, x_1, ... whose
coefficients are commutative polynomials in scalar symbols t_0, t_1,
...: a dict from (word, monomial) to a nonzero int or ``Fraction``, a
word being the tuple of its generators and a monomial the sorted tuple
of its symbols.  A scalar is a ``Scalar``, a dict from monomial to
coefficient with the arithmetic the checks apply to scalars.  Every
sampled point is a fresh generator and every sampled scalar a fresh
symbol, so one passing trial of a catalogue check proves its identity
in every associative algebra with commuting scalars: in M_m(F) for
every m and every field F here.

Only the identity is proved, not the matrix kernels that compute it.
The converse fails: the standard polynomial s_2n vanishes on M_n
(Amitsur and Levitzki, Proc. AMS 1(4), 1950), so a failure here is a
finding to look into, not a matrix counterexample.
"""
from itertools import count

from affgebra.affine import AffineCommutator, Carrier, Zeta


def _collect(pairs) -> dict:
    # the sum of the terms (key, coefficient), zero sums dropped
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _times(m, n) -> tuple:
    return tuple(sorted(m + n))


class Scalar:
    """A commutative polynomial {monomial: coefficient}; a number stands
    for the constant polynomial."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @classmethod
    def of(cls, x) -> "Scalar":
        return x if isinstance(x, Scalar) else cls(_collect([((), x)]))

    def __add__(self, other):
        return Scalar(_collect([*self.terms.items(), *Scalar.of(other).terms.items()]))

    def __neg__(self):
        return Scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Scalar.of(other)

    def __mul__(self, other):
        other = Scalar.of(other)
        return Scalar(_collect((_times(m, n), c * d) for m, c in self.terms.items() for n, d in other.terms.items()))

    def __eq__(self, other):
        return self.terms == Scalar.of(other).terms

    def __repr__(self):
        name = lambda s: "zeta" if s < 0 else f"t{s}"
        return " + ".join("*".join([str(c), *map(name, m)]) for m, c in self.terms.items()) or "0"


def combine(*terms) -> dict:
    """The point sum of alpha·x over the terms (alpha, x), each alpha a
    ``Scalar`` or a number."""
    return _collect(
        ((word, _times(m, n)), c * d)
        for alpha, x in terms
        for n, d in Scalar.of(alpha).terms.items()
        for (word, m), c in x.items()
    )


def product(a: dict, b: dict) -> dict:
    """The concatenation product, the scalar coefficients multiplied."""
    return _collect(((u + v, _times(m, n)), c * d) for (u, m), c in a.items() for (v, n), d in b.items())


# the symbol of a symbolic zeta; sampled symbols count up from 0
ZETA_SYMBOL = Scalar({(-1,): 1})


class FreeAlgebraCarrier(Carrier):
    """Fresh generators and symbols under the heap a - b + c, the action
    alpha·(b - base) + base, the two brackets and the product."""

    def __init__(self):
        self._points, self._scalars = count(), count()

    def describe(self):
        return "free-algebra"

    def sample_point(self, rng):
        return {((next(self._points),), ()): 1}

    def sample_scalar(self, rng):
        return Scalar({(next(self._scalars),): 1})

    def heap(self, a, b, c):
        return combine((1, a), (-1, b), (1, c))

    def action(self, alpha, base, b):
        alpha = Scalar.of(alpha)
        return combine((alpha, b), (-alpha, base), (1, base))

    def bracket(self, kind, a, b):
        if isinstance(kind, Zeta):
            return self.action(kind.zeta, a, b)
        if isinstance(kind, AffineCommutator):
            return combine((1, self.product(a, b)), (-1, self.product(b, a)), (1, b))
        raise TypeError(f"not a bracket kind: {kind!r}")

    def product(self, a, b):
        return product(a, b)

    def contains(self, x):
        return True
