"""The catalogue identities proved on the free associative algebra.

On ``free_algebra.FreeAlgebraCarrier`` every input is a fresh generator
or scalar symbol, so one passing trial proves a check's identity in
every associative algebra, hence in M_m(F) for every m and every field
here; ``theorem-iso`` and ``corollary-retract`` need a matrix class and
are left out.  Three planted faults, one carrier subclass each, must
fail exactly the checks listed for them.
"""
from fractions import Fraction

import pytest

from affgebra.affine import COMMUTATOR, Zeta
from affgebra.checks import applicable_checks, run_check
from free_algebra import ZETA_SYMBOL, FreeAlgebraCarrier, combine

KINDS = [COMMUTATOR, Zeta(ZETA_SYMBOL), Zeta(0), Zeta(1), Zeta(2), Zeta(-1), Zeta(Fraction(-1, 2))]
MATRIX_ONLY = {"theorem-iso", "corollary-retract"}


def checks_for(kind):
    return [name for name in applicable_checks(kind) if name not in MATRIX_ONLY]


def failing(carrier_type, kind):
    return {name for name in checks_for(kind) if not run_check(name, carrier_type(), kind, seed=0, trials=1).passed}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
def test_every_catalogue_identity_holds_in_the_free_algebra(kind):
    assert len(checks_for(kind)) == (22 if kind == COMMUTATOR else 21)
    assert failing(FreeAlgebraCarrier, kind) == set()


class CubicBracket(FreeAlgebraCarrier):
    # the bracket plus (a - b)³
    def bracket(self, kind, a, b):
        d = self.heap(a, b, {})
        return combine((1, super().bracket(kind, a, b)), (1, self.product(self.product(d, d), d)))


class SwappedHeap5(FreeAlgebraCarrier):
    def heap5(self, a, b, c, d, e):
        return super().heap5(a, b, c, e, d)


class MirroredRetractBracket(FreeAlgebraCarrier):
    # [o,a] in place of [a,o]
    def lie_retract_bracket(self, kind, o, a, b):
        br = self.bracket
        return self.heap5(br(kind, a, b), br(kind, o, a), br(kind, o, o), br(kind, o, b), o)


BRACKET_CHECKS = {"bracket-left-affine", "bracket-right-affine", "jacobi", "retract-lie"}


@pytest.mark.parametrize("carrier_type, kind, fails", [
    (CubicBracket, COMMUTATOR, BRACKET_CHECKS | {"bullet-commutator"}),
    (CubicBracket, Zeta(ZETA_SYMBOL), BRACKET_CHECKS | {"zeta-retract-trivial"}),
    (SwappedHeap5, COMMUTATOR, {"retract-lie", "bullet-assoc", "bullet-commutator", "translate-lie-iso"}),
    (SwappedHeap5, Zeta(ZETA_SYMBOL), {"retract-lie", "zeta-retract-trivial"}),
    (MirroredRetractBracket, COMMUTATOR, {"retract-lie", "bullet-commutator", "translate-lie-iso"}),
    (MirroredRetractBracket, Zeta(ZETA_SYMBOL), {"retract-lie", "zeta-retract-trivial"}),
], ids=lambda x: x.__name__ if isinstance(x, type) else x.label().split("(")[0] if hasattr(x, "label") else "fails")
def test_planted_faults_fail_their_checks(carrier_type, kind, fails):
    assert failing(carrier_type, kind) == fails
