from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affgebra.affine import (
    COMMUTATOR,
    Zeta,
    action,
    assoc_retract_product,
    bracket,
    heap,
    heap5,
    kind_from_wire,
    kind_to_wire,
    lie_retract_bracket,
    retract_add,
    retract_neg,
    retract_scale,
    retract_sub,
    translate,
)
from affgebra.matrix import Matrix
from affgebra.scalars import GF, QI, QQ
from test_matrix import FIELDS, entries

CYCLE = Matrix(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
SWAP = Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def mats3():
    return st.lists(
        st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3
    ).map(lambda rows: Matrix(QQ, rows))


class TestHeap:
    def test_malcev(self):
        a, b = CYCLE, SWAP
        assert heap(a, b, b) == a
        assert heap(b, b, a) == a

    def test_commutative(self):
        c = Matrix.identity(QQ, 3)
        assert heap(CYCLE, SWAP, c) == heap(c, SWAP, CYCLE)

    def test_malcev_on_normalised_matrices(self):
        third = Matrix.ones(QQ, 3).scale(Fraction(1, 3))
        assert heap(Matrix.identity(QQ, 3), third, third) == Matrix.identity(QQ, 3)

    @given(mats3(), mats3(), mats3(), mats3(), mats3())
    @settings(max_examples=25)
    def test_heap5_equals_iterated(self, a, b, c, d, e):
        assert heap5(a, b, c, d, e) == heap(heap(a, b, c), d, e)


class TestAction:
    def test_unit_and_zero(self):
        assert action(1, CYCLE, SWAP) == SWAP
        assert action(0, CYCLE, SWAP) == CYCLE

    def test_at_zero_base_is_scaling(self):
        z = Matrix(QQ, [[0] * 3] * 3)
        assert action(2, z, SWAP) == SWAP.scale(2)

    def test_over_prime_field(self):
        a = Matrix(GF(5), [[1, 0], [0, 1]])
        b = Matrix(GF(5), [[2, 4], [1, 3]])
        assert action(GF(5).coerce(3), a, b) == b.scale(3) - a.scale(3) + a


class TestBracket:
    def test_commuting_arguments(self):
        a = Matrix.diagonal(QQ, [1, 2, 3])
        b = Matrix.diagonal(QQ, [4, 5, 6])
        assert bracket(COMMUTATOR, a, b) == b

    def test_cycle_swap(self):
        expected = Matrix(QQ, [[1, 1, -1], [1, -1, 1], [-1, 1, 1]])
        assert bracket(COMMUTATOR, CYCLE, SWAP) == expected

    def test_zeta_idempotent(self):
        z = Zeta(Fraction(7, 2))
        assert bracket(z, CYCLE, CYCLE) == CYCLE

    def test_unknown_kind_is_a_type_error(self):
        for kind in (lambda a, b: a, "commutator"):
            with pytest.raises(TypeError, match="^not a bracket kind: "):
                bracket(kind, CYCLE, SWAP)


class TestRetractOps:
    def test_origin_neutral(self):
        o = Matrix.ones(QQ, 3).scale(Fraction(1, 3))
        assert retract_add(o, CYCLE, o) == CYCLE
        assert retract_add(o, CYCLE, retract_neg(o, CYCLE)) == o
        assert retract_sub(o, CYCLE, CYCLE) == o

    def test_retract_at_zero_is_matrix_arithmetic(self):
        z = Matrix(QQ, [[0] * 3] * 3)
        assert retract_add(z, CYCLE, SWAP) == CYCLE + SWAP
        assert retract_scale(z, Fraction(5, 2), CYCLE) == CYCLE.scale(Fraction(5, 2))

    def test_retract_scale_unit_zero(self):
        o = SWAP
        assert retract_scale(o, 1, CYCLE) == CYCLE
        assert retract_scale(o, 0, CYCLE) == o

    def test_translate(self):
        o, obar = SWAP, Matrix.identity(QQ, 3)
        assert translate(o, o, CYCLE) == CYCLE
        assert translate(o, obar, o) == obar
        z = Matrix(QQ, [[0] * 3] * 3)
        j = Matrix.ones(QQ, 3)
        assert translate(z, j, CYCLE) == CYCLE + j


class TestLieRetract:
    @given(mats3(), mats3(), mats3())
    @settings(max_examples=30)
    def test_matches_retract_group_combination(self, o, a, b):
        # oracle: evaluate [a,b] - [a,o] + [o,o] - [o,b] with the retract
        # group operations themselves
        br = lambda x, y: bracket(COMMUTATOR, x, y)
        t = retract_sub(o, br(a, b), br(a, o))
        t = retract_add(o, t, br(o, o))
        expected = retract_sub(o, t, br(o, b))
        assert lie_retract_bracket(COMMUTATOR, o, a, b) == expected

    @given(mats3(), mats3(), mats3())
    @settings(max_examples=30)
    def test_explicit_expansion(self, o, a, b):
        expected = a @ b - b @ a - a @ o + o @ a - o @ b + b @ o + o
        assert lie_retract_bracket(COMMUTATOR, o, a, b) == expected

    @given(mats3(), mats3(), mats3())
    @settings(max_examples=30)
    def test_zeta_retract_is_trivial(self, o, a, b):
        assert lie_retract_bracket(Zeta(Fraction(3)), o, a, b) == o

    @given(mats3(), mats3())
    @settings(max_examples=20)
    def test_alternating(self, o, a):
        assert lie_retract_bracket(COMMUTATOR, o, a, a) == o


class TestAssociativeProduct:
    def test_zero_origin_is_matrix_product(self):
        z = Matrix(QQ, [[0] * 3] * 3)
        assert assoc_retract_product(z, CYCLE, SWAP) == CYCLE @ SWAP

    @given(mats3(), mats3())
    @settings(max_examples=30)
    def test_origin_absorbs(self, o, a):
        # a.o and o.a both collapse to the retract zero o
        assert assoc_retract_product(o, a, o) == o
        assert assoc_retract_product(o, o, a) == o

    @given(field=st.sampled_from(FIELDS), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shifted_product_form(self, field, data):
        # <ab, ao, oo, ob, o> on every field, the surd fields included
        n = data.draw(st.integers(1, 3))
        o, a, b = (Matrix(field, [[data.draw(entries(field)) for _ in range(n)] for _ in range(n)]) for _ in "oab")
        assert assoc_retract_product(o, a, b) == o + (a - o) @ (b - o)

    @given(mats3(), mats3(), mats3())
    @settings(max_examples=30)
    def test_associative(self, o, a, b):
        c = CYCLE
        p = lambda x, y: assoc_retract_product(o, x, y)
        assert p(p(a, b), c) == p(a, p(b, c))

    @given(mats3(), mats3(), mats3())
    @settings(max_examples=30)
    def test_commutator_of_product_is_retract_bracket(self, o, a, b):
        lhs = lie_retract_bracket(COMMUTATOR, o, a, b)
        rhs = retract_sub(o, assoc_retract_product(o, a, b), assoc_retract_product(o, b, a))
        assert lhs == rhs


class TestVectorBracket:
    """[a, b]_v = [a, b] - b, the vector-valued bracket of an idempotent
    bracket ([x, x] = x)."""

    def test_alternating_gives_zero_matrix(self):
        assert bracket(COMMUTATOR, CYCLE, CYCLE) - CYCLE == Matrix(QQ, [[0] * 3] * 3)

    def test_commuting_gives_zero_matrix(self):
        a, b = Matrix.diagonal(QQ, [1, 2, 3]), Matrix.diagonal(QQ, [4, 5, 6])
        assert bracket(COMMUTATOR, a, b) - b == Matrix(QQ, [[0] * 3] * 3)

    def test_cycle_swap_value(self):
        expected = Matrix(QQ, [[1, 0, -1], [0, -1, 1], [-1, 1, 0]])
        assert bracket(COMMUTATOR, CYCLE, SWAP) - SWAP == expected

    def test_zeta_is_idempotent_so_defined(self):
        assert bracket(Zeta(Fraction(2)), CYCLE, CYCLE) == CYCLE


class TestKindWire:
    def test_roundtrip(self):
        assert kind_from_wire(kind_to_wire(COMMUTATOR, QQ.format), QQ.parse) == COMMUTATOR
        z = Zeta(QI.parse("1/2+1i"))
        assert kind_to_wire(z, QI.format) == {"kind": "zeta", "zeta": "1/2+1i"}
        assert kind_from_wire(kind_to_wire(z, QI.format), QI.parse) == z
        with pytest.raises(ValueError):
            kind_from_wire({"kind": "poisson"}, QQ.parse)
