import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from affgebra.errors import FieldMismatch, SingularMatrix, SizeMismatch
from affgebra.matrix import (
    Matrix,
    commutator_shift,
    common_field,
    matrix_from_wire,
    matrix_to_wire,
)
from affgebra.scalars import GF, QI, QQ, SURD, SURD_C, GaussianRational, SurdComplex, SurdReal
from oracle import plain_dagger, plain_neg, plain_scale, plain_transpose, plain_widen

CYCLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
SWAP = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def rational_matrices(m):
    return st.lists(
        st.lists(rationals, min_size=m, max_size=m), min_size=m, max_size=m
    ).map(lambda rows: Matrix(QQ, rows))


def gf_matrices(p, m):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=m, max_size=m), min_size=m, max_size=m
    ).map(lambda rows: Matrix(GF(p), rows))


class TestArithmetic:
    def test_identity_neutral(self):
        a = Matrix(QQ, CYCLE)
        assert Matrix.identity(QQ, 3) @ a == a
        assert a @ Matrix.identity(QQ, 3) == a

    def test_cycle_swap_product(self):
        a, b = Matrix(QQ, CYCLE), Matrix(QQ, SWAP)
        assert a @ b == Matrix(QQ, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_size_and_field_guards(self):
        a = Matrix(QQ, CYCLE)
        with pytest.raises(SizeMismatch):
            a @ Matrix.identity(QQ, 2)
        with pytest.raises(FieldMismatch):
            a @ Matrix.identity(GF(5), 3)
        with pytest.raises(SizeMismatch):
            Matrix(QQ, [[1, 2], [3, 4], [5, 6]])

    def test_scale_and_neg(self):
        a = Matrix(QQ, CYCLE)
        assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a
        assert a + (-a) == Matrix(QQ, [[0] * 3] * 3)

    @given(rational_matrices(3), rational_matrices(3))
    def test_commutator_shift_matches_expansion(self, a, b):
        assert commutator_shift(a, b) == a @ b - b @ a + b

    def test_commutator_shift_gaussian(self):
        a = Matrix(QI, [["1+2i", "0"], ["1/2i", "3"]])
        b = Matrix(QI, [["0", "1-1i"], ["2", "1/3+1i"]])
        assert commutator_shift(a, b) == a @ b - b @ a + b

    def test_generic_matmul_over_surd(self):
        u = Matrix(SURD, [[SurdReal({2: Fraction(1, 2)}), 0], [0, 1]])
        assert u @ u == Matrix(SURD, [[Fraction(1, 2), 0], [0, 1]])


class TestDagger:
    def test_real_is_transpose(self):
        a = Matrix(QQ, CYCLE)
        assert a.dagger() == a.transpose()

    def test_one_by_one_imaginary(self):
        a = Matrix(QI, [["1i"]])
        assert a.dagger() == Matrix(QI, [["-1i"]])

    @given(rationals, rationals, rationals, rationals)
    def test_involution(self, a, b, c, d):
        m = Matrix(QI, [[GaussianRational(a, b), GaussianRational(c, d)], [1, 0]])
        assert m.dagger().dagger() == m

    def test_anti_automorphism(self):
        a = Matrix(QI, [["1+2i", "3"], ["0", "1/2-1i"]])
        b = Matrix(QI, [["2i", "1"], ["1-1i", "0"]])
        assert (a @ b).dagger() == b.dagger() @ a.dagger()


class TestTrace:
    def test_identity(self):
        for n in range(1, 6):
            assert Matrix.identity(QQ, n + 1).trace() == n + 1

    def test_hollow_matrix_traceless(self):
        # (1/n)(J - I) has a zero diagonal
        n = 3
        m = (Matrix.ones(QQ, n + 1) - Matrix.identity(QQ, n + 1)).scale(Fraction(1, n))
        assert m.trace() == 0

    def test_block_diagonal_form(self):
        n = 4
        m = Matrix.diagonal(QQ, [Fraction(-1, n)] * n + [1])
        assert m.trace() == 0


class TestInverse:
    def test_identity(self):
        assert Matrix.identity(QQ, 4).inverse() == Matrix.identity(QQ, 4)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            Matrix(QQ, [[1, 2], [2, 4]]).inverse()

    @given(rational_matrices(3))
    @settings(max_examples=40)
    def test_inverse_times_self_rational(self, a):
        try:
            inv = a.inverse()
        except SingularMatrix:
            assume(False)
        assert inv @ a == Matrix.identity(QQ, 3)
        assert a @ inv == Matrix.identity(QQ, 3)

    @given(gf_matrices(7, 3))
    @settings(max_examples=40)
    def test_inverse_times_self_gf(self, a):
        try:
            inv = a.inverse()
        except SingularMatrix:
            assume(False)
        assert inv @ a == Matrix.identity(GF(7), 3)

    @pytest.mark.parametrize("field", [QQ, GF(7), QI], ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_entrywise_gauss_jordan(self, field, data):
        m = data.draw(st.integers(1, 4))
        entry = sparse_rationals.map(field.coerce)
        if field is QI:
            entry = st.builds(GaussianRational, sparse_rationals, sparse_rationals)
        a = Matrix(field, data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m)))
        try:
            want = entrywise_inverse(a)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                a.inverse()
            return
        got = a.inverse()
        assert got == want and matrix_to_wire(got) == matrix_to_wire(want)
        assert got.rows == want.rows

    def test_surd_fields_are_refused(self):
        for field in (SURD, SURD_C):
            with pytest.raises(FieldMismatch):
                Matrix.identity(field, 2).inverse()


# mostly zero, so that singular matrices come up too
sparse_rationals = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=4))


def entrywise_inverse(a):
    """Gauss-Jordan on field scalars, first-nonzero pivoting (oracle)."""
    m, field = a.size, a.field
    aug = [list(row) + list(ident) for row, ident in zip(a.rows, Matrix.identity(field, m).rows)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.one() / aug[col][col]
        aug[col] = [inv * x for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return Matrix(field, [row[m:] for row in aug])


class TestWireFormat:
    def test_shape(self):
        doc = matrix_to_wire(Matrix(GF(7), [[1, 2], [3, 4]]))
        assert doc == {"field": "GF", "p": 7, "n": 2, "entries": [["1", "2"], ["3", "4"]]}

    def test_roundtrip_all_fields(self):
        samples = [
            Matrix(QQ, [[Fraction(1, 2), -3], [0, Fraction(7, 5)]]),
            Matrix(QI, [["1/2-3/4i", "2i"], ["0", "-1"]]),
            Matrix(GF(11), [[10, 3], [0, 1]]),
            Matrix(SURD, [["1/2*sqrt(2)", "0"], ["1-1/3*sqrt(6)", "5"]]),
            Matrix(SURD_C, [["(1/2*sqrt(2))+(0)i", "(0)+(1)i"], ["(3)+(0)i", "(0)+(0)i"]]),
        ]
        for m in samples:
            doc = matrix_to_wire(m)
            text = json.dumps(doc)
            assert matrix_from_wire(json.loads(text)) == m
            # serialisation is canonical: emitting again is byte-identical
            assert json.dumps(matrix_to_wire(matrix_from_wire(doc))) == text

    def test_size_mismatch_rejected(self):
        with pytest.raises(SizeMismatch):
            matrix_from_wire({"field": "Q", "n": 3, "entries": [["1"]]})


class TestIntegerFormConstructor:
    def test_non_positive_denominator_rejected(self):
        # a negative denominator used to give a matrix unequal to its value
        for den in (-1, 0):
            with pytest.raises(ValueError, match="denominator must be positive"):
                Matrix.from_integer_form(QQ, 1, [1], den)
        assert Matrix.from_integer_form(QQ, 1, [-1], 1) == Matrix(QQ, [[-1]])


class TestCommonField:
    def test_widens_rational_into_gaussian(self):
        a = Matrix(QQ, [[1, 0], [0, 1]])
        b = Matrix(QI, [["1i", "0"], ["0", "1"]])
        wa, wb = common_field(a, b)
        assert wa.field is QI and wb is b
        wb, wa = common_field(b, a)
        assert wb is b and wa.field is QI and wa == a.widen(QI)

    def test_incompatible(self):
        with pytest.raises(FieldMismatch):
            common_field(Matrix(GF(5), [[1]]), Matrix(QQ, [[1]]))


# -- the methods on forms and parts against the entrywise oracle ---------------

FIELDS = (QQ, QI, GF(7), SURD, SURD_C)
small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussians = st.builds(GaussianRational, small, small)


@st.composite
def surd_reals(draw, min_size=0):
    keys = draw(st.sets(st.sampled_from((1, 2, 3, 5, 6)), min_size=min_size, max_size=3))
    return SurdReal({d: draw(small) for d in sorted(keys)})


def entries(field):
    return {
        QQ: small,
        QI: gaussians,
        SURD: surd_reals(),
        SURD_C: st.builds(SurdComplex, surd_reals(), surd_reals()),
    }.get(field, st.integers(0, 6))


def alphas(field):
    """Scalars a matrix over ``field`` can be scaled by: GF residues,
    rationals, Gaussian values and surds, with at least two terms in one
    part or in both."""
    several = surd_reals(min_size=2)
    return {
        QI: st.one_of(small, gaussians),
        SURD: st.one_of(small, entries(SURD), several),
        SURD_C: st.one_of(small, gaussians, surd_reals(), entries(SURD_C), several,
                          st.builds(SurdComplex, several, several)),
    }.get(field, st.one_of(small, entries(field)))


def assert_same(got, want):
    # want is built from rows, got from a form or parts
    assert got == want
    assert got.rows == want.rows
    assert hash(got) == hash(want)
    assert [[repr(x) for x in row] for row in got.rows] == [[repr(x) for x in row] for row in want.rows]
    assert json.dumps(matrix_to_wire(got)) == json.dumps(matrix_to_wire(want))


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_methods_on_forms_match_entrywise(field, data):
    n = data.draw(st.integers(1, 4))
    entry = entries(field)
    a = Matrix(field, [[data.draw(entry) for _ in range(n)] for _ in range(n)])
    alpha = data.draw(alphas(field))
    assert_same(-a, plain_neg(a))
    assert_same(a.scale(alpha), plain_scale(alpha, a))
    assert_same(a.transpose(), plain_transpose(a))
    assert_same(a.dagger(), plain_dagger(a))
    for wide in FIELDS:
        try:
            want = plain_widen(a, wide)
        except FieldMismatch as exc:
            with pytest.raises(FieldMismatch) as got:
                a.widen(wide)
            assert str(got.value) == str(exc)
        else:
            assert_same(a.widen(wide), want)


class TestDataModel:
    def test_repr_lists_the_entries(self):
        a = Matrix(QQ, [[Fraction(1, 2), 0], [0, 1]])
        assert repr(a) == "Matrix(Q, [[Fraction(1, 2), Fraction(0, 1)], [Fraction(0, 1), Fraction(1, 1)]])"

    def test_matrices_are_immutable(self):
        a = Matrix(QQ, CYCLE)
        with pytest.raises(AttributeError, match="^Matrix is immutable$"):
            a.size = 2

    def test_arithmetic_with_a_non_matrix_is_a_type_error(self):
        with pytest.raises(TypeError, match="^expected Matrix, got int$"):
            Matrix(QQ, CYCLE) @ 1

    def test_a_surd_matrix_has_no_integer_form(self):
        with pytest.raises(FieldMismatch, match="^surd has no integer form; see rational_parts$"):
            Matrix(SURD, [[1]]).integer_form()

    def test_equality_with_a_non_matrix_or_another_size_is_false(self):
        a = Matrix(QQ, CYCLE)
        assert a.__eq__(1) is NotImplemented
        assert a != 1
        assert a != Matrix.identity(QQ, 2)
