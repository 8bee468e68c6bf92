from fractions import Fraction

import pytest

from affgebra.affine import COMMUTATOR, action, bracket, heap
from affgebra.classes import MAX_N, ClassKind, MatrixClassSpec, base_point, contains, derive_rng, sample
from affgebra.errors import ClassViolation, FieldMismatch, NonInvertibleScalar, SingularMatrix, SizeMismatch
from affgebra.matrix import Matrix, sandwich_form, staircase
from affgebra.scalars import GF, QI, QQ, SURD, SurdReal, widen_scalar
from affgebra.transforms import (
    VIA_P,
    VIA_U,
    _conjugators,
    _orthonormal_frame,
    _route,
    base_point_image,
    block_target,
    change_of_basis,
    change_of_basis_inverse,
    from_block,
    orthonormal_change_of_basis,
    required_via,
    to_block,
    verify_theorem,
)
from oracle import float_gram_schmidt, plain_change_of_basis_inverse


def spec(kind, n, field=None, c=None):
    if field is None:
        field = QI if kind in (ClassKind.UNA, ClassKind.SUNA) else QQ
    return MatrixClassSpec(kind, n, field, c=c)


class TestIntegralBasis:
    def test_smallest_case(self):
        assert change_of_basis(1, QQ) == Matrix(QQ, [[1, 1], [-1, 1]])

    def test_n2_pattern(self):
        assert change_of_basis(2, QQ) == Matrix(QQ, [[1, 1, 1], [0, -1, 1], [-1, 0, 1]])

    def test_inverse_closed_form(self):
        expected = Matrix(
            QQ, [[1, 1, -2], [1, -2, 1], [1, 1, 1]]
        ).scale(Fraction(1, 3))
        assert change_of_basis_inverse(2, QQ) == expected

    def test_column_structure(self):
        for n in range(1, 7):
            p = change_of_basis(n, QQ)
            for j in range(n):
                assert sum((p.entry(i, j) for i in range(n + 1)), start=QQ.zero()) == 0
            assert len({p.entry(i, n) for i in range(n + 1)}) == 1

    def test_inverse_row_structure(self):
        # rows 1..n of the inverse sum to zero; the last row is constant
        for n in range(1, 7):
            pinv = change_of_basis_inverse(n, QQ)
            for i in range(n):
                assert sum((pinv.entry(i, j) for j in range(n + 1)), start=QQ.zero()) == 0
            assert len({pinv.entry(n, j) for j in range(n + 1)}) == 1

    def test_product_is_identity(self):
        for n in range(1, 9):
            p = change_of_basis(n, QQ)
            pinv = change_of_basis_inverse(n, QQ)
            assert p @ pinv == Matrix.identity(QQ, n + 1)
            assert pinv @ p == Matrix.identity(QQ, n + 1)

    def test_product_over_gf7(self):
        for n in range(1, 9):
            if n == 6:
                continue
            p = change_of_basis(n, GF(7))
            assert p @ change_of_basis_inverse(n, GF(7)) == Matrix.identity(GF(7), n + 1)

    def test_characteristic_singularity(self):
        for p_char, n in [(5, 4), (3, 2), (2, 1)]:
            with pytest.raises(NonInvertibleScalar):
                change_of_basis_inverse(n, GF(p_char))
            with pytest.raises(SingularMatrix):
                change_of_basis(n, GF(p_char)).inverse()

    def test_matches_closed_form_oracle(self):
        for field in (QQ, QI, GF(7), GF(101)):
            for n in range(1, MAX_N + 1):
                if field.characteristic and (n + 1) % field.characteristic == 0:
                    continue
                assert change_of_basis_inverse(n, field) == plain_change_of_basis_inverse(n, field)


class TestOrthonormalBasis:
    def test_smallest_case(self):
        half_root2 = SurdReal({2: Fraction(1, 2)})
        expected = Matrix(SURD, [[half_root2, half_root2], [-half_root2, half_root2]])
        assert orthonormal_change_of_basis(1) == expected

    def test_last_column_constant(self):
        u = orthonormal_change_of_basis(2)
        third_root3 = SurdReal({3: Fraction(1, 3)})
        for i in range(3):
            assert u.entry(i, 2) == third_root3

    def test_orthonormal(self):
        for n in range(1, 6):
            u = orthonormal_change_of_basis(n)
            eye = Matrix.identity(SURD, n + 1)
            assert u.transpose() @ u == eye
            assert u @ u.transpose() == eye

    def test_zero_column_sums(self):
        for n in range(1, 6):
            u = orthonormal_change_of_basis(n)
            for j in range(n):
                assert sum((u.entry(i, j) for i in range(n + 1)), start=SURD.zero()) == SURD.zero()

    def test_frame_inverse_is_the_transpose(self):
        # U = W·D is orthonormal, so the frame's R⁻¹ = (W·D²)⁻¹ is Wᵀ
        for n in range(1, MAX_N + 1):
            m = n + 1
            identity = Matrix.identity(QQ, m).integer_form()[0]
            w, _ = _orthonormal_frame(n)
            for field in (QQ, QI):
                # L·I·I decodes the staircase encoding L
                left, den = _conjugators(n, field, VIA_U).left
                decoded = sandwich_form(left, identity, staircase(identity, m), m)
                assert (decoded, den) == w.transpose().integer_form()

    def test_float_gram_schmidt_cross_check(self):
        for n in range(1, 6):
            u = orthonormal_change_of_basis(n)
            gs = float_gram_schmidt(n)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert abs(float(u.entry(i, j)) - gs[i][j]) <= 1e-12


class TestCornerConjugation:
    def test_corner_block_to_uniform_matrix(self):
        # P (0 .. 0; 0 c) P^{-1} is the uniform matrix with entries c/(n+1)
        for n in (1, 2, 3):
            c = Fraction(5, 2)
            corner = Matrix.diagonal(QQ, [0] * n + [c])
            p = change_of_basis(n, QQ)
            expected = Matrix.ones(QQ, n + 1).scale(c / (n + 1))
            assert p @ corner @ change_of_basis_inverse(n, QQ) == expected

    def test_orthonormal_route_gives_same_matrix(self):
        for n in (1, 2, 3):
            c = SurdReal(Fraction(5, 2))
            corner = Matrix.diagonal(SURD, [SURD.zero()] * n + [c])
            u = orthonormal_change_of_basis(n)
            expected = Matrix.ones(SURD, n + 1).scale(c * SURD.inv_int(n + 1))
            assert u @ corner @ u.transpose() == expected

    def test_zero_corner_block_lands_in_sum_zero_class(self):
        # P a P^{-1} has zero row and column sums whenever a is supported
        # on the top-left n x n block
        ga0 = MatrixClassSpec(ClassKind.GA_C, 2, QQ, c=Fraction(0))
        rng = derive_rng("ga-conv")
        for _ in range(5):
            block = [[QQ.sample(rng) for _ in range(2)] + [QQ.zero()] for _ in range(2)]
            block.append([QQ.zero()] * 3)
            a = Matrix(QQ, block)
            image = change_of_basis(2, QQ) @ a @ change_of_basis_inverse(2, QQ)
            assert contains(ga0, image)


class TestShiftMap:
    """m -> m + (c' - c) * identity renormalises a sum-c class to sum-c'
    and preserves heap, action and the commutator bracket."""

    @staticmethod
    def shift(c, c_prime, m):
        return m + Matrix.identity(m.field, m.size).scale(m.field.coerce(c_prime) - m.field.coerce(c))

    def test_to_zero_normalisation(self):
        m = Matrix.ones(QQ, 3).scale(Fraction(1, 3))
        shifted = self.shift(1, 0, m)
        assert shifted == m - Matrix.identity(QQ, 3)
        assert contains(MatrixClassSpec(ClassKind.GA_C, 2, QQ, c=Fraction(0)), shifted)

    def test_bracket_preserved(self):
        s = spec(ClassKind.GNA, 2)
        a, b = sample(s, 4, 0), sample(s, 4, 1)
        f = lambda x: self.shift(1, 2, x)
        assert f(bracket(COMMUTATOR, a, b)) == bracket(COMMUTATOR, f(a), f(b))

    def test_heap_and_action_preserved(self):
        s = spec(ClassKind.GNA, 2)
        a, b, m = sample(s, 4, 0), sample(s, 4, 1), sample(s, 4, 2)
        f = lambda x: self.shift(1, Fraction(-2, 5), x)
        assert f(heap(a, b, m)) == heap(f(a), f(b), f(m))
        assert f(action(Fraction(7, 3), a, b)) == action(Fraction(7, 3), f(a), f(b))

    def test_shift_between_normalisations(self):
        ga_i = spec(ClassKind.GA_C, 2, QI, c=QI.parse("1i"))
        one, eye = QI.one(), QI.parse("1i")
        m = sample(spec(ClassKind.GNA, 2, QI), 23, 0)
        shifted = self.shift(one, eye, m)
        assert contains(ga_i, shifted)
        assert self.shift(eye, one, shifted) == m


class TestBlockTargets:
    def test_kinds_and_bases(self):
        t = block_target(spec(ClassKind.GNA, 2))
        assert t.block_kind == "gl"
        assert t.base_block == Matrix.diagonal(QQ, [0, 0, 1])
        t = block_target(spec(ClassKind.SNA, 2))
        assert t.block_kind == "sl"
        assert t.base_block == Matrix.diagonal(QQ, [Fraction(-1, 2), Fraction(-1, 2), 1])
        t = block_target(spec(ClassKind.ONA, 2))
        assert t.block_kind == "o"
        assert t.base_block == Matrix.identity(QQ, 3)
        t = block_target(spec(ClassKind.UNA, 2))
        assert t.block_kind == "u"
        assert t.base_block == Matrix.diagonal(QI, ["0", "0", "1i"])
        t = block_target(spec(ClassKind.SUNA, 2))
        assert t.block_kind == "su"
        assert t.base_block == Matrix.diagonal(QI, ["-1/2i", "-1/2i", "1i"])

    def test_base_block_commutes_with_samples(self):
        for s in [spec(ClassKind.GNA, 3), spec(ClassKind.SNA, 3), spec(ClassKind.ONA, 3),
                  spec(ClassKind.UNA, 3), spec(ClassKind.SUNA, 3)]:
            t = block_target(s)
            rng = derive_rng("commute", s.describe())
            for _ in range(5):
                z = t.sample(rng)
                assert t.base_block @ z == z @ t.base_block

    def test_membership(self):
        t = block_target(spec(ClassKind.SNA, 2))
        rng = derive_rng("membership")
        for _ in range(5):
            assert t.contains(t.sample(rng))
        assert not t.contains(Matrix.identity(QQ, 3))

    def test_membership_size_guard(self):
        t = block_target(spec(ClassKind.SNA, 2))
        with pytest.raises(SizeMismatch, match="^3 vs 2$"):
            t.contains(Matrix.identity(QQ, 2))


class TestConjugationRoutes:
    def test_required_via(self):
        assert required_via(spec(ClassKind.GNA, 2)) == VIA_P
        assert required_via(spec(ClassKind.ONA, 2)) == VIA_U
        assert required_via(spec(ClassKind.SUNA, 2)) == VIA_U

    def test_p_rejected_for_symmetry_classes(self):
        with pytest.raises(ClassViolation):
            to_block(spec(ClassKind.ONA, 2), Matrix.identity(QQ, 3), VIA_P)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="^unknown via 'Q'$"):
            _route(spec(ClassKind.GNA, 2), "Q")

    def test_u_rejected_over_prime_fields(self):
        s = spec(ClassKind.GNA, 2, GF(7))
        with pytest.raises(FieldMismatch):
            to_block(s, base_point(s), VIA_U)

    def test_rejects_non_member(self):
        with pytest.raises(ClassViolation):
            to_block(spec(ClassKind.GNA, 2), Matrix.identity(QQ, 3).scale(2))

    def test_base_point_images(self):
        assert base_point_image(spec(ClassKind.GNA, 2)) == Matrix.diagonal(QQ, [0, 0, 1])
        assert base_point_image(spec(ClassKind.SNA, 2)) == Matrix.diagonal(
            QQ, [Fraction(-1, 2), Fraction(-1, 2), 1]
        )
        assert base_point_image(spec(ClassKind.ONA, 2)) == Matrix.identity(SURD, 3)

    def test_gna_via_u_matches_block_target(self):
        s = spec(ClassKind.GNA, 2)
        t = block_target(s)
        img = to_block(s, base_point(s), VIA_U)
        assert img == t.base_block.widen(SURD)

    def test_roundtrip_and_preservation(self):
        for s, via in [
            (spec(ClassKind.GNA, 2), VIA_P),
            (spec(ClassKind.SNA, 2, GF(7)), VIA_P),
            (spec(ClassKind.ONA, 3), VIA_U),
            (spec(ClassKind.UNA, 2), VIA_U),
        ]:
            t = block_target(s)
            a, b = sample(s, 21, 0), sample(s, 21, 1)
            fa, fb = to_block(s, a, via), to_block(s, b, via)
            assert t.contains(fa) and t.contains(fb)
            assert to_block(s, bracket(COMMUTATOR, a, b), via) == bracket(COMMUTATOR, fa, fb)
            assert from_block(s, fa, via) == a.widen(fa.field)

    def test_heap_action_preservation(self):
        s = spec(ClassKind.UNA, 2)
        a, b, c = (sample(s, 8, k) for k in range(3))
        alpha = Fraction(3, 4)
        f = lambda x: to_block(s, x, VIA_U)
        assert f(heap(a, b, c)) == heap(f(a), f(b), f(c))
        wide_alpha = widen_scalar(alpha, QQ, f(a).field)
        assert f(action(alpha, a, b)) == action(wide_alpha, f(a), f(b))


class TestVerifyTheorem:
    def test_passes_small_grid(self):
        for s in [spec(ClassKind.GNA, 1), spec(ClassKind.SNA, 2), spec(ClassKind.ONA, 2),
                  spec(ClassKind.UNA, 1), spec(ClassKind.SUNA, 2),
                  spec(ClassKind.GNA, 2, GF(7)), spec(ClassKind.GA_C, 2, QQ, c=Fraction(4, 3)),
                  spec(ClassKind.GA_C, 2, QQ, c=Fraction(0)),
                  spec(ClassKind.GA_C, 2, QI, c=QI.parse("1i"))]:
            report = verify_theorem(s, seed=99, samples=8)
            assert report.passed, (s.describe(), report.counterexample)
            assert report.trials == 8

    def test_imaginary_normalisation_contains_hermitian_classes(self):
        # the sum-i family is the ambient affine space of una and suna
        ga_i = spec(ClassKind.GA_C, 2, QI, c=QI.parse("1i"))
        for inner in (spec(ClassKind.UNA, 2), spec(ClassKind.SUNA, 2)):
            for idx in range(5):
                assert contains(ga_i, sample(inner, 17, idx))

    def test_deterministic(self):
        s = spec(ClassKind.SNA, 2)
        r1 = verify_theorem(s, seed=1, samples=5)
        r2 = verify_theorem(s, seed=1, samples=5)
        assert r1.to_wire()["counterexample"] == r2.to_wire()["counterexample"]
        assert r1.passed and r2.passed

    def test_characteristic_obstruction_propagates(self):
        with pytest.raises(NonInvertibleScalar):
            verify_theorem(spec(ClassKind.SNA, 5, GF(5)), seed=0, samples=2)
