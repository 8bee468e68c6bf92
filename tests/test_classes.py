import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affgebra.affine import COMMUTATOR, Zeta, action, bracket, heap
from affgebra.classes import (
    MAX_N,
    ClassKind,
    MatrixClassSpec,
    base_point,
    contains,
    derive_rng,
    dimension,
    sample,
    spec_from_wire,
    spec_to_wire,
    subspace,
    _sampling_data,
)
from affgebra.cli import main
from affgebra.errors import FieldMismatch, MalformedWire, NonInvertibleScalar, SizeMismatch
from affgebra.matrix import Matrix, matrix_to_wire
from affgebra.scalars import GF, QI, QQ, SURD, SURD_C, GaussianRational
from affgebra.transforms import block_target, required_via


def spec(kind, n, field=None, c=None):
    if field is None:
        field = QI if kind in (ClassKind.UNA, ClassKind.SUNA) else QQ
    return MatrixClassSpec(kind, n, field, c=c)


# The class catalogue, one row per kind: block algebra, action field,
# route, normalisation, base point for n = 2 over Q or Q(i) (c = -1/2 for
# ga_c), over GF(7) (c = 3; None where the kind refuses GF(7)), and the
# field ``affgebra sample`` takes when --field is omitted.
THIRDS = [["1/3"] * 3] * 3
CATALOGUE_ROWS = {
    "gna": ("gl", "Q", "P", "1", THIRDS, [["5"] * 3] * 3, "Q"),
    "sna": ("sl", "Q", "P", "1",
            [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["1/2", "1/2", "0"]],
            [["0", "4", "4"], ["4", "0", "4"], ["4", "4", "0"]], "Q"),
    "ona": ("o", "Q", "U", "1", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], None, "Q"),
    "una": ("u", "Q", "U", "1i", [["1/3i"] * 3] * 3, None, "Qi"),
    "suna": ("su", "Q", "U", "1i",
             [["0", "1/2i", "1/2i"], ["1/2i", "0", "1/2i"], ["1/2i", "1/2i", "0"]], None, "Qi"),
    "ga_c": ("gl", "Q", "P", "-1/2", [["-1/6"] * 3] * 3, [["1"] * 3] * 3, "Q"),
}

REFUSED = [
    ("ona", QI, "ona needs a real field"),
    ("ona", GF(7), "ona needs a real field"),
    ("una", QQ, "una needs a complex field"),
    ("suna", QQ, "suna needs a complex field"),
    ("gna", SURD, "gna is not defined over surd fields here"),
]


def _wire(field, entries):
    doc = {"field": field.tag, "n": 3, "entries": entries}
    if field.characteristic:
        doc = {"field": "GF", "p": field.p, "n": 3, "entries": entries}
    return doc


class TestClassCatalogue:
    @pytest.mark.parametrize("kind", sorted(CATALOGUE_ROWS))
    def test_row(self, kind, capsys):
        algebra, action_field, route, norm, base, base_gf7, cli_field = CATALOGUE_ROWS[kind]
        field = QI if cli_field == "Qi" else QQ
        s = MatrixClassSpec(ClassKind(kind), 2, field, c="-1/2" if kind == "ga_c" else None)
        assert block_target(s).block_kind == algebra
        assert s.scalar_field.describe() == action_field
        assert required_via(s) == route
        assert field.format(s.normalisation()) == norm
        assert matrix_to_wire(base_point(s)) == _wire(field, base)
        c7 = "3" if kind == "ga_c" else None
        if base_gf7 is None:
            with pytest.raises(FieldMismatch):
                MatrixClassSpec(ClassKind(kind), 2, GF(7), c=c7)
        else:
            s7 = MatrixClassSpec(ClassKind(kind), 2, GF(7), c=c7)
            assert block_target(s7).block_kind == algebra
            assert s7.scalar_field is GF(7) and required_via(s7) == route
            assert matrix_to_wire(base_point(s7)) == _wire(GF(7), base_gf7)
        argv = ["sample", "--class", kind, "--n", "2"] + (["--c=2"] if kind == "ga_c" else [])
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["field"] == cli_field

    @pytest.mark.parametrize("kind, field, message", REFUSED)
    def test_refused_field(self, kind, field, message):
        with pytest.raises(FieldMismatch, match=f"^{message}$"):
            MatrixClassSpec(ClassKind(kind), 2, field)


class TestSpecValidation:
    def test_field_constraints(self):
        with pytest.raises(FieldMismatch):
            MatrixClassSpec(ClassKind.ONA, 2, QI)
        with pytest.raises(FieldMismatch):
            MatrixClassSpec(ClassKind.UNA, 2, QQ)
        with pytest.raises(FieldMismatch):
            MatrixClassSpec(ClassKind.GNA, 2, SURD)

    def test_kind_is_read_through_class_kind(self):
        s = MatrixClassSpec("gna", 2, QQ)
        assert s.kind is ClassKind.GNA and s == spec(ClassKind.GNA, 2) and hash(s) == hash(spec(ClassKind.GNA, 2))
        assert s.describe() == "gna(2, Q)"
        assert base_point(s) == base_point(spec(ClassKind.GNA, 2))
        with pytest.raises(ValueError, match="^'bogus' is not a valid ClassKind$"):
            MatrixClassSpec("bogus", 2, QQ)
        with pytest.raises(FieldMismatch, match="^ona needs a real field$"):
            MatrixClassSpec("ona", 2, QI)

    def test_field_is_a_field(self):
        # a tag names a field but is not one
        with pytest.raises(TypeError, match="^field must be a Field, got str 'Q'$"):
            MatrixClassSpec("gna", 2, "Q")
        with pytest.raises(TypeError, match="^field must be a Field, got NoneType None$"):
            MatrixClassSpec(ClassKind.UNA, 2, None)

    def test_block_size_is_an_int_from_1_to_max_n(self):
        assert MatrixClassSpec(ClassKind.GNA, MAX_N, QQ).n == MAX_N
        for n in (0, -1, MAX_N + 1):
            with pytest.raises(ValueError):
                MatrixClassSpec(ClassKind.GNA, n, QQ)
        for n in (True, "2", 2.0):
            with pytest.raises(TypeError):
                MatrixClassSpec(ClassKind.GNA, n, QQ)

    def test_ga_c_scalar(self):
        with pytest.raises(ValueError):
            MatrixClassSpec(ClassKind.GA_C, 2, QQ)
        with pytest.raises(ValueError):
            MatrixClassSpec(ClassKind.GNA, 2, QQ, c=Fraction(1))
        s = MatrixClassSpec(ClassKind.GA_C, 2, QQ, c=Fraction(5, 2))
        assert s.normalisation() == Fraction(5, 2)

    def test_scalar_field_is_rational_for_hermitian_classes(self):
        assert spec(ClassKind.UNA, 2).scalar_field is QQ
        assert spec(ClassKind.ONA, 2).scalar_field is QQ
        assert spec(ClassKind.GNA, 2, QI).scalar_field is QI

    def test_wire_roundtrip(self):
        specs = [
            spec(ClassKind.GNA, 3),
            spec(ClassKind.SNA, 2, GF(7)),
            spec(ClassKind.UNA, 2),
            spec(ClassKind.GA_C, 2, QI, c=GaussianRational(0, 1)),
        ]
        for s in specs:
            assert spec_from_wire(spec_to_wire(s)) == s

    def test_cached_hash_is_the_field_tuple_hash(self):
        q = spec(ClassKind.GA_C, 3, QQ, c=Fraction(2, 3))
        qi = spec(ClassKind.GA_C, 3, QI, c=GaussianRational(Fraction(2, 3), 0))
        for s in (q, qi, spec(ClassKind.UNA, 2), spec(ClassKind.SNA, 2, GF(7))):
            assert hash(s) == s._hash == hash((s.kind, s.n, s.field, s.c))
        # replace builds a fresh spec, and its hash follows the new fields
        widened = replace(q, field=QI)
        assert widened == qi and hash(widened) == hash(qi)
        back = replace(replace(q, n=4), n=3)
        assert back == q and hash(back) == hash(q)
        assert hash(replace(q, n=4)) == hash((ClassKind.GA_C, 4, QQ, Fraction(2, 3)))

    def test_wire_class_must_be_an_object(self):
        with pytest.raises(MalformedWire, match="^a class must be a JSON object, got list$"):
            spec_from_wire([1])

    def test_wire_prime_with_another_field_is_rejected(self):
        with pytest.raises(ValueError, match="a prime p is only for the field GF, not 'Q'"):
            spec_from_wire({"kind": "gna", "n": 2, "field": "Q", "p": 7})


class TestContains:
    def test_uniform_matrix_in_gna(self):
        for n in (1, 2, 3):
            m = Matrix.ones(QQ, n + 1).scale(Fraction(1, n + 1))
            assert contains(spec(ClassKind.GNA, n), m)

    def test_identity_in_ona_not_sna(self):
        assert contains(spec(ClassKind.ONA, 2), Matrix.identity(QQ, 3))
        assert not contains(spec(ClassKind.SNA, 2), Matrix.identity(QQ, 3))

    def test_size_guard(self):
        with pytest.raises(SizeMismatch):
            contains(spec(ClassKind.GNA, 2), Matrix.identity(QQ, 2))

    def test_field_guard(self):
        with pytest.raises(FieldMismatch, match=r"^gna\(2, Q\) cannot contain a matrix over GF\(7\)$"):
            contains(spec(ClassKind.GNA, 2), Matrix.identity(GF(7), 3))

    def test_una_membership(self):
        s = spec(ClassKind.UNA, 1)
        assert contains(s, Matrix(QI, [["1/2i", "1/2i"], ["1/2i", "1/2i"]]))
        assert contains(s, Matrix(QI, [["1i", "0"], ["0", "1i"]]))
        # wrong row sums
        assert not contains(s, Matrix(QI, [["1i", "0"], ["0", "1/2i"]]))
        # right sums, not anti-hermitian
        assert not contains(s, Matrix(QI, [["1", "-1+1i"], ["-1+1i", "1"]]))

    def test_real_class_over_a_complex_field_tests_the_imaginary_half(self):
        # the imaginary half of a member of a real class meets the
        # homogeneous equations: zero sums for gna, zero diagonal for ona
        gna = spec(ClassKind.GNA, 1)
        b = base_point(gna).widen(QI)
        i = QI.imaginary_unit()
        assert contains(gna, b)
        assert not contains(gna, b + Matrix(QI, [[i, 0], [0, 0]]))
        assert contains(gna, b + Matrix(QI, [[i, -i], [-i, i]]))
        ona = spec(ClassKind.ONA, 2)
        identity = Matrix.identity(SURD_C, 3)
        assert contains(ona, identity)
        assert not contains(ona, identity.with_entry(0, 0, SURD_C.one() + SURD_C.imaginary_unit()))

    def test_ga_c_with_unit_scalar_agrees_with_gna(self):
        ga1 = spec(ClassKind.GA_C, 2, QQ, c=Fraction(1))
        gna = spec(ClassKind.GNA, 2)
        for idx in range(10):
            assert contains(ga1, sample(gna, 9, idx))
            assert contains(gna, sample(ga1, 9, idx))


class TestBasePoint:
    def test_gna(self):
        assert base_point(spec(ClassKind.GNA, 2)) == Matrix.ones(QQ, 3).scale(Fraction(1, 3))

    def test_sna_display(self):
        expected = Matrix(
            QQ,
            [[0, Fraction(1, 2), Fraction(1, 2)],
             [Fraction(1, 2), 0, Fraction(1, 2)],
             [Fraction(1, 2), Fraction(1, 2), 0]],
        )
        assert base_point(spec(ClassKind.SNA, 2)) == expected

    def test_all_base_points_are_members(self):
        cases = [
            spec(ClassKind.GNA, 3),
            spec(ClassKind.SNA, 3),
            spec(ClassKind.ONA, 3),
            spec(ClassKind.UNA, 3),
            spec(ClassKind.SUNA, 3),
            spec(ClassKind.GA_C, 3, QQ, c=Fraction(-2, 7)),
            spec(ClassKind.GNA, 3, GF(7)),
            spec(ClassKind.SNA, 3, GF(7)),
        ]
        for s in cases:
            assert contains(s, base_point(s)), s.describe()

    def test_characteristic_obstruction(self):
        with pytest.raises(NonInvertibleScalar):
            base_point(spec(ClassKind.SNA, 5, GF(5)))
        with pytest.raises(NonInvertibleScalar):
            base_point(spec(ClassKind.GNA, 4, GF(5)))

    def test_obstruction_is_divisibility_not_equality(self):
        # the constructions divide by n (or n+1); the obstruction is
        # char | n, which is weaker than n == char: n = 10 over GF(5)
        # is just as impossible even though 10 != 5
        with pytest.raises(NonInvertibleScalar):
            base_point(spec(ClassKind.SNA, 10, GF(5)))
        with pytest.raises(NonInvertibleScalar):
            base_point(spec(ClassKind.GNA, 9, GF(5)))
        # and n = char+1 is fine for sna although n+1 = char+2 is not 0
        assert contains(spec(ClassKind.SNA, 6, GF(5)), base_point(spec(ClassKind.SNA, 6, GF(5))))


class TestDimension:
    def test_closed_form_table(self):
        for n in range(1, 6):
            assert dimension(spec(ClassKind.GNA, n)) == n * n
            assert dimension(spec(ClassKind.SNA, n)) == n * n - 1
            assert dimension(spec(ClassKind.ONA, n)) == n * (n - 1) // 2
            assert dimension(spec(ClassKind.UNA, n)) == n * n
            assert dimension(spec(ClassKind.SUNA, n)) == n * n - 1
            assert dimension(spec(ClassKind.GA_C, n, QQ, c=Fraction(3))) == n * n

    def test_gna_over_gaussian_field(self):
        for n in range(1, 5):
            assert dimension(spec(ClassKind.GNA, n, QI)) == n * n

    def test_over_prime_field(self):
        assert dimension(spec(ClassKind.GNA, 3, GF(7))) == 9
        assert dimension(spec(ClassKind.SNA, 3, GF(7))) == 8

    def test_agrees_with_the_solved_subspace(self):
        # gna/sna/ga_c over Qi have complex coefficients, so the solver
        # lists v and i·v per direction; the dimension counts over the
        # action field and must not double
        fields = {
            ClassKind.GNA: (QQ, QI, GF(7)),
            ClassKind.SNA: (QQ, QI, GF(7)),
            ClassKind.ONA: (QQ,),
            ClassKind.UNA: (QI,),
            ClassKind.SUNA: (QI,),
            ClassKind.GA_C: (QQ, QI, GF(7)),
        }
        for kind, kind_fields in fields.items():
            for field in kind_fields:
                for n in range(1, 6):
                    s = spec(kind, n, field, c=field.coerce(3) if kind is ClassKind.GA_C else None)
                    degree = 2 if s.scalar_field is QI else 1  # [action field : Q]
                    assert subspace(s).dimension == dimension(s) * degree, s.describe()

    def test_sampling_and_dimension_leave_the_subspace_cache_empty(self):
        subspace.cache_clear()
        _sampling_data.cache_clear()  # so both calls solve afresh
        for s in (spec(ClassKind.GNA, 3, QI), spec(ClassKind.UNA, 2), spec(ClassKind.SNA, 4, GF(7))):
            dimension(s)
            sample(s, 0, 0)
        assert subspace.cache_info().currsize == 0


class TestSampling:
    def test_membership(self):
        cases = [
            spec(ClassKind.GNA, 2),
            spec(ClassKind.SNA, 3),
            spec(ClassKind.ONA, 3),
            spec(ClassKind.UNA, 2),
            spec(ClassKind.SUNA, 2),
            spec(ClassKind.GNA, 2, GF(11)),
            spec(ClassKind.GA_C, 2, QI, c=GaussianRational(0, 1)),
        ]
        for s in cases:
            for idx in range(8):
                assert contains(s, sample(s, 1234, idx)), s.describe()

    def test_deterministic(self):
        s = spec(ClassKind.SNA, 3)
        assert sample(s, 7, 0) == sample(s, 7, 0)
        assert sample(s, 7, 0) != sample(s, 7, 1)
        assert sample(s, 7, 0) != sample(s, 8, 0)

    def test_gna1_shape(self):
        # the 2x2 members are exactly [[x, 1-x], [1-x, x]]
        s = spec(ClassKind.GNA, 1)
        for idx in range(10):
            m = sample(s, 5, idx)
            x = m.entry(0, 0)
            assert m == Matrix(QQ, [[x, 1 - x], [1 - x, x]])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        idx=st.integers(0, 50),
        alpha=st.fractions(min_value=-9, max_value=9, max_denominator=9),
    )
    def test_closure_property(self, seed, idx, alpha):
        for s in (spec(ClassKind.GNA, 2), spec(ClassKind.UNA, 2)):
            x = sample(s, seed, idx)
            y = sample(s, seed, idx + 1)
            z = sample(s, seed, idx + 2)
            assert contains(s, heap(x, y, z))
            assert contains(s, action(alpha, x, y))
            assert contains(s, bracket(COMMUTATOR, x, y))

    def test_closure_under_all_operations(self):
        zeta = Zeta(Fraction(-2, 3))
        for s in [spec(ClassKind.GNA, 2), spec(ClassKind.SNA, 2), spec(ClassKind.ONA, 3),
                  spec(ClassKind.UNA, 2), spec(ClassKind.SUNA, 2), spec(ClassKind.SNA, 2, GF(7))]:
            rng = derive_rng("closure-test", s.describe())
            alpha = s.scalar_field.sample(rng)
            x, y, z = (sample(s, 77, k) for k in range(3))
            assert contains(s, heap(x, y, z))
            assert contains(s, action(alpha, x, y))
            assert contains(s, bracket(COMMUTATOR, x, y))
            zz = zeta if s.field.characteristic == 0 else Zeta(s.scalar_field.coerce(3))
            assert contains(s, bracket(zz, x, y))

    def test_decomposition_into_base_plus_sum_zero_class(self):
        # every member splits as (any fixed member) + (sum-zero member):
        # ga_c = o + ga_0, with the traceless filter carving out the
        # direction space of sna
        ga0 = spec(ClassKind.GA_C, 2, QQ, c=Fraction(0))
        for s in [spec(ClassKind.GNA, 2), spec(ClassKind.GA_C, 2, QQ, c=Fraction(5, 3))]:
            o = base_point(s)
            for idx in range(6):
                diff = sample(s, 13, idx) - o
                assert contains(ga0, diff)
        s = spec(ClassKind.SNA, 2)
        o = base_point(s)
        for idx in range(6):
            diff = sample(s, 13, idx) - o
            assert contains(ga0, diff)
            assert diff.trace() == 0

    def test_sampling_not_offered_over_surds(self):
        s = MatrixClassSpec(ClassKind.ONA, 2, SURD)
        assert contains(s, Matrix.identity(SURD, 3))
        with pytest.raises(FieldMismatch):
            subspace(s)

    def test_sampling_propagates_obstruction(self):
        with pytest.raises(NonInvertibleScalar):
            sample(spec(ClassKind.SNA, 5, GF(5)), 0, 0)
