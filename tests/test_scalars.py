import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from affgebra.errors import (
    DivisionByZero,
    FieldMismatch,
    MalformedWire,
    NonInvertibleScalar,
)
from affgebra.scalars import (
    GF,
    QI,
    QQ,
    SURD,
    SURD_C,
    GaussianRational,
    PrimeFieldElement,
    SurdComplex,
    SurdReal,
    can_widen,
    conjugate,
    field_by_tag,
    squarefree_split,
    surd_basis_product,
    widen_scalar,
)
from oracle import gaussian_text, plain_squarefree_split

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
nonzero_rationals = rationals.filter(bool)
# one half of a Gaussian rational: zero, a unit, an integer, a small
# fraction, or a fraction with numerator and denominator of up to 60 digits
gaussian_halves = (
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])
    | st.integers(-(10**6), 10**6).map(Fraction)
    | rationals
    | st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60))
)
squarefree = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30])


def surds(min_terms=0, max_terms=3):
    return st.dictionaries(squarefree, rationals, min_size=min_terms, max_size=max_terms).map(SurdReal)


# values of every scalar type over a few small parts, so that equal values
# of different types are drawn often: ints, Fractions and elements of
# Q(i), GF(7), GF(11), surd and surd_c
_parts = st.sampled_from([0, 1, -1, Fraction(1, 2)])
_small_surds = st.dictionaries(st.sampled_from([1, 2]), _parts, max_size=2).map(SurdReal)
scalar_values = st.one_of(
    st.integers(min_value=-1, max_value=12),
    _parts.map(Fraction),
    st.builds(GaussianRational, _parts, _parts),
    st.builds(PrimeFieldElement, st.integers(min_value=0, max_value=12), st.sampled_from([7, 11])),
    _small_surds,
    st.builds(SurdComplex, _small_surds, _small_surds),
)


class TestSquarefree:
    def test_basis_product_examples(self):
        assert surd_basis_product(2, 2) == (2, 1)
        assert surd_basis_product(1, 7) == (1, 7)
        # 2*6 = 12 = 4*3
        assert surd_basis_product(2, 6) == (2, 3)

    def test_split_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            squarefree_split(0)

    @given(st.integers(min_value=1, max_value=5000))
    def test_split_reconstructs(self, m):
        s, f = squarefree_split(m)
        assert s * s * f == m
        assert squarefree_split(f)[0] == 1

    @given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=1, max_value=500))
    def test_split_matches_square_root_trial_division(self, a, b):
        # b*b puts square factors above the cube root into the cofactor
        m = a * b * b
        assert squarefree_split(m) == plain_squarefree_split(m)


class TestFieldArith:
    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            QI.one() / QI.zero()
        with pytest.raises(DivisionByZero):
            GF(7).one() / GF(7).zero()

    @given(rationals, rationals)
    def test_add_sub_roundtrip(self, x, y):
        x, y = QQ.coerce(x), QQ.coerce(y)
        assert (x + y) - y == x

    @given(nonzero_rationals)
    def test_mul_inverse(self, x):
        x = QQ.coerce(x)
        assert x * (QQ.one() / x) == QQ.one()


class TestConjugation:
    def test_fixed_on_real_fields(self):
        assert conjugate(Fraction(3, 4)) == Fraction(3, 4)
        assert conjugate(GF(5).coerce(2)) == GF(5).coerce(2)
        assert conjugate(SurdReal({2: 1})) == SurdReal({2: 1})

    def test_gaussian(self):
        assert conjugate(GaussianRational(1, 2)) == GaussianRational(1, -2)

    def test_surd_complex(self):
        x = SurdComplex(SurdReal({2: 1}), SurdReal({3: 1}))
        assert conjugate(x) == SurdComplex(SurdReal({2: 1}), SurdReal({3: -1}))

    @given(rationals, rationals)
    def test_involutive(self, a, b):
        x = GaussianRational(a, b)
        assert conjugate(conjugate(x)) == x

    @given(rationals, rationals, rationals, rationals)
    def test_field_automorphism(self, a, b, c, d):
        x, y = GaussianRational(a, b), GaussianRational(c, d)
        assert conjugate(x * y) == conjugate(x) * conjugate(y)
        assert conjugate(x + y) == conjugate(x) + conjugate(y)


class TestGaussian:
    def test_division(self):
        x = GaussianRational(1, 1)
        assert x / x == GaussianRational(1, 0)
        assert GaussianRational(1) / GaussianRational(0, 1) == GaussianRational(0, -1)

    @given(rationals, rationals, rationals, rationals)
    def test_div_mul_roundtrip(self, a, b, c, d):
        x, y = GaussianRational(a, b), GaussianRational(c, d)
        if y:
            assert (x / y) * y == x


class TestPrimeField:
    def test_arithmetic_mod_p(self):
        gf = GF(5)
        assert gf.coerce(3) * gf.coerce(4) == gf.coerce(2)
        assert gf.coerce(3) + gf.coerce(4) == gf.coerce(2)

    def test_every_nonzero_invertible(self):
        gf = GF(11)
        for k in range(1, 11):
            assert gf.coerce(k) * (gf.one() / gf.coerce(k)) == gf.one()

    def test_requires_prime(self):
        for p in (6, 1, 0, -7):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                GF(p)

    def test_modulus_mismatch(self):
        with pytest.raises(FieldMismatch):
            PrimeFieldElement(1, 5) + PrimeFieldElement(1, 7)

    def test_inv_int_obstruction(self):
        with pytest.raises(NonInvertibleScalar):
            GF(5).inv_int(10)

    def test_prime_field_mul(self):
        gf5 = GF(5)
        assert gf5.coerce(3) * gf5.coerce(4) == gf5.coerce(2)


@pytest.mark.parametrize("field", [QQ, GF(7), SURD], ids=lambda f: f.describe())
def test_a_real_field_has_no_imaginary_unit(field):
    with pytest.raises(FieldMismatch, match=f"^{field.tag} has no imaginary unit$"):
        field.imaginary_unit()


@pytest.mark.parametrize("field", [SURD, SURD_C], ids=lambda f: f.describe())
def test_the_surd_fields_do_not_sample(field):
    with pytest.raises(AttributeError, match="sample"):
        field.sample(random.Random(0))


@pytest.mark.parametrize("field", [QQ, QI, SURD, SURD_C, GF(7), GF(101)], ids=lambda f: f.describe())
def test_inv_int_is_the_reciprocal_in_the_field(field):
    for k in range(1, 40):
        if not field.from_int(k):
            continue
        x = field.inv_int(k)
        assert type(x) is type(field.one())
        assert x * field.from_int(k) == field.one()
        assert field.parse(field.format(x)) == x


class TestSurdReal:
    def test_default_is_zero(self):
        assert SurdReal() == SurdReal(0)
        assert not SurdReal()

    def test_spec_product(self):
        assert SurdReal({2: Fraction(1, 2)}) * SurdReal({2: 1}) == SurdReal(1)

    def test_rejects_non_squarefree_keys(self):
        with pytest.raises(ValueError):
            SurdReal({4: 1})

    @given(surds(), surds(), surds())
    def test_product_associative_commutative(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @given(squarefree)
    def test_sqrt_squares_to_base(self, d):
        root = SurdReal({d: 1})
        assert root * root == SurdReal(d)


class TestSurdComplex:
    def test_mul_distributes_over_parts(self):
        i = SurdComplex(0, 1)
        assert i * i == SurdComplex(-1, 0)
        x = SurdComplex(SurdReal({2: 1}), SurdReal(1))
        y = SurdComplex(SurdReal(2), SurdReal({3: 1}))
        prod = x * y
        assert prod.re == SurdReal({2: 2}) - SurdReal({3: 1})
        assert prod.im == SurdReal(2) + SurdReal({6: 1})


class TestParseFormat:
    @given(rationals)
    def test_rational_roundtrip(self, x):
        assert QQ.parse(QQ.format(QQ.coerce(x))) == QQ.coerce(x)

    @given(gaussian_halves, gaussian_halves)
    @example(Fraction(0), Fraction(0))
    @example(Fraction(0), Fraction(1))
    @example(Fraction(0), Fraction(-1))
    @example(Fraction(-2), Fraction(1))
    @example(Fraction(2), Fraction(-1))
    @example(Fraction(-10**50, 3), Fraction(-7, 10**40))
    def test_gaussian_roundtrip(self, a, b):
        # format reads the sign off the imaginary half's text; the oracle
        # compares that half with zero
        x = GaussianRational(a, b)
        assert QI.format(x) == gaussian_text(x)
        assert QI.parse(QI.format(x)) == x

    def test_gaussian_forms(self):
        assert QI.format(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
        halves = [(0, 0), (-5, 0), (0, 1), (0, -1), (2, 1), (2, -1), (0, Fraction(-3, 4))]
        assert [QI.format(GaussianRational(a, b)) for a, b in halves] == ["0", "-5", "1i", "-1i", "2+1i", "2-1i", "-3/4i"]
        assert QI.parse("1/2+3/4i") == GaussianRational(Fraction(1, 2), Fraction(3, 4))
        assert QI.parse("2i") == GaussianRational(0, 2)
        assert QI.parse("-7") == GaussianRational(-7, 0)

    def test_an_exponent_sign_does_not_split_a_scalar(self):
        # the sign of an exponent belongs to its number, over every field
        # that reads a sum of parts
        milli = Fraction(1, 500)
        assert QI.parse("1+2e-3i") == GaussianRational(1, milli)
        assert QI.parse("2E+1-1e-3i") == GaussianRational(20, Fraction(-1, 1000))
        assert QI.parse("2e-3i") == GaussianRational(0, milli)
        assert SURD.parse("2e-3") == SurdReal(milli)
        assert SURD.parse("1e+1*sqrt(2)-2e-3") == SurdReal({1: -milli, 2: 10})
        assert SURD_C.parse("(2e-3)+(1E+1*sqrt(2))i") == SurdComplex(SurdReal(milli), SurdReal({2: 10}))

    @given(surds())
    def test_surd_roundtrip(self, x):
        assert SURD.parse(SURD.format(x)) == x

    def test_surd_forms(self):
        x = SurdReal({1: Fraction(1, 2), 2: Fraction(-1, 3)})
        assert SURD.format(x) == "1/2-1/3*sqrt(2)"
        assert SURD.parse("1/2*sqrt(2)") == SurdReal({2: Fraction(1, 2)})

    def test_surd_radicands_are_canonicalised(self):
        # sqrt(s*s*f) = s*sqrt(f); the canonical strings do not change
        for text, want in [
            ("sqrt(4)", "2"),
            ("sqrt(8)", "2*sqrt(2)"),
            ("3*sqrt(12)", "6*sqrt(3)"),
            ("sqrt(0)", "0"),
            ("-sqrt(8)+1", "1-2*sqrt(2)"),
            ("1/2*sqrt(18)-sqrt(2)", "1/2*sqrt(2)"),
            ("5*sqrt(0)+sqrt(9)", "3"),
        ]:
            assert SURD.format(SURD.parse(text)) == want
        assert SURD_C.format(SURD_C.parse("(sqrt(8))+(sqrt(9))i")) == "(2*sqrt(2))+(3)i"
        with pytest.raises(ValueError):
            SURD.parse("sqrt(-2)")

    @given(surds(), st.integers(min_value=1, max_value=12))
    def test_scaled_radicands_parse_to_the_same_surd(self, x, s):
        terms = [f"{q / s}*sqrt({d * s * s})" for d, q in x.terms]
        text = "".join(t if t.startswith("-") else "+" + t for t in terms) or "0"
        assert SURD.parse(text) == x
        assert SURD.format(SURD.parse(SURD.format(x))) == SURD.format(x)

    @given(surds(), surds())
    def test_surd_complex_roundtrip(self, re, im):
        x = SurdComplex(re, im)
        assert SURD_C.parse(SURD_C.format(x)) == x

    def test_gf_roundtrip(self):
        gf = GF(11)
        for k in range(11):
            assert gf.parse(gf.format(gf.coerce(k))) == gf.coerce(k)


class TestWidening:
    def test_paths(self):
        q = QQ.coerce(Fraction(2, 3))
        assert widen_scalar(q, QQ, QI) == GaussianRational(Fraction(2, 3))
        assert widen_scalar(q, QQ, SURD) == SurdReal(Fraction(2, 3))
        g = GaussianRational(1, 2)
        w = widen_scalar(g, QI, SURD_C)
        assert w == SurdComplex(SurdReal(1), SurdReal(2))

    def test_rejected_paths(self):
        assert not can_widen(QI, QQ)
        assert not can_widen(GF(5), GF(7))
        with pytest.raises(FieldMismatch):
            widen_scalar(QI.one(), QI, SURD)

    def test_field_by_tag(self):
        assert field_by_tag("Q") is QQ
        assert field_by_tag("GF", 7) is GF(7)
        with pytest.raises(ValueError):
            field_by_tag("GF")
        with pytest.raises(ValueError):
            field_by_tag("R")

    @pytest.mark.parametrize("tag", ["Q", "Qi", "surd", "surd_c"])
    def test_prime_with_another_field_is_rejected(self, tag):
        with pytest.raises(ValueError, match=f"a prime p is only for the field GF, not '{tag}'"):
            field_by_tag(tag, 7)


class TestHashAgreesWithEquality:
    @given(rationals)
    def test_real_values_hash_like_their_rational(self, q):
        for x in (GaussianRational(q), SurdReal(q), SurdComplex(q), SurdComplex(SurdReal(q))):
            assert x == q
            assert hash(x) == hash(q)
        if q.denominator == 1:
            assert hash(GaussianRational(q)) == hash(int(q))

    @given(rationals, rationals)
    def test_surd_complex_hashes_like_gaussian_rational(self, re, im):
        g = GaussianRational(re, im)
        w = widen_scalar(g, QI, SURD_C)
        assert w == g
        assert hash(w) == hash(g)

    @given(surds())
    def test_real_surd_complex_hashes_like_its_real_part(self, re):
        x = SurdComplex(re)
        assert x == re
        assert hash(x) == hash(re)

    @given(rationals, rationals, rationals, st.booleans())
    def test_complex_surd_embedding_commutes_with_arithmetic(self, a, b, c, imaginary):
        x, y = GaussianRational(a, b), GaussianRational(0, c) if imaginary else GaussianRational(c)
        wide = SURD_C.coerce
        for op in (operator.add, operator.sub, operator.mul):
            want = op(x, y)
            for got in (op(wide(x), wide(y)), op(wide(x), y), op(x, wide(y))):
                assert type(got) is SurdComplex
                assert got == wide(want) and got == want
                assert hash(got) == hash(want)

    def test_complex_pairs_keep_their_names(self):
        g, w = GaussianRational(1, Fraction(-1, 2)), SurdComplex(SurdReal({2: 1}), 3)
        assert repr(g) == "GaussianRational(Fraction(1, 1), Fraction(-1, 2))"
        assert repr(w) == "SurdComplex(SurdReal({2: Fraction(1, 1)}), SurdReal({1: Fraction(3, 1)}))"
        for x, name in ((g, "GaussianRational"), (w, "SurdComplex")):
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                x.re = 0

    @pytest.mark.parametrize("x", [PrimeFieldElement(3, 7), SurdReal({2: 1})], ids=repr)
    def test_real_types_are_immutable(self, x):
        with pytest.raises(AttributeError, match=f"^{type(x).__name__} is immutable$"):
            x.residue = 0

    def test_mixed_sets_collapse(self):
        values = {1, Fraction(1), GaussianRational(1), SurdReal(1), SurdComplex(1)}
        assert len(values) == 1

    @given(st.lists(scalar_values, max_size=6).flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
    def test_equality_is_an_equivalence_that_hash_respects(self, values):
        xs, shuffled = values
        for a in xs:
            for b in xs:
                if a == b:
                    assert b == a
                    assert hash(a) == hash(b)
                    assert all(a == c for c in xs if b == c)
        assert len(set(xs)) == len(set(shuffled))

    def test_prime_field_element_equals_only_its_own_field(self):
        x = PrimeFieldElement(3, 7)
        assert x != 3 and 3 != x and x != 10
        assert x == GF(7).coerce(10) and x != PrimeFieldElement(3, 11)
        assert {x: "x"}.get(GF(7).coerce(10)) == "x"
        assert len({3, x}) == 2

    def test_equality_across_families_is_transitive(self):
        half = Fraction(1, 2)
        g, s = GaussianRational(half), SurdReal(half)
        assert g == s and s == g
        assert len({half, g, s}) == len({g, s, half}) == 1
        assert GaussianRational(0, 1) != SurdReal({2: 1})
        assert SurdReal({2: 1}) == SurdComplex(SurdReal({2: 1}))


class TestParseErrors:
    def test_zero_denominator(self):
        for field, text in ((QQ, "1/0"), (QI, "1/0i"), (SURD, "1/0*sqrt(2)")):
            with pytest.raises(DivisionByZero):
                field.parse(text)

    def test_non_string(self):
        for field in (QQ, QI, GF(7), SURD, SURD_C):
            with pytest.raises(MalformedWire):
                field.parse(1)


class TestReflectedOperators:
    """``k + x``, ``k - x``, ``k * x`` and ``k / x`` with an integer k on
    the left reach the reflected operators, and ``x + k`` and ``x * k``
    the forward ones; each must agree with the field's own k (the surd
    types do not divide)."""

    primes = st.sampled_from([2, 7, 101])

    @given(st.integers(min_value=-50, max_value=50), primes.flatmap(
        lambda p: st.integers(min_value=1, max_value=p - 1).map(lambda r: PrimeFieldElement(r, p))
    ))
    def test_prime_field(self, k, x):
        field = GF(x.p)
        assert k + x == x + k == field.from_int(k) + x
        assert k * x == x * k == field.from_int(k) * x
        assert k - x == field.from_int(k) - x
        assert k / x == field.from_int(k) / x

    @given(st.integers(min_value=-50, max_value=50), st.builds(GaussianRational, rationals, rationals).filter(bool))
    def test_gaussian_field(self, k, x):
        assert k + x == x + k == QI.from_int(k) + x
        assert k * x == x * k == QI.from_int(k) * x
        assert k - x == QI.from_int(k) - x
        assert k / x == QI.from_int(k) / x

    @given(st.integers(min_value=-50, max_value=50), surds(min_terms=1).filter(bool))
    def test_surd_field(self, k, x):
        assert k + x == x + k == SURD.from_int(k) + x
        assert k * x == x * k == SURD.from_int(k) * x
        assert k - x == SURD.from_int(k) - x

    @pytest.mark.parametrize("x", [SurdReal({2: 1}), SurdComplex(SurdReal({2: 1}), SurdReal(1))], ids=repr)
    def test_surd_values_do_not_divide(self, x):
        for a, b in ((x, x), (2, x), (x, 2)):
            with pytest.raises(TypeError):
                a / b

    @pytest.mark.parametrize("x", [PrimeFieldElement(3, 7), SurdReal({2: Fraction(1, 2)})], ids=repr)
    def test_foreign_operand_is_a_type_error(self, x):
        with pytest.raises(TypeError):
            "3" - x
        with pytest.raises(TypeError):
            "3" / x
