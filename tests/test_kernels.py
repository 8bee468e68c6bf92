"""The integer product kernels and the raw entry constructors of ``matrix``.

``matrix._product`` multiplies two complex integer forms with Gauss's
three real products, and ``matrix._real_product`` slices each row once
per product; the oracle is the entry-by-entry loop and the four-product
formula of ``tests/oracle.py``, and, on whole matrices, the plain
entrywise product over Q, Q(i), GF(p) and surd_c.  ``Field.entries``
(behind ``_from_parts``) builds its canonical entries with ``_raw``
constructors that skip ``__init__``, and its rationals with
``scalars.raw_rational``, which skips ``Fraction.__new__``: a raw value must equal, hash and print as
the value ``__init__`` (or ``Fraction(x, den)``) builds
(``from_integer_form`` is held to entries built entry by entry in
``tests/test_integer_form.py``).  Numerators run from negative to above
2**64.
"""
import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affgebra.matrix import Matrix, _product, _real_product, commutator_shift
from affgebra.scalars import (
    GF,
    QI,
    QQ,
    SURD_C,
    GaussianRational,
    PrimeFieldElement,
    SurdComplex,
    SurdReal,
    raw_rational,
)
from oracle import plain_commutator_shift, plain_complex_product, plain_matmul, plain_real_product

# zeros and small values, and integers of 65 to 71 bits of either sign
numerators = (st.integers(-3, 3) | st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
              | st.integers(-(2**70), 2**70))
rationals = st.builds(Fraction, numerators, st.integers(1, 2**66))
RADICALS = (1, 2, 3, 6)
PRIMES = (2, 7, 101, 2**31 - 1)


@st.composite
def surd_reals(draw):
    keys = draw(st.sets(st.sampled_from(RADICALS), max_size=2))
    return SurdReal({d: draw(rationals) for d in sorted(keys)})


def entries(field):
    if field is QQ:
        return rationals
    if field is QI:
        return st.builds(GaussianRational, rationals, rationals)
    if field is SURD_C:
        return st.builds(SurdComplex, surd_reals(), surd_reals())
    # an integer the field reduces to its residue
    return numerators


def printed(matrix):
    return [[(repr(x), hash(x)) for x in row] for row in matrix.rows]


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 9), data=st.data())
def test_products_match_the_entrywise_loops(m, data):
    a, b = (data.draw(st.lists(numerators, min_size=2 * m * m, max_size=2 * m * m)) for _ in range(2))
    mm = m * m
    want = plain_real_product(m, a[:mm], b[:mm])
    assert _real_product(m, a[:mm], b[:mm]) == want
    assert _product(False, m, a[:mm], b[:mm]) == want
    assert _product(True, m, a, b) == plain_complex_product(m, a, b)


@pytest.mark.parametrize("field", [QQ, QI, GF(2), GF(101), SURD_C], ids=lambda f: f.describe())
@settings(max_examples=12, deadline=None)
@given(m=st.integers(1, 9), data=st.data())
def test_matrix_products_match_entrywise(field, m, data):
    # inputs through __init__; the kernels' results are built by Field.entries
    a, b = (Matrix(field, data.draw(st.lists(st.lists(entries(field), min_size=m, max_size=m),
                                             min_size=m, max_size=m))) for _ in range(2))
    want = plain_matmul(a, b)
    got = a @ b
    assert got == want and hash(got) == hash(want)
    assert printed(got) == printed(want)
    got, want = commutator_shift(a, b), plain_commutator_shift(a, b)
    assert got == want and printed(got) == printed(want)


def assert_built_alike(raw, built):
    assert type(raw) is type(built)
    assert raw == built and built == raw
    assert hash(raw) == hash(built)
    assert repr(raw) == repr(built)
    with pytest.raises(AttributeError):
        raw.re = 0


@settings(max_examples=200, deadline=None)
@given(re=rationals, im=rationals | st.just(Fraction(0)))
def test_raw_gaussian_rational_is_the_init_value(re, im):
    raw = GaussianRational._raw(re, im)
    assert_built_alike(raw, GaussianRational(re, im))
    if not im:
        # a real value equals and hashes like its real part
        assert raw == re and hash(raw) == hash(re)


@settings(max_examples=200, deadline=None)
@given(re=surd_reals(), im=surd_reals())
def test_raw_surd_complex_is_the_init_value(re, im):
    raw = SurdComplex._raw(re, im)
    assert_built_alike(raw, SurdComplex(re, im))
    if not im:
        assert raw == re and hash(raw) == hash(re)


@settings(max_examples=200, deadline=None)
@given(x=numerators, p=st.sampled_from(PRIMES))
def test_raw_prime_field_element_is_the_init_value(x, p):
    raw = PrimeFieldElement._raw(x % p, p)
    assert_built_alike(raw, PrimeFieldElement(x, p))
    assert raw == PrimeFieldElement(x, p)


def test_fraction_keeps_the_slots_raw_rational_sets():
    # raw_rational writes these two slots; an interpreter whose Fraction
    # stores its value elsewhere fails here first
    assert "_numerator" in Fraction.__slots__ and "_denominator" in Fraction.__slots__


@settings(max_examples=300, deadline=None)
@given(x=st.just(0) | st.integers(-(2**70), 2**70), den=st.integers(1, 2**70), other=st.integers(-9, 9) | rationals)
def test_raw_rational_is_the_fraction_value(x, den, other):
    raw, built = raw_rational(x, den), Fraction(x, den)
    assert type(raw) is Fraction
    assert raw == built and hash(raw) == hash(built)
    assert (repr(raw), str(raw)) == (repr(built), str(built))
    assert (raw.numerator, raw.denominator) == (built.numerator, built.denominator)
    assert type(raw.numerator) is type(raw.denominator) is int
    for twin in (pickle.loads(pickle.dumps(raw)), copy.copy(raw), copy.deepcopy(raw)):
        assert type(twin) is Fraction and twin == built and repr(twin) == repr(built)
    # arithmetic and order against ints and Fractions, on either side
    assert (raw + other, other + raw) == (built + other, other + built)
    assert (raw * other, other * raw) == (built * other, other * built)
    assert ((raw < other), (other < raw)) == ((built < other), (other < built))
