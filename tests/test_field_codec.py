"""Each field's integer-form codec (``scalars.Field``): ``parts`` reads
canonical values into reduced rational parts, ``entries`` makes them
back, ``read_entries`` gives entry strings in the same layout, and
``draw`` is the field's one sampler of coefficients.  The properties:
``entries(parts(xs))`` is ``xs`` entry by entry in type, value, ``repr``
and ``hash``; the parts are reduced and laid out as
``Matrix.rational_parts``; ``read_entries`` of the formatted values
gives the radicals in increasing order, 1 first, over one denominator,
and ``entries`` of that is ``xs`` again; and ``draw`` consumes the
random stream exactly as ``sample_numerators`` or ``sample_residues``
does.
"""
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from affgebra.scalars import (
    GF,
    QI,
    QQ,
    SAMPLE_DEN,
    SURD,
    SURD_C,
    GaussianRational,
    SurdComplex,
    SurdReal,
    read_entries,
    sample_numerators,
    sample_residues,
)

FIELDS = [QQ, QI, GF(2), GF(7), GF(101), SURD, SURD_C]
IDS = [f.describe() for f in FIELDS]

rationals = st.builds(Fraction, st.integers(-(2**70), 2**70) | st.integers(-3, 3), st.integers(1, 2**40) | st.integers(1, 6))


@st.composite
def surd_reals(draw):
    keys = draw(st.sets(st.sampled_from([1, 2, 3, 6, 10, 7]), max_size=3))
    return SurdReal({d: draw(rationals) for d in keys})


def values(field):
    if field is QQ:
        return rationals
    if field is QI:
        return st.builds(GaussianRational, rationals, rationals)
    if field is SURD:
        return surd_reals()
    if field is SURD_C:
        return st.builds(SurdComplex, surd_reals(), surd_reals())
    return st.integers(-(2**40), 2**40).map(field.coerce)


def value_lists(field):
    # empty matrices have no entries, so at least one value; zeros often
    return st.lists(values(field) | st.just(field.zero()), min_size=1, max_size=9)


def _same_entries(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y)
        assert x == y and repr(x) == repr(y) and hash(x) == hash(y)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_entries_inverts_parts(field, data):
    xs = data.draw(value_lists(field))
    parts = field.parts(xs)
    # reduced, as Matrix.rational_parts lays them out
    keys = [g for g, _ in parts]
    assert keys[0] == 1 and keys == sorted(set(keys))
    width = 2 * len(xs) if field.is_complex else len(xs)
    for g, (nums, den) in parts:
        assert len(nums) == width and den > 0
        assert reduce(gcd, nums, den) == 1
        assert g == 1 or any(nums)
        if field.characteristic:
            assert den == 1 and all(0 <= x < field.p for x in nums)
    _same_entries(field.entries(parts), xs)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_read_entries_lays_out_the_parts(field, data):
    xs = data.draw(value_lists(field))
    parts = read_entries(field, [field.format(x) for x in xs])
    keys = [g for g, _ in parts]
    assert keys[0] == 1 and keys == sorted(set(keys))
    assert len({den for _, (_, den) in parts}) == 1 and parts[0][1][1] > 0
    width = 2 * len(xs) if field.is_complex else len(xs)
    assert all(len(nums) == width for _, (nums, _) in parts)
    if field.characteristic:
        assert parts[0][1][1] == 1 and all(0 <= x < field.p for x in parts[0][1][0])
    # canonical values are written with no term that cancels
    assert keys == [g for g, _ in field.parts(xs)]
    _same_entries(field.entries(parts), xs)


def test_read_entries_keeps_a_cancelled_radical_over_one_denominator():
    assert read_entries(SURD, ["sqrt(8)-2*sqrt(2)", "1/2+sqrt(3)"]) == ((1, ([0, 1], 2)), (2, ([0, 0], 2)), (3, ([0, 2], 2)))
    assert read_entries(GF(7), ["-1", " 15 "]) == ((1, ([6, 1], 1)),)
    assert read_entries(QI, ["1/2-i", "2/3"]) == ((1, ([3, 4, -6, 0], 6)),)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@given(seed=st.integers(0, 2**32), count=st.integers(0, 12))
def test_draw_consumes_the_stream_of_its_sampler(field, seed, count):
    rng, ref = random.Random(seed), random.Random(seed)
    got = field.draw(rng, count)
    if field.characteristic:
        want = sample_residues(ref, field.p, count), 1
    else:
        want = sample_numerators(ref, count), SAMPLE_DEN
    assert got == want
    assert rng.getstate() == ref.getstate()
