"""Matrices over the surd fields, run on their rational parts.

A surd matrix is sum_g sqrt(g)*M_g with each M_g over Q (real surds) or
Q(i) (complex surds).  Heap, heap5, the action, the affine commutator,
the sum, the difference, the product, equality, class membership and
block membership run on the parts.  The oracle is the plain entrywise
scalar path of ``tests/oracle.py``.  Entries draw their radicals from
{1, 2, 3, 5, 6}, so products create radicals (sqrt(2)*sqrt(3) =
sqrt(6), sqrt(2)*sqrt(6) = 2*sqrt(3)) and cancel them.
"""
import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from affgebra.affine import COMMUTATOR, Zeta, action, bracket, heap, heap5
from affgebra.classes import ClassKind, MatrixClassSpec, contains, sample
from affgebra.matrix import Matrix, commutator_shift, matrix_to_wire
from affgebra.scalars import QI, QQ, SURD, SURD_C, SurdComplex, SurdReal
from affgebra.transforms import block_target
from oracle import (
    plain_action,
    plain_add,
    plain_block_contains,
    plain_commutator_shift,
    plain_contains,
    plain_heap,
    plain_heap5,
    plain_matmul,
    plain_sub,
)

RADICALS = (1, 2, 3, 5, 6)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def surd_reals(draw):
    keys = draw(st.sets(st.sampled_from(RADICALS), max_size=3))
    return SurdReal({d: draw(rationals) for d in sorted(keys)})


def scalars(field):
    if field is SURD:
        return surd_reals()
    return st.builds(SurdComplex, surd_reals(), surd_reals())


@st.composite
def cases(draw, count):
    field = draw(st.sampled_from((SURD, SURD_C)))
    m = draw(st.integers(min_value=1, max_value=5))
    entry = scalars(field)
    return field, [Matrix(field, [[draw(entry) for _ in range(m)] for _ in range(m)]) for _ in range(count)]


def assert_same(got, want):
    assert got == want
    assert got.rows == want.rows
    assert hash(got) == hash(want)
    assert json.dumps(matrix_to_wire(got)) == json.dumps(matrix_to_wire(want))
    parts = got.rational_parts()
    # canonical parts: g increasing, M_1 first, each a form of m² numerators
    # per half, no other part zero
    assert [g for g, _ in parts] == sorted(g for g, _ in parts) and parts[0][0] == 1
    halves = 2 if got.field.is_complex else 1
    assert all(len(nums) == halves * got.size**2 for _, (nums, _) in parts)
    assert all(any(nums) for _, (nums, _) in parts[1:])
    # equal matrices carry identical parts, however they were built
    assert Matrix(got.field, got.rows).rational_parts() == parts == want.rational_parts()


@settings(max_examples=20, deadline=None)
@given(case=cases(5))
def test_heap_and_heap5_match_entrywise(case):
    field, (a, b, c, d, e) = case
    assert_same(heap(a, b, c), plain_heap(a, b, c))
    assert_same(heap5(a, b, c, d, e), plain_heap5(a, b, c, d, e))
    assert_same(heap(a, b, b), a)


@settings(max_examples=40, deadline=None)
@given(case=cases(2), alpha=rationals, data=st.data())
def test_action_matches_entrywise(case, alpha, data):
    field, (a, b) = case
    for al in (alpha, Fraction(0), Fraction(1), data.draw(scalars(field))):
        assert_same(action(al, a, b), plain_action(al, a, b))
        assert_same(bracket(Zeta(al), a, b), plain_action(al, a, b))


@settings(max_examples=30, deadline=None)
@given(case=cases(2))
def test_sum_difference_product_and_commutator_match_entrywise(case):
    field, (a, b) = case
    assert_same(a + b, plain_add(a, b))
    assert_same(a - b, plain_sub(a, b))
    assert_same(a @ b, plain_matmul(a, b))
    assert_same(commutator_shift(a, b), plain_commutator_shift(a, b))
    assert_same(bracket(COMMUTATOR, a, b), plain_commutator_shift(a, b))


@settings(max_examples=20, deadline=None)
@given(case=cases(2), data=st.data())
def test_equality_is_entrywise_equality(case, data):
    field, (a, b) = case
    assert (a == b) == (a.rows == b.rows)
    twin = Matrix(field, [[x * 1 for x in row] for row in a.rows])
    assert twin == a and hash(twin) == hash(a)
    bump = data.draw(scalars(field).filter(bool))
    other = a.with_entry(0, 0, a.entry(0, 0) + bump)
    assert other != a and other.rows != a.rows


# -- membership ---------------------------------------------------------------

U_SPECS = [(ClassKind.ONA, SURD, QQ), (ClassKind.UNA, SURD_C, QI), (ClassKind.SUNA, SURD_C, QI)]


def sqrt(field, g):
    return field.coerce(SurdReal({g: 1}))


def surd_member(points, field, radicals):
    """points[0] + sum_g sqrt(g)*(points[2k+1] - points[2k+2]) over the surd
    field: the differences are directions, so it is a member whenever
    the points are."""
    m = points[0].widen(field)
    for k, g in enumerate(radicals):
        direction = (points[2 * k + 1] - points[2 * k + 2]).widen(field)
        m = m + direction.scale(sqrt(field, g))
    return m


def moved(m, i, j, delta, pair, imaginary):
    """m + delta (times i if ``imaginary``, over the complex surds) at
    (i, j), and minus its conjugate at (j, i) for a pair."""
    if imaginary and m.field.is_complex:
        delta = delta * m.field.imaginary_unit()
    out = m.with_entry(i, j, m.entry(i, j) + delta)
    if pair:
        out = out.with_entry(j, i, out.entry(j, i) - m.field.conjugate(m.field.coerce(delta)))
    return out


moves = st.sampled_from(("none", "entry", "pair"))
positions = st.integers(min_value=0, max_value=5)
radical_lists = st.lists(st.sampled_from(RADICALS[1:]), min_size=1, max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(U_SPECS),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    radicals=radical_lists,
    move=moves,
    i=positions,
    j=positions,
    g=st.sampled_from(RADICALS),
    delta=rationals.filter(bool),
    imaginary=st.booleans(),
)
def test_class_membership_matches_entrywise(which, n, seed, radicals, move, i, j, g, delta, imaginary):
    kind, field, rational = which
    s = MatrixClassSpec(kind, n, field)
    points = [sample(MatrixClassSpec(kind, n, rational), seed, k) for k in range(2 * len(radicals) + 1)]
    m = surd_member(points, field, radicals)
    assert contains(s, m) and plain_contains(s, m)
    if move != "none":
        m = moved(m, i % m.size, j % m.size, sqrt(field, g) * delta, move == "pair", imaginary)
    assert contains(s, m) is plain_contains(s, m)


@settings(max_examples=60, deadline=None)
@given(
    which=st.sampled_from(U_SPECS),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    radicals=radical_lists,
    frame=st.lists(st.sampled_from(RADICALS), min_size=6, max_size=6),
    move=moves,
    i=positions,
    j=positions,
    g=st.sampled_from(RADICALS),
    delta=rationals.filter(bool),
    imaginary=st.booleans(),
)
def test_block_membership_matches_entrywise(which, n, seed, radicals, frame, move, i, j, g, delta, imaginary):
    kind, field, _ = which
    target = block_target(MatrixClassSpec(kind, n, field))
    rng = random.Random(seed)
    z = surd_member([target.sample(rng) for _ in range(2 * len(radicals) + 1)], field, radicals)
    assert target.contains(z)
    if move != "none":
        z = moved(z, i % z.size, j % z.size, sqrt(field, g) * delta, move == "pair", imaginary)
    for rad in (None, tuple(frame[: z.size])):
        assert target.contains(z, rad) is plain_block_contains(target, z, rad)
