"""The integer samplers against the Fraction-based samplers they replace.

``classes.draw_element`` and ``BlockTarget.sample`` draw their integer
forms straight from (numerator, denominator) pairs.  The oracles here are
the samplers as they were before: every coefficient or block entry a
``Fraction`` (a Gaussian rational, a GF(p) element) drawn with
``rng.randint`` numerator first, combined by matrix arithmetic.  Both
must give equal matrices with equal wire forms and leave the random
stream in the same state after every draw.  Block membership on the
numerators of m - base is checked against the entrywise
``plain_block_contains`` of ``tests/oracle.py``.

Every draw goes through ``sample_numerators`` and ``sample_residues``,
which call ``rng.getrandbits`` with the rejection rule of CPython's
``randint`` and ``randrange``.  ``rng.randint`` and ``rng.randrange``
stay the oracle of both, for every bound the package uses: if a later
Python draws them differently, the first property here fails.
"""
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from affgebra.classes import ClassKind, MatrixClassSpec, draw_element, subspace
from affgebra.matrix import Matrix, matrix_to_wire
from affgebra.scalars import (
    GF,
    QI,
    QQ,
    SAMPLE_BOUND,
    SAMPLE_DEN,
    SURD,
    SURD_C,
    GaussianRational,
    PrimeFieldElement,
    sample_numerators,
    sample_residues,
)
from affgebra.transforms import block_target
from oracle import plain_block_contains

SIZES = range(1, 6)
SPECS = (
    [MatrixClassSpec(k, n, f) for k in (ClassKind.GNA, ClassKind.SNA) for f in (QQ, QI, GF(7), GF(101)) for n in SIZES]
    + [MatrixClassSpec(ClassKind.ONA, n, QQ) for n in SIZES]
    + [MatrixClassSpec(k, n, QI) for k in (ClassKind.UNA, ClassKind.SUNA) for n in SIZES]
)
# the surd targets draw over Q and Q(i)
SURD_SPECS = [MatrixClassSpec(ClassKind.ONA, n, SURD) for n in SIZES] + [
    MatrixClassSpec(k, n, SURD_C) for k in (ClassKind.UNA, ClassKind.SUNA) for n in SIZES
]


# -- the Fraction-based samplers (oracle) ---------------------------------


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _scalar(field, rng):
    if field.characteristic:
        return PrimeFieldElement(rng.randrange(field.p), field.p)
    if field.is_complex:
        re = _rational(rng)
        return GaussianRational(re, _rational(rng))
    return _rational(rng)


def fraction_draw_element(s, rng):
    """The particular solution plus one drawn coefficient times each
    direction, the coefficients rational over Q(i): there the solver
    lists v and i·v, so the draws of a coefficient's two parts scale
    the pair."""
    space = subspace(s)
    coeff_field = s.field if s.field.characteristic else QQ
    m = space.particular
    for d in space.directions:
        m = m + d.scale(_scalar(coeff_field, rng))
    return m


def fraction_block_sample(target, rng):
    """The base plus a block drawn entry by entry."""
    kind, n, field = target.block_kind, target.n, target.field
    zero = field.zero()
    block = [[zero] * n for _ in range(n)]
    if kind in ("gl", "sl"):
        for i in range(n):
            for j in range(n):
                block[i][j] = field.coerce(_scalar(field, rng))
    elif kind == "o":
        for i in range(n):
            for j in range(i + 1, n):
                x = field.coerce(_rational(rng))
                block[i][j], block[j][i] = x, -x
    else:
        for k in range(n):
            block[k][k] = field.imaginary_unit() * field.coerce(_rational(rng))
        for k in range(n):
            for l in range(k + 1, n):
                x = field.coerce(_scalar(QI, rng))
                block[k][l], block[l][k] = x, -field.conjugate(x)
    if kind in ("sl", "su"):
        block[n - 1][n - 1] = -sum((block[k][k] for k in range(n - 1)), zero)
    rows = [list(row) for row in target.base_block.rows]
    for i in range(n):
        for j in range(n):
            rows[i][j] = rows[i][j] + block[i][j]
    return Matrix(field, rows)


def assert_same_draws(draw, oracle, seed, count=2):
    """``count`` draws in a row from one stream: equal matrices, equal
    wire forms and equal stream states after each."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(count):
        got, want = draw(rng), oracle(ref)
        assert got == want
        assert matrix_to_wire(got) == matrix_to_wire(want)
        assert rng.getstate() == ref.getstate()


seeds = st.integers(min_value=0, max_value=2**32)
# every prime bound of the tests and the benchmark, and a few around powers of two
PRIMES = (2, 3, 7, 101, 127, 257, 8191, 65537, 2**31 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, count=st.integers(min_value=0, max_value=40), p=st.sampled_from(PRIMES))
def test_bit_level_draws_equal_randint_and_randrange(seed, count, p):
    rng, ref = random.Random(seed), random.Random(seed)
    want = [
        ref.randint(-SAMPLE_BOUND, SAMPLE_BOUND) * (SAMPLE_DEN // ref.randint(1, SAMPLE_BOUND))
        for _ in range(count)
    ]
    assert sample_numerators(rng, count) == want
    assert rng.getstate() == ref.getstate()
    assert sample_residues(rng, p, count) == [ref.randrange(p) for _ in range(count)]
    assert rng.getstate() == ref.getstate()
    for field in (QQ, QI, GF(p)):
        got, old = field.sample(rng), _scalar(field, ref)
        assert type(got) is type(old) and got == old
        assert field.format(got) == field.format(old)
        assert rng.getstate() == ref.getstate()


@settings(max_examples=150, deadline=None)
@given(s=st.sampled_from(SPECS), seed=seeds)
def test_class_draws_equal_the_fraction_draws(s, seed):
    assert_same_draws(lambda rng: draw_element(s, rng), lambda rng: fraction_draw_element(s, rng), seed)


@settings(max_examples=150, deadline=None)
@given(s=st.sampled_from(SPECS + SURD_SPECS), seed=seeds)
def test_block_draws_equal_the_fraction_draws(s, seed):
    target = block_target(s)
    assert_same_draws(target.sample, lambda rng: fraction_block_sample(target, rng), seed)


def _move(target, z, move, i, j, delta):
    """z with delta added as named: one entry, an antisymmetric
    (anti-hermitian) pair, or a diagonal pair that keeps the trace."""
    field, conj = target.field, target.field.conjugate
    delta = field.coerce(delta)
    rows = [list(row) for row in z.rows]
    if move == "entry":
        rows[i][j] += delta
    elif move == "pair" and i != j:
        rows[i][j] += delta
        rows[j][i] -= conj(delta)
    elif move == "trace" and i != j:
        rows[i][i] += delta
        rows[j][j] -= delta
    return Matrix(field, rows)


@settings(max_examples=200, deadline=None)
@given(
    s=st.sampled_from(SPECS),
    seed=seeds,
    move=st.sampled_from(("none", "entry", "pair", "trace")),
    i=st.integers(min_value=0, max_value=5),
    j=st.integers(min_value=0, max_value=5),
    re=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    im=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    radicals=st.lists(st.sampled_from((1, 2, 3, 5, 6, 10)), min_size=6, max_size=6),
)
def test_block_membership_on_the_difference_form_matches_entrywise(s, seed, move, i, j, re, im, radicals):
    target = block_target(s)
    z = target.sample(random.Random(seed))
    size = z.size
    if s.field.characteristic:
        delta = int(re * 4)
    elif s.field.is_complex:
        delta = GaussianRational(re, im)
    else:
        delta = re
    z = _move(target, z, move, i % size, j % size, delta)
    for rad in ((1,) * size, tuple(radicals[:size])):
        assert target.contains(z, rad) is plain_block_contains(target, z, rad)
    if move == "none":
        assert target.contains(z)
