"""The canonical integer form of matrices over Q, Q(i) and GF(p).

Over Q and Q(i) every matrix carries one reduced integer form (a flat
numerator list over one positive denominator), over GF(p) its residues
in [0, p) over denominator 1.  Heap, heap5, the action (with a rational
scalar over Q(i)), the affine commutator, the sum, the difference, the
product, equality and membership run on it.  The oracle here is the
plain entrywise scalar path of ``tests/oracle.py``: the same formulas
written with the field's own scalar arithmetic.

``tests/golden/integer_form.json`` holds the wire output of
``golden_document()`` as computed by the entrywise path; regenerate it
only for an intended change of output with

    PYTHONPATH=src:tests python -c "import json, test_integer_form as t; \
print(json.dumps(t.golden_document(), indent=1))" > tests/golden/integer_form.json
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affgebra.affine import COMMUTATOR, Zeta, action, bracket, heap, heap5, lie_retract_bracket
from affgebra.checks import replay, run_check
from affgebra.classes import ClassKind, MatrixClassSpec, contains, sample
from affgebra.cli import main
from affgebra.errors import NonInvertibleScalar
from affgebra.matrix import Matrix, commutator_shift, graded, matrix_to_wire
from affgebra.scalars import GF, QI, QQ, SURD, SURD_C, GaussianRational, SurdComplex, SurdReal
from oracle import (
    plain_action,
    plain_add,
    plain_commutator_shift,
    plain_contains,
    plain_heap,
    plain_heap5,
    plain_matmul,
    plain_sub,
)

GOLDEN = Path(__file__).parent / "golden" / "integer_form.json"
SEED = 20240601
CLASSES = (ClassKind.GNA, ClassKind.SNA, ClassKind.ONA, ClassKind.UNA, ClassKind.SUNA)
KINDS = [COMMUTATOR] + [Zeta(Fraction(z)) for z in (0, 1, 2, -1)]
HEAP_ACTION_CHECKS = (
    "heap-assoc", "malcev", "heap-comm", "act-add", "act-heap",
    "act-assoc", "act-unit", "act-zero", "act-base-change",
)
BRACKET_CHECKS = ("bracket-left-affine", "bracket-right-affine", "antisym", "jacobi", "closure")


def spec(kind, n):
    field = QI if kind in (ClassKind.UNA, ClassKind.SUNA) else QQ
    return MatrixClassSpec(kind, n, field)


# -- golden wire output -----------------------------------------------------


def _report(report):
    doc = report.to_wire()
    doc.pop("elapsed_ms")
    return doc


def _perturb(i, inputs):
    out = dict(inputs)
    x = out["x"]
    out["x"] = x.with_entry(0, 0, x.entry(0, 0) + 1)
    return out


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_document() -> dict:
    cases = []
    for kind in CLASSES:
        for n in range(1, 5):
            s = spec(kind, n)
            a, b, o = (sample(s, SEED, i) for i in range(3))
            reports = [_report(run_check(name, s, COMMUTATOR, SEED, trials=2)) for name in HEAP_ACTION_CHECKS]
            brackets = []
            for k in KINDS:
                brackets.append({
                    "bracket": k.label(),
                    "a_b": matrix_to_wire(bracket(k, a, b)),
                    "retract_at_o": matrix_to_wire(lie_retract_bracket(k, o, a, b)),
                    "reports": [_report(run_check(name, s, k, SEED, trials=2)) for name in BRACKET_CHECKS],
                })
            cases.append({
                "class": s.describe(),
                "sample": _cli("sample", "--class", kind.value, "--n", str(n),
                               "--seed", str(SEED), "--count", "3")["stdout"],
                "reports": reports,
                "brackets": brackets,
            })
    faults = []
    for kind in CLASSES:
        s = spec(kind, 2)
        report = run_check("closure", s, Zeta(Fraction(2)), SEED, trials=5, mutate=_perturb)
        faults.append({"report": _report(report), "replay": _report(replay(report.to_wire()))})
    return {"cases": cases, "fault_injected_closure": faults}


def test_golden_wire_output_byte_identical():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert json.dumps(golden_document(), indent=1) + "\n" == expected


# -- integer form against the entrywise path ---------------------------------

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def matrices(draw, field, m, count):
    def scalar():
        if field is QQ:
            return draw(rationals)
        return GaussianRational(draw(rationals), draw(rationals))

    return [Matrix(field, [[scalar() for _ in range(m)] for _ in range(m)]) for _ in range(count)]


@st.composite
def cases(draw, count):
    field = draw(st.sampled_from((QQ, QI)))
    m = draw(st.integers(min_value=1, max_value=5))
    return field, draw(matrices(field, m, count))


def assert_same(got, want):
    assert got == want
    assert got.rows == want.rows
    assert json.dumps(matrix_to_wire(got)) == json.dumps(matrix_to_wire(want))
    nums, den = got.integer_form()
    assert den > 0 and gcd(den, *nums) == 1
    if got.field.characteristic:
        # residues over denominator 1
        assert den == 1 and all(0 <= x < got.field.p for x in nums)
    # equal matrices carry identical forms, however they were built
    assert got.integer_form() == Matrix(got.field, got.rows).integer_form() == want.integer_form()


@settings(max_examples=30, deadline=None)
@given(case=cases(5))
def test_heap_and_heap5_match_entrywise(case):
    field, (a, b, c, d, e) = case
    assert_same(heap(a, b, c), plain_heap(a, b, c))
    assert_same(heap5(a, b, c, d, e), plain_heap5(a, b, c, d, e))
    assert_same(heap(a, b, b), a)


@settings(max_examples=30, deadline=None)
@given(case=cases(2), alpha=rationals)
def test_rational_action_matches_entrywise(case, alpha):
    field, (a, b) = case
    for al in (alpha, Fraction(0), Fraction(1)):
        assert_same(action(al, a, b), plain_action(al, a, b))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=1, max_value=5), data=st.data(), re=rationals, im=rationals.filter(bool))
def test_nonreal_action_matches_entrywise(m, data, re, im):
    a, b = data.draw(matrices(QI, m, 2))
    alpha = GaussianRational(re, im)
    assert_same(action(alpha, a, b), plain_action(alpha, a, b))


@settings(max_examples=60, deadline=None)
@given(case=cases(2))
def test_product_and_commutator_match_entrywise(case):
    field, (a, b) = case
    assert_same(a + b, plain_add(a, b))
    assert_same(a - b, plain_sub(a, b))
    assert_same(a @ b, plain_matmul(a, b))
    assert_same(commutator_shift(a, b), plain_commutator_shift(a, b))
    assert_same(bracket(COMMUTATOR, a, b), plain_commutator_shift(a, b))


@settings(max_examples=60, deadline=None)
@given(case=cases(2))
def test_equality_is_entrywise_equality(case):
    field, (a, b) = case
    assert (a == b) == (a.rows == b.rows)
    twin = Matrix(field, [[x * 1 for x in row] for row in a.rows])
    assert twin == a and hash(twin) == hash(a)
    assert twin.integer_form() == a.integer_form()
    other = a.with_entry(0, 0, a.entry(0, 0) + 1)
    assert other != a and other.integer_form() != a.integer_form()


# each class over its own field, and normalisations with a denominator or an imaginary part
MEMBERSHIP_CLASSES = [(kind, spec(kind, 1).field, None) for kind in CLASSES] + [
    (ClassKind.GA_C, QQ, Fraction(2, 3)),
    (ClassKind.GA_C, QI, GaussianRational(1, 2)),
    (ClassKind.GNA, QI, None),
    (ClassKind.SNA, QI, None),
]


@settings(max_examples=120, deadline=None)
@given(
    cls=st.sampled_from(MEMBERSHIP_CLASSES),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    i=st.integers(min_value=0, max_value=4),
    j=st.integers(min_value=0, max_value=4),
    delta=st.sampled_from([Fraction(1), Fraction(-1, 3), GaussianRational(0, 1), GaussianRational(2, -1)]),
    widen=st.booleans(),
)
def test_membership_matches_entrywise(cls, n, seed, i, j, delta, widen):
    kind, field, c = cls
    s = MatrixClassSpec(kind, n, field, c=c)
    m = sample(s, seed, 0)
    if s.field is QQ and (widen or isinstance(delta, GaussianRational)):
        m = m.widen(QI)
    candidates = [m, m.with_entry(i % m.size, j % m.size, m.entry(i % m.size, j % m.size) + delta)]
    for x in candidates:
        want = plain_contains(s, x)
        assert contains(s, x) is want
    assert contains(s, m)


# -- GF(p): residues over denominator 1 ---------------------------------------


@st.composite
def gf_cases(draw, count):
    field = draw(st.sampled_from((GF(7), GF(101))))
    m = draw(st.integers(min_value=1, max_value=5))
    # entries outside [0, p) exercise the reduction of the coerced scalars
    entry = st.integers(min_value=-3 * field.p, max_value=3 * field.p)
    mats = [Matrix(field, [[draw(entry) for _ in range(m)] for _ in range(m)]) for _ in range(count)]
    return field, mats


@settings(max_examples=60, deadline=None)
@given(case=gf_cases(5), alpha=st.integers(min_value=0, max_value=100))
def test_prime_field_operations_match_entrywise(case, alpha):
    field, (a, b, c, d, e) = case
    assert_same(heap(a, b, c), plain_heap(a, b, c))
    assert_same(heap5(a, b, c, d, e), plain_heap5(a, b, c, d, e))
    for al in (alpha, 0, 1, field.p - 1):
        assert_same(action(al, a, b), plain_action(al, a, b))
    assert_same(a + b, plain_add(a, b))
    assert_same(a - b, plain_sub(a, b))
    assert_same(a @ b, plain_matmul(a, b))
    assert_same(commutator_shift(a, b), plain_commutator_shift(a, b))
    assert_same(bracket(COMMUTATOR, a, b), plain_commutator_shift(a, b))
    assert_same(bracket(Zeta(alpha), a, b), plain_action(alpha, a, b))


@settings(max_examples=60, deadline=None)
@given(case=gf_cases(2))
def test_prime_field_equality_is_entrywise_equality(case):
    field, (a, b) = case
    assert (a == b) == (a.rows == b.rows)
    twin = Matrix(field, [[x.residue + field.p for x in row] for row in a.rows])
    assert twin == a and hash(twin) == hash(a)
    assert twin.integer_form() == a.integer_form()
    other = a.with_entry(0, 0, a.entry(0, 0) + 1)
    assert other != a and other.integer_form() != a.integer_form()
    assert Matrix.from_integer_form(field, a.size, [3 * x for x in a.integer_form()[0]], 3) == a


@pytest.mark.parametrize("p, den", [(7, 7), (7, 14), (101, 202)])
def test_prime_field_denominator_divisible_by_p_is_not_invertible(p, den):
    with pytest.raises(NonInvertibleScalar, match=rf"^the denominator {den} is not invertible in GF\({p}\)$"):
        Matrix.from_integer_form(GF(p), 1, [0], den)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from((ClassKind.GNA, ClassKind.SNA, ClassKind.GA_C)),
    p=st.sampled_from((7, 101)),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
    i=st.integers(min_value=0, max_value=4),
    j=st.integers(min_value=0, max_value=4),
    delta=st.integers(min_value=1, max_value=6),
)
def test_prime_field_membership_matches_entrywise(kind, p, n, seed, i, j, delta):
    field = GF(p)
    s = MatrixClassSpec(kind, n, field, c=3 if kind is ClassKind.GA_C else None)
    m = sample(s, seed, 0)
    k = m.size
    bumped = m.with_entry(i % k, j % k, m.entry(i % k, j % k) + delta)
    # a traceless move that keeps every row and column sum
    moved = m.with_entry(0, 0, m.entry(0, 0) + delta).with_entry(0, k - 1, m.entry(0, k - 1) - delta)
    for x in (m, bumped, moved):
        want = plain_contains(s, x)
        assert contains(s, x) is want
    assert contains(s, m)


# -- zero numerators: one shared zero entry -----------------------------------

numerators = st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=-60, max_value=60)).map(
    lambda t: 0 if t[0] < 6 else t[1]
)


@settings(max_examples=200, deadline=None)
@given(
    # a prime above every drawn denominator, so each one is invertible
    field=st.sampled_from((QQ, QI, GF(2521), SURD, SURD_C)),
    m=st.integers(min_value=1, max_value=5),
    den=st.integers(min_value=1, max_value=2520),
    shape=st.sampled_from(("mixed", "zero", "real", "imaginary")),
    radicals=st.sets(st.sampled_from((2, 3, 6)), max_size=2),
    data=st.data(),
)
def test_forms_with_zero_numerators_match_entrywise(field, m, den, shape, radicals, data):
    """``from_integer_form`` (every zero numerator one shared zero), and
    over the surd fields ``graded`` on a rational part per radical, give
    the rows, wire bytes, hash and parts of the matrix built entry by
    entry from ``Fraction(x, den)`` (over GF(p), x / den in the field);
    about 60% of the numerators are zero, and over the complex fields a
    form may be all zero, purely real or purely imaginary."""
    mm = m * m
    halves = 2 if field.is_complex else 1
    surd = field in (SURD, SURD_C)
    forms = {}
    for g in (1, *sorted(radicals)) if surd else (1,):
        nums = data.draw(st.lists(numerators, min_size=halves * mm, max_size=halves * mm))
        if shape == "zero":
            nums = [0] * len(nums)
        elif shape == "real":
            nums = nums[:mm] + [0] * (len(nums) - mm)
        elif shape == "imaginary" and field.is_complex:
            nums = [0] * mm + nums[mm:]
        forms[g] = nums
    if surd:
        got = graded(field, m, [(g, 1, (nums, den)) for g, nums in forms.items()])
    else:
        got = Matrix.from_integer_form(field, m, forms[1], den)

    def coefficients(k):
        return SurdReal({g: Fraction(nums[k], den) for g, nums in forms.items()})

    def entry(k):
        nums = forms[1]
        if field is QQ:
            return Fraction(nums[k], den)
        if field is QI:
            return GaussianRational(Fraction(nums[k], den), Fraction(nums[mm + k], den))
        if field is SURD:
            return coefficients(k)
        if field is SURD_C:
            return SurdComplex(coefficients(k), coefficients(mm + k))
        return field.from_int(nums[k]) / field.from_int(den)

    want = Matrix(field, [[entry(i * m + j) for j in range(m)] for i in range(m)])
    assert got == want
    assert got.rows == want.rows
    assert json.dumps(matrix_to_wire(got)) == json.dumps(matrix_to_wire(want))
    assert hash(got) == hash(want)
    assert got.rational_parts() == want.rational_parts()
    if not surd:
        assert got.integer_form() == got.rational_parts()[0][1]
    for x, y in zip(sum(got.rows, ()), sum(want.rows, ())):
        assert type(x) is type(y) and hash(x) == hash(y) and repr(x) == repr(y)
        if field is QI:
            assert type(x.re) is type(x.im) is Fraction
        if field is SURD:
            assert all(type(q) is Fraction for _, q in x.terms)
        if field is SURD_C:
            assert all(type(q) is Fraction for _, q in x.re.terms + x.im.terms)
