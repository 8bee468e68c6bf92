"""The U route's rational frame against the direct surd computation.

``to_block``, ``from_block`` and ``evaluate_theorem_case`` work in U's
rational frame and build surd values only at the boundary.  The oracle
here is the direct computation over the surd fields, with the orthonormal
basis itself (its wire form pinned by ``tests/golden/orthonormal.json``):
images U^T m U, brackets, heaps and actions of surd matrices, and the
inverse U y U^T; for the P route, P⁻¹ m P and P y P⁻¹ as plain matrix
products.  ``tests/golden/theorem_frame.json`` holds the wire
output of ``golden_document()`` as computed by that direct surd
evaluation; regenerate it only for an intended change of output with

    PYTHONPATH=src:tests python -c "import json, test_frame as t; \
print(json.dumps(t.golden_document(), indent=1))" > tests/golden/theorem_frame.json
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from affgebra.affine import COMMUTATOR, action, bracket, heap
from affgebra.checks import replay
from affgebra.classes import MAX_N, ClassKind, MatrixClassSpec, contains, derive_rng, sample, spec_to_wire
from affgebra.cli import main
from affgebra.errors import AffgebraError, ClassViolation, FieldMismatch, SizeMismatch
from affgebra.matrix import Matrix, matrix_to_wire, sandwich_form, staircase
from affgebra.report import MatrixClassCarrier
from affgebra.scalars import GF, QI, QQ, SURD, SURD_C, GaussianRational, SurdReal, widen_scalar
from affgebra.transforms import (
    VIA_P,
    VIA_U,
    _conjugators,
    _orthonormal_frame,
    base_point_image,
    block_target,
    evaluate_theorem_case,
    THEOREM,
    change_of_basis,
    change_of_basis_inverse,
    from_block,
    orthonormal_change_of_basis,
    to_block,
)
from oracle import plain_block_contains, plain_sandwich_form

GOLDEN = Path(__file__).parent / "golden" / "theorem_frame.json"
U_KINDS = (ClassKind.ONA, ClassKind.UNA, ClassKind.SUNA)


def theorem_inputs(s, rng):
    """The inputs of one theorem-iso trial on s."""
    carrier = MatrixClassCarrier(s)
    return {name: codec.sample(carrier, rng) for name, codec in THEOREM.inputs}


def spec(kind, n, field=None):
    if field is None:
        field = QI if kind in (ClassKind.UNA, ClassKind.SUNA) else QQ
    return MatrixClassSpec(kind, n, field)


# -- the direct surd evaluation (oracle) ----------------------------------


def surd_field(s):
    return SURD_C if s.field.is_complex else SURD


def oracle_basis(s, via=VIA_U):
    """(T, T⁻¹) over the block field: U and U^T over the surd field, or P
    and P⁻¹ over the class field."""
    if via == VIA_U:
        u = orthonormal_change_of_basis(s.n).widen(surd_field(s))
        return u, u.transpose()
    base = s.field if s.field.characteristic else QQ
    return change_of_basis(s.n, base).widen(s.field), change_of_basis_inverse(s.n, base).widen(s.field)


def surd_to_block(s, m, via=VIA_U):
    """T⁻¹ m T over the block field (U^T m U over the surd field)."""
    if not contains(s, m):
        raise ClassViolation(f"input is not in {s.describe()}")
    t, t_inv = oracle_basis(s, via)
    return t_inv @ m.widen(t.field) @ t


def surd_from_block(s, y, via=VIA_U):
    """T y T⁻¹ over the block field (U y U^T over the surd field)."""
    t, t_inv = oracle_basis(s, via)
    return t @ y.widen(t.field) @ t_inv


def surd_evaluate_theorem_case(s, inputs):
    """The U-route theorem check computed directly on surd matrices."""

    def detail(label, expected, actual):
        def render(v):
            return matrix_to_wire(v) if isinstance(v, Matrix) else v

        return {"property": label, "expected": render(expected), "actual": render(actual)}

    a, b, c, alpha, z = (inputs[k] for k in ("a", "b", "c", "alpha", "z"))
    target = block_target(s)
    wide = surd_field(s)
    fa, fb, fc = (surd_to_block(s, x) for x in (a, b, c))
    for name, img in (("a", fa), ("b", fb), ("c", fc)):
        if not target.contains(img):
            return False, detail(f"image of {name} not in block target", True, False)
    lhs = surd_to_block(s, bracket(COMMUTATOR, a, b))
    rhs = bracket(COMMUTATOR, fa, fb)
    if lhs != rhs:
        return False, detail("bracket preservation", lhs, rhs)
    lhs = surd_to_block(s, heap(a, b, c))
    rhs = heap(fa, fb, fc)
    if lhs != rhs:
        return False, detail("heap preservation", lhs, rhs)
    lhs = surd_to_block(s, action(alpha, a, b))
    rhs = action(widen_scalar(alpha, s.scalar_field, wide), fa, fb)
    if lhs != rhs:
        return False, detail("action preservation", lhs, rhs)
    back = surd_from_block(s, fa)
    if back != a.widen(wide):
        return False, detail("inverse conjugation roundtrip", a.widen(wide), back)
    if not contains(s, surd_from_block(s, z.widen(wide))):
        return False, detail("surjectivity pullback membership", True, False)
    return True, {}


# -- golden wire output -----------------------------------------------------

GOLDEN_IMAGE_SPECS = [spec(k, n) for k in U_KINDS for n in (1, 2, 3, 4)] + [
    spec(ClassKind.GNA, 2),
    spec(ClassKind.SNA, 3),
    spec(ClassKind.GNA, 2, QI),
]
GOLDEN_REPLAY_CASES = [
    (spec(ClassKind.ONA, 2), VIA_U),
    (spec(ClassKind.UNA, 2), VIA_U),
    (spec(ClassKind.SUNA, 3), VIA_U),
    (spec(ClassKind.GNA, 2), VIA_U),
    (spec(ClassKind.SNA, 2, GF(7)), VIA_P),
]


def _theorem_doc(s, via, inputs):
    return {
        "check": "theorem-iso",
        "passed": False,
        "trials": 1,
        "counterexample": {
            "class": spec_to_wire(s),
            "via": via,
            "inputs": {
                "a": matrix_to_wire(inputs["a"]),
                "b": matrix_to_wire(inputs["b"]),
                "c": matrix_to_wire(inputs["c"]),
                "alpha": s.scalar_field.format(inputs["alpha"]),
                "z": matrix_to_wire(inputs["z"]),
            },
        },
        "elapsed_ms": 0.0,
    }


def tampered_documents(s, via):
    """Replay documents for one sampled case: z moved off the block target
    (the surjectivity pull-back leaves the class), and a moved off the
    class (conjugation refuses it)."""
    inputs = theorem_inputs(s, derive_rng("golden", s.describe(), via))
    n = s.n
    z = inputs["z"]
    bad_z = dict(inputs, z=z.with_entry(n, n, z.entry(n, n) + 1))
    a = inputs["a"]
    bad_a = dict(inputs, a=a.with_entry(0, 0, a.entry(0, 0) + 1))
    return _theorem_doc(s, via, bad_z), _theorem_doc(s, via, bad_a)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_document() -> dict:
    images = []
    for s in GOLDEN_IMAGE_SPECS:
        images.append({
            "class": spec_to_wire(s),
            "base_point_image": matrix_to_wire(base_point_image(s, VIA_U)),
            "images": [matrix_to_wire(to_block(s, sample(s, 7, i), VIA_U)) for i in range(2)],
        })
    replays = []
    for s, via in GOLDEN_REPLAY_CASES:
        bad_z, bad_a = tampered_documents(s, via)
        report = replay(bad_z).to_wire()
        report.pop("elapsed_ms")
        replays.append({
            "class": spec_to_wire(s),
            "via": via,
            "report": report,
            "cli_bad_z": _cli("replay", json.dumps(bad_z))["exit"],
            "cli_bad_a": _cli("replay", json.dumps(bad_a)),
        })
    emit = [_cli("emit-matrix", "--which", "U", "--n", str(n))["stdout"] for n in range(1, 9)]
    return {"to_block": images, "replay": replays, "emit_matrix_U": emit}


def test_golden_wire_output_byte_identical():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert json.dumps(golden_document(), indent=1) + "\n" == expected


def orthonormal_document() -> list:
    return [_cli("emit-matrix", "--which", "U", "--n", str(n)) for n in range(1, MAX_N + 1)]


def test_emit_matrix_U_byte_identical_for_every_size():
    """``tests/golden/orthonormal.json`` holds the CLI output of
    ``emit-matrix --which U`` for n = 1..MAX_N, captured from the entry
    by entry surd construction of U.  Regenerate it only for an intended
    change of output with

        PYTHONPATH=src:tests python -c "import json, test_frame as t; \
print(json.dumps(t.orthonormal_document(), indent=1))" > tests/golden/orthonormal.json
    """
    expected = (GOLDEN.parent / "orthonormal.json").read_text(encoding="utf-8")
    assert json.dumps(orthonormal_document(), indent=1) + "\n" == expected


def test_tampered_z_fails_in_frame_and_in_oracle_alike():
    for s, via in GOLDEN_REPLAY_CASES:
        if via != VIA_U:
            continue
        inputs = theorem_inputs(s, derive_rng("golden", s.describe(), via))
        n = s.n
        inputs["z"] = inputs["z"].with_entry(n, n, inputs["z"].entry(n, n) + 1)
        got = evaluate_theorem_case(s, VIA_U, inputs)
        assert got == surd_evaluate_theorem_case(s, inputs)
        assert got[1]["property"] == "surjectivity pullback membership"


# -- frame against the direct surd path -------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(U_KINDS),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_frame_to_block_matches_surd_conjugation(kind, n, seed):
    s = spec(kind, n)
    m = sample(s, seed, 0)
    got = to_block(s, m, VIA_U)
    want = surd_to_block(s, m)
    assert got == want
    assert json.dumps(matrix_to_wire(got)) == json.dumps(matrix_to_wire(want))


@pytest.mark.parametrize("kind", U_KINDS)
def test_sampled_theorem_case_through_direct_surd_evaluation(kind):
    for n in (1, 2, 3):
        s = spec(kind, n)
        for i in range(3):
            inputs = theorem_inputs(s, derive_rng("frame-oracle", s.describe(), i))
            assert surd_evaluate_theorem_case(s, inputs) == (True, {})
            assert evaluate_theorem_case(s, VIA_U, inputs) == (True, {})


def test_inputs_over_a_wider_field_follow_the_oracle():
    # replay documents carry their own field tags, so a class member may
    # arrive over the surd field, or over a field the block field lacks
    s = spec(ClassKind.ONA, 2)
    inputs = theorem_inputs(s, derive_rng("wider", s.describe()))
    wide = {k: (v.widen(SURD) if isinstance(v, Matrix) else v) for k, v in inputs.items()}
    assert evaluate_theorem_case(s, VIA_U, wide) == surd_evaluate_theorem_case(s, wide) == (True, {})

    g = spec(ClassKind.GNA, 2)
    inputs = theorem_inputs(g, derive_rng("wider", g.describe()))
    complex_a = dict(inputs, a=inputs["a"].widen(QI))
    with pytest.raises(FieldMismatch, match="cannot widen Qi into surd"):
        evaluate_theorem_case(g, VIA_U, complex_a)
    with pytest.raises(FieldMismatch, match="cannot widen Qi into surd"):
        surd_evaluate_theorem_case(g, complex_a)


# -- the frame maps against the direct conjugation ----------------------------

FRAME_CASES = (
    [(spec(k, n), VIA_U) for k in U_KINDS for n in (1, 2, 3, 4)]
    + [(spec(ClassKind.GNA, n), VIA_U) for n in (1, 2, 3)]
    + [(spec(k, n, f), VIA_P) for k in (ClassKind.GNA, ClassKind.SNA) for n in (1, 2, 3) for f in (QQ, QI, GF(7))]
)


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except AffgebraError as exc:
        return type(exc).__name__, str(exc)


def assert_same(got, want):
    assert got == want
    if isinstance(want, Matrix):
        assert json.dumps(matrix_to_wire(got)) == json.dumps(matrix_to_wire(want))


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(FRAME_CASES),
    seed=st.integers(min_value=0, max_value=2**31),
    wide=st.booleans(),
    at=st.integers(min_value=0, max_value=24),
    radical=st.sampled_from((1, 2, 3, 5, 6)),
    delta=st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
)
def test_frame_maps_match_direct_conjugation(case, seed, wide, at, radical, delta):
    # members widened into the surd field reach the frame's wider-field
    # path on U (P refuses them, in the frame and in the oracle alike);
    # the images, and the images with one entry moved by delta·√radical,
    # reach the surd pull-back
    s, via = case
    m = sample(s, seed, 0)
    wide = wide and not s.field.characteristic
    if wide:
        m = m.widen(surd_field(s))
    want = outcome(surd_to_block, s, m, via)
    assert_same(outcome(to_block, s, m, via), want)
    if not isinstance(want, Matrix):
        assert via == VIA_P and wide
        return
    i, j = divmod(at % (want.size * want.size), want.size)
    shift = SurdReal({radical: delta}) if want.field in (SURD, SURD_C) else delta
    moved = want.with_entry(i, j, want.entry(i, j) + want.field.coerce(shift))
    for y in (want, moved):
        assert_same(outcome(from_block, s, y, via), outcome(surd_from_block, s, y, via))


def test_from_block_of_the_wrong_size_is_a_size_mismatch():
    for s, via in ((spec(ClassKind.ONA, 2), VIA_U), (spec(ClassKind.GNA, 2), VIA_P)):
        with pytest.raises(SizeMismatch, match="3 vs 4"):
            from_block(s, Matrix.identity(s.field, 4), via)


def test_a_complex_matrix_cannot_enter_the_real_orthonormal_route():
    g = spec(ClassKind.GNA, 2)
    m = sample(g, 3, 0).widen(QI)
    with pytest.raises(FieldMismatch, match="^cannot widen Qi into surd$"):
        to_block(g, m, VIA_U)
    with pytest.raises(FieldMismatch, match="^cannot widen Qi into surd$"):
        from_block(g, m, VIA_U)


def test_from_block_on_the_p_route_returns_the_block_field():
    g = spec(ClassKind.GNA, 2, QI)
    y = to_block(spec(ClassKind.GNA, 2), sample(spec(ClassKind.GNA, 2), 3, 0), VIA_P)
    back = from_block(g, y, VIA_P)
    assert back.field is QI
    assert back == sample(spec(ClassKind.GNA, 2), 3, 0).widen(QI)


# -- the per-radical pull-back against the surd pull-back ---------------------

PULL_BACK_MOVES = ("none", "off-block", "pair-kept", "pair-broken", "corner")
deltas = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


def moved_z(s, z, move, i, j, re, im):
    """z with one entry off the top-left block moved, or one
    (anti)symmetric pair moved so that the (anti)symmetry is kept or
    broken, or the corner moved."""
    n = s.n
    delta = re if not s.field.is_complex else GaussianRational(re, im)
    conj = s.field.conjugate
    if move == "off-block":
        k = j % (n + 1)
        at = (n, k) if i % 2 else (k, n)
        return z.with_entry(*at, z.entry(*at) + delta)
    if move == "corner":
        return z.with_entry(n, n, z.entry(n, n) + delta)
    if move in ("pair-kept", "pair-broken"):
        k, l = i % n, j % n
        partner = -conj(delta) if move == "pair-kept" else delta
        if k == l:
            return z.with_entry(k, k, z.entry(k, k) + delta)
        z = z.with_entry(k, l, z.entry(k, l) + delta)
        return z.with_entry(l, k, z.entry(l, k) + partner)
    return z


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(U_KINDS),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
    move=st.sampled_from(PULL_BACK_MOVES),
    i=st.integers(min_value=0, max_value=6),
    j=st.integers(min_value=0, max_value=6),
    re=deltas,
    im=deltas,
)
def test_per_radical_pull_back_membership_matches_surd_pull_back(kind, n, seed, move, i, j, re, im):
    s = spec(kind, n)
    inputs = theorem_inputs(s, derive_rng("pull-back", s.describe(), seed))
    z = moved_z(s, inputs["z"], move, i, j, re, im)
    want = contains(s, surd_from_block(s, z.widen(surd_field(s))))
    got = evaluate_theorem_case(s, VIA_U, dict(inputs, z=z))
    if want:
        assert got == (True, {})
    else:
        assert got == (False, {"property": "surjectivity pullback membership", "expected": True, "actual": False})
    if move == "none":
        assert want


@pytest.mark.parametrize("kind", U_KINDS)
def test_pull_back_catches_a_move_in_an_irrational_part_alone(kind):
    # moving the (0, 1) pair symmetrically leaves M_1 a member: only the
    # √g part with g = f_0·f_1 / s² ≠ 1 leaves the class
    for n in (2, 3, 4):
        s = spec(kind, n)
        inputs = theorem_inputs(s, derive_rng("irrational", s.describe()))
        z = moved_z(s, inputs["z"], "pair-broken", 0, 1, Fraction(1), Fraction(1))
        assert not contains(s, surd_from_block(s, z.widen(surd_field(s))))
        assert evaluate_theorem_case(s, VIA_U, dict(inputs, z=z))[1]["property"] == (
            "surjectivity pullback membership"
        )


@settings(max_examples=80, deadline=None)
@given(
    s=st.sampled_from(
        [spec(k, n) for k in U_KINDS for n in (1, 2, 3, 4)]
        + [spec(k, n, f) for k in (ClassKind.GNA, ClassKind.SNA) for n in (1, 2, 3) for f in (QQ, QI, GF(7))]
    ),
    seed=st.integers(min_value=0, max_value=2**31),
    radicals=st.lists(st.sampled_from((1, 2, 3, 5, 6, 10)), min_size=5, max_size=5),
    move=st.sampled_from(PULL_BACK_MOVES),
    i=st.integers(min_value=0, max_value=4),
    j=st.integers(min_value=0, max_value=4),
    re=deltas,
    im=deltas,
)
def test_block_membership_on_forms_matches_entrywise(s, seed, radicals, move, i, j, re, im):
    target = block_target(s)
    z = target.sample(derive_rng("block", s.describe(), seed))
    if s.field.characteristic:
        re, im = int(re * 4), 0
    z = moved_z(s, z, move, i, j, re, im)
    f = tuple(radicals[: z.size])
    for rad in (None, f):
        want = plain_block_contains(target, z, rad)
        assert target.contains(z, rad) is want


# -- the staircase kernel against the dense triple product ------------------

PRIMES = (2, 3, 5, 7, 11, 13, 101)


def frame_matrices(n, field, via):
    """(R⁻¹, R, W) of a frame, built from the bases themselves: (P⁻¹, P, P)
    over the field, or (Wᵀ, W·diag(f), W) for U's rational frame (W, f)."""
    if via == VIA_P:
        p = change_of_basis(n, field)
        return change_of_basis_inverse(n, field), p, p
    w, radicals = _orthonormal_frame(n)
    return w.transpose(), w @ Matrix.diagonal(QQ, radicals), w


def assert_frame_products_match(n, field, via, x):
    """Image R⁻¹·X·R, preimage R·X·R⁻¹ and pull-back W·X·R⁻¹ through the
    frame's staircase encodings, against the dense products of the
    numerators; the denominators are the matrices' own."""
    frame = _conjugators(n, field, via)
    forms = [y.integer_form() for y in frame_matrices(n, field, via)]
    encoded = (frame.left, frame.right, frame.outer)
    assert [den for _, den in encoded] == [den for _, den in forms]
    for a, b in ((0, 1), (1, 0), (2, 0)):
        got = sandwich_form(encoded[a][0], x, encoded[b][0], n + 1)
        assert got == plain_sandwich_form(forms[a][0], x, forms[b][0], n + 1)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=MAX_N),
    route=st.sampled_from(("P", "P over GF(p)", "U")),
    halves=st.sampled_from((1, 2)),
    data=st.data(),
)
def test_sandwich_form_matches_the_dense_triple_product(n, route, halves, data):
    # X over Q (one half), over Q(i) (both halves) or over GF(p), p not
    # dividing n+1 so that P is invertible
    mm = (n + 1) ** 2
    if route == "P over GF(p)":
        p = data.draw(st.sampled_from([q for q in PRIMES if (n + 1) % q]))
        field, entries, halves = GF(p), st.integers(min_value=0, max_value=p - 1), 1
    else:
        field, entries = QQ, st.integers(min_value=-(10**12), max_value=10**12)
    x = data.draw(st.lists(entries, min_size=halves * mm, max_size=halves * mm))
    assert_frame_products_match(n, field, VIA_U if route == "U" else VIA_P, x)


def test_every_frame_up_to_max_n_is_encoded():
    rng = derive_rng("staircase")
    for n in range(1, MAX_N + 1):
        x = [rng.randrange(-99, 100) for _ in range(2 * (n + 1) ** 2)]
        assert_frame_products_match(n, QQ, VIA_P, x)
        assert_frame_products_match(n, QI, VIA_U, x)
        assert_frame_products_match(n, GF(101), VIA_P, [v % 101 for v in x[: (n + 1) ** 2]])


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=3, max_value=MAX_N + 1), data=st.data())
def test_staircase_refuses_a_dense_matrix(m, data):
    # distinct entries leave any run at least m - 1 >= 2 entries of E in
    # every column, in either orientation
    nums = data.draw(st.lists(st.integers().filter(bool), min_size=m * m, max_size=m * m, unique=True))
    with pytest.raises(ValueError, match="^not a staircase"):
        staircase(nums, m)


def test_staircase_refuses_two_entries_of_e_in_one_row():
    # each column fits with its entry of E in row 2, and no transpose fits
    with pytest.raises(ValueError, match="^not a staircase"):
        staircase([1, 1, 1, 0, 0, 1, 5, 7, 1], 3)
