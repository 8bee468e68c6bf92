"""Every matrix that ``bracket``, ``retract``, ``emit-matrix`` and
``sample`` print reads back, through ``matrix_from_wire``, to the matrix
the command computed: over Q, Q(i), GF(p) and the surd fields.  An entry
at the interpreter's digit limit for writing an integer round-trips; one
digit more exits 2 with one ``DigitLimit`` line."""
import contextlib
import io
import json
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from affgebra.affine import COMMUTATOR, Zeta, bracket, lie_retract_bracket
from affgebra.classes import ClassKind, MatrixClassSpec, sample
from affgebra.cli import main
from affgebra.matrix import Matrix, matrix_from_wire, matrix_to_wire
from affgebra.scalars import GF, QI, QQ, SURD, SURD_C, GaussianRational, SurdComplex, SurdReal
from affgebra.transforms import change_of_basis, change_of_basis_inverse, orthonormal_change_of_basis

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
surds = st.dictionaries(st.sampled_from([1, 2, 3, 5, 6, 7, 10]), rationals, max_size=3).map(SurdReal)
FIELDS = [QQ, QI, GF(2), GF(7), GF(101), SURD, SURD_C]
# the (class, field) pairs that a class can be sampled over
SAMPLED = [(kind, field) for kind in (ClassKind.GNA, ClassKind.SNA, ClassKind.GA_C) for field in (QQ, QI, GF(7), GF(101))]
SAMPLED += [(ClassKind.ONA, QQ), (ClassKind.UNA, QI), (ClassKind.SUNA, QI)]


def scalars(field):
    if field.characteristic:
        return st.integers(0, field.p - 1).map(field.from_int)
    return {
        QQ: rationals,
        QI: st.builds(GaussianRational, rationals, rationals),
        SURD: surds,
        SURD_C: st.builds(SurdComplex, surds, surds),
    }[field]


def matrices(field, n):
    return st.lists(st.lists(scalars(field), min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: Matrix(field, rows)
    )


def field_flags(field):
    return ["--field", "GF", "--p", str(field.p)] if field.characteristic else ["--field", field.tag]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def printed(*argv):
    """The matrices a successful command prints, read back."""
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    return [matrix_from_wire(json.loads(line)) for line in out.splitlines()]


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 3))
def test_bracket_and_retract_outputs_read_back(data, field, n):
    o, a, b = (data.draw(matrices(field, n)) for _ in range(3))
    zeta = data.draw(st.none() | scalars(field))
    kind, flag = (COMMUTATOR, "commutator") if zeta is None else (Zeta(zeta), "zeta:" + field.format(zeta))
    wire = [json.dumps(matrix_to_wire(x)) for x in (o, a, b)]
    assert printed("bracket", "--bracket", flag, wire[1], wire[2]) == [bracket(kind, a, b)]
    assert printed("retract", "--bracket", flag, "-o", *wire) == [lie_retract_bracket(kind, o, a, b)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([QQ, QI, GF(2), GF(7), GF(101), SURD]), st.sampled_from(["P", "Pinv"]), st.integers(1, 8))
def test_emit_matrix_outputs_read_back(field, which, n):
    if field is SURD:  # U, the one matrix emitted over a surd field
        assert printed("emit-matrix", "--which", "U", "--n", str(n)) == [orthonormal_change_of_basis(n)]
        return
    assume(which == "P" or (n + 1) % (field.characteristic or n + 2))
    want = change_of_basis(n, field) if which == "P" else change_of_basis_inverse(n, field)
    assert printed("emit-matrix", "--which", which, "--n", str(n), *field_flags(field)) == [want]


@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from(SAMPLED), st.integers(1, 4), st.integers(0, 2**32))
def test_sample_outputs_read_back(data, kind_field, n, seed):
    kind, field = kind_field
    flags = ["--class", kind.value, "--n", str(n), *field_flags(field), "--seed", str(seed), "--count", "2"]
    c = None
    if kind is ClassKind.GA_C:
        c = data.draw(scalars(field))
        flags.append(f"--c={field.format(c)}")  # "--c -1/2" would read -1/2 as a flag
    spec = MatrixClassSpec(kind, n, field, c=c)
    assert printed("sample", *flags) == [sample(spec, seed, 0), sample(spec, seed, 1)]


LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
at_limit = pytest.mark.skipif(not LIMIT, reason="this interpreter writes integers of any length")
LONG = "1" + "0" * (LIMIT - 1)  # LIMIT digits


def _pair(field, big):
    """The identity and a 2 x 2 matrix with ``big`` at row 1, column 0:
    their commutator bracket is the second one."""
    identity = {"field": field, "n": 2, "entries": [["1", "0"], ["0", "1"]]}
    b = {"field": field, "n": 2, "entries": [["0", "0"], [big, "0"]]}
    return json.dumps(identity), json.dumps(b)


@at_limit
@pytest.mark.parametrize("field, entry", [
    ("Q", LONG), ("Q", f"-{LONG}/3"), ("Qi", f"{LONG}i"), ("Qi", f"1-{LONG}i"), ("surd", f"{LONG}*sqrt(2)"),
    ("surd_c", f"(0)+({LONG})i"),
])
def test_an_entry_at_the_digit_limit_round_trips(field, entry):
    identity, b = _pair(field, entry)
    code, out, err = run("bracket", identity, b)
    assert (code, err) == (0, "")
    assert matrix_from_wire(json.loads(out)) == matrix_from_wire(json.loads(b))


@at_limit
@pytest.mark.parametrize("field, entry", [
    ("Q", f"1e{LIMIT}"), ("Q", f"1e-{LIMIT}"), ("Qi", f"1e{LIMIT}i"), ("Qi", f"1-1e{LIMIT}i"),
    ("surd", f"1e{LIMIT}*sqrt(2)"), ("surd_c", f"(0)+(1e{LIMIT})i"),
])
def test_an_entry_over_the_digit_limit_is_usage_error(field, entry):
    identity, b = _pair(field, entry)
    assert run("bracket", identity, b) == (2, "", (
        f"error: DigitLimit: entry (row 1, column 0) holds an integer of more than {LIMIT} digits, "
        "the most the interpreter writes as text\n"
    ))
