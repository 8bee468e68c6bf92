"""``matrix_from_wire`` reads plain entry strings straight into integer
forms and rational parts; every other spelling goes through
``Field.parse``.  The property: on random entry strings, plain and
otherwise, it gives the matrix that ``Field.parse`` and ``Matrix`` give
(value, rows and wire), or raises the same exception type with the same
message."""
import pytest
from hypothesis import given, settings, strategies as st

from affgebra.matrix import Matrix, _read_plain, matrix_from_wire, matrix_to_wire
from affgebra.scalars import GF, MAX_RADICAND, QI, QQ, SURD, SURD_C

FIELDS = [QQ, QI, GF(2), GF(7), GF(101), SURD, SURD_C]

digits = st.integers(0, 120).map(str) | st.sampled_from(["0", "007"])
# spellings outside the plain shapes: decimals, exponents, underscores,
# blanks, non-ASCII digits, doubled signs and junk
ODD = ["1.5", ".5", "2e-3", "1E+2", "-3e2", "1_0", "1 /2", " 1", "1 ", "٣", "", " ",
       "x", "1/2/3", "+", "-", "+-3", "-+3", "++3", "nan", "i", "sqrt(2)i", "1,2"]
NON_STRINGS = [1, None, 2.5, ["1"], True]


@st.composite
def rationals(draw, dirty, signs=("", "+", "-")):
    """num[/den] with one of ``signs`` in front; dirty adds doubled signs,
    zero denominators and odd spellings."""
    if dirty and draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(ODD))
    sign = draw(st.sampled_from([*signs, *(("+-", "++", "-+") if dirty else ())]))
    den = draw(st.sampled_from(["", "/1", "/2", "/3", "/12", *(("/0", "/00") if dirty else ())]))
    return sign + draw(digits) + den


@st.composite
def gaussians(draw, dirty):
    shape = draw(st.integers(0, 3 if dirty else 2))
    if shape == 0:
        return draw(rationals(dirty))
    if shape == 1:
        return draw(rationals(dirty)) + "i"
    if shape == 2:
        return draw(rationals(dirty)) + draw(rationals(dirty, signs=("+", "-"))) + "i"
    return draw(st.sampled_from(["i", "+i", "-i", "3+i", "1-i", "1+2e-3i", "2e-3+1E-1i", "1+2 i", "1+-2i"]))


@st.composite
def surds(draw, dirty):
    radicands = ["0", "1", "2", "3", "4", "5", "8", "12", "18", "02"]
    if dirty:
        radicands += [str(MAX_RADICAND), str(MAX_RADICAND + 1), "-2", " 2", "2x", ""]
    text = ""
    for k in range(draw(st.integers(1, 3))):
        signs = ("", "+", "-") if k == 0 else ("+", "-")
        shape = draw(st.integers(0, 2))
        if shape == 0:
            text += draw(rationals(dirty, signs))
        elif shape == 1:
            text += draw(rationals(dirty, signs)) + f"*sqrt({draw(st.sampled_from(radicands))})"
        else:
            text += draw(st.sampled_from(signs)) + f"sqrt({draw(st.sampled_from(radicands))})"
    return text


@st.composite
def complex_surds(draw, dirty):
    if draw(st.booleans()):
        return draw(surds(dirty))
    halves = surds(dirty) | st.sampled_from(["", " "]) if dirty else surds(dirty)
    return f"({draw(halves)})+({draw(halves)})i"


def entries_of(field, dirty):
    if field is QQ:
        plain = rationals(dirty)
    elif field is QI:
        plain = gaussians(dirty)
    elif field.characteristic:
        plain = st.builds(str.__add__, st.sampled_from(["", "+", "-"]), digits)
        if dirty:
            plain = plain | st.sampled_from(ODD)
    elif field is SURD:
        plain = surds(dirty)
    else:
        plain = complex_surds(dirty)
    return plain | st.sampled_from(NON_STRINGS) if dirty else plain


def outcome(build):
    try:
        m = build()
    except Exception as exc:
        return type(exc), str(exc)
    return m, [list(r) for r in m.rows], matrix_to_wire(m)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fast_path_matches_field_parse(field, data):
    dirty = data.draw(st.booleans(), label="dirty")
    n = data.draw(st.integers(1, 3), label="n")
    entries = data.draw(st.lists(st.lists(entries_of(field, dirty), min_size=n, max_size=n),
                                 min_size=n, max_size=n), label="entries")
    doc = {"field": field.tag, "n": n, "entries": entries}
    if field.characteristic:
        doc["p"] = field.p
    want = outcome(lambda: Matrix(field, [[field.parse(s) for s in row] for row in entries]))
    assert outcome(lambda: matrix_from_wire(doc)) == want
    if not dirty:
        # every clean spelling is plain, so the fast path reads it
        assert _read_plain(field, entries, n) is not None

