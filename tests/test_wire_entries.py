"""One reader serves every entry string: ``matrix_from_wire`` reads a
matrix's entries with ``scalars.read_entries``, and ``Field.parse`` is
the same reader on one string.  The property: on random entry strings,
plain and otherwise, both agree with ``oracle.plain_parse`` (the
per-field string splitters the reader replaced) in value, rows and
wire; where the oracle refuses, both raise an error that exits 2, with
the oracle's type and message when that message is one the CLI tests
pin (zero denominator, radicand bound, non-string scalar, malformed
complex surd)."""
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from affgebra import scalars
from affgebra.errors import AffgebraError, DivisionByZero, MalformedWire
from affgebra.matrix import Matrix, matrix_from_wire, matrix_to_wire
from affgebra.scalars import GF, MAX_RADICAND, QI, QQ, SURD, SURD_C
from oracle import plain_parse

FIELDS = [QQ, QI, GF(2), GF(7), GF(101), SURD, SURD_C]
# the errors that ``cli.main`` reports with exit code 2
EXIT_2 = (AffgebraError, ValueError, KeyError, OSError)

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
    return draw(st.sampled_from(["i", "+i", "-i", "3+i", "1-i", "1+2e-3i", "2e-3+1E-1i", "1+2 i", "1+-2i",
                                 "1+ i", "+ i", "2 -i"]))


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
    if not dirty:
        return plain
    # blanks around an entry: outer ones are stripped, and spaces go everywhere in a surd
    pad = st.sampled_from(["", "", " ", "\t", "\n "])
    return st.builds("{}{}{}".format, pad, plain, pad) | st.sampled_from(NON_STRINGS)


def outcome(build):
    try:
        return build()
    except Exception as exc:
        return exc


def pinned(exc) -> bool:
    # a matrix error leads with the entry, so its pinned messages are searched for
    text = str(exc)
    return (isinstance(exc, (DivisionByZero, MalformedWire)) or "a radicand must be at most" in text
            or "malformed complex surd string" in text)


def plain_matrix(field, entries):
    """The oracle's matrix of ``entries``: the first entry (row by row)
    that ``plain_parse`` refuses raises its error type, the message led
    by the row, the column and the entry, as ``matrix_from_wire`` does."""
    rows = []
    for i, row in enumerate(entries):
        rows.append([])
        for j, s in enumerate(row):
            try:
                rows[-1].append(plain_parse(field, s))
            except Exception as exc:
                raise type(exc)(f"entry (row {i}, column {j}) {s!r}: {exc}") from None
    return Matrix(field, rows)


def assert_agrees(got, want, seen, text=None):
    """``got`` agrees with the oracle's ``want``; ``seen`` maps a result
    to what is compared (value, rows and wire, or value and text)."""
    if isinstance(want, Exception):
        assert isinstance(got, EXIT_2), (text, got, want)
        if pinned(want):
            assert (type(got), str(got)) == (type(want), str(want)), text
    else:
        assert not isinstance(got, Exception), (text, got, want)
        assert seen(got) == seen(want), text


def matrix_seen(m):
    return m, [list(r) for r in m.rows], matrix_to_wire(m)


def doc_of(field, entries):
    doc = {"field": field.tag, "n": len(entries), "entries": entries}
    if field.characteristic:
        doc["p"] = field.p
    return doc


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fast_path_matches_field_parse(field, data):
    dirty = data.draw(st.booleans(), label="dirty")
    n = data.draw(st.integers(1, 3), label="n")
    entries = data.draw(st.lists(st.lists(entries_of(field, dirty), min_size=n, max_size=n),
                                 min_size=n, max_size=n), label="entries")
    want = outcome(lambda: plain_matrix(field, entries))
    if dirty:
        got = outcome(lambda: matrix_from_wire(doc_of(field, entries)))
    else:
        # every clean token is plain, so it goes straight to ints
        with mock.patch.object(scalars, "_ratio", side_effect=AssertionError("not plain")):
            got = outcome(lambda: matrix_from_wire(doc_of(field, entries)))
    assert_agrees(got, want, matrix_seen)
    for s in (s for row in entries for s in row):
        assert_agrees(outcome(lambda: field.parse(s)), outcome(lambda: plain_parse(field, s)),
                      lambda x: (x, type(x), field.format(x)))


# edge spellings that random draws reach only rarely: blanks around and
# inside entries, bare and signed i, exponents, unclosed sqrt( terms
SPELLINGS = [" +2i", "1+ i", "+ i", " -i ", "1 +2i\t", "\t1/2", "1+2e-3i ", "2E+1-1e-3i", "1e5", "+-3",
             "(1)+(2)i\t", " (1/2)+(sqrt(8))i", "(\t1)+(2 )i", "(1)-(2)i", "((1)+(2)i", "(1)+(2)(3)i",
             "\t1/2*sqrt(8)\n", "2 * sqrt( 3 )", "1\t+2", "1+\t2", "2\t*sqrt(3)", "sqrt(3)\t", "1e+1*sqrt(2)-2e-3",
             "2*sqrt(3x", "sqrt(2]", "0*sqrt(-2)", "sqrt(-2)-sqrt(-2)", "sqrt(+2)", "sqrt(0)", "sqrt(2_0)", " 1_0 "]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.describe())
def test_edge_spellings_match_the_oracle(field):
    for text in SPELLINGS:
        want = outcome(lambda: plain_parse(field, text))
        assert_agrees(outcome(lambda: field.parse(text)), want, lambda x: (x, type(x), field.format(x)), text)
        assert_agrees(outcome(lambda: matrix_from_wire(doc_of(field, [[text]]))),
                      outcome(lambda: plain_matrix(field, [[text]])), matrix_seen, text)


@pytest.mark.parametrize("field, plain, odd", [
    (QQ, "3/2", "1.5"),
    (QI, "3/2-1/2i", "1.5-0.5i"),
    (SURD, "3/2*sqrt(2)", "1.5*sqrt(2)"),
    (SURD_C, "(3/2)+(sqrt(2))i", "(1.5)+(sqrt(2))i"),
], ids=["Q", "Qi", "surd", "surd_c"])
def test_one_odd_entry_among_plain_ones(field, plain, odd):
    # the odd token goes through Fraction; its neighbours still read as plain
    rows = [["1", "-2/3"], ["0", plain]]
    want = matrix_from_wire(doc_of(field, rows))
    rows[1][1] = odd
    got = matrix_from_wire(doc_of(field, rows))
    assert matrix_seen(got) == matrix_seen(want)
    assert got == Matrix(field, [[plain_parse(field, s) for s in row] for row in rows])


def test_first_refused_entry_names_the_error():
    # as entry by entry: a non-string entry after a refused string does not
    # win; the message names the row, the column and the whole entry
    with pytest.raises(ValueError, match=r"^entry \(row 0, column 0\) 'x': Invalid literal for Fraction: 'x'$"):
        matrix_from_wire(doc_of(QQ, [["x", 5], ["1", "2"]]))
    with pytest.raises(MalformedWire, match=r"^entry \(row 0, column 1\) 5: a scalar must be a string, got int 5$"):
        matrix_from_wire(doc_of(QI, [["1+i", 5], ["x", "2"]]))
    with pytest.raises(ValueError, match=r"^entry \(row 1, column 1\) '1-2i': Invalid literal for Fraction: '-2i'$"):
        matrix_from_wire(doc_of(SURD, [["1", "2"], ["3", "1-2i"]]))
    with pytest.raises(DivisionByZero, match=r"^entry \(row 1, column 0\) ' 3/0': zero denominator in '3/0'$"):
        matrix_from_wire(doc_of(QQ, [["1", "2"], [" 3/0", "x"]]))


def test_reader_patterns_compile_on_python_3_10():
    # possessive quantifiers and atomic groups are new in Python 3.11;
    # pyproject.toml still admits 3.10, where they fail at import
    patterns = {name: x.pattern for name, x in vars(scalars).items() if isinstance(x, re.Pattern)}
    assert patterns
    for name, pattern in patterns.items():
        assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", pattern), name
