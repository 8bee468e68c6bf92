"""How a value enters each field: ``Field.coerce`` over every input kind,
``Field.from_int``, ``can_widen`` and ``field_by_tag``, pinned as tables.

A cell is the expected element (its type, value and the types of its
parts, compared through ``repr``) or the expected error (class and
message)."""
from fractions import Fraction

import pytest

from affgebra.errors import DivisionByZero, FieldMismatch
from affgebra.scalars import (
    GF,
    QI,
    QQ,
    SURD,
    SURD_C,
    GaussianRational as G,
    PrimeFieldElement as P,
    SurdComplex as SC,
    SurdReal as SR,
    can_widen,
    field_by_tag,
)

GF7 = GF(7)
FIELDS = {"Q": QQ, "Qi": QI, "GF7": GF7, "surd": SURD, "surd_c": SURD_C}
# the phrase of each field's FieldMismatch: "cannot take <type> <phrase>"
PHRASES = {
    "Q": "as a rational",
    "Qi": "as a Gaussian rational",
    "GF7": "in GF(7)",
    "surd": "as a real surd",
    "surd_c": "as a complex surd",
}


def mismatch(type_name):
    return {tag: (FieldMismatch, f"cannot take {type_name} {phrase}") for tag, phrase in PHRASES.items()}


def real(q):
    """The value q in each field, GF(7) aside."""
    return {"Q": Fraction(q), "Qi": G(q), "surd": SR(q), "surd_c": SC(q)}


SURD_VALUE = SR({1: 1, 2: Fraction(1, 2)})
SURD_C_VALUE = SC(1, SR({3: 1}))

# input kind -> (input, {field: expected element or (error class, message)})
TABLE = {
    "int": (3, {**real(3), "GF7": P(3, 7)}),
    "negative int": (-9, {**real(-9), "GF7": P(5, 7)}),
    "bool": (True, {**real(1), "GF7": P(1, 7)}),
    "Fraction": (Fraction(-2, 3), {**real(Fraction(-2, 3)), "GF7": P(4, 7)}),
    "Fraction over p": (Fraction(1, 7), {**real(Fraction(1, 7)), "GF7": (DivisionByZero, "division by zero in GF(7)")}),
    "GaussianRational": (G(1, 2), {**mismatch("GaussianRational"), "Qi": G(1, 2), "surd_c": SC(1, 2)}),
    "real GaussianRational": (G(5), {**mismatch("GaussianRational"), "Qi": G(5), "surd_c": SC(5)}),
    "PrimeFieldElement": (P(3, 7), {**mismatch("PrimeFieldElement"), "GF7": P(3, 7)}),
    "foreign PrimeFieldElement": (
        P(3, 11),
        {**mismatch("PrimeFieldElement"), "GF7": (FieldMismatch, "GF(11) element in GF(7)")},
    ),
    "SurdReal": (SURD_VALUE, {**mismatch("SurdReal"), "surd": SURD_VALUE, "surd_c": SC(SURD_VALUE)}),
    "rational SurdReal": (SR(4), {**mismatch("SurdReal"), "surd": SR(4), "surd_c": SC(4)}),
    "SurdComplex": (SURD_C_VALUE, {**mismatch("SurdComplex"), "surd_c": SURD_C_VALUE}),
    "str": ("-5", {**real(-5), "GF7": P(2, 7)}),
    "str fraction": (
        "3/4",
        {**real(Fraction(3, 4)), "GF7": (ValueError, "invalid literal for int() with base 10: '3/4'")},
    ),
    "str Gaussian": (
        "1-2i",
        {
            "Q": (ValueError, "Invalid literal for Fraction: '1-2i'"),
            "Qi": G(1, -2),
            "GF7": (ValueError, "invalid literal for int() with base 10: '1-2i'"),
            # a surd sum is read term by term
            "surd": (ValueError, "Invalid literal for Fraction: '-2i'"),
            "surd_c": (ValueError, "Invalid literal for Fraction: '-2i'"),
        },
    ),
    "str surd": (
        "2*sqrt(8)",
        {
            "Q": (ValueError, "Invalid literal for Fraction: '2*sqrt(8)'"),
            "Qi": (ValueError, "Invalid literal for Fraction: '2*sqrt(8)'"),
            "GF7": (ValueError, "invalid literal for int() with base 10: '2*sqrt(8)'"),
            "surd": SR({2: 4}),
            "surd_c": SC(SR({2: 4})),
        },
    ),
    "float": (0.5, mismatch("float")),
    "None": (None, mismatch("NoneType")),
}


def check_cell(call, expected):
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message
    else:
        got = call()
        assert type(got) is type(expected)
        assert repr(got) == repr(expected)
        assert got == expected


@pytest.mark.parametrize("tag", FIELDS)
@pytest.mark.parametrize("kind", TABLE)
def test_coerce(kind, tag):
    x, row = TABLE[kind]
    check_cell(lambda: FIELDS[tag].coerce(x), row[tag])


@pytest.mark.parametrize("tag", FIELDS)
@pytest.mark.parametrize("k", [0, 1, -3, 8])
def test_from_int(k, tag):
    expected = {**real(k), "GF7": P(k % 7, 7)}[tag]
    check_cell(lambda: FIELDS[tag].from_int(k), expected)
    check_cell(lambda: FIELDS[tag].coerce(k), expected)


def test_zero_and_one():
    for tag, field in FIELDS.items():
        check_cell(field.zero, {**real(0), "GF7": P(0, 7)}[tag])
        check_cell(field.one, {**real(1), "GF7": P(1, 7)}[tag])


# source -> the fields it widens into, itself included
WIDENS_TO = {
    "Q": {"Q", "Qi", "surd", "surd_c"},
    "Qi": {"Qi", "surd_c"},
    "GF7": {"GF7"},
    "surd": {"surd", "surd_c"},
    "surd_c": {"surd_c"},
}


@pytest.mark.parametrize("src", FIELDS)
def test_can_widen(src):
    assert {dst for dst in FIELDS if can_widen(FIELDS[src], FIELDS[dst])} == WIDENS_TO[src]
    assert not can_widen(FIELDS[src], GF(11))
    assert not can_widen(GF(11), FIELDS[src])


@pytest.mark.parametrize(
    "args, expected",
    [
        (("Q",), QQ),
        (("Qi",), QI),
        (("surd",), SURD),
        (("surd_c",), SURD_C),
        (("GF", 7), GF7),
        (("GF",), (ValueError, "GF needs an integer prime p")),
        (("GF", "7"), (ValueError, "GF needs an integer prime p")),
        (("GF", True), (ValueError, "GF needs an integer prime p")),
        (("GF", 8), (ValueError, "8 is not prime")),
        (("Q", 7), (ValueError, "a prime p is only for the field GF, not 'Q'")),
        (("R", 7), (ValueError, "a prime p is only for the field GF, not 'R'")),
        (("R",), (ValueError, "unknown field tag 'R'")),
        (("gf",), (ValueError, "unknown field tag 'gf'")),
    ],
    ids=repr,
)
def test_field_by_tag(args, expected):
    if isinstance(expected, tuple):
        check_cell(lambda: field_by_tag(*args), expected)
    else:
        assert field_by_tag(*args) is expected
