"""A carrier is the one codec of its reports.

Every value of a failing report is written by the carrier that ran the
check, so the report is JSON for any carrier: its points (``expected``
and ``actual`` included) through ``point_to_wire``, its scalars and a
zeta through ``scalar_to_wire``.  ``checks.replay(doc, carrier)`` reads
the inputs and the zeta back through the carrier's ``point_from_wire``
and ``scalar_from_wire`` and reproduces the counterexample; it refuses
a carrier whose ``class_wire()`` is not the document's ``class``.
"""
import json
import re
from fractions import Fraction

import pytest

from affgebra.affine import COMMUTATOR, Zeta
from affgebra.checks import replay, run_check
from affgebra.classes import ClassKind, MatrixClassSpec
from affgebra.report import MatrixClassCarrier
from affgebra.scalars import QQ
from free_algebra import ZETA_SYMBOL, FreeAlgebraCarrier, Scalar, combine
from test_checks import PointLineCarrier, SkewedLineCarrier


def read_fraction(text):
    """A ``Fraction`` from its ``repr``, the form of the default writers."""
    num, den = re.fullmatch(r"Fraction\((-?\d+), (\d+)\)", text).groups()
    return Fraction(int(num), int(den))


class ReadSkewedLineCarrier(SkewedLineCarrier):
    """The skewed line, reading back what the default writers wrote."""

    def point_from_wire(self, doc):
        return read_fraction(doc)

    def scalar_from_wire(self, doc):
        return read_fraction(doc)


class TextLineCarrier(PointLineCarrier):
    """The line with every value written as fraction text, "-6/5"."""

    def point_to_wire(self, x):
        return str(x)

    def scalar_to_wire(self, alpha):
        return str(alpha)

    def point_from_wire(self, doc):
        return Fraction(doc)

    def scalar_from_wire(self, doc):
        return Fraction(doc)


class ShiftedActionLineCarrier(TextLineCarrier):
    """The text line with an action that adds 1, which breaks act-assoc."""

    def action(self, alpha, base, b):
        return super().action(alpha, base, b) + 1


def read_scalar(text):
    """A free-algebra ``Scalar`` from the text of its ``repr``."""
    terms = {}
    for term in text.split(" + "):
        coefficient, *symbols = term.split("*")
        monomial = tuple(sorted(-1 if s == "zeta" else int(s[1:]) for s in symbols))
        terms[monomial] = Fraction(coefficient)
    return Scalar({m: c for m, c in terms.items() if c})


class WiredFreeAlgebra(FreeAlgebraCarrier):
    """The free algebra with the heap a - b + c + 1, a point written as
    its sorted terms [word, monomial, coefficient] and a scalar as the
    text of its ``repr``."""

    def heap(self, a, b, c):
        return combine((1, super().heap(a, b, c)), (1, {((), ()): 1}))

    def point_to_wire(self, x):
        return sorted([list(word), list(monomial), str(c)] for (word, monomial), c in x.items())

    def scalar_to_wire(self, alpha):
        return repr(Scalar.of(alpha))

    def point_from_wire(self, doc):
        return {(tuple(word), tuple(monomial)): Fraction(c) for word, monomial, c in doc}

    def scalar_from_wire(self, doc):
        return read_scalar(doc)


def wire_of(report) -> dict:
    """The report's JSON document without its timing."""
    doc = json.loads(json.dumps(report.to_wire()))
    del doc["elapsed_ms"]
    return doc


def replayed(doc, carrier=None) -> dict:
    return wire_of(replay(doc, carrier))


CUSTOM_FAILURES = [
    # (check, carrier that runs it, carrier that replays it, bracket)
    ("malcev", SkewedLineCarrier, ReadSkewedLineCarrier, Zeta(Fraction(5, 3))),
    ("act-heap", ReadSkewedLineCarrier, ReadSkewedLineCarrier, Zeta(Fraction(5, 3))),
    ("act-assoc", ShiftedActionLineCarrier, ShiftedActionLineCarrier, Zeta(Fraction(-1, 2))),
    ("act-heap", WiredFreeAlgebra, WiredFreeAlgebra, Zeta(ZETA_SYMBOL)),
    ("retract-group", WiredFreeAlgebra, WiredFreeAlgebra, COMMUTATOR),
]


class TestCustomCarrierReports:
    @pytest.mark.parametrize("check, runs, replays, kind", CUSTOM_FAILURES)
    def test_a_failing_report_is_json_and_replays_exactly(self, check, runs, replays, kind):
        report = run_check(check, runs(), kind, seed=0, trials=5)
        assert not report.passed and report.trials == 1
        doc = wire_of(report)
        assert doc["counterexample"]["class"] is None
        assert replayed(doc, replays()) == doc

    def test_the_default_writer_writes_expected_and_actual_as_repr(self):
        report = run_check("malcev", SkewedLineCarrier(), COMMUTATOR, seed=0, trials=3)
        ce = report.counterexample
        assert (ce["property"], ce["expected"], ce["actual"]) == ("<a,b,b> = a", "Fraction(0, 1)", "Fraction(1, 1)")
        json.dumps(report.to_wire())

    def test_free_algebra_points_are_written_by_the_carrier(self):
        ce = run_check("malcev", WiredFreeAlgebra(), COMMUTATOR, seed=0, trials=1).counterexample
        assert ce["inputs"] == {"a": [[[0], [], "1"]], "b": [[[1], [], "1"]]}
        assert (ce["expected"], ce["actual"]) == ([[[0], [], "1"]], [[[], [], "1"], [[0], [], "1"]])

    def test_a_replay_that_reaches_a_missing_reader_names_it(self):
        class ScalarsOnly(SkewedLineCarrier):
            scalar_from_wire = staticmethod(read_fraction)

        doc = wire_of(run_check("malcev", SkewedLineCarrier(), Zeta(Fraction(1)), seed=0, trials=3))
        with pytest.raises(AttributeError, match="'SkewedLineCarrier' object has no attribute 'scalar_from_wire'"):
            replay(doc, SkewedLineCarrier())
        with pytest.raises(AttributeError, match="'ScalarsOnly' object has no attribute 'point_from_wire'"):
            replay(doc, ScalarsOnly())

    def test_without_its_carrier_a_custom_report_does_not_replay(self):
        doc = wire_of(run_check("malcev", SkewedLineCarrier(), Zeta(Fraction(1)), seed=0, trials=3))
        with pytest.raises(ValueError, match="^counterexample from a custom carrier cannot be replayed$"):
            replay(doc)


GNA2 = MatrixClassSpec(ClassKind.GNA, 2, QQ)


def move_entry(name, i, j):
    def mutate(trial, inputs):
        x = inputs[name]
        return dict(inputs, **{name: x.with_entry(i, j, x.entry(i, j) + 1)})

    return mutate


class TestMatrixClassCarrierReplay:
    @pytest.mark.parametrize("check, mutate", [
        ("closure", move_entry("x", 0, 0)),
        ("corollary-retract", move_entry("a", 2, 0)),
    ])
    def test_the_class_carrier_replays_as_the_document_does(self, check, mutate):
        report = run_check(check, GNA2, COMMUTATOR, seed=0, trials=2, mutate=mutate)
        assert not report.passed and report.trials == 1
        doc = wire_of(report)
        assert replayed(doc, MatrixClassCarrier(GNA2)) == replayed(doc) == doc


class TestMismatchedCarrier:
    def _closure_doc(self):
        return wire_of(run_check("closure", GNA2, COMMUTATOR, seed=0, trials=2, mutate=move_entry("x", 0, 0)))

    def test_another_class_is_refused(self):
        sna = MatrixClassCarrier(MatrixClassSpec(ClassKind.SNA, 2, QQ))
        message = "closure counterexample is not from sna(2, Q): its class is {'kind': 'gna', 'n': 2, 'field': 'Q'}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replay(self._closure_doc(), sna)

    def test_a_custom_carrier_is_refused_a_class_document(self):
        with pytest.raises(ValueError, match=r"^closure counterexample is not from rational-line: its class is \{"):
            replay(self._closure_doc(), TextLineCarrier())

    def test_a_class_carrier_is_refused_a_custom_document(self):
        doc = wire_of(run_check("act-heap", ReadSkewedLineCarrier(), Zeta(Fraction(1)), seed=0, trials=3))
        with pytest.raises(ValueError, match=r"^act-heap counterexample is not from gna\(2, Q\): its class is None$"):
            replay(doc, MatrixClassCarrier(GNA2))
