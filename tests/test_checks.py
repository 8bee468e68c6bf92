import json
import re
from fractions import Fraction

import pytest

from affgebra.affine import COMMUTATOR, Zeta
from affgebra.checks import (
    CATALOGUE,
    Carrier,
    all_passed,
    applicable_checks,
    replay,
    run_check,
    run_corollary,
)
from affgebra.classes import ClassKind, MatrixClassSpec
from affgebra.cli import main
from affgebra.errors import UnknownCheck
from affgebra.matrix import Matrix, matrix_to_wire
from affgebra.report import CheckReport
from affgebra.scalars import GF, QI, QQ


def spec(kind, n, field=None, c=None):
    if field is None:
        field = QI if kind in (ClassKind.UNA, ClassKind.SUNA) else QQ
    return MatrixClassSpec(kind, n, field, c=c)


AXIOM_CHECKS = [
    "heap-assoc", "malcev", "heap-comm",
    "act-add", "act-heap", "act-assoc", "act-unit", "act-zero", "act-base-change",
    "bracket-left-affine", "bracket-right-affine", "antisym", "jacobi",
    "closure", "idempotent",
]

RETRACT_CHECKS = [
    "retract-group", "retract-vector", "retract-lie",
    "translate-group-iso", "translate-lie-iso",
]


class TestCatalogue:
    def test_expected_names_present(self):
        expected = set(AXIOM_CHECKS + RETRACT_CHECKS + [
            "zeta-retract-trivial", "bullet-assoc", "bullet-commutator",
            "theorem-iso", "corollary-retract",
        ])
        assert expected == set(CATALOGUE)

    def test_applicability(self):
        z = Zeta(Fraction(1))
        assert "zeta-retract-trivial" in applicable_checks(z)
        assert "zeta-retract-trivial" not in applicable_checks(COMMUTATOR)
        assert "bullet-assoc" in applicable_checks(COMMUTATOR)
        assert "bullet-assoc" not in applicable_checks(z)
        with pytest.raises(UnknownCheck):
            applicable_checks(z, ["no-such-check"])

    @pytest.mark.parametrize("name", ["malcev", "theorem-iso", "corollary-retract"])
    def test_trials_below_one_rejected(self, name):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            run_check(name, spec(ClassKind.GNA, 1), COMMUTATOR, 0, trials=0)

    def test_unknown_check(self):
        with pytest.raises(UnknownCheck):
            run_check("nope", spec(ClassKind.GNA, 1), COMMUTATOR, 0, 1)


class TestChecksPass:
    @pytest.mark.parametrize("s", [
        spec(ClassKind.GNA, 2),
        spec(ClassKind.SNA, 2),
        spec(ClassKind.ONA, 3),
        spec(ClassKind.UNA, 2),
        spec(ClassKind.SUNA, 2),
        spec(ClassKind.GNA, 2, GF(7)),
        spec(ClassKind.SNA, 2, GF(11)),
        spec(ClassKind.GNA, 2, QI),
        spec(ClassKind.SNA, 2, QI),
        spec(ClassKind.GA_C, 2, QQ, c=Fraction(-1, 2)),
    ], ids=lambda s: s.describe())
    def test_axiom_and_retract_checks(self, s):
        kinds = [COMMUTATOR, Zeta(s.scalar_field.coerce(3))]
        for kind in kinds:
            for name in applicable_checks(kind, AXIOM_CHECKS + RETRACT_CHECKS):
                report = run_check(name, s, kind, seed=5, trials=8)
                assert report.passed, (s.describe(), name, report.counterexample)

    def test_zeta_retract_trivial(self):
        for z in (0, 1, 3):
            report = run_check(
                "zeta-retract-trivial", spec(ClassKind.SNA, 2), Zeta(Fraction(z)), seed=2, trials=20
            )
            assert report.passed

    def test_full_catalogue_grid(self):
        # every catalogue identity, all five classes, n = 1..4, both
        # bracket kinds where applicable (few trials; the acceptance
        # suite runs the deep version of the axiom subset)
        for kind_name in (ClassKind.GNA, ClassKind.SNA, ClassKind.ONA, ClassKind.UNA, ClassKind.SUNA):
            for n in range(1, 5):
                s = spec(kind_name, n)
                for kind in (COMMUTATOR, Zeta(Fraction(2))):
                    for name in applicable_checks(kind):
                        report = run_check(name, s, kind, seed=10, trials=3)
                        assert report.passed, (s.describe(), name, report.counterexample)

    def test_bullet_checks(self):
        for name in ("bullet-assoc", "bullet-commutator"):
            report = run_check(name, spec(ClassKind.GNA, 3), COMMUTATOR, seed=3, trials=10)
            assert report.passed

    def test_theorem_and_corollary_dispatch(self):
        report = run_check("theorem-iso", spec(ClassKind.SNA, 2), COMMUTATOR, seed=1, trials=5)
        assert report.passed and report.check == "theorem-iso"
        report = run_check("corollary-retract", spec(ClassKind.ONA, 3), COMMUTATOR, seed=1, trials=5)
        assert report.passed and report.check == "corollary-retract"

    def test_corollary_all_classes(self):
        for s in [spec(ClassKind.GNA, 2), spec(ClassKind.SNA, 3), spec(ClassKind.ONA, 3),
                  spec(ClassKind.UNA, 2), spec(ClassKind.SUNA, 3),
                  spec(ClassKind.SNA, 3, GF(7))]:
            report = run_corollary(s, seed=6, trials=20)
            assert report.passed, (s.describe(), report.counterexample)


class TestFaultInjection:
    def _broken_closure_report(self):
        def mutate(i, inputs):
            out = dict(inputs)
            out["x"] = out["x"].with_entry(0, 0, out["x"].entry(0, 0) + 1)
            return out

        return run_check("closure", spec(ClassKind.GNA, 2), COMMUTATOR, seed=0, trials=10, mutate=mutate)

    def test_single_entry_perturbation_caught(self):
        report = self._broken_closure_report()
        assert not report.passed
        assert report.trials == 1
        ce = report.counterexample
        assert ce["class"] == {"kind": "gna", "n": 2, "field": "Q"}
        assert ce["bracket"] == {"kind": "commutator"}
        assert set(ce["inputs"]) == {"x", "y", "z", "alpha"}

    def test_replay_reproduces_failure(self):
        report = self._broken_closure_report()
        wire = json.loads(json.dumps(report.to_wire()))
        fresh = replay(wire)
        assert not fresh.passed
        assert fresh.check == "closure"
        assert fresh.trials == 1
        assert fresh.counterexample["inputs"] == report.counterexample["inputs"]

    @pytest.mark.parametrize("field, kind, bracket, alpha", [
        (QI, COMMUTATOR, {"kind": "commutator"}, "1/2"),
        (GF(7), COMMUTATOR, {"kind": "commutator"}, "4"),
        (GF(7), Zeta(Fraction(1, 2)), {"kind": "zeta", "zeta": "4"}, "4"),
    ], ids=["Qi", "GF7", "GF7-zeta"])
    def test_fraction_scalars_are_written_in_the_action_field(self, field, kind, bracket, alpha):
        # a Fraction alpha is written in the action field, as zeta is
        def mutate(i, inputs):
            x = inputs["x"]
            return dict(inputs, x=x.with_entry(0, 0, x.entry(0, 0) + 1), alpha=Fraction(1, 2))

        report = run_check("closure", spec(ClassKind.GNA, 2, field), kind, 0, 2, mutate)
        assert not report.passed
        assert report.counterexample["bracket"] == bracket
        assert report.counterexample["inputs"]["alpha"] == alpha
        json.dumps(report.to_wire())

    def test_replay_needs_counterexample(self):
        good = run_check("malcev", spec(ClassKind.GNA, 1), COMMUTATOR, seed=0, trials=2)
        with pytest.raises(ValueError):
            replay(good.to_wire())

    def test_replay_confirms_good_inputs_pass(self):
        # replaying a report whose inputs were NOT perturbed comes back green
        report = self._broken_closure_report()
        wire = report.to_wire()
        fixed = json.loads(json.dumps(wire))
        # undo the +1 perturbation
        from affgebra.matrix import matrix_from_wire, matrix_to_wire

        x = matrix_from_wire(fixed["counterexample"]["inputs"]["x"])
        x = x.with_entry(0, 0, x.entry(0, 0) - 1)
        fixed["counterexample"]["inputs"]["x"] = matrix_to_wire(x)
        assert replay(fixed).passed


class TestDeterminism:
    def test_same_seed_same_wire(self):
        a = run_check("antisym", spec(ClassKind.SNA, 2), COMMUTATOR, seed=12, trials=10).to_wire()
        b = run_check("antisym", spec(ClassKind.SNA, 2), COMMUTATOR, seed=12, trials=10).to_wire()
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b


class TestTranslateLieIsoGates:
    def test_failed_translate_lie_iso_fails_all_passed(self):
        fake = CheckReport("translate-lie-iso", False, 1, {"inputs": {}}, 0.0)
        good = CheckReport("malcev", True, 1, None, 0.0)
        assert all_passed([good])
        assert not all_passed([good, fake])

    def test_verify_exits_one_when_translation_breaks(self, capsys, monkeypatch):
        # a translation that adds 1 to the corner entry no longer
        # intertwines the retract brackets, and verify reports it
        def shifted(self, o, obar, a):
            x = self.heap(a, o, obar)
            n = x.size - 1
            return x.with_entry(n, n, x.entry(n, n) + 1)

        monkeypatch.setattr(Carrier, "translate", shifted)
        code = main([
            "verify", "--class", "gna", "--n", "2", "--field", "Q",
            "--checks", "translate-lie-iso", "--seed", "0", "--trials", "4",
        ])
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["check"] == "translate-lie-iso"
        assert not json.loads(line)["passed"]
        assert code == 1


class PointLineCarrier(Carrier):
    """Rational line with the canonical heap; bracket via the scalar
    action only (there is no product), to exercise the carrier protocol."""

    def describe(self):
        return "rational-line"

    def sample_point(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def sample_scalar(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def heap(self, a, b, c):
        return a - b + c

    def action(self, alpha, base, b):
        return alpha * (b - base) + base

    def bracket(self, kind, a, b):
        assert isinstance(kind, Zeta)
        return self.action(kind.zeta, a, b)

    def contains(self, x):
        return True


class SkewedLineCarrier(PointLineCarrier):
    """The line with a heap that breaks the Mal'cev identities."""

    def heap(self, a, b, c):
        return a - b + c + 1


class TestCustomCarrier:
    def test_affine_axioms_hold_on_the_line(self):
        carrier = PointLineCarrier()
        z = Zeta(Fraction(5, 3))
        for name in ["heap-assoc", "malcev", "heap-comm", "act-add", "act-heap",
                     "act-assoc", "act-unit", "act-zero", "act-base-change",
                     "antisym", "jacobi", "zeta-retract-trivial", "closure"]:
            report = run_check(name, carrier, z, seed=8, trials=25)
            assert report.passed, (name, report.counterexample)

    def test_counterexamples_without_class_cannot_replay(self):
        report = run_check("malcev", SkewedLineCarrier(), Zeta(Fraction(1)), seed=0, trials=3)
        assert not report.passed
        assert report.counterexample["class"] is None
        with pytest.raises(ValueError):
            replay(report.to_wire())

    def test_zeta_is_written_like_the_scalar_inputs(self):
        report = run_check("act-heap", SkewedLineCarrier(), Zeta(Fraction(5, 3)), seed=0, trials=3)
        ce = report.counterexample
        assert ce["bracket"] == {"kind": "zeta", "zeta": "Fraction(5, 3)"}
        assert ce["inputs"]["alpha"].startswith("Fraction(")

    def test_matrix_checks_refuse_custom_carrier(self):
        with pytest.raises(ValueError):
            run_check("theorem-iso", PointLineCarrier(), COMMUTATOR, 0, 1)

    def test_describe_defaults_to_the_class_name(self):
        class Line(PointLineCarrier):
            describe = Carrier.describe  # as if it defined no describe

        carrier = Line()
        assert run_check("malcev", carrier, Zeta(Fraction(1)), seed=0, trials=3).passed
        assert carrier.describe() == "Line"

    def test_a_missing_method_is_named(self):
        class Bare(Carrier):
            pass

        with pytest.raises(AttributeError, match="'Bare' object has no attribute 'sample_point'"):
            run_check("malcev", Bare(), Zeta(Fraction(1)), seed=0, trials=1)


class CommutatorLineCarrier(PointLineCarrier):
    """The line with the affine commutator, ab - ba + b = b, and still no
    product."""

    def bracket(self, kind, a, b):
        return b if kind == COMMUTATOR else super().bracket(kind, a, b)


class TestCustomCarrierRetracts:
    """A custom carrier inherits every retract operation from its heap,
    action and bracket, and the retract product from its product; the
    bullet checks refuse a carrier without one."""

    def test_retract_checks_hold_on_the_line(self):
        z = Zeta(Fraction(5, 3))
        for name in RETRACT_CHECKS:
            report = run_check(name, PointLineCarrier(), z, seed=8, trials=25)
            assert report.passed, (name, report.counterexample)

    @pytest.mark.parametrize("name", ["bullet-assoc", "bullet-commutator"])
    def test_bullet_checks_refuse_custom_carrier(self, name):
        # bullet-commutator evaluates its retract bracket first
        carrier = PointLineCarrier() if name == "bullet-assoc" else CommutatorLineCarrier()
        with pytest.raises(ValueError, match="^rational-line has no product, which the retract product needs$"):
            run_check(name, carrier, COMMUTATOR, 0, 1)


class TestApplicability:
    @pytest.mark.parametrize("name, kind", [
        ("zeta-retract-trivial", COMMUTATOR),
        ("bullet-assoc", Zeta(Fraction(2))),
        ("bullet-commutator", Zeta(Fraction(2))),
    ])
    def test_run_check_refuses_a_bracket_it_does_not_apply_to(self, name, kind):
        message = f"^{name} does not apply to the bracket {re.escape(kind.label())}$"
        with pytest.raises(ValueError, match=message):
            run_check(name, spec(ClassKind.GNA, 2), kind, seed=1, trials=3)

    def test_replay_refuses_a_bracket_the_check_does_not_apply_to(self):
        # a zeta-retract-trivial counterexample recorded under the commutator
        point = matrix_to_wire(Matrix.identity(QQ, 3))
        doc = {
            "check": "zeta-retract-trivial", "passed": False, "trials": 1,
            "counterexample": {
                "class": {"kind": "gna", "n": 2, "field": "Q"},
                "bracket": {"kind": "commutator"},
                "inputs": {"o": point, "a": point, "b": point},
            },
        }
        with pytest.raises(ValueError, match="^zeta-retract-trivial does not apply to the bracket commutator$"):
            replay(doc)


class TestReportWire:
    def test_exact_key_set(self):
        report = run_check("malcev", spec(ClassKind.GNA, 1), COMMUTATOR, seed=0, trials=2)
        wire = report.to_wire()
        assert set(wire) == {"check", "passed", "trials", "counterexample", "elapsed_ms"}
