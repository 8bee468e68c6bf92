"""Wire output of all 25 catalogue checks, pinned byte for byte.

``tests/golden/catalogue.json`` holds the output of ``golden_document()``:
passing reports (without ``elapsed_ms``) of every applicable check on
gna/sna/ona/una/suna at n = 2 and gna over GF(7) under the commutator
and zeta 2; one fault-injected counterexample per check with its replay
report; and CLI stdout and exit codes of ``verify``, ``iso-check``,
``corollary`` and ``replay``.  Regenerate it only for an intended change
of output with

    PYTHONPATH=src python -c "import json, tests.test_catalogue_golden as t; \
print(json.dumps(t.golden_document(), indent=1))" > tests/golden/catalogue.json

Faults.  ``theorem-iso`` and ``corollary-retract`` take them through
``mutate``: z gets an entry in its last column, which the block target
forbids, and a and b get one entry each in the last row and column, so
the retract bracket leaves the block target.  The catalogue identities
hold for every matrix, so no input can break them; their fault sits in
the heap, the action, the bracket and ``heap5`` (the last step of the
retract product, after its four matrix products) instead.  The first of
those calls in each evaluation returns its result with 1 added
to the corner entry (``mutate`` arms it for each trial, and it is armed
again for the replay, which therefore reproduces the failure).
"""
import io
import json
import re
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

from affgebra import affine
from affgebra.affine import COMMUTATOR, Zeta
from affgebra.checks import CATALOGUE, applicable_checks, replay, run_check, run_corollary
from affgebra.classes import ClassKind, MatrixClassSpec
from affgebra.cli import main
from affgebra.report import MatrixClassCarrier, run_trials
from affgebra.scalars import GF, QI, QQ
from affgebra.transforms import THEOREM, VIA_U

GOLDEN = Path(__file__).parent / "golden" / "catalogue.json"
SEED = 20240607
SPECS = [
    MatrixClassSpec(ClassKind.GNA, 2, QQ),
    MatrixClassSpec(ClassKind.SNA, 2, QQ),
    MatrixClassSpec(ClassKind.ONA, 2, QQ),
    MatrixClassSpec(ClassKind.UNA, 2, QI),
    MatrixClassSpec(ClassKind.SUNA, 2, QI),
    MatrixClassSpec(ClassKind.GNA, 2, GF(7)),
]
KINDS = [COMMUTATOR, Zeta(Fraction(2))]
FAULTED_OPERATIONS = ("heap", "action", "bracket", "heap5")


def _report(report):
    doc = report.to_wire()
    doc.pop("elapsed_ms")
    return doc


def _bump(m, i, j):
    return m.with_entry(i, j, m.entry(i, j) + 1)


def theorem_fault(i, inputs):
    z = inputs["z"]
    return dict(inputs, z=_bump(z, 0, z.size - 1))


def corollary_fault(i, inputs):
    last = inputs["a"].size - 1
    return dict(inputs, a=_bump(inputs["a"], last, 0), b=_bump(inputs["b"], 0, last))


INPUT_FAULTS = {"theorem-iso": theorem_fault, "corollary-retract": corollary_fault}


class OperationFault:
    """Armed, the next faulted operation adds 1 to its result's corner."""

    def __init__(self):
        self.armed = False

    def arm(self, i=None, inputs=None):
        self.armed = True
        return inputs

    def wrap(self, op):
        def faulty(*args):
            result = op(*args)
            if self.armed:
                self.armed = False
                result = _bump(result, 0, 0)
            return result

        return faulty


@contextmanager
def operation_fault():
    fault = OperationFault()
    with mock.patch.multiple(affine, **{name: fault.wrap(getattr(affine, name)) for name in FAULTED_OPERATIONS}):
        yield fault


def faulted(check, s, kind):
    """(report, replay report) of ``check`` run under its fault."""
    if check in INPUT_FAULTS:
        report = run_check(check, s, kind, SEED, trials=3, mutate=INPUT_FAULTS[check])
        return report, replay(json.loads(json.dumps(report.to_wire())))
    with operation_fault() as fault:
        report = run_check(check, s, kind, SEED, trials=5, mutate=fault.arm)
        fault.arm()
        return report, replay(json.loads(json.dumps(report.to_wire())))


_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": _ELAPSED.sub('"elapsed_ms": 0', out.getvalue())}


CLI_RUNS = [
    ("verify", "--class", "gna", "--n", "2", "--seed", "5", "--trials", "2"),
    ("verify", "--class", "sna", "--n", "2", "--bracket", "zeta:2", "--seed", "5", "--trials", "2"),
    ("verify", "--class", "una", "--n", "2", "--checks", "theorem-iso,corollary-retract,closure",
     "--seed", "5", "--trials", "2"),
    ("verify", "--class", "gna", "--n", "1", "--checks", "jacobi,malcev", "--seed", "5"),
    ("verify", "--class", "ona", "--n", "2", "--checks", "bullet-assoc", "--bracket", "zeta:1"),
    ("iso-check", "--class", "ona", "--n", "2", "--seed", "5", "--trials", "3"),
    ("iso-check", "--class", "gna", "--n", "2", "--via", "U", "--seed", "5", "--trials", "3"),
    ("iso-check", "--class", "sna", "--n", "1", "--seed", "5"),
    ("iso-check", "--class", "ona", "--n", "2", "--via", "P"),
    ("corollary", "--class", "suna", "--n", "2", "--seed", "5", "--trials", "3"),
    ("corollary", "--class", "gna", "--n", "1", "--seed", "5"),
    ("corollary", "--class", "sna", "--n", "2", "--field", "GF", "--p", "7", "--seed", "5", "--trials", "3"),
]
CLI_REPLAYS = ("closure", "heap-comm", "theorem-iso", "corollary-retract")


def golden_document() -> dict:
    passing = []
    for s in SPECS:
        for kind in KINDS:
            for name in applicable_checks(kind):
                passing.append(_report(run_check(name, s, kind, SEED, trials=2)))
    faults, documents = [], {}
    for index, name in enumerate(CATALOGUE):
        specs = SPECS if name in INPUT_FAULTS else [SPECS[index % len(SPECS)]]
        kind = next(k for k in KINDS if CATALOGUE[name].applies(k))
        for s in specs:
            report, replayed = faulted(name, s, kind)
            faults.append({"report": _report(report), "replay": _report(replayed)})
            documents.setdefault(name, dict(report.to_wire(), elapsed_ms=0.0))
    cli = [_cli(*argv) for argv in CLI_RUNS]
    cli += [_cli("replay", json.dumps(documents[name])) for name in CLI_REPLAYS]
    return {"passing": passing, "faults": faults, "cli": cli}


def test_golden_wire_output_byte_identical():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert json.dumps(golden_document(), indent=1) + "\n" == expected


def test_corollary_fails_its_commutator_property_under_a_faulted_bracket():
    # the block commutator branch of the corollary runs only when the
    # retract bracket is wrong; the first bracket call of a trial is faulted
    for s in (SPECS[0], SPECS[4]):
        fault = OperationFault()
        with mock.patch.object(affine, "bracket", fault.wrap(affine.bracket)):
            fault.arm()
            report = run_corollary(s, SEED, trials=3)
            fault.arm()
            replayed = replay(json.loads(json.dumps(report.to_wire())))
        for r in (report, replayed):
            assert (r.passed, r.trials) == (False, 1), s.describe()
            assert r.counterexample["property"] == "retract bracket equals block commutator"
        for key in ("inputs", "expected", "actual"):
            assert replayed.counterexample[key] == report.counterexample[key]


def test_replay_keeps_the_conjugation_route():
    # gna takes P by default; a failure found on U must replay on U, and so
    # must the replay of that replay
    report = run_trials(THEOREM, MatrixClassCarrier(SPECS[0]), SEED, 3, VIA_U, theorem_fault)
    assert report.counterexample["via"] == VIA_U
    doc = report.to_wire()
    for _ in range(2):
        replayed = replay(json.loads(json.dumps(doc)))
        assert (replayed.passed, replayed.counterexample) == (False, report.counterexample)
        doc = replayed.to_wire()
