"""Every failure branch of ``transforms.evaluate_theorem_case``.

The theorem holds on correct code, so each branch is reached by breaking
one operation that the check calls, as ``perfbench/workloads.py`` perturbs
an axiom check: the conjugation itself (its image leaves the block
target; its inverse misses the input), or the bracket, the heap or the
action on the class side only.  Each failure must report the block
matrices D·Z·D⁻¹ (``Frame.materialise``) of both sides, and its report
must replay through the CLI under the fault (exit 0) and not without it
(exit 1), on one class of each route.  A class-side result that leaves
the class fails "<op> stays in the class" the same way: ``iso-check``
exits 1 with a replayable report, where a non-member input is a
``ClassViolation`` (exit 2).  Those cases are not part of the golden
document.

``tests/golden/theorem_faults.json`` holds the wire output of
``golden_document()``; regenerate it only for an intended change of
output with

    PYTHONPATH=src:tests python -c "import json, test_theorem_faults as t; \
print(json.dumps(t.golden_document(), indent=1))" > tests/golden/theorem_faults.json
"""
import io
import itertools
import json
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from affgebra import transforms
from affgebra.affine import COMMUTATOR, action, bracket, heap
from affgebra.classes import ClassKind, MatrixClassSpec, derive_rng, spec_to_wire
from affgebra.cli import main
from affgebra.matrix import matrix_to_wire
from affgebra.report import MatrixClassCarrier
from affgebra.scalars import QI, QQ, widen_scalar
from affgebra.transforms import THEOREM, VIA_P, VIA_U, evaluate_theorem_case, to_block, verify_theorem

GOLDEN = Path(__file__).parent / "golden" / "theorem_faults.json"
CASES = [
    (MatrixClassSpec(ClassKind.GNA, 2, QQ), VIA_P),
    (MatrixClassSpec(ClassKind.UNA, 2, QI), VIA_U),
]


def class_side_only(op, wrong):
    """op with its 1st, 3rd, ... call replaced by wrong: the check calls op
    twice per property, first on the class members, then on their images."""
    calls = itertools.count()
    return lambda *args: wrong(*args) if next(calls) % 2 == 0 else op(*args)


def moved_corner(image):
    # Z with its corner moved, so Z - base has a nonzero last row
    def broken(frame, m):
        z = image(frame, m)
        n = z.size - 1
        return z.with_entry(n, n, z.entry(n, n) + z.field.one())

    return broken


def shifted(m):
    # m with entry (0, 0) moved by one, which no class of CASES admits
    return m.with_entry(0, 0, m.entry(0, 0) + m.field.one())


def moved_entry(preimage):
    return lambda frame, z: shifted(preimage(frame, z))


# fault -> (where, what, the broken operation from the original, failed property)
FAULTS = {
    "image": (transforms.Frame, "image", moved_corner, "image of a not in block target"),
    "bracket": (transforms, "bracket", lambda op: class_side_only(op, lambda k, x, y: op(k, y, x)), "bracket preservation"),
    "heap": (transforms, "heap", lambda op: class_side_only(op, lambda x, y, z: op(x, z, y)), "heap preservation"),
    "action": (transforms, "action", lambda op: class_side_only(op, lambda t, x, y: op(t, y, x)), "action preservation"),
    "inverse": (transforms.Frame, "preimage", moved_entry, "inverse conjugation roundtrip"),
}


def fault(name):
    """A context in which the named operation is broken."""
    owner, attr, breaks, _ = FAULTS[name]
    return mock.patch.object(owner, attr, breaks(getattr(owner, attr)))


def theorem_inputs(s, via):
    carrier = MatrixClassCarrier(s)
    rng = derive_rng("theorem-faults", s.describe(), via)
    return {name: codec.sample(carrier, rng) for name, codec in THEOREM.inputs}


def expected_detail(name, s, via, inputs):
    """The failure detail the fault must give, built without it: the block
    matrices of both sides, or a and its moved preimage over the block
    field."""
    a, b, c, alpha = (inputs[k] for k in ("a", "b", "c", "alpha"))
    ta, tb, tc = (to_block(s, x, via) for x in (a, b, c))
    if name == "image":
        lhs, rhs = True, False
    elif name == "bracket":
        lhs, rhs = to_block(s, bracket(COMMUTATOR, b, a), via), bracket(COMMUTATOR, ta, tb)
    elif name == "heap":
        lhs, rhs = to_block(s, heap(a, c, b), via), heap(ta, tb, tc)
    elif name == "action":
        lhs = to_block(s, action(alpha, b, a), via)
        rhs = action(widen_scalar(alpha, s.scalar_field, ta.field), ta, tb)
    else:
        lhs, rhs = a.widen(ta.field), a.with_entry(0, 0, a.entry(0, 0) + a.field.one()).widen(ta.field)
    render = lambda v: matrix_to_wire(v) if not isinstance(v, bool) else v
    return {"property": FAULTS[name][3], "expected": render(lhs), "actual": render(rhs)}


@pytest.mark.parametrize("name", FAULTS)
@pytest.mark.parametrize("s, via", CASES)
def test_fault_fails_its_property_with_the_block_matrices(s, via, name):
    inputs = theorem_inputs(s, via)
    assert evaluate_theorem_case(s, via, inputs) == (True, {})
    with fault(name):
        got = evaluate_theorem_case(s, via, inputs)
    assert got == (False, expected_detail(name, s, via, inputs))


def _replay_exit(report: dict) -> int:
    with redirect_stdout(io.StringIO()):
        return main(["replay", json.dumps(report)])


def golden_document() -> list:
    doc = []
    for s, via in CASES:
        for name in FAULTS:
            with fault(name):
                report = verify_theorem(s, 1, 2, via).to_wire()
                under_fault = _replay_exit(report)
            report.pop("elapsed_ms")
            doc.append({
                "class": spec_to_wire(s),
                "via": via,
                "fault": name,
                "report": report,
                "replay_exit_under_fault": under_fault,
                "replay_exit_without": _replay_exit(dict(report, elapsed_ms=0.0)),
            })
    return doc


def test_golden_reports_replay_under_the_fault_only():
    doc = golden_document()
    assert json.dumps(doc, indent=1) + "\n" == GOLDEN.read_text(encoding="utf-8")
    for entry in doc:
        assert entry["report"]["counterexample"]["property"] == FAULTS[entry["fault"]][3]
        assert (entry["replay_exit_under_fault"], entry["replay_exit_without"]) == (0, 1)


def leaving_the_class(op):
    """A context in which the class-side call of the named operation
    returns a matrix outside the class."""
    original = getattr(transforms, op)
    return mock.patch.object(transforms, op, class_side_only(original, lambda *args: shifted(original(*args))))


@pytest.mark.parametrize("op", ["bracket", "heap", "action"])
@pytest.mark.parametrize("s, via", CASES)
def test_a_result_that_leaves_the_class_is_a_failed_check(s, via, op):
    inputs = theorem_inputs(s, via)
    detail = {"property": f"{op} stays in the class", "expected": True, "actual": False}
    args = ["iso-check", "--class", s.kind.value, "--n", str(s.n), "--field", s.field.describe(), "--via", via]
    out = io.StringIO()
    with leaving_the_class(op):
        assert evaluate_theorem_case(s, via, inputs) == (False, detail)
        report = verify_theorem(s, 1, 2, via).to_wire()
        with redirect_stdout(out):
            code = main([*args, "--seed", "1", "--trials", "2"])
        under_fault = _replay_exit(report)
    cli_report = json.loads(out.getvalue().splitlines()[-1])
    assert {k: v for k, v in report["counterexample"].items() if k != "inputs"} == {
        "class": spec_to_wire(s), "via": via, **detail
    }
    assert (code, cli_report["counterexample"]["property"]) == (1, detail["property"])
    assert (under_fault, _replay_exit(report)) == (0, 1)
