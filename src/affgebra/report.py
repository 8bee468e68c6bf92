"""Check definitions, the one trial engine, and the outcome record.

Every catalogue check, the conjugation checks included, is a ``CheckDef``:
its inputs with their wire codecs, its evaluator, the context it runs
under and how its random stream is keyed.  ``run_trials`` samples and
evaluates any of them on a ``Carrier``, stopping at the first failure
with a counterexample that ``checks.replay`` can re-evaluate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .affine import BracketKind, Carrier, MatrixCarrier, kind_from_wire, kind_to_wire
from .classes import MatrixClassSpec, contains, derive_rng, draw_element, spec_to_wire
from .errors import wire_field
from .matrix import Matrix, matrix_from_wire, matrix_to_wire


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one property check.

    ``counterexample`` is present exactly when ``passed`` is false and
    carries everything needed to re-evaluate the failing instance
    without the original seed.
    """

    check: str
    passed: bool
    trials: int
    counterexample: dict | None
    elapsed_ms: float

    def to_wire(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "trials": self.trials,
            "counterexample": self.counterexample,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_wire(cls, doc: dict) -> "CheckReport":
        return cls(
            check=wire_field(doc, "check", str, "report"),
            passed=wire_field(doc, "passed", bool, "report"),
            trials=wire_field(doc, "trials", int, "report"),
            counterexample=doc.get("counterexample"),
            elapsed_ms=doc.get("elapsed_ms", 0.0),
        )


# -- carriers -----------------------------------------------------------


class MatrixClassCarrier(MatrixCarrier):
    """The matrix model of one of the normalised affine classes.

    Scalars come from the spec's action field, which is plain Q for the
    antisymmetric / anti-hermitian classes (their defining conditions
    are only real-linear, so complex scalars would break closure)."""

    def __init__(self, spec: MatrixClassSpec):
        self.spec = spec
        self.scalar_field = spec.scalar_field

    def describe(self) -> str:
        return self.spec.describe()

    def sample_point(self, rng):
        return draw_element(self.spec, rng)

    def sample_scalar(self, rng):
        return self.scalar_field.sample(rng)

    def contains(self, x):
        return contains(self.spec, x)

    def scalar_zero(self):
        return self.scalar_field.zero()

    def scalar_one(self):
        return self.scalar_field.one()

    def point_to_wire(self, x):
        return matrix_to_wire(x)

    def scalar_to_wire(self, alpha):
        return self.scalar_field.format(alpha)

    def kind_to_wire(self, kind):
        return kind_to_wire(kind, self.scalar_field)

    def class_wire(self):
        return spec_to_wire(self.spec)


def class_of(carrier: Carrier) -> MatrixClassSpec:
    """The matrix class under a carrier, for the checks that need one."""
    if isinstance(carrier, MatrixClassCarrier):
        return carrier.spec
    raise ValueError("this check needs a matrix class, not a custom carrier")


# -- check definitions --------------------------------------------------


class Codec(NamedTuple):
    """How one input of a check is drawn, written to wire JSON and read
    back from it."""

    sample: Callable  # (carrier, rng) -> value
    to_wire: Callable  # (carrier, value) -> JSON
    from_wire: Callable  # (spec, JSON) -> value


POINT = Codec(
    lambda cr, rng: cr.sample_point(rng),
    lambda cr, x: cr.point_to_wire(x),
    lambda spec, doc: matrix_from_wire(doc),
)
SCALAR = Codec(
    lambda cr, rng: cr.sample_scalar(rng),
    lambda cr, alpha: cr.scalar_to_wire(alpha),
    lambda spec, doc: spec.scalar_field.parse(doc),
)


class Context:
    """What a check runs under besides its inputs; this base is the empty
    context.  ``resolve`` gives the value the evaluator gets, checked
    before the first trial; ``label`` its part of the random-stream key;
    ``to_wire`` its keys in a counterexample; ``from_wire`` reads the
    value back from a counterexample."""

    def resolve(self, carrier: Carrier, value):
        return value

    def label(self, value) -> tuple:
        return ()

    def to_wire(self, carrier: Carrier, value) -> dict:
        return {}

    def from_wire(self, ce: dict, spec: MatrixClassSpec):
        return None


class BracketContext(Context):
    """The bracket kind, recorded under ``bracket``."""

    def label(self, kind):
        return (kind.label(),)

    def to_wire(self, carrier, kind):
        return {"bracket": carrier.kind_to_wire(kind)}

    def from_wire(self, ce, spec):
        return kind_from_wire(wire_field(ce, "bracket", None, "counterexample"), spec.scalar_field)


BRACKET = BracketContext()


def failure(prop: str, expected, actual) -> tuple[bool, dict]:
    """A failed evaluation: the failed property with its expected and
    actual values, matrices in wire form."""
    render = lambda v: matrix_to_wire(v) if isinstance(v, Matrix) else v
    return False, {"property": prop, "expected": render(expected), "actual": render(actual)}


@dataclass(frozen=True)
class CheckDef:
    """One catalogue check.  ``inputs`` are its input names in
    counterexample order, each with its codec; ``evaluate(carrier,
    context, **inputs)`` returns (passed, detail).  The check draws one
    random stream keyed by its name or, with ``trial_stream``, a fresh
    stream per trial keyed by that name and the trial index."""

    name: str
    inputs: tuple[tuple[str, Codec], ...]
    evaluate: Callable
    context: Context = BRACKET
    trial_stream: str | None = None
    applies: Callable[[BracketKind], bool] = lambda kind: True
    default_trials: int = 100


def run_trials(
    cdef: CheckDef,
    carrier: Carrier,
    seed: int,
    trials: int | None = None,
    context=None,
    mutate: Callable[[int, dict], dict] | None = None,
) -> CheckReport:
    """Evaluate ``cdef`` on ``trials`` sampled tuples (its default when
    None), stopping at the first failure.  ``mutate(i, inputs)`` is a
    fault-injection hook applied to the inputs of trial i."""
    if trials is None:
        trials = cdef.default_trials
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    context = cdef.context.resolve(carrier, context)
    start = time.perf_counter()
    head = (cdef.trial_stream,) if cdef.trial_stream else ("check", cdef.name)
    key = (*head, carrier.describe(), *cdef.context.label(context), seed)
    rng = None if cdef.trial_stream else derive_rng(*key)
    counterexample = None
    for i in range(trials):
        if cdef.trial_stream:
            rng = derive_rng(*key, i)
        inputs = {name: codec.sample(carrier, rng) for name, codec in cdef.inputs}
        if mutate is not None:
            inputs = mutate(i, inputs)
        passed, detail = cdef.evaluate(carrier, context, **inputs)
        if not passed:
            counterexample = {
                "class": carrier.class_wire(),
                **cdef.context.to_wire(carrier, context),
                "inputs": {name: codec.to_wire(carrier, inputs[name]) for name, codec in cdef.inputs},
                **detail,
            }
            break
    elapsed = (time.perf_counter() - start) * 1000
    return CheckReport(cdef.name, counterexample is None, i + 1, counterexample, elapsed)
