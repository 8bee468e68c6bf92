"""Check definitions, the one trial engine, and the outcome record.

Every catalogue check, the conjugation checks included, is a ``CheckDef``:
its inputs with their codecs (the carrier draws, writes and reads each),
its evaluator, the context it runs under and how its random stream is
keyed.  ``run_trials`` samples and evaluates any of them on a ``Carrier``,
stopping at the first failure with a counterexample that ``checks.replay``
can re-evaluate.  Every evaluator states its properties through ``expect``,
the one builder of a failure's detail.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .affine import BracketKind, Carrier, MatrixCarrier, kind_from_wire, kind_to_wire
from .classes import MatrixClassSpec, contains, derive_rng, draw_element, spec_to_wire
from .errors import wire_field
from .matrix import matrix_from_wire, matrix_to_wire


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

    def point_to_wire(self, x):
        return matrix_to_wire(x)

    def scalar_to_wire(self, alpha):
        return self.scalar_field.format(self.scalar_field.coerce(alpha))

    def point_from_wire(self, doc):
        return matrix_from_wire(doc)

    def scalar_from_wire(self, doc):
        return self.scalar_field.parse(doc)

    def class_wire(self):
        return spec_to_wire(self.spec)


def class_of(carrier: Carrier) -> MatrixClassSpec:
    """The matrix class under a carrier, for the checks that need one."""
    if isinstance(carrier, MatrixClassCarrier):
        return carrier.spec
    raise ValueError("this check needs a matrix class, not a custom carrier")


# -- check definitions --------------------------------------------------


class Codec(NamedTuple):
    """How the carrier draws one input of a check, writes it to wire JSON
    and reads it back."""

    sample: Callable  # (carrier, rng) -> value
    to_wire: Callable  # (carrier, value) -> JSON
    from_wire: Callable  # (carrier, JSON) -> value


POINT = Codec(
    lambda cr, rng: cr.sample_point(rng),
    lambda cr, x: cr.point_to_wire(x),
    lambda cr, doc: cr.point_from_wire(doc),
)
SCALAR = Codec(
    lambda cr, rng: cr.sample_scalar(rng),
    lambda cr, alpha: cr.scalar_to_wire(alpha),
    lambda cr, doc: cr.scalar_from_wire(doc),
)


class Context:
    """What a check runs under besides its inputs; this base is the empty
    context.  ``resolve`` gives the value the evaluator gets, checked
    before the first trial; ``label`` its part of the random-stream key;
    ``to_wire`` its keys in a counterexample; ``from_wire`` reads the
    value back from a counterexample through the carrier."""

    def resolve(self, carrier: Carrier, value):
        return value

    def label(self, value) -> tuple:
        return ()

    def to_wire(self, carrier: Carrier, value) -> dict:
        return {}

    def from_wire(self, ce: dict, carrier: Carrier):
        return None


class BracketContext(Context):
    """The bracket kind, recorded under ``bracket``."""

    def label(self, kind):
        return (kind.label(),)

    def to_wire(self, carrier, kind):
        return {"bracket": kind_to_wire(kind, carrier.scalar_to_wire)}

    def from_wire(self, ce, carrier):
        return kind_from_wire(wire_field(ce, "bracket", None, "counterexample"), carrier.scalar_from_wire)


BRACKET = BracketContext()


def expect(*cases, show: Callable = lambda v: v) -> tuple[bool, dict]:
    """Each case is (property, lhs, rhs), or a truth (property, holds) with
    rhs True; the first whose lhs differs from its rhs fails, reporting rhs
    as expected and lhs as actual, written by ``show`` unless it is a truth."""
    for prop, lhs, *rhs in cases:
        rhs, write = (rhs[0], show) if rhs else (True, lambda v: v)
        if lhs != rhs:
            return False, {"property": prop, "expected": write(rhs), "actual": write(lhs)}
    return True, {}


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
