"""Property-check engine for every affine-space, bracket and retract law.

Each catalogue entry evaluates one displayed identity exactly (no
tolerances) on independently sampled tuples, short-circuiting at the
first failure with a replayable counterexample: the full inputs are
serialised, so re-running a failure needs no seed.

Checks run against a ``Carrier``.  The default carrier is a matrix
class, but anything implementing the small protocol below (heap, action,
bracket, sampling, equality through ``==``) can be verified with the
same catalogue.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from . import affine
from .affine import (
    COMMUTATOR,
    AffineCommutator,
    BracketKind,
    Zeta,
    kind_from_wire,
    kind_to_wire,
)
from .classes import (
    MatrixClassSpec,
    contains as class_contains,
    derive_rng,
    draw_element,
    spec_from_wire,
    spec_to_wire,
)
from .errors import MalformedWire, UnknownCheck
from .matrix import Matrix, matrix_from_wire, matrix_to_wire
from .report import CheckReport
from .transforms import (
    block_target,
    evaluate_theorem_case,
    required_via,
    verify_theorem,
)


class Carrier:
    """What a check needs from the space under test."""

    def describe(self) -> str:
        return type(self).__name__

    def sample_point(self, rng: random.Random):
        raise NotImplementedError

    def sample_scalar(self, rng: random.Random):
        raise NotImplementedError

    def heap(self, a, b, c):
        raise NotImplementedError

    def action(self, alpha, base, b):
        raise NotImplementedError

    def bracket(self, kind: BracketKind, a, b):
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError

    def scalar_zero(self):
        raise NotImplementedError

    def scalar_one(self):
        raise NotImplementedError

    # wire helpers; only needed for counterexample serialisation
    def point_to_wire(self, x):
        return repr(x)

    def scalar_to_wire(self, alpha):
        return repr(alpha)

    def class_wire(self) -> dict | None:
        return None


class MatrixClassCarrier(Carrier):
    """The matrix model of one of the normalised affine classes.

    Scalars come from the spec's action field, which is plain Q for the
    antisymmetric / anti-hermitian classes (their defining conditions
    are only real-linear, so complex scalars would break closure)."""

    def __init__(self, spec: MatrixClassSpec):
        self.spec = spec
        self.field = spec.field
        self.scalar_field = spec.scalar_field

    def describe(self) -> str:
        return self.spec.describe()

    def sample_point(self, rng):
        return draw_element(self.spec, rng)

    def sample_scalar(self, rng):
        return self.scalar_field.sample(rng)

    def heap(self, a, b, c):
        return affine.heap(a, b, c)

    def action(self, alpha, base, b):
        return affine.action(alpha, base, b)

    def bracket(self, kind, a, b):
        return affine.bracket(kind, a, b)

    def contains(self, x):
        return class_contains(self.spec, x)

    def scalar_zero(self):
        return self.scalar_field.zero()

    def scalar_one(self):
        return self.scalar_field.one()

    def point_to_wire(self, x):
        return matrix_to_wire(x)

    def scalar_to_wire(self, alpha):
        return self.scalar_field.format(alpha)

    def class_wire(self):
        return spec_to_wire(self.spec)


# -- identity evaluators -------------------------------------------------
# Every evaluator returns (passed, detail); detail names the failed
# sub-property and carries expected/actual in wire-friendly form.


def _fail(cr: Carrier, prop: str, expected, actual) -> tuple[bool, dict]:
    def render(v):
        if isinstance(v, Matrix):
            return matrix_to_wire(v)
        return v

    return False, {"property": prop, "expected": render(expected), "actual": render(actual)}


def _expect(cr, prop, lhs, rhs):
    """lhs must equal rhs; rhs is reported as the expected value."""
    if lhs == rhs:
        return True, {}
    return _fail(cr, prop, rhs, lhs)


def _ev_heap_assoc(cr, kind, v):
    lhs = cr.heap(cr.heap(v["a"], v["b"], v["c"]), v["d"], v["e"])
    rhs = cr.heap(v["a"], v["b"], cr.heap(v["c"], v["d"], v["e"]))
    return _expect(cr, "heap associativity", lhs, rhs)


def _ev_malcev(cr, kind, v):
    ok, detail = _expect(cr, "<a,b,b> = a", cr.heap(v["a"], v["b"], v["b"]), v["a"])
    if not ok:
        return ok, detail
    return _expect(cr, "<b,b,a> = a", cr.heap(v["b"], v["b"], v["a"]), v["a"])


def _ev_heap_comm(cr, kind, v):
    return _expect(
        cr, "<a,b,c> = <c,b,a>",
        cr.heap(v["a"], v["b"], v["c"]),
        cr.heap(v["c"], v["b"], v["a"]),
    )


def _ev_act_add(cr, kind, v):
    a, b = v["a"], v["b"]
    al, be, ga = v["alpha"], v["beta"], v["gamma"]
    lhs = cr.action(al - be + ga, a, b)
    rhs = cr.heap(cr.action(al, a, b), cr.action(be, a, b), cr.action(ga, a, b))
    return _expect(cr, "action is additive in the scalar", lhs, rhs)


def _ev_act_heap(cr, kind, v):
    a, al = v["a"], v["alpha"]
    lhs = cr.action(al, a, cr.heap(v["b"], v["c"], v["d"]))
    rhs = cr.heap(
        cr.action(al, a, v["b"]), cr.action(al, a, v["c"]), cr.action(al, a, v["d"])
    )
    return _expect(cr, "action distributes over the heap", lhs, rhs)


def _ev_act_assoc(cr, kind, v):
    a, b, al, be = v["a"], v["b"], v["alpha"], v["beta"]
    lhs = cr.action(al * be, a, b)
    rhs = cr.action(al, a, cr.action(be, a, b))
    return _expect(cr, "action is multiplicative in the scalar", lhs, rhs)


def _ev_act_unit(cr, kind, v):
    return _expect(cr, "1 acts as identity", cr.action(cr.scalar_one(), v["a"], v["b"]), v["b"])


def _ev_act_zero(cr, kind, v):
    return _expect(cr, "0 acts as the base", cr.action(cr.scalar_zero(), v["a"], v["b"]), v["a"])


def _ev_act_base_change(cr, kind, v):
    a, b, c, al = v["a"], v["b"], v["c"], v["alpha"]
    lhs = cr.action(al, a, b)
    rhs = cr.heap(cr.action(al, c, b), cr.action(al, c, a), a)
    return _expect(cr, "base change", lhs, rhs)


def _ev_bracket_left_affine(cr, kind, v):
    a, b, c, d, al = v["a"], v["b"], v["c"], v["d"], v["alpha"]
    lhs = cr.bracket(kind, a, cr.heap(b, c, d))
    rhs = cr.heap(cr.bracket(kind, a, b), cr.bracket(kind, a, c), cr.bracket(kind, a, d))
    ok, detail = _expect(cr, "[a,-] preserves the heap", lhs, rhs)
    if not ok:
        return ok, detail
    lhs = cr.bracket(kind, a, cr.action(al, b, c))
    rhs = cr.action(al, cr.bracket(kind, a, b), cr.bracket(kind, a, c))
    return _expect(cr, "[a,-] intertwines the action", lhs, rhs)


def _ev_bracket_right_affine(cr, kind, v):
    a, b, c, d, al = v["a"], v["b"], v["c"], v["d"], v["alpha"]
    lhs = cr.bracket(kind, cr.heap(b, c, d), a)
    rhs = cr.heap(cr.bracket(kind, b, a), cr.bracket(kind, c, a), cr.bracket(kind, d, a))
    ok, detail = _expect(cr, "[-,a] preserves the heap", lhs, rhs)
    if not ok:
        return ok, detail
    lhs = cr.bracket(kind, cr.action(al, b, c), a)
    rhs = cr.action(al, cr.bracket(kind, b, a), cr.bracket(kind, c, a))
    return _expect(cr, "[-,a] intertwines the action", lhs, rhs)


def _ev_antisym(cr, kind, v):
    a, b = v["a"], v["b"]
    lhs = cr.heap(cr.bracket(kind, a, b), cr.bracket(kind, a, a), cr.bracket(kind, b, a))
    return _expect(cr, "affine antisymmetry", lhs, cr.bracket(kind, b, b))


def _ev_jacobi(cr, kind, v):
    a, b, c = v["a"], v["b"], v["c"]
    br = lambda x, y: cr.bracket(kind, x, y)
    lhs = cr.heap(
        cr.heap(br(a, br(b, c)), br(a, a), br(b, br(c, a))),
        br(b, b),
        br(c, br(a, b)),
    )
    return _expect(cr, "affine Jacobi identity", lhs, br(c, c))


def _ev_closure(cr, kind, v):
    x, y, z, al = v["x"], v["y"], v["z"], v["alpha"]
    got = {
        "heap": cr.contains(cr.heap(x, y, z)),
        "action": cr.contains(cr.action(al, x, y)),
        "bracket": cr.contains(cr.bracket(kind, x, y)),
    }
    if all(got.values()):
        return True, {}
    return _fail(cr, "closure under heap/action/bracket", {k: True for k in got}, got)


def _ev_idempotent(cr, kind, v):
    a = v["a"]
    return _expect(cr, "[a,a] = a", cr.bracket(kind, a, a), a)


def _retract_lie(cr, kind, o, a, b):
    # <[a,b],[a,o],[o,o],[o,b],o>
    return cr.heap(
        cr.heap(cr.bracket(kind, a, b), cr.bracket(kind, a, o), cr.bracket(kind, o, o)),
        cr.bracket(kind, o, b),
        o,
    )


def _ev_retract_group(cr, kind, v):
    o, a, b, c = v["o"], v["a"], v["b"], v["c"]
    add = lambda x, y: cr.heap(x, o, y)
    neg = lambda x: cr.heap(o, x, o)
    ok, detail = _expect(cr, "retract addition associative", add(add(a, b), c), add(a, add(b, c)))
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "retract addition commutative", add(a, b), add(b, a))
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "o is neutral", add(a, o), a)
    if not ok:
        return ok, detail
    return _expect(cr, "inverses cancel", add(a, neg(a)), o)


def _ev_retract_vector(cr, kind, v):
    o, a, b, al, be = v["o"], v["a"], v["b"], v["alpha"], v["beta"]
    add = lambda x, y: cr.heap(x, o, y)
    scale = lambda s, x: cr.action(s, o, x)
    ok, detail = _expect(
        cr, "scalar distributes over vectors", scale(al, add(a, b)), add(scale(al, a), scale(al, b))
    )
    if not ok:
        return ok, detail
    ok, detail = _expect(
        cr, "vector distributes over scalars", scale(al + be, a), add(scale(al, a), scale(be, a))
    )
    if not ok:
        return ok, detail
    ok, detail = _expect(
        cr, "scaling is multiplicative", scale(al * be, a), scale(al, scale(be, a))
    )
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "1 scales trivially", scale(cr.scalar_one(), a), a)
    if not ok:
        return ok, detail
    return _expect(cr, "0 scales to the origin", scale(cr.scalar_zero(), a), o)


def _ev_retract_lie(cr, kind, v):
    o, a, b, c, al = v["o"], v["a"], v["b"], v["c"], v["alpha"]
    add = lambda x, y: cr.heap(x, o, y)
    scale = lambda s, x: cr.action(s, o, x)
    lb = lambda x, y: _retract_lie(cr, kind, o, x, y)
    ok, detail = _expect(cr, "retract bracket alternating", lb(a, a), o)
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "additive in the left slot", lb(add(a, b), c), add(lb(a, c), lb(b, c)))
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "homogeneous in the left slot", lb(scale(al, a), b), scale(al, lb(a, b)))
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "additive in the right slot", lb(a, add(b, c)), add(lb(a, b), lb(a, c)))
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "homogeneous in the right slot", lb(a, scale(al, b)), scale(al, lb(a, b)))
    if not ok:
        return ok, detail
    lhs = add(lb(a, lb(b, c)), add(lb(b, lb(c, a)), lb(c, lb(a, b))))
    return _expect(cr, "retract Jacobi identity", lhs, o)


def _ev_zeta_retract_trivial(cr, kind, v):
    o, a, b = v["o"], v["a"], v["b"]
    return _expect(cr, "retract of a scalar-action bracket is trivial", _retract_lie(cr, kind, o, a, b), o)


def _ev_bullet_assoc(cr, kind, v):
    o, a, b, c = v["o"], v["a"], v["b"], v["c"]
    p = lambda x, y: affine.assoc_retract_product(o, x, y)
    return _expect(cr, "retract product associative", p(p(a, b), c), p(a, p(b, c)))


def _ev_bullet_commutator(cr, kind, v):
    o, a, b = v["o"], v["a"], v["b"]
    p = lambda x, y: affine.assoc_retract_product(o, x, y)
    lhs = _retract_lie(cr, kind, o, a, b)
    rhs = cr.heap(p(a, b), p(b, a), o)
    return _expect(cr, "retract bracket is the product commutator", lhs, rhs)


def _ev_translate_group_iso(cr, kind, v):
    o, obar, a, b = v["o"], v["obar"], v["a"], v["b"]
    tau = lambda x: cr.heap(x, o, obar)
    tau_inv = lambda x: cr.heap(x, obar, o)
    ok, detail = _expect(
        cr, "translation is additive", tau(cr.heap(a, o, b)), cr.heap(tau(a), obar, tau(b))
    )
    if not ok:
        return ok, detail
    ok, detail = _expect(cr, "translation maps origin to origin", tau(o), obar)
    if not ok:
        return ok, detail
    return _expect(cr, "translation inverts", tau_inv(tau(a)), a)


def _ev_translate_lie_iso(cr, kind, v):
    o, obar, a, b = v["o"], v["obar"], v["a"], v["b"]
    tau = lambda x: cr.heap(x, o, obar)
    lhs = tau(_retract_lie(cr, kind, o, a, b))
    rhs = _retract_lie(cr, kind, obar, tau(a), tau(b))
    return _expect(cr, "translation intertwines retract brackets", lhs, rhs)


def _is_zeta(kind) -> bool:
    return isinstance(kind, Zeta)


def _is_commutator(kind) -> bool:
    return isinstance(kind, AffineCommutator)


@dataclass(frozen=True)
class CheckDef:
    name: str
    points: tuple[str, ...]
    scalars: tuple[str, ...]
    evaluate: Callable
    applies: Callable[[BracketKind], bool] = lambda kind: True
    uses_bracket: bool = True
    advisory: bool = False
    default_trials: int = 100


_always = lambda kind: True

CATALOGUE: dict[str, CheckDef] = {
    c.name: c
    for c in [
        CheckDef("heap-assoc", ("a", "b", "c", "d", "e"), (), _ev_heap_assoc, uses_bracket=False),
        CheckDef("malcev", ("a", "b"), (), _ev_malcev, uses_bracket=False),
        CheckDef("heap-comm", ("a", "b", "c"), (), _ev_heap_comm, uses_bracket=False),
        CheckDef("act-add", ("a", "b"), ("alpha", "beta", "gamma"), _ev_act_add, uses_bracket=False),
        CheckDef("act-heap", ("a", "b", "c", "d"), ("alpha",), _ev_act_heap, uses_bracket=False),
        CheckDef("act-assoc", ("a", "b"), ("alpha", "beta"), _ev_act_assoc, uses_bracket=False),
        CheckDef("act-unit", ("a", "b"), (), _ev_act_unit, uses_bracket=False),
        CheckDef("act-zero", ("a", "b"), (), _ev_act_zero, uses_bracket=False),
        CheckDef("act-base-change", ("a", "b", "c"), ("alpha",), _ev_act_base_change, uses_bracket=False),
        CheckDef("bracket-left-affine", ("a", "b", "c", "d"), ("alpha",), _ev_bracket_left_affine),
        CheckDef("bracket-right-affine", ("a", "b", "c", "d"), ("alpha",), _ev_bracket_right_affine),
        CheckDef("antisym", ("a", "b"), (), _ev_antisym),
        CheckDef("jacobi", ("a", "b", "c"), (), _ev_jacobi, default_trials=50),
        CheckDef("closure", ("x", "y", "z"), ("alpha",), _ev_closure),
        CheckDef("idempotent", ("a",), (), _ev_idempotent),
        CheckDef("retract-group", ("o", "a", "b", "c"), (), _ev_retract_group, uses_bracket=False),
        CheckDef("retract-vector", ("o", "a", "b"), ("alpha", "beta"), _ev_retract_vector, uses_bracket=False),
        CheckDef("retract-lie", ("o", "a", "b", "c"), ("alpha",), _ev_retract_lie),
        CheckDef("zeta-retract-trivial", ("o", "a", "b"), (), _ev_zeta_retract_trivial, applies=_is_zeta),
        CheckDef("bullet-assoc", ("o", "a", "b", "c"), (), _ev_bullet_assoc, applies=_is_commutator),
        CheckDef("bullet-commutator", ("o", "a", "b"), (), _ev_bullet_commutator, applies=_is_commutator),
        CheckDef("translate-group-iso", ("o", "obar", "a", "b"), (), _ev_translate_group_iso, uses_bracket=False),
        CheckDef("translate-lie-iso", ("o", "obar", "a", "b"), (), _ev_translate_lie_iso, advisory=True),
        CheckDef("theorem-iso", (), (), None, applies=_is_commutator, default_trials=50),
        CheckDef("corollary-retract", (), (), None, applies=_is_commutator),
    ]
}


def _carrier_for(spec_or_carrier) -> Carrier:
    if isinstance(spec_or_carrier, Carrier):
        return spec_or_carrier
    return MatrixClassCarrier(spec_or_carrier)


def run_check(
    check: str,
    spec_or_carrier,
    kind: BracketKind,
    seed: int,
    trials: int | None = None,
    mutate: Callable[[int, dict], dict] | None = None,
) -> CheckReport:
    """Evaluate one catalogue identity on `trials` sampled tuples.

    ``mutate`` is a fault-injection hook applied to the sampled inputs
    of each trial (used to prove the engine catches violations).
    """
    if check not in CATALOGUE:
        raise UnknownCheck(check)
    cdef = CATALOGUE[check]
    if trials is None:
        trials = cdef.default_trials

    if check == "theorem-iso":
        spec = _spec_of(spec_or_carrier)
        return verify_theorem(spec, seed, trials)
    if check == "corollary-retract":
        spec = _spec_of(spec_or_carrier)
        return run_corollary(spec, seed, trials)

    carrier = _carrier_for(spec_or_carrier)
    start = time.perf_counter()
    rng = derive_rng("check", check, carrier.describe(), _kind_key(kind), seed)
    for i in range(trials):
        inputs = {name: carrier.sample_point(rng) for name in cdef.points}
        inputs.update({name: carrier.sample_scalar(rng) for name in cdef.scalars})
        if mutate is not None:
            inputs = mutate(i, inputs)
        passed, detail = cdef.evaluate(carrier, kind, inputs)
        if not passed:
            counterexample = {
                "class": carrier.class_wire(),
                "bracket": _kind_wire(carrier, kind),
                "inputs": _inputs_to_wire(carrier, cdef, inputs),
                **detail,
            }
            elapsed = (time.perf_counter() - start) * 1000
            return CheckReport(check, False, i + 1, counterexample, elapsed)
    elapsed = (time.perf_counter() - start) * 1000
    return CheckReport(check, True, trials, None, elapsed)


def _spec_of(spec_or_carrier) -> MatrixClassSpec:
    if isinstance(spec_or_carrier, MatrixClassCarrier):
        return spec_or_carrier.spec
    if isinstance(spec_or_carrier, MatrixClassSpec):
        return spec_or_carrier
    raise ValueError("this check needs a matrix class, not a custom carrier")


def _kind_key(kind: BracketKind) -> str:
    return kind.label()


def _kind_wire(carrier: Carrier, kind: BracketKind) -> dict:
    if isinstance(carrier, MatrixClassCarrier):
        return kind_to_wire(kind, carrier.scalar_field)
    if isinstance(kind, Zeta):
        return {"kind": "zeta", "zeta": str(kind.zeta)}
    return {"kind": "commutator"}


def _inputs_to_wire(carrier: Carrier, cdef: CheckDef, inputs: dict) -> dict:
    doc = {}
    for name in cdef.points:
        doc[name] = carrier.point_to_wire(inputs[name])
    for name in cdef.scalars:
        doc[name] = carrier.scalar_to_wire(inputs[name])
    return doc


def _evaluate_corollary_case(spec: MatrixClassSpec, inputs: dict) -> tuple[bool, dict]:
    """In the block picture the retract bracket at the base point must be
    the plain matrix commutator of the block parts (shifted by the base)."""
    target = block_target(spec)
    o = target.base_block
    a, b = inputs["a"], inputs["b"]
    x = a - o
    y = b - o
    lhs = affine.lie_retract_bracket(COMMUTATOR, o, a, b)
    rhs = o + (x @ y - y @ x)
    if lhs != rhs:
        return False, {
            "property": "retract bracket equals block commutator",
            "expected": matrix_to_wire(rhs),
            "actual": matrix_to_wire(lhs),
        }
    if not target.contains(lhs):
        return False, {
            "property": "retract bracket stays in the block target",
            "expected": True,
            "actual": False,
        }
    return True, {}


def run_corollary(spec: MatrixClassSpec, seed: int, trials: int) -> CheckReport:
    """Sampled verification of the retract table: at the block base
    point, the class retracts onto its classical matrix algebra."""
    target = block_target(spec)
    start = time.perf_counter()
    for i in range(trials):
        rng = derive_rng("corollary", spec.describe(), seed, i)
        inputs = {"a": target.sample(rng), "b": target.sample(rng)}
        passed, detail = _evaluate_corollary_case(spec, inputs)
        if not passed:
            counterexample = {
                "class": spec_to_wire(spec),
                "inputs": {k: matrix_to_wire(v) for k, v in inputs.items()},
                **detail,
            }
            elapsed = (time.perf_counter() - start) * 1000
            return CheckReport("corollary-retract", False, i + 1, counterexample, elapsed)
    elapsed = (time.perf_counter() - start) * 1000
    return CheckReport("corollary-retract", True, trials, None, elapsed)


def applicable_checks(kind: BracketKind, names: list[str] | None = None) -> list[str]:
    pool = names if names is not None else list(CATALOGUE)
    out = []
    for name in pool:
        if name not in CATALOGUE:
            raise UnknownCheck(name)
        if CATALOGUE[name].applies(kind):
            out.append(name)
    return out


def run_all(
    specs,
    kinds,
    seed: int,
    trials: int | None = None,
    checks: list[str] | None = None,
) -> list[CheckReport]:
    """Cartesian run over catalogue x specs x kinds, catalogue order
    first; deterministic for a fixed seed."""
    reports = []
    pool = checks if checks is not None else list(CATALOGUE)
    for name in pool:
        if name not in CATALOGUE:
            raise UnknownCheck(name)
        cdef = CATALOGUE[name]
        for spec in specs:
            for kind in kinds:
                if not cdef.applies(kind):
                    continue
                if not cdef.uses_bracket and kind is not kinds[0]:
                    # bracket-independent identities run once per spec
                    continue
                reports.append(run_check(name, spec, kind, seed, trials))
    return reports


def all_passed(reports, include_advisory: bool = False) -> bool:
    for r in reports:
        if not include_advisory and CATALOGUE.get(r.check) and CATALOGUE[r.check].advisory:
            continue
        if not r.passed:
            return False
    return True


def replay(report_doc: dict) -> CheckReport:
    """Re-evaluate a serialised counterexample from its own inputs; no
    seed involved.  Returns a fresh single-trial report."""
    check = report_doc["check"]
    if check not in CATALOGUE:
        raise UnknownCheck(check)
    ce = report_doc.get("counterexample")
    if not ce:
        raise ValueError("report has no counterexample to replay")
    if not isinstance(ce, dict):
        raise MalformedWire(f"{check} counterexample must be a JSON object")
    if ce.get("class") is None:
        raise ValueError("counterexample from a custom carrier cannot be replayed")
    if not isinstance(ce["class"], dict):
        raise MalformedWire(f"{check} counterexample: class must be a JSON object")
    spec = spec_from_wire(ce["class"])
    inputs_doc = ce.get("inputs")
    if check == "theorem-iso":
        needed = ("a", "b", "c", "alpha", "z")
    elif check == "corollary-retract":
        needed = ("a", "b")
    else:
        needed = CATALOGUE[check].points + CATALOGUE[check].scalars
    if not isinstance(inputs_doc, dict):
        raise MalformedWire(f"{check} counterexample: inputs must be a JSON object")
    missing = [name for name in needed if name not in inputs_doc]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise MalformedWire(f"{check} counterexample lacks input{plural} {', '.join(map(repr, missing))}")
    start = time.perf_counter()

    if check == "theorem-iso":
        inputs = {
            "a": matrix_from_wire(inputs_doc["a"]),
            "b": matrix_from_wire(inputs_doc["b"]),
            "c": matrix_from_wire(inputs_doc["c"]),
            "alpha": spec.scalar_field.parse(inputs_doc["alpha"]),
            "z": matrix_from_wire(inputs_doc["z"]),
        }
        passed, detail = evaluate_theorem_case(spec, ce.get("via") or required_via(spec), inputs)
        kind_doc = {"kind": "commutator"}
    elif check == "corollary-retract":
        inputs = {k: matrix_from_wire(v) for k, v in inputs_doc.items()}
        passed, detail = _evaluate_corollary_case(spec, inputs)
        kind_doc = {"kind": "commutator"}
    else:
        cdef = CATALOGUE[check]
        kind_doc = ce["bracket"]
        kind = kind_from_wire(kind_doc, spec.scalar_field)
        carrier = MatrixClassCarrier(spec)
        inputs = {name: matrix_from_wire(inputs_doc[name]) for name in cdef.points}
        inputs.update({name: spec.scalar_field.parse(inputs_doc[name]) for name in cdef.scalars})
        passed, detail = cdef.evaluate(carrier, kind, inputs)

    elapsed = (time.perf_counter() - start) * 1000
    counterexample = None
    if not passed:
        counterexample = {"class": ce["class"], "bracket": kind_doc, "inputs": inputs_doc, **detail}
    return CheckReport(check, passed, 1, counterexample, elapsed)
