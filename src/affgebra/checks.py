"""The check catalogue and the replay of its counterexamples.

Each catalogue entry evaluates one displayed identity exactly (no
tolerances) on independently sampled tuples, short-circuiting at the
first failure with a replayable counterexample: the full inputs are
serialised, so re-running a failure needs no seed.  Every entry, the
conjugation theorem and the retract corollary included, is a
``report.CheckDef`` run by the one trial engine ``report.run_trials``.

Checks run against a ``Carrier``.  The default carrier is a matrix
class, but anything implementing the small protocol of ``affine.Carrier``
(heap, action, bracket, sampling, equality through ``==``) can be verified
with the catalogue identities; the retract operations come with it, and
the retract product with a ``product``.
"""
from __future__ import annotations

import inspect
import time
from typing import Callable

from . import affine
from .affine import COMMUTATOR, BracketKind, is_commutator, is_zeta
from .classes import MatrixClassSpec, contains as class_contains, spec_from_wire  # noqa: F401  (public alias)
from .errors import MalformedWire, UnknownCheck, wire_field
from .report import (
    BRACKET,
    POINT,
    SCALAR,
    Carrier,
    CheckDef,
    CheckReport,
    Context,
    MatrixClassCarrier,
    failure,
    run_trials,
)
from .transforms import BLOCK, THEOREM, block_target


# -- identity evaluators -------------------------------------------------
# Every evaluator returns (passed, detail); detail names the failed
# sub-property and carries expected/actual in wire-friendly form.  It
# takes the carrier and the bracket kind, then its inputs under the
# names its counterexample gives them, in counterexample order: points
# positional, scalars keyword-only.  ``_identity`` reads the input list
# from that signature.


def _expect(*cases):
    """Each case is (property, lhs, rhs); the first whose lhs differs from
    its rhs fails, with rhs reported as the expected value."""
    for prop, lhs, rhs in cases:
        if lhs != rhs:
            return failure(prop, rhs, lhs)
    return True, {}


def _ev_heap_assoc(cr, kind, a, b, c, d, e):
    lhs = cr.heap(cr.heap(a, b, c), d, e)
    rhs = cr.heap(a, b, cr.heap(c, d, e))
    return _expect(("heap associativity", lhs, rhs))


def _ev_malcev(cr, kind, a, b):
    return _expect(("<a,b,b> = a", cr.heap(a, b, b), a), ("<b,b,a> = a", cr.heap(b, b, a), a))


def _ev_heap_comm(cr, kind, a, b, c):
    return _expect(("<a,b,c> = <c,b,a>", cr.heap(a, b, c), cr.heap(c, b, a)))


def _ev_act_add(cr, kind, a, b, *, alpha, beta, gamma):
    lhs = cr.action(alpha - beta + gamma, a, b)
    rhs = cr.heap(cr.action(alpha, a, b), cr.action(beta, a, b), cr.action(gamma, a, b))
    return _expect(("action is additive in the scalar", lhs, rhs))


def _ev_act_heap(cr, kind, a, b, c, d, *, alpha):
    lhs = cr.action(alpha, a, cr.heap(b, c, d))
    rhs = cr.heap(cr.action(alpha, a, b), cr.action(alpha, a, c), cr.action(alpha, a, d))
    return _expect(("action distributes over the heap", lhs, rhs))


def _ev_act_assoc(cr, kind, a, b, *, alpha, beta):
    lhs = cr.action(alpha * beta, a, b)
    rhs = cr.action(alpha, a, cr.action(beta, a, b))
    return _expect(("action is multiplicative in the scalar", lhs, rhs))


def _ev_act_unit(cr, kind, a, b):
    return _expect(("1 acts as identity", cr.action(cr.scalar_one(), a, b), b))


def _ev_act_zero(cr, kind, a, b):
    return _expect(("0 acts as the base", cr.action(cr.scalar_zero(), a, b), a))


def _ev_act_base_change(cr, kind, a, b, c, *, alpha):
    lhs = cr.action(alpha, a, b)
    rhs = cr.heap(cr.action(alpha, c, b), cr.action(alpha, c, a), a)
    return _expect(("base change", lhs, rhs))


def _ev_bracket_left_affine(cr, kind, a, b, c, d, *, alpha):
    br = lambda x, y: cr.bracket(kind, x, y)
    return _expect(
        ("[a,-] preserves the heap", br(a, cr.heap(b, c, d)), cr.heap(br(a, b), br(a, c), br(a, d))),
        ("[a,-] intertwines the action", br(a, cr.action(alpha, b, c)), cr.action(alpha, br(a, b), br(a, c))),
    )


def _ev_bracket_right_affine(cr, kind, a, b, c, d, *, alpha):
    br = lambda x, y: cr.bracket(kind, x, y)
    return _expect(
        ("[-,a] preserves the heap", br(cr.heap(b, c, d), a), cr.heap(br(b, a), br(c, a), br(d, a))),
        ("[-,a] intertwines the action", br(cr.action(alpha, b, c), a), cr.action(alpha, br(b, a), br(c, a))),
    )


def _ev_antisym(cr, kind, a, b):
    lhs = cr.heap(cr.bracket(kind, a, b), cr.bracket(kind, a, a), cr.bracket(kind, b, a))
    return _expect(("affine antisymmetry", lhs, cr.bracket(kind, b, b)))


def _ev_jacobi(cr, kind, a, b, c):
    br = lambda x, y: cr.bracket(kind, x, y)
    lhs = cr.heap(cr.heap(br(a, br(b, c)), br(a, a), br(b, br(c, a))), br(b, b), br(c, br(a, b)))
    return _expect(("affine Jacobi identity", lhs, br(c, c)))


def _ev_closure(cr, kind, x, y, z, *, alpha):
    got = {
        "heap": cr.contains(cr.heap(x, y, z)),
        "action": cr.contains(cr.action(alpha, x, y)),
        "bracket": cr.contains(cr.bracket(kind, x, y)),
    }
    if all(got.values()):
        return True, {}
    return failure("closure under heap/action/bracket", {k: True for k in got}, got)


def _ev_idempotent(cr, kind, a):
    return _expect(("[a,a] = a", cr.bracket(kind, a, a), a))


def _ev_retract_group(cr, kind, o, a, b, c):
    add = cr.retract_add
    return _expect(
        ("retract addition associative", add(o, add(o, a, b), c), add(o, a, add(o, b, c))),
        ("retract addition commutative", add(o, a, b), add(o, b, a)),
        ("o is neutral", add(o, a, o), a),
        ("inverses cancel", add(o, a, cr.retract_neg(o, a)), o),
    )


def _ev_retract_vector(cr, kind, o, a, b, *, alpha, beta):
    add, scale = cr.retract_add, cr.retract_scale
    return _expect(
        ("scalar distributes over vectors",
         scale(o, alpha, add(o, a, b)), add(o, scale(o, alpha, a), scale(o, alpha, b))),
        ("vector distributes over scalars", scale(o, alpha + beta, a), add(o, scale(o, alpha, a), scale(o, beta, a))),
        ("scaling is multiplicative", scale(o, alpha * beta, a), scale(o, alpha, scale(o, beta, a))),
        ("1 scales trivially", scale(o, cr.scalar_one(), a), a),
        ("0 scales to the origin", scale(o, cr.scalar_zero(), a), o),
    )


def _ev_retract_lie(cr, kind, o, a, b, c, *, alpha):
    add, scale = cr.retract_add, cr.retract_scale
    lb = lambda x, y: cr.lie_retract_bracket(kind, o, x, y)
    return _expect(
        ("retract bracket alternating", lb(a, a), o),
        ("additive in the left slot", lb(add(o, a, b), c), add(o, lb(a, c), lb(b, c))),
        ("homogeneous in the left slot", lb(scale(o, alpha, a), b), scale(o, alpha, lb(a, b))),
        ("additive in the right slot", lb(a, add(o, b, c)), add(o, lb(a, b), lb(a, c))),
        ("homogeneous in the right slot", lb(a, scale(o, alpha, b)), scale(o, alpha, lb(a, b))),
        ("retract Jacobi identity", add(o, lb(a, lb(b, c)), add(o, lb(b, lb(c, a)), lb(c, lb(a, b)))), o),
    )


def _ev_zeta_retract_trivial(cr, kind, o, a, b):
    return _expect(("retract of a scalar-action bracket is trivial", cr.lie_retract_bracket(kind, o, a, b), o))


def _ev_bullet_assoc(cr, kind, o, a, b, c):
    p = lambda x, y: cr.retract_product(o, x, y)
    return _expect(("retract product associative", p(p(a, b), c), p(a, p(b, c))))


def _ev_bullet_commutator(cr, kind, o, a, b):
    p = lambda x, y: cr.retract_product(o, x, y)
    lhs = cr.lie_retract_bracket(kind, o, a, b)
    rhs = cr.retract_sub(o, p(a, b), p(b, a))
    return _expect(("retract bracket is the product commutator", lhs, rhs))


def _ev_translate_group_iso(cr, kind, o, obar, a, b):
    tau, add = cr.translate, cr.retract_add
    return _expect(
        ("translation is additive", tau(o, obar, add(o, a, b)), add(obar, tau(o, obar, a), tau(o, obar, b))),
        ("translation maps origin to origin", tau(o, obar, o), obar),
        ("translation inverts", tau(obar, o, tau(o, obar, a)), a),
    )


def _ev_translate_lie_iso(cr, kind, o, obar, a, b):
    tau, lb = cr.translate, cr.lie_retract_bracket
    lhs = tau(o, obar, lb(kind, o, a, b))
    rhs = lb(kind, obar, tau(o, obar, a), tau(o, obar, b))
    return _expect(("translation intertwines retract brackets", lhs, rhs))


def _ev_corollary(cr, context, a, b):
    """In the block picture the retract bracket at the base point must be
    the plain matrix commutator of the block parts (shifted by the base)."""
    target = block_target(cr.spec)
    o = target.base_block
    x, y = a - o, b - o
    lhs = affine.lie_retract_bracket(COMMUTATOR, o, a, b)
    rhs = o + (x @ y - y @ x)
    if lhs != rhs:
        return failure("retract bracket equals block commutator", rhs, lhs)
    if not target.contains(lhs):
        return failure("retract bracket stays in the block target", True, False)
    return True, {}


def _identity(name, evaluate, **options) -> CheckDef:
    """A catalogue identity whose inputs are the parameters of
    ``evaluate`` after (carrier, kind): a positional one is a point drawn
    from the carrier, a keyword-only one a scalar."""
    params = list(inspect.signature(evaluate).parameters.values())[2:]
    inputs = tuple((p.name, SCALAR if p.kind is p.KEYWORD_ONLY else POINT) for p in params)
    return CheckDef(name, inputs, evaluate, **options)


COROLLARY = CheckDef(
    "corollary-retract",
    (("a", BLOCK), ("b", BLOCK)),
    _ev_corollary,
    context=Context(),
    trial_stream="corollary",
    applies=is_commutator,
)

CATALOGUE: dict[str, CheckDef] = {
    c.name: c
    for c in [
        _identity("heap-assoc", _ev_heap_assoc),
        _identity("malcev", _ev_malcev),
        _identity("heap-comm", _ev_heap_comm),
        _identity("act-add", _ev_act_add),
        _identity("act-heap", _ev_act_heap),
        _identity("act-assoc", _ev_act_assoc),
        _identity("act-unit", _ev_act_unit),
        _identity("act-zero", _ev_act_zero),
        _identity("act-base-change", _ev_act_base_change),
        _identity("bracket-left-affine", _ev_bracket_left_affine),
        _identity("bracket-right-affine", _ev_bracket_right_affine),
        _identity("antisym", _ev_antisym),
        _identity("jacobi", _ev_jacobi, default_trials=50),
        _identity("closure", _ev_closure),
        _identity("idempotent", _ev_idempotent),
        _identity("retract-group", _ev_retract_group),
        _identity("retract-vector", _ev_retract_vector),
        _identity("retract-lie", _ev_retract_lie),
        _identity("zeta-retract-trivial", _ev_zeta_retract_trivial, applies=is_zeta),
        _identity("bullet-assoc", _ev_bullet_assoc, applies=is_commutator),
        _identity("bullet-commutator", _ev_bullet_commutator, applies=is_commutator),
        _identity("translate-group-iso", _ev_translate_group_iso),
        _identity("translate-lie-iso", _ev_translate_lie_iso),
        THEOREM,
        COROLLARY,
    ]
}


def run_check(
    check: str,
    spec_or_carrier,
    kind: BracketKind,
    seed: int,
    trials: int | None = None,
    mutate: Callable[[int, dict], dict] | None = None,
) -> CheckReport:
    """Evaluate one catalogue check on `trials` sampled tuples (its
    default when None); only the checks with a bracket context use ``kind``.

    ``mutate`` is a fault-injection hook applied to the sampled inputs
    of each trial (used to prove the engine catches violations).
    """
    if check not in CATALOGUE:
        raise UnknownCheck(check)
    cdef = CATALOGUE[check]
    carrier = spec_or_carrier if isinstance(spec_or_carrier, Carrier) else MatrixClassCarrier(spec_or_carrier)
    context = kind if cdef.context is BRACKET else None
    _require_applicable(cdef, context)
    return run_trials(cdef, carrier, seed, trials, context, mutate)


def _require_applicable(cdef: CheckDef, context) -> None:
    """Refuse a bracket check under a bracket it does not apply to."""
    if cdef.context is BRACKET and not cdef.applies(context):
        raise ValueError(f"{cdef.name} does not apply to the bracket {context.label()}")


def run_corollary(spec: MatrixClassSpec, seed: int, trials: int | None = None) -> CheckReport:
    """Sampled verification of the retract table: at the block base
    point, the class retracts onto its classical matrix algebra."""
    return run_trials(COROLLARY, MatrixClassCarrier(spec), seed, trials)


def applicable_checks(kind: BracketKind, names: list[str] | None = None) -> list[str]:
    pool = names if names is not None else list(CATALOGUE)
    out = []
    for name in pool:
        if name not in CATALOGUE:
            raise UnknownCheck(name)
        if CATALOGUE[name].applies(kind):
            out.append(name)
    return out


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)


def replay(report_doc: dict) -> CheckReport:
    """Re-evaluate a serialised counterexample from its own inputs; no
    seed involved.  Returns a fresh single-trial report."""
    check = wire_field(report_doc, "check", str, "report")
    if check not in CATALOGUE:
        raise UnknownCheck(check)
    cdef = CATALOGUE[check]
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
    if not isinstance(inputs_doc, dict):
        raise MalformedWire(f"{check} counterexample: inputs must be a JSON object")
    missing = [name for name, _ in cdef.inputs if name not in inputs_doc]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise MalformedWire(f"{check} counterexample lacks input{plural} {', '.join(map(repr, missing))}")
    start = time.perf_counter()
    context = cdef.context.from_wire(ce, spec)
    _require_applicable(cdef, context)
    inputs = {name: codec.from_wire(spec, inputs_doc[name]) for name, codec in cdef.inputs}
    carrier = MatrixClassCarrier(spec)
    context = cdef.context.resolve(carrier, context)
    passed, detail = cdef.evaluate(carrier, context, **inputs)
    elapsed = (time.perf_counter() - start) * 1000
    counterexample = None if passed else {
        "class": ce["class"], **cdef.context.to_wire(carrier, context), "inputs": inputs_doc, **detail
    }
    return CheckReport(check, passed, 1, counterexample, elapsed)
