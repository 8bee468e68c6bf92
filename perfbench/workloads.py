"""The three workloads: seeded case generation and the call behind each case.

Generation is plain data made from the workload seed with ``random``;
nothing here imports ``affgebra`` at module level, so the set-up probe
can time ``import affgebra`` itself.  Every round of a workload holds the
same fixed mix of specs and request types, shuffled; the seed only
changes the sampled values.  Runs therefore measure whole rounds, and
two runs on different seeds see the same mix.

A case carries its expected outcome, decided here from the documented
behaviour (a catalogue identity passes, a fault-injected check fails and
its replay reproduces the failure, a CLI request exits with its
documented code).  A case may also name a known defect: a documented
outcome that the program does not meet at present.  Those cases still
count as failed, and stay out of the output digest so that fixing the
defect does not change it.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction

DEFAULT_SEED = 1
MIN_CASES = 200

# -- the workload mixes ---------------------------------------------------

CLASS_FIELDS = {"gna": "Q", "sna": "Q", "ona": "Q", "una": "Qi", "suna": "Qi"}
HEAP_ACTION_CHECKS = (
    "heap-assoc", "malcev", "heap-comm",
    "act-add", "act-heap", "act-assoc", "act-unit", "act-zero", "act-base-change",
)
BRACKET_CHECKS = ("bracket-left-affine", "bracket-right-affine", "antisym", "jacobi", "closure")
ZETAS = (0, 1, 2, -1)
AXIOM_TRIALS = 4
THEOREM_SAMPLES = 2

AXIOM_SPECS = tuple((k, n, f, None) for k, f in CLASS_FIELDS.items() for n in (2, 3, 4))
THEOREM_SPECS = tuple((k, n, f, None) for k, f in CLASS_FIELDS.items() for n in (1, 2, 3, 4)) + tuple(
    (k, n, "GF", 7) for k in ("gna", "sna") for n in (1, 2, 3, 4)
)
COROLLARY_SPECS = tuple((k, n, f, None) for k, f in CLASS_FIELDS.items() for n in (1, 2, 3, 4))

# wire: (class, n, field, p) for sample and dims requests
WIRE_CLASS_SPECS = (
    ("gna", 8, "Q", None), ("sna", 3, "Q", None), ("ona", 8, "Q", None),
    ("una", 8, "Qi", None), ("suna", 8, "Qi", None),
    ("gna", 4, "GF", 7), ("sna", 8, "GF", 101),
)
# (which, n, field, p) for emit-matrix; GF(7) n=6 is the documented obstruction
WIRE_EMITS = (
    ("P", 8, "Q", None), ("Pinv", 5, "Qi", None), ("P", 7, "GF", 101),
    ("Pinv", 8, "GF", 7), ("U", 8, None, None), ("U", 3, None, None),
)
EMIT_FIELDS = (("Q", None), ("Qi", None), ("GF", 7), ("GF", 101))
# (field, p, n, bracket) for bracket requests, (field, p, n) for retract
WIRE_BRACKETS = (
    ("Q", None, 2, "commutator"), ("Q", None, 8, "zeta"),
    ("Qi", None, 4, "commutator"), ("Qi", None, 8, "zeta"),
    ("GF", 7, 8, "commutator"), ("GF", 7, 3, "zeta"),
    ("GF", 101, 4, "commutator"), ("GF", 101, 8, "zeta"),
    ("surd", None, 3, "commutator"), ("surd", None, 4, "zeta"),
)
WIRE_RETRACTS = (("Q", None, 4), ("Qi", None, 3), ("GF", 7, 4), ("GF", 101, 8), ("surd", None, 2))
# (class, n, field, p, check): closure counterexamples reproduce (exit 0),
# a heap-comm "counterexample" cannot (exit 1)
WIRE_REPLAYS = (
    ("gna", 2, "Q", None, "closure"), ("sna", 3, "GF", 7, "closure"),
    ("una", 2, "Qi", None, "closure"), ("gna", 4, "Q", None, "heap-comm"),
)
KNOWN_DEFECT = "ROADMAP item 5: malformed entry escapes cli.main instead of exiting 2"


@dataclass(frozen=True)
class Case:
    id: str
    op: str  # run_check | verify_theorem | run_corollary | cli
    args: dict
    # run_check, verify_theorem, run_corollary: True when the report must
    # pass, False when it must fail and its replay reproduce the failure;
    # cli: the exit code
    expect: object
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # unit of work counted by items_per_s
    prefix_rounds: int  # rounds covered by the digest and the traced pass
    build_round: object  # (rng) -> list[Case], the fixed mix with sampled values
    warm: object  # (api) -> generator that fills the program's caches, one step per yield


def round_cases(workload: Workload, seed: int, index: int) -> list[Case]:
    """Round ``index`` of the case stream for ``seed``: the fixed mix,
    with sampled values, in a shuffled order."""
    rng = random.Random(f"perfbench|{workload.name}|{seed}|{index}")
    cases = workload.build_round(rng)
    rng.shuffle(cases)
    return [replace(c, id=f"{workload.name}:{index}:{pos}") for pos, c in enumerate(cases)]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# -- axioms -----------------------------------------------------------------


def _axiom_round(rng):
    cases = []
    for spec in AXIOM_SPECS:
        for check in HEAP_ACTION_CHECKS:
            cases.append(Case("", "run_check", {"check": check, "spec": spec, "kind": "commutator",
                                                "seed": _seed(rng), "trials": AXIOM_TRIALS}, True))
        for kind in ("commutator", *ZETAS):
            for check in BRACKET_CHECKS:
                cases.append(Case("", "run_check", {"check": check, "spec": spec, "kind": kind,
                                                    "seed": _seed(rng), "trials": AXIOM_TRIALS}, True))
    for klass, fld in CLASS_FIELDS.items():
        cases.append(Case("", "run_check", {"check": "closure", "spec": (klass, 2, fld, None),
                                            "kind": "commutator", "seed": _seed(rng),
                                            "trials": AXIOM_TRIALS, "fault": True}, False))
    return cases


# -- conjugation ------------------------------------------------------------


def _conjugation_round(rng):
    cases = [Case("", "verify_theorem", {"spec": s, "seed": _seed(rng), "samples": THEOREM_SAMPLES}, True)
             for s in THEOREM_SPECS]
    cases += [Case("", "run_corollary", {"spec": s, "seed": _seed(rng), "trials": THEOREM_SAMPLES}, True)
              for s in COROLLARY_SPECS]
    return cases


# -- wire -------------------------------------------------------------------


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _signed_join(terms: list[str]) -> str:
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def _entry(rng, fld: str, p: int | None) -> str:
    if fld == "Q":
        return str(_rational(rng))
    if fld == "Qi":
        re_part, im_part = _rational(rng), _rational(rng)
        if not im_part:
            return str(re_part)
        return _signed_join([str(re_part), f"{im_part}i"])
    if fld == "GF":
        return str(rng.randrange(p))
    # surd: a rational plus one radical term
    q, r = _rational(rng), _rational(rng)
    if not r:
        return str(q)
    return _signed_join([str(q), f"{r}*sqrt({rng.choice((2, 3, 5))})"])


def _matrix_doc(rng, fld: str, p: int | None, n: int) -> dict:
    doc = {"field": fld}
    if p is not None:
        doc["p"] = p
    doc["n"] = n
    doc["entries"] = [[_entry(rng, fld, p) for _ in range(n)] for _ in range(n)]
    return doc


def _class_flags(klass: str, n: int, fld: str, p: int | None) -> list[str]:
    flags = ["--class", klass, "--n", str(n), "--field", fld]
    return flags + (["--p", str(p)] if p is not None else [])


def _scalar(rng, fld: str, p: int | None) -> str:
    return str(rng.randrange(1, p)) if fld == "GF" else str(_rational(rng))


def _bracket_flag(rng, kind: str, fld: str, p: int | None) -> str:
    return "commutator" if kind == "commutator" else "zeta:" + _scalar(rng, fld, p)


def _replay_doc(rng, klass, n, fld, p, check) -> dict:
    size = n + 1
    x, z = _matrix_doc(rng, fld, p, size), _matrix_doc(rng, fld, p, size)
    cls_doc = {"kind": klass, "n": n, "field": fld}
    if p is not None:
        cls_doc["p"] = p
    if check == "closure":
        # <x, x, z> = z, whose first row sums to 0, never to the class's 1 or i
        z["entries"][0] = ["0"] * size
        inputs = {"x": x, "y": x, "z": z, "alpha": _scalar(rng, fld, p)}
        prop = "closure under heap/action/bracket"
    else:
        inputs = {"a": x, "b": _matrix_doc(rng, fld, p, size), "c": z}
        prop = "<a,b,c> = <c,b,a>"
    ce = {"class": cls_doc, "bracket": {"kind": "commutator"}, "inputs": inputs,
          "property": prop, "expected": None, "actual": None}
    return {"check": check, "passed": False, "trials": 1, "counterexample": ce, "elapsed_ms": 0.0}


def _cli(argv, expect_exit, known_defect=None) -> Case:
    return Case("", "cli", {"argv": argv}, expect_exit, known_defect)


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _wire_round(rng):
    cases = []
    for klass, n, fld, p in WIRE_CLASS_SPECS:
        cases.append(_cli(["sample", *_class_flags(klass, n, fld, p), "--seed", str(_seed(rng)), "--count", "2"], 0))
        cases.append(_cli(["dims", *_class_flags(klass, n, fld, p)], 0))
    for which, n, fld, p in WIRE_EMITS:
        argv = ["emit-matrix", "--which", which, "--n", str(n)]
        if fld is not None:
            argv += ["--field", fld] + (["--p", str(p)] if p is not None else [])
        cases.append(_cli(argv, 0))
    for fld, p, n, kind in WIRE_BRACKETS:
        a, b = _matrix_doc(rng, fld, p, n), _matrix_doc(rng, fld, p, n)
        cases.append(_cli(["bracket", "--bracket", _bracket_flag(rng, kind, fld, p), _dumps(a), _dumps(b)], 0))
    for fld, p, n in WIRE_RETRACTS:
        o, a, b = (_matrix_doc(rng, fld, p, n) for _ in range(3))
        kind = rng.choice(("commutator", "zeta"))
        cases.append(_cli(["retract", "--bracket", _bracket_flag(rng, kind, fld, p), "-o", _dumps(o),
                           _dumps(a), _dumps(b)], 0))
    for klass, n, fld, p, check in WIRE_REPLAYS:
        doc = _replay_doc(rng, klass, n, fld, p, check)
        cases.append(_cli(["replay", _dumps(doc)], 0 if check == "closure" else 1))
    # malformed input, documented as exit 2; the first two are known defects
    good = _dumps(_matrix_doc(rng, "Q", None, 1))
    cases.append(_cli(["bracket", '{"field":"Q","n":1,"entries":[["%d/0"]]}' % rng.randint(1, 9), good],
                      2, KNOWN_DEFECT))
    cases.append(_cli(["bracket", '{"field":"Q","n":1,"entries":[[%d]]}' % rng.randint(1, 9), good],
                      2, KNOWN_DEFECT))
    bad_tag = _matrix_doc(rng, "Q", None, 2)
    bad_tag["field"] = "R"
    cases.append(_cli(["bracket", _dumps(bad_tag), _dumps(_matrix_doc(rng, "Q", None, 2))], 2))
    short = _matrix_doc(rng, "Q", None, 3)
    short["entries"] = short["entries"][:2]
    cases.append(_cli(["bracket", _dumps(short), _dumps(_matrix_doc(rng, "Q", None, 3))], 2))
    cases.append(_cli(["bracket", "--bracket", "lie", good, good], 2))
    cases.append(_cli(["emit-matrix", "--which", "Pinv", "--n", "6", "--field", "GF", "--p", "7"], 2))
    return cases


# -- set-up: fill the program's caches through public functions --------------


def load_api():
    """Import the package and every module the workloads call into."""
    import affgebra
    import affgebra.cli  # noqa: F401  (not imported by the package itself)

    return affgebra


def make_spec(api, spec):
    kind, n, fld, p = spec
    return api.classes.MatrixClassSpec(api.classes.ClassKind(kind), n, api.scalars.field_by_tag(fld, p))


def _warm_specs(api, specs, conjugate=False):
    for s in specs:
        spec = make_spec(api, s)
        api.classes.dimension(spec)
        api.classes.sample(spec, 0, 0)
        if conjugate:
            api.transforms.base_point_image(spec)
        yield


def _warm_axioms(api):
    yield from _warm_specs(api, AXIOM_SPECS)


def _warm_conjugation(api):
    yield from _warm_specs(api, THEOREM_SPECS, conjugate=True)
    yield from _warm_specs(api, COROLLARY_SPECS)


def _warm_wire(api):
    yield from _warm_specs(api, WIRE_CLASS_SPECS)
    for fld, p in EMIT_FIELDS:
        f = api.scalars.field_by_tag(fld, p)
        for n in range(1, 9):
            api.transforms.change_of_basis(n, f)
            if not (p is not None and (n + 1) % p == 0):
                api.transforms.change_of_basis_inverse(n, f)
        yield
    for n in range(1, 9):
        api.transforms.orthonormal_change_of_basis(n)
    yield


WORKLOADS = {
    w.name: w
    for w in (
        Workload("axioms", "sampled trial", 1, _axiom_round, _warm_axioms),
        Workload("conjugation", "sampled tuple", 5, _conjugation_round, _warm_conjugation),
        Workload("wire", "request", 5, _wire_round, _warm_wire),
    )
}


# -- running one case ----------------------------------------------------------

_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


def canonical_report(report) -> str:
    doc = dict(report.to_wire())
    doc.pop("elapsed_ms", None)
    return json.dumps(doc, sort_keys=True)


def _perturb(i, inputs):
    out = dict(inputs)
    x = out["x"]
    out["x"] = x.with_entry(0, 0, x.entry(0, 0) + 1)
    return out


@dataclass
class Prepared:
    """A case with its arguments turned into program objects; only
    ``call`` runs inside the timed interval."""

    case: Case
    call: object
    stdout: io.StringIO | None = None


def prepare(api, case: Case, specs: dict) -> Prepared:
    a = case.args

    def spec_of(s):
        if s not in specs:
            specs[s] = make_spec(api, s)
        return specs[s]

    def with_replay(report):
        # a failed report must reproduce from its own wire form
        return report, (None if report.passed else api.checks.replay(report.to_wire()))

    if case.op == "run_check":
        spec = spec_of(a["spec"])
        kind = api.affine.COMMUTATOR if a["kind"] == "commutator" else api.affine.Zeta(Fraction(a["kind"]))
        mutate = _perturb if a.get("fault") else None
        return Prepared(case, lambda: with_replay(
            api.checks.run_check(a["check"], spec, kind, a["seed"], a["trials"], mutate)))
    if case.op == "verify_theorem":
        spec = spec_of(a["spec"])
        return Prepared(case, lambda: with_replay(api.transforms.verify_theorem(spec, a["seed"], a["samples"])))
    if case.op == "run_corollary":
        spec = spec_of(a["spec"])
        return Prepared(case, lambda: with_replay(api.checks.run_corollary(spec, a["seed"], a["trials"])))
    if case.op == "cli":
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return api.cli.main(list(a["argv"]))
                except SystemExit as exc:  # argparse usage errors: the process exit code
                    return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)

        return Prepared(case, call, out)
    raise ValueError(f"unknown op {case.op!r}")


@dataclass(frozen=True)
class Outcome:
    ok: bool
    items: int
    output: str  # canonical output, digested
    reason: str = ""
    bytes_in: int = 0
    bytes_out: int = 0


def judge(prepared: Prepared, result) -> Outcome:
    """Compare a finished case with its expected outcome."""
    case = prepared.case
    if case.op == "cli":
        stdout = prepared.stdout.getvalue()
        bytes_in = sum(len(arg.encode()) for arg in case.args["argv"])
        output = f"exit={result}\n" + _ELAPSED.sub('"elapsed_ms": 0', stdout)
        ok = result == case.expect
        reason = "" if ok else f"exit {result}, expected {case.expect}"
        return Outcome(ok, 1, output, reason, bytes_in, len(stdout.encode()))
    report, replayed = result
    output = canonical_report(report)
    if replayed is not None:
        output += "\n" + canonical_report(replayed)
    if case.expect:
        want = case.args.get("trials", case.args.get("samples"))
        ok = report.passed and report.trials == want
        reason = "" if ok else f"passed={report.passed} trials={report.trials}/{want}"
    else:
        ok = not report.passed and not replayed.passed
        reason = "" if ok else f"expected a failure that replays; passed={report.passed}"
    return Outcome(ok, report.trials, output, reason)
