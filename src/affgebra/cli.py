"""Command line interface.

All results go to stdout as JSON (one document per line for streams);
human diagnostics go to stderr.  Exit codes: 0 success / all checks
passed, 1 a check failed, 2 invalid usage or an impossible construction
(for example a characteristic obstruction).

The default seed comes from the AFFGEBRA_SEED environment variable.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .affine import COMMUTATOR, Zeta, bracket, lie_retract_bracket
from .checks import CATALOGUE, all_passed, applicable_checks, replay, run_check, run_corollary
from .classes import BLOCK_KIND, COMPLEX, ClassKind, MatrixClassSpec, check_block_size, dimension, sample, spec_to_wire
from .errors import AffgebraError, MalformedWire
from .matrix import common_field, matrix_from_wire, matrix_to_wire
from .report import BRACKET
from .scalars import field_by_tag
from .transforms import (
    VIA_P,
    VIA_U,
    base_point_image,
    change_of_basis,
    change_of_basis_inverse,
    block_target,
    orthonormal_change_of_basis,
    verify_theorem,
)

def _add_class_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="klass", required=True, choices=[k.value for k in ClassKind])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=["Q", "Qi", "GF"], default=None)
    p.add_argument("--p", type=int, default=None, help="prime, with --field GF")
    p.add_argument("--c", default=None, help="normalisation scalar, with --class ga_c")


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None, help="default: per-check catalogue value")


def _spec_from_args(args) -> MatrixClassSpec:
    kind = ClassKind(args.klass)
    tag = args.field or ("Qi" if BLOCK_KIND[kind] in COMPLEX else "Q")
    field = field_by_tag(tag, args.p)
    c = field.parse(args.c) if args.c is not None else None
    return MatrixClassSpec(kind=kind, n=args.n, field=field, c=c)


def _kind_from_args(args, field):
    text = args.bracket
    if text == "commutator":
        return COMMUTATOR
    if text.startswith("zeta:"):
        return Zeta(field.parse(text[len("zeta:") :]))
    raise ValueError(f"--bracket must be 'commutator' or 'zeta:<scalar>', got {text!r}")


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get("AFFGEBRA_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"AFFGEBRA_SEED must be an integer, got {text!r}") from None


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _load_json_arg(text: str) -> dict:
    """A JSON object given inline, as a file path, or as - for stdin.
    Text that starts with { or [ (after blanks) is inline."""
    try:
        if text == "-":
            doc = json.load(sys.stdin)
        elif text.lstrip().startswith(("{", "[")):
            doc = json.loads(text)
        else:
            with open(text, encoding="utf-8") as handle:
                doc = json.load(handle)
    except RecursionError:
        raise MalformedWire("the document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise MalformedWire(f"the document must be a JSON object, got {type(doc).__name__}")
    return doc


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    kind = _kind_from_args(args, spec.scalar_field)
    if args.checks is not None:
        names = applicable_checks(kind, args.checks.split(","))
        if not names:
            raise ValueError(f"none of the checks {args.checks} runs under the bracket {args.bracket}")
    else:
        # the checks that run under a bracket; the conjugation checks have their own commands
        names = applicable_checks(kind, [n for n, c in CATALOGUE.items() if c.context is BRACKET])
    seed = _seed_of(args)
    reports = []
    for name in names:
        report = run_check(name, spec, kind, seed, args.trials)
        reports.append(report)
        _emit(report.to_wire())
    return 0 if all_passed(reports) else 1


def _cmd_iso_check(args) -> int:
    spec = _spec_from_args(args)
    target = block_target(spec)
    report = verify_theorem(spec, _seed_of(args), args.trials, via=args.via)
    _emit(
        {
            "class": spec_to_wire(spec),
            "via": args.via,
            "block_kind": target.block_kind,
            "base_block": matrix_to_wire(target.base_block),
            "base_point_image": matrix_to_wire(base_point_image(spec, args.via)),
        }
    )
    _emit(report.to_wire())
    return 0 if report.passed else 1


def _cmd_corollary(args) -> int:
    spec = _spec_from_args(args)
    report = run_corollary(spec, _seed_of(args), args.trials)
    _emit(report.to_wire())
    return 0 if report.passed else 1


def _cmd_emit_matrix(args) -> int:
    check_block_size(args.n)
    if args.which == "U":
        if args.field is not None or args.p is not None:
            raise ValueError("U is over the surd field; --field and --p are only for P and Pinv")
        _emit(matrix_to_wire(orthonormal_change_of_basis(args.n)))
        return 0
    field = field_by_tag(args.field or "Q", args.p)
    if args.which == "P":
        _emit(matrix_to_wire(change_of_basis(args.n, field)))
    else:
        _emit(matrix_to_wire(change_of_basis_inverse(args.n, field)))
    return 0


def _cmd_bracket(args) -> int:
    a = matrix_from_wire(_load_json_arg(args.a))
    b = matrix_from_wire(_load_json_arg(args.b))
    a, b = common_field(a, b)
    kind = _kind_from_args(args, a.field)
    _emit(matrix_to_wire(bracket(kind, a, b)))
    return 0


def _cmd_retract(args) -> int:
    o = matrix_from_wire(_load_json_arg(args.origin))
    a = matrix_from_wire(_load_json_arg(args.a))
    b = matrix_from_wire(_load_json_arg(args.b))
    o, a = common_field(o, a)
    o, b = common_field(o, b)
    a, b = common_field(a, b)
    kind = _kind_from_args(args, o.field)
    _emit(matrix_to_wire(lie_retract_bracket(kind, o, a, b)))
    return 0


def _cmd_dims(args) -> int:
    print(dimension(_spec_from_args(args)))
    return 0


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    spec = _spec_from_args(args)
    seed = _seed_of(args)
    for index in range(args.count):
        _emit(matrix_to_wire(sample(spec, seed, index)))
    return 0


def _cmd_replay(args) -> int:
    report = replay(_load_json_arg(args.report))
    _emit(report.to_wire())
    # exit 0 when the recorded failure reproduces
    return 0 if not report.passed else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so that ``main`` reports them
    as one line with exit 2 (``--help`` still exits 0).  An argument that
    starts with '-' and a digit is a value, as in ``--c -1/2``: no flag
    has that shape."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only a plain negative number for a value
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later call in the process.  Callers must not mutate it.  No default
    reads the environment: ``--seed`` falls back to AFFGEBRA_SEED when a
    command runs, not when the parser is built."""
    parser = _Parser(
        prog="affgebra",
        description="exact verification of normalised affine matrix classes, "
        "their brackets, and their Lie-algebra retracts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run axiom checks against a class")
    _add_class_flags(p)
    p.add_argument("--bracket", default="commutator")
    p.add_argument("--checks", default=None, help="comma-separated catalogue names")
    _add_seed_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("iso-check", help="verify the conjugation isomorphism onto block form")
    _add_class_flags(p)
    p.add_argument("--via", choices=[VIA_P, VIA_U], default=None)
    _add_seed_flags(p)
    p.set_defaults(func=_cmd_iso_check)

    p = sub.add_parser("corollary", help="verify the retract-to-classical-algebra table")
    _add_class_flags(p)
    _add_seed_flags(p)
    p.set_defaults(func=_cmd_corollary)

    p = sub.add_parser("emit-matrix", help="print P, Pinv or U as matrix JSON")
    p.add_argument("--which", required=True, choices=["P", "Pinv", "U"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=["Q", "Qi", "GF"], default=None)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=_cmd_emit_matrix)

    p = sub.add_parser("bracket", help="bracket of two matrix JSON inputs")
    p.add_argument("--bracket", default="commutator")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("retract", help="retract Lie bracket [a,b]_o")
    p.add_argument("--bracket", default="commutator")
    p.add_argument("-o", "--origin", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_retract)

    p = sub.add_parser("dims", help="dimension of the class direction space")
    _add_class_flags(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("sample", help="deterministic class members as matrix JSON lines")
    _add_class_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("replay", help="re-evaluate a serialised counterexample")
    p.add_argument("report", help="report JSON (inline, file path, or - for stdin)")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AffgebraError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
