"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
its elapsed time against the stated budget.  Everything is exact (zero
tolerance) except the explicitly numeric Gram-Schmidt cross-check
(1e-12).  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import json
import time
from fractions import Fraction

from affgebra.affine import COMMUTATOR, Zeta
from affgebra.checks import replay, run_check, run_corollary
from affgebra.classes import ClassKind, MatrixClassSpec, base_point, dimension
from affgebra.errors import NonInvertibleScalar, SingularMatrix
from affgebra.matrix import Matrix
from affgebra.scalars import GF, QI, QQ, SURD
from affgebra.transforms import (
    change_of_basis,
    change_of_basis_inverse,
    orthonormal_change_of_basis,
    verify_theorem,
)
from oracle import float_gram_schmidt

SEED = 20240601


def spec(kind, n, field=None, c=None):
    if field is None:
        field = QI if kind in (ClassKind.UNA, ClassKind.SUNA) else QQ
    return MatrixClassSpec(kind, n, field, c=c)


ALL_CLASSES = [ClassKind.GNA, ClassKind.SNA, ClassKind.ONA, ClassKind.UNA, ClassKind.SUNA]


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.violations = []

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def check(self, ok, message):
        if not ok:
            self.violations.append(message)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if not self.violations and exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert not self.violations, self.violations
            assert elapsed < self.budget, f"budget exceeded: {elapsed:.2f}s >= {self.budget}s"
        return False


def test_criterion_1_exact_closed_forms():
    with _Criterion(1, "exact closed forms", 1.0) as c:
        c.check(
            change_of_basis(2, QQ) == Matrix(QQ, [[1, 1, 1], [0, -1, 1], [-1, 0, 1]]),
            "integral basis n=2",
        )
        c.check(
            change_of_basis_inverse(2, QQ)
            == Matrix(QQ, [[1, 1, -2], [1, -2, 1], [1, 1, 1]]).scale(Fraction(1, 3)),
            "integral basis inverse n=2",
        )
        c.check(
            base_point(spec(ClassKind.GNA, 2)) == Matrix.ones(QQ, 3).scale(Fraction(1, 3)),
            "uniform base point of gna",
        )
        half = Fraction(1, 2)
        c.check(
            base_point(spec(ClassKind.SNA, 2))
            == Matrix(QQ, [[0, half, half], [half, 0, half], [half, half, 0]]),
            "hollow base point of sna",
        )
        c.check(base_point(spec(ClassKind.ONA, 2)) == Matrix.identity(QQ, 3), "ona base point")
        c.check(
            base_point(spec(ClassKind.UNA, 2)) == Matrix.ones(QI, 3).scale(QI.parse("1/3i")),
            "una base point",
        )
        c.check(
            base_point(spec(ClassKind.SUNA, 2))
            == (Matrix.ones(QI, 3) - Matrix.identity(QI, 3)).scale(QI.parse("1/2i")),
            "suna base point",
        )


def test_criterion_2_integral_basis_inverse():
    with _Criterion(2, "P inverse over Q and GF", 1.0) as c:
        for n in range(1, 9):
            eye = Matrix.identity(QQ, n + 1)
            c.check(
                change_of_basis(n, QQ) @ change_of_basis_inverse(n, QQ) == eye,
                f"Q product n={n}",
            )
        for n in range(1, 9):
            if n == 6:
                continue
            eye = Matrix.identity(GF(7), n + 1)
            c.check(
                change_of_basis(n, GF(7)) @ change_of_basis_inverse(n, GF(7)) == eye,
                f"GF(7) product n={n}",
            )
        for p, n in [(5, 4), (3, 2), (2, 1)]:
            try:
                change_of_basis(n, GF(p)).inverse()
                c.check(False, f"GF({p}) n={n} should be singular")
            except SingularMatrix:
                pass
            try:
                change_of_basis_inverse(n, GF(p))
                c.check(False, f"GF({p}) n={n} closed form should be obstructed")
            except NonInvertibleScalar:
                pass


def test_criterion_3_orthonormal_basis():
    with _Criterion(3, "orthonormal basis exact and numeric", 5.0) as c:
        for n in range(1, 6):
            u = orthonormal_change_of_basis(n)
            eye = Matrix.identity(SURD, n + 1)
            c.check(u.transpose() @ u == eye, f"exact UtU n={n}")
            gs = float_gram_schmidt(n)
            worst = max(
                abs(float(u.entry(i, j)) - gs[i][j])
                for i in range(n + 1)
                for j in range(n + 1)
            )
            c.check(worst <= 1e-12, f"numeric cross-check n={n}: {worst}")


HEAP_ACTION_CHECKS = [
    "heap-assoc", "malcev", "heap-comm",
    "act-add", "act-heap", "act-assoc", "act-unit", "act-zero", "act-base-change",
]
BRACKET_CHECKS = [
    "bracket-left-affine", "bracket-right-affine", "antisym", "jacobi", "closure",
]


def test_criterion_4_axiom_suite():
    with _Criterion(4, "affine and bracket axiom suite", 60.0) as c:
        kinds = [COMMUTATOR] + [Zeta(Fraction(z)) for z in (0, 1, 2, -1)]
        for kind_name in ALL_CLASSES:
            for n in range(1, 5):
                s = spec(kind_name, n)
                for name in HEAP_ACTION_CHECKS:
                    report = run_check(name, s, COMMUTATOR, SEED, trials=100)
                    c.check(report.passed, f"{name} on {s.describe()}: {report.counterexample}")
                for kind in kinds:
                    for name in BRACKET_CHECKS:
                        report = run_check(name, s, kind, SEED, trials=100)
                        c.check(
                            report.passed,
                            f"{name} on {s.describe()} with {kind.label()}: {report.counterexample}",
                        )


def test_criterion_5_theorem_suite():
    with _Criterion(5, "conjugation isomorphism suite", 60.0) as c:
        cases = [spec(k, n) for k in ALL_CLASSES for n in range(1, 5)]
        cases += [spec(k, n, GF(7)) for k in (ClassKind.GNA, ClassKind.SNA) for n in range(1, 5)]
        for s in cases:
            report = verify_theorem(s, SEED, samples=50)
            c.check(report.passed, f"{s.describe()}: {report.counterexample}")
            c.check(report.trials == 50, f"{s.describe()}: ran {report.trials} samples")


def test_criterion_6_corollary_suite():
    with _Criterion(6, "retract table and dimensions", 30.0) as c:
        for kind_name in ALL_CLASSES:
            for n in range(1, 5):
                s = spec(kind_name, n)
                report = run_corollary(s, SEED, trials=100)
                c.check(report.passed, f"{s.describe()}: {report.counterexample}")
        expected = {
            ClassKind.GNA: lambda n: n * n,
            ClassKind.SNA: lambda n: n * n - 1,
            ClassKind.ONA: lambda n: n * (n - 1) // 2,
            ClassKind.UNA: lambda n: n * n,
            ClassKind.SUNA: lambda n: n * n - 1,
        }
        for kind_name in ALL_CLASSES:
            for n in range(1, 6):
                got = dimension(spec(kind_name, n))
                want = expected[kind_name](n)
                c.check(got == want, f"dim {kind_name.value}({n}) = {got}, expected {want}")


def test_criterion_7_zeta_retract_trivial():
    with _Criterion(7, "scalar-action brackets retract trivially", 10.0) as c:
        for kind_name in ALL_CLASSES:
            s = spec(kind_name, 2)
            for z in (0, 1, 3):
                report = run_check("zeta-retract-trivial", s, Zeta(Fraction(z)), SEED, trials=100)
                c.check(report.passed, f"{s.describe()} zeta={z}: {report.counterexample}")


def test_criterion_8_associative_product():
    with _Criterion(8, "retract product: associativity and commutator", 10.0) as c:
        s = spec(ClassKind.GNA, 3)
        for name in ("bullet-assoc", "bullet-commutator"):
            report = run_check(name, s, COMMUTATOR, SEED, trials=100)
            c.check(report.passed, f"{name}: {report.counterexample}")


def test_criterion_9_fault_injection_and_replay():
    with _Criterion(9, "fault injection and replay", 1.0) as c:
        def mutate(i, inputs):
            out = dict(inputs)
            out["x"] = out["x"].with_entry(0, 0, out["x"].entry(0, 0) + 1)
            return out

        s = spec(ClassKind.GNA, 2)
        report = run_check("closure", s, COMMUTATOR, SEED, trials=10, mutate=mutate)
        c.check(not report.passed, "perturbed closure must fail")
        c.check(report.counterexample is not None, "counterexample must be captured")
        wire = json.loads(json.dumps(report.to_wire()))
        fresh = replay(wire)
        c.check(not fresh.passed, "replay must reproduce the failure")
