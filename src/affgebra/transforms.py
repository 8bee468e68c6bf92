"""Closed-form change-of-basis matrices and the block-space isomorphisms.

The two basis matrices (wire names ``P`` and ``U``) share the same
shape: the last column is constant and the first n columns have zero
column sum, which is exactly what conjugation needs to trade "all row
and column sums equal c" against "everything outside the top-left n x n
block vanishes except the corner".  ``P`` is integral and works over any
field where n+1 is invertible; ``U`` is its orthonormal counterpart with
quadratic-surd entries and is the only route that preserves antisymmetry
and anti-hermitianity.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache

from .affine import COMMUTATOR, action, bracket, heap
from .classes import (
    ClassKind,
    MatrixClassSpec,
    base_point,
    contains,
    derive_rng,
    draw_element,
    spec_to_wire,
)
from .errors import ClassViolation, FieldMismatch
from .matrix import Matrix, matrix_to_wire
from .report import CheckReport
from .scalars import (
    RAT,
    Field,
    QQ,
    SURD,
    SURD_C,
    SurdReal,
    can_widen,
    squarefree_split,
    widen_scalar,
)

VIA_P = "P"
VIA_U = "U"


@lru_cache(maxsize=None)
def change_of_basis(n: int, field: Field) -> Matrix:
    """Size n+1: first row all ones; row r = 2..n+1 has -1 in column
    n+2-r and +1 in the last column."""
    m = n + 1
    zero, one = field.zero(), field.one()
    rows = [[one] * m]
    for i in range(1, m):
        row = [zero] * m
        row[n - i] = -one
        row[n] = one
        rows.append(row)
    return Matrix(field, rows)


@lru_cache(maxsize=None)
def change_of_basis_inverse(n: int, field: Field) -> Matrix:
    """1/(n+1) times: row r = 1..n has -n in column n+2-r and ones
    elsewhere; last row all ones.  NonInvertibleScalar when the
    characteristic divides n+1."""
    m = n + 1
    scale = field.inv_int(m)
    one = field.one()
    minus_n = field.from_int(-n)
    rows = []
    for i in range(n):
        row = [one] * m
        row[n - i] = minus_n
        rows.append(row)
    rows.append([one] * m)
    return Matrix(field, rows).scale(scale)


def _inv_sqrt(k: int) -> SurdReal:
    # 1/sqrt(k) = sqrt(f)/(s*f) for k = s^2 * f
    s, f = squarefree_split(k)
    return SurdReal({f: RAT(1, s * f)})


def _neg_sqrt_ratio(p: int, q: int) -> SurdReal:
    # -sqrt(p/q) = -sqrt(p*q)/q
    s, f = squarefree_split(p * q)
    return SurdReal({f: RAT(-s, q)})


@lru_cache(maxsize=None)
def orthonormal_change_of_basis(n: int) -> Matrix:
    """The orthonormal counterpart of ``change_of_basis`` over the real
    surd field; its transpose is its exact inverse."""
    m = n + 1
    zero = SURD.zero()
    cols = []
    for j in range(1, n + 1):
        top, drop = n + 2 - j, n + 1 - j
        col = [_inv_sqrt(top * drop)] * drop
        col.append(_neg_sqrt_ratio(drop, top))
        col.extend([zero] * (m - drop - 1))
        cols.append(col)
    cols.append([_inv_sqrt(m)] * m)
    return Matrix(SURD, list(zip(*cols)))


def float_gram_schmidt(n: int) -> list[list[float]]:
    """Floating-point Gram-Schmidt of the integral basis columns,
    processed and placed last column first; cross-checks the closed
    form of ``orthonormal_change_of_basis``."""
    m = n + 1
    p = change_of_basis(n, QQ)
    cols = [[float(p.entry(i, j)) for i in range(m)] for j in range(m)]
    out: list[list[float] | None] = [None] * m
    accepted: list[list[float]] = []
    for j in reversed(range(m)):
        v = cols[j][:]
        for u in accepted:
            proj = sum(x * y for x, y in zip(v, u))
            v = [x - proj * y for x, y in zip(v, u)]
        norm = math.sqrt(sum(x * x for x in v))
        v = [x / norm for x in v]
        accepted.append(v)
        out[j] = v
    return [[out[j][i] for j in range(m)] for i in range(m)]


# -- block targets ------------------------------------------------------

_BLOCK_KINDS = {
    ClassKind.GNA: "gl",
    ClassKind.GA_C: "gl",
    ClassKind.SNA: "sl",
    ClassKind.ONA: "o",
    ClassKind.UNA: "u",
    ClassKind.SUNA: "su",
}


@dataclass(frozen=True)
class BlockTarget:
    """Image space of a class under conjugation: a fixed block-diagonal
    base point plus a classical matrix algebra in the top-left n x n
    block."""

    block_kind: str
    base_block: Matrix
    n: int

    @property
    def field(self) -> Field:
        return self.base_block.field

    def contains(self, m: Matrix, radicals=None) -> bool:
        """Membership of m.  With ``radicals`` f_0..f_n, m is a frame
        matrix of the U route and the tested block matrix is D·m·D⁻¹ for
        D = diag(√f_k): the zero pattern and the trace carry over, and
        (anti)symmetry reads f_l·d_lk = -f_k·d_kl."""
        base = self.base_block.widen(m.field) if m.field is not self.field else self.base_block
        d = m - base
        size = m.size
        zero = m.field.zero()
        for k in range(size):
            if d.entry(self.n, k) != zero or d.entry(k, self.n) != zero:
                return False
        return _block_member(self.block_kind, d, self.n, m.field, radicals or (1,) * size)

    def sample(self, rng: random.Random) -> Matrix:
        """base plus a random element of the block algebra, embedded."""
        block = _sample_block(self.block_kind, self.n, self.field, rng)
        rows = [list(row) for row in self.base_block.rows]
        for i in range(self.n):
            for j in range(self.n):
                rows[i][j] = rows[i][j] + block[i][j]
        return Matrix(self.field, rows)


def _block_member(kind: str, d: Matrix, n: int, field: Field, f) -> bool:
    zero = field.zero()
    if kind in ("sl", "su"):
        tr = zero
        for k in range(n):
            tr = tr + d.entry(k, k)
        if tr != zero:
            return False
    if kind == "o":
        for k in range(n):
            for l in range(k, n):
                if f[l] * d.entry(l, k) != -(f[k] * d.entry(k, l)):
                    return False
    if kind in ("u", "su"):
        conj = field.conjugate
        for k in range(n):
            for l in range(k, n):
                if f[l] * d.entry(l, k) != -(f[k] * conj(d.entry(k, l))):
                    return False
    return True


def _sample_block(kind: str, n: int, field: Field, rng: random.Random):
    zero = field.zero()
    block = [[zero] * n for _ in range(n)]
    if kind in ("gl", "sl"):
        for i in range(n):
            for j in range(n):
                block[i][j] = field.sample(rng)
        if kind == "sl":
            tr = zero
            for k in range(n - 1):
                tr = tr + block[k][k]
            block[n - 1][n - 1] = -tr
        return block
    if kind == "o":
        for i in range(n):
            for j in range(i + 1, n):
                x = field.sample(rng)
                block[i][j] = x
                block[j][i] = -x
        return block
    # u / su: anti-hermitian over the Gaussian rationals
    i_unit = field.imaginary_unit()
    for k in range(n):
        block[k][k] = i_unit * QQ.sample(rng)
    for k in range(n):
        for l in range(k + 1, n):
            x = field.sample(rng)
            block[k][l] = x
            block[l][k] = -field.conjugate(x)
    if kind == "su":
        tr = zero
        for k in range(n - 1):
            tr = tr + block[k][k]
        block[n - 1][n - 1] = -tr
    return block


def block_target(spec: MatrixClassSpec) -> BlockTarget:
    field = spec.field
    m = spec.ambient
    zero = field.zero()
    if spec.kind in (ClassKind.GNA, ClassKind.GA_C):
        corner = field.one() if spec.kind is ClassKind.GNA else spec.c
        base = Matrix.diagonal(field, [zero] * spec.n + [corner])
    elif spec.kind is ClassKind.SNA:
        head = -field.inv_int(spec.n)
        base = Matrix.diagonal(field, [head] * spec.n + [field.one()])
    elif spec.kind is ClassKind.ONA:
        base = Matrix.identity(field, m)
    elif spec.kind is ClassKind.UNA:
        base = Matrix.diagonal(field, [zero] * spec.n + [field.imaginary_unit()])
    else:  # SUNA
        head = -(field.imaginary_unit() * field.inv_int(spec.n))
        base = Matrix.diagonal(field, [head] * spec.n + [field.imaginary_unit()])
    return BlockTarget(block_kind=_BLOCK_KINDS[spec.kind], base_block=base, n=spec.n)


# -- the three isomorphism mechanisms -----------------------------------


def shift_map(c, c_prime, m: Matrix) -> Matrix:
    """Renormalisation between sum-c and sum-c' classes:
    m + (c' - c) * identity."""
    field = m.field
    spec = MatrixClassSpec(ClassKind.GA_C, m.size - 1, field, c=field.coerce(c))
    if not contains(spec, m):
        raise ClassViolation(f"input is not in {spec.describe()}")
    delta = field.coerce(c_prime) - field.coerce(c)
    return m + Matrix.identity(field, m.size).scale(delta)


def required_via(spec: MatrixClassSpec) -> str:
    """The mandatory conjugation route: only the orthonormal basis
    preserves antisymmetry / anti-hermitianity."""
    if spec.kind in (ClassKind.ONA, ClassKind.UNA, ClassKind.SUNA):
        return VIA_U
    return VIA_P


def _validate_via(spec: MatrixClassSpec, via: str) -> None:
    if via not in (VIA_P, VIA_U):
        raise ValueError(f"unknown via {via!r}")
    if via == VIA_P and required_via(spec) == VIA_U:
        raise ClassViolation(
            f"{spec.describe()} must be conjugated via U; "
            "P does not preserve its symmetry conditions"
        )
    if via == VIA_U and spec.field.characteristic:
        raise FieldMismatch("the orthonormal route needs characteristic zero")


@dataclass(frozen=True)
class Frame:
    """Conjugation by a basis T = R·D⁻¹ with R over the class field and
    D = diag(√f_0, ..., √f_n), f_k squarefree.

    The image T⁻¹·m·T is D·Z·D⁻¹ with Z = R⁻¹·m·R, so every identity
    the theorem asserts between images (heap, action, the commutator
    bracket, the inverse) holds for the Z matrices over the class field.
    Surds appear only when ``materialise`` builds D·Z·D⁻¹ and in
    ``pull_back``.  For P, R = T and D = I; for U, R = W·diag(f) and
    R⁻¹ = Wᵀ, where U = W·D with W rational, since every column of U
    carries a single radical.
    """

    left: Matrix  # R⁻¹
    right: Matrix  # R
    radicals: tuple  # f_0..f_n
    basis: Matrix  # T over the block field
    basis_inverse: Matrix  # T⁻¹ over the block field
    scales: tuple | None  # rows of √f_i/√f_j over the block field; None when D = I

    @property
    def block_field(self) -> Field:
        return self.basis.field

    def _over(self, field: Field) -> tuple[Matrix, Matrix]:
        # (R⁻¹, R) over ``field``, which must embed in the block field
        if field is self.left.field:
            return self.left, self.right
        if not can_widen(field, self.block_field):
            raise FieldMismatch(
                f"cannot widen {field.describe()} into {self.block_field.describe()}"
            )
        return self.left.widen(field), self.right.widen(field)

    def image(self, m: Matrix) -> Matrix:
        """Z = R⁻¹·m·R."""
        left, right = self._over(m.field)
        return left @ m @ right

    def preimage(self, z: Matrix) -> Matrix:
        """m = R·Z·R⁻¹."""
        left, right = self._over(z.field)
        return right @ z @ left

    def materialise(self, z: Matrix) -> Matrix:
        """The block matrix D·Z·D⁻¹; each entry is z_ij·√(f_i f_j)/f_j."""
        if self.scales is None:
            return z
        z = z.widen(self.block_field)
        return Matrix._wrap(
            self.block_field,
            tuple(
                tuple(x * s for x, s in zip(row, srow))
                for row, srow in zip(z.rows, self.scales)
            ),
        )

    def pull_back(self, y: Matrix) -> Matrix:
        """T·y·T⁻¹ for a block-field matrix y (surd-valued for U)."""
        return self.basis @ y.widen(self.block_field) @ self.basis_inverse


@lru_cache(maxsize=None)
def _conjugators(n: int, field: Field, via: str) -> Frame:
    m = n + 1
    if via == VIA_P:
        p, pinv = change_of_basis(n, field), change_of_basis_inverse(n, field)
        return Frame(pinv, p, (1,) * m, p, pinv, None)
    u = orthonormal_change_of_basis(n)
    w_cols, radicals = [], []
    for col in zip(*u.rows):
        (f,) = {d for x in col for d, _ in x.terms}  # one radical per column
        radicals.append(f)
        w_cols.append([x.coefficient(f) for x in col])
    right = Matrix(QQ, [[w_cols[j][i] * radicals[j] for j in range(m)] for i in range(m)])
    block = SURD_C if field.is_complex else SURD
    scales = []
    for fi in radicals:
        row = []
        for fj in radicals:
            s, g = squarefree_split(fi * fj)
            row.append(block.coerce(SurdReal({g: RAT(s, fj)})))
        scales.append(tuple(row))
    u = u.widen(block)
    return Frame(
        Matrix(QQ, w_cols).widen(field),
        right.widen(field),
        tuple(radicals),
        u,
        u.transpose(),
        tuple(scales),
    )


def _frame(spec: MatrixClassSpec, via: str | None) -> Frame:
    via = via or required_via(spec)
    _validate_via(spec, via)
    return _conjugators(spec.n, spec.field, via)


def _class_image(spec: MatrixClassSpec, frame: Frame, m: Matrix) -> Matrix:
    if not contains(spec, m):
        raise ClassViolation(f"input is not in {spec.describe()}")
    return frame.image(m)


def to_block(spec: MatrixClassSpec, m: Matrix, via: str | None = None) -> Matrix:
    """Conjugate a class member into its block target (ClassViolation if
    the input fails membership)."""
    frame = _frame(spec, via)
    return frame.materialise(_class_image(spec, frame, m))


def from_block(spec: MatrixClassSpec, m: Matrix, via: str | None = None) -> Matrix:
    """Inverse conjugation, block target back into the class."""
    return _frame(spec, via).pull_back(m)


def base_point_image(spec: MatrixClassSpec, via: str | None = None) -> Matrix:
    """Where the class base point lands in the block target."""
    return to_block(spec, base_point(spec), via)


# -- computational verification of the isomorphism ----------------------


def evaluate_theorem_case(spec: MatrixClassSpec, via: str, inputs: dict) -> tuple[bool, dict]:
    """Check one sampled tuple against every isomorphism property.

    inputs: points a, b, c over the class field, scalar alpha, and a
    block-target element z for the surjectivity direction.  Returns
    (passed, detail) where detail names the first failed property and
    carries expected/actual wire forms.  Properties are checked on the
    frame matrices Z (see ``Frame``); a failure reports the block
    matrices D·Z·D⁻¹.
    """
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    alpha, z = inputs["alpha"], inputs["z"]
    target = block_target(spec)
    frame = _frame(spec, via)

    def mismatch(label, lhs, rhs):
        return False, _detail(label, frame.materialise(lhs), frame.materialise(rhs))

    za, zb, zc = (_class_image(spec, frame, x) for x in (a, b, c))
    for name, img in (("a", za), ("b", zb), ("c", zc)):
        if not target.contains(img, frame.radicals):
            return False, _detail(f"image of {name} not in block target", True, False)

    lhs = _class_image(spec, frame, bracket(COMMUTATOR, a, b))
    rhs = bracket(COMMUTATOR, za, zb)
    if lhs != rhs:
        return mismatch("bracket preservation", lhs, rhs)

    lhs = _class_image(spec, frame, heap(a, b, c))
    rhs = heap(za, zb, zc)
    if lhs != rhs:
        return mismatch("heap preservation", lhs, rhs)

    lhs = _class_image(spec, frame, action(alpha, a, b))
    rhs = action(widen_scalar(alpha, spec.scalar_field, za.field), za, zb)
    if lhs != rhs:
        return mismatch("action preservation", lhs, rhs)

    back = frame.preimage(za)
    if back != a:
        wide = frame.block_field
        return False, _detail("inverse conjugation roundtrip", a.widen(wide), back.widen(wide))

    if not contains(spec, frame.pull_back(z)):
        return False, _detail("surjectivity pullback membership", True, False)
    return True, {}


def _detail(label: str, expected, actual) -> dict:
    def render(v):
        return matrix_to_wire(v) if isinstance(v, Matrix) else v

    return {"property": label, "expected": render(expected), "actual": render(actual)}


def theorem_inputs(spec: MatrixClassSpec, rng: random.Random) -> dict:
    target = block_target(spec)
    return {
        "a": draw_element(spec, rng),
        "b": draw_element(spec, rng),
        "c": draw_element(spec, rng),
        "alpha": spec.scalar_field.sample(rng),
        "z": target.sample(rng),
    }


def verify_theorem(spec: MatrixClassSpec, seed: int, samples: int, via: str | None = None) -> CheckReport:
    """Sampled verification that conjugation is an isomorphism onto the
    block target; stops at the first counterexample."""
    via = via or required_via(spec)
    _validate_via(spec, via)
    start = time.perf_counter()
    for i in range(samples):
        rng = derive_rng("theorem", spec.describe(), via, seed, i)
        inputs = theorem_inputs(spec, rng)
        passed, detail = evaluate_theorem_case(spec, via, inputs)
        if not passed:
            counterexample = {
                "class": spec_to_wire(spec),
                "via": via,
                "inputs": {
                    "a": matrix_to_wire(inputs["a"]),
                    "b": matrix_to_wire(inputs["b"]),
                    "c": matrix_to_wire(inputs["c"]),
                    "alpha": spec.scalar_field.format(inputs["alpha"]),
                    "z": matrix_to_wire(inputs["z"]),
                },
                **detail,
            }
            elapsed = (time.perf_counter() - start) * 1000
            return CheckReport("theorem-iso", False, i + 1, counterexample, elapsed)
    elapsed = (time.perf_counter() - start) * 1000
    return CheckReport("theorem-iso", True, samples, None, elapsed)
