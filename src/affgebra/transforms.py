"""Closed-form change-of-basis matrices (P, and the rational frame W of
U) and the block-space isomorphisms.

The two basis matrices (wire names ``P`` and ``U``) share the same
shape: the last column is constant and the first n columns have zero
column sum, which is exactly what conjugation needs to trade "all row
and column sums equal c" against "everything outside the top-left n x n
block vanishes except the corner".  ``P`` is integral and works over any
field where n+1 is invertible; ``U`` is its orthonormal counterpart with
quadratic-surd entries and is the only route that preserves antisymmetry
and anti-hermitianity.  Every inverse, P⁻¹ and each frame's R⁻¹, is the
exact elimination of ``Matrix.inverse``.

Each block target (gl, sl, o, u, su) is written once as data: a
homogeneous ``constraint_table`` that ``BlockTarget.contains`` tests
with ``solve.satisfies``, and a generator table that
``BlockTarget.sample`` draws through ``classes.draw_form``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .affine import COMMUTATOR, action, bracket, heap, is_commutator
from .classes import REAL_LINEAR, TRACELESS, MatrixClassSpec, base_point, contains, contains_parts, draw_form
from .errors import ClassViolation, FieldMismatch, SizeMismatch, wire_field
from .matrix import Matrix, graded, matrix_to_wire, sandwich, sandwich_form, staircase
from .report import (
    POINT,
    SCALAR,
    CheckDef,
    CheckReport,
    Context,
    MatrixClassCarrier,
    class_of,
    expect,
    run_trials,
)
from .scalars import (
    PART_FIELDS,
    RAT,
    Field,
    QQ,
    SURD,
    SURD_C,
    SurdReal,
    can_widen,
    memo,
    squarefree_split,
    surd_basis_product,
)
from .solve import constraint_table, satisfies

VIA_P = "P"
VIA_U = "U"


@memo
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


@memo
def change_of_basis_inverse(n: int, field: Field) -> Matrix:
    """P⁻¹, the exact inverse of ``change_of_basis`` by ``Matrix.inverse``;
    NonInvertibleScalar when the characteristic divides n+1."""
    field.inv_int(n + 1)
    return change_of_basis(n, field).inverse()


@memo
def _orthonormal_frame(n: int) -> tuple[Matrix, tuple]:
    """(W, f) with U = W·diag(√f_0, ..., √f_n), W rational, f_j squarefree.
    For j = 1..n, with top = n+2-j, drop = n+1-j and top·drop = s²·f_j,
    column j of U is 1/√(top·drop) in its first drop rows and -√(drop/top)
    in the next, so column j of W is 1/(s·f_j) there and -s/top; the last
    column of U is 1/√(n+1), so that of W is 1/(s·f_n) for n+1 = s²·f_n."""
    m = n + 1
    cols, radicals = [], []
    for j in range(1, n + 1):
        top, drop = n + 2 - j, n + 1 - j
        s, f = squarefree_split(top * drop)
        cols.append([RAT(1, s * f)] * drop + [RAT(-s, top)] + [RAT(0)] * (m - drop - 1))
        radicals.append(f)
    s, f = squarefree_split(m)
    cols.append([RAT(1, s * f)] * m)
    radicals.append(f)
    return Matrix(QQ, list(zip(*cols))), tuple(radicals)


@memo
def orthonormal_change_of_basis(n: int) -> Matrix:
    """The orthonormal counterpart of ``change_of_basis`` over the real
    surd field, built from its rational frame as U = W·D.  Its transpose
    is its exact inverse."""
    w, radicals = _orthonormal_frame(n)
    return w.widen(SURD) @ Matrix.diagonal(SURD, [SurdReal({f: 1}) for f in radicals])


# -- block targets ------------------------------------------------------


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
        """Membership of m.  With ``radicals``, a tuple f_0..f_n, m is a
        frame matrix of the U route and the tested block matrix is
        D·m·D⁻¹ for D = diag(√f_k) (see ``_block_table``).  Every condition
        is homogeneous, so each rational part of m - base decides it on its
        numerators alone (base is rational: M_1 - base over da·db)."""
        base = self.base_block.widen(m.field)
        if m.size != base.size:
            raise SizeMismatch(f"{base.size} vs {m.size}")
        ((_, (b, db)),) = base.rational_parts()
        table = _block_table(self.block_kind, self.n, radicals, len(b) // base.size**2)
        for g, (a, da) in m.rational_parts():
            nums = [u * db - v * da for u, v in zip(a, b)] if g == 1 else a
            if not satisfies(table, nums, 1, m.field.characteristic):
                return False
        return True

    def sample(self, rng: random.Random) -> Matrix:
        """The base plus ``classes.draw_form``'s draw per generator of
        ``_block_generators``.  The base is rational, so a draw over the
        surd targets (o, u, su) is its one part M_1, over Q or Q(i)."""
        ((_, (base, bden)),) = self.base_block.rational_parts()
        gens = _block_generators(self.block_kind, self.n, len(base) // (self.n + 1) ** 2, bden)
        return draw_form(self.field, self.n + 1, base, bden, gens, rng)


@memo
def _block_table(kind: str, n: int, radicals, halves: int) -> tuple:
    """The ``constraint_table`` of the block algebra ``kind`` on forms with
    ``halves`` halves: zero last row and column and, for sl and su, zero
    trace on each half; for o, u and su the (anti)symmetry of D·d·D⁻¹,
    f_l·d_lk + f_k·d_kl = 0 on the real half and f_l·d_lk − f_k·d_kl = 0
    on the imaginary half, radicals f all 1 for None.  Homogeneous, so
    it serves GF(p) too."""
    size = n + 1
    f = radicals or (1,) * size
    rows = []
    for h in range(halves):
        rows += [({(n, k, h): 1}, 0) for k in range(size)] + [({(k, n, h): 1}, 0) for k in range(n)]
        if kind in TRACELESS:
            rows.append(({(k, k, h): 1 for k in range(n)}, 0))
    if kind in REAL_LINEAR:
        for k in range(n):
            for l in range(k, n):
                rows.append(({(l, k, 0): f[l], (k, l, 0): f[k]}, 0))
                if l > k and halves == 2:
                    rows.append(({(l, k, 1): f[l], (k, l, 1): -f[k]}, 0))
    return constraint_table(rows, size)


@memo
def _block_generators(kind: str, n: int, halves: int, scale: int = 1) -> tuple:
    """One generator ((k, x * scale), ...) per draw, in the order of drawing
    the block entry by entry: gl and sl every entry (real, then imaginary
    part); o the entries above the diagonal; u and su the imaginary
    diagonal, then the entries above it.  sl and su move the trace onto
    the last diagonal entry, whose own draw has an empty generator."""
    size = n + 1
    mm = size * size

    def at(i, j, h=0):
        return h * mm + i * size + j

    def diagonal(k, h):
        if kind not in TRACELESS:
            return {at(k, k, h): 1}
        return {} if k == n - 1 else {at(k, k, h): 1, at(n - 1, n - 1, h): -1}

    if kind not in REAL_LINEAR:
        gens = [diagonal(i, h) if i == j else {at(i, j, h): 1}
                for i in range(n) for j in range(n) for h in range(halves)]
    elif kind == "o":
        gens = [{at(i, j): 1, at(j, i): -1} for i in range(n) for j in range(i + 1, n)]
    else:  # u, su: anti-hermitian over Q(i)
        gens = [diagonal(k, 1) for k in range(n)]
        for k in range(n):
            for l in range(k + 1, n):
                gens += [{at(k, l): 1, at(l, k): -1}, {at(k, l, 1): 1, at(l, k, 1): 1}]
    return tuple(tuple((k, x * scale) for k, x in gen.items()) for gen in gens)


@memo
def block_target(spec: MatrixClassSpec) -> BlockTarget:
    """The target of the class: its base is diag(h, ..., h, c) for the
    normalisation c, with h = 0 for gl and u, c for o and -c/n for sl and
    su (NonInvertibleScalar when n is 0 in the field)."""
    kind, c = spec.block_kind, spec.normalisation()
    if kind in TRACELESS:
        head = -(c * spec.field.inv_int(spec.n))
    else:
        head = c if kind == "o" else spec.field.zero()
    base = Matrix.diagonal(spec.field, [head] * spec.n + [c])
    return BlockTarget(block_kind=kind, base_block=base, n=spec.n)


# -- the three isomorphism mechanisms -----------------------------------


def required_via(spec: MatrixClassSpec) -> str:
    """The mandatory conjugation route: only the orthonormal basis
    preserves antisymmetry / anti-hermitianity."""
    return VIA_U if spec.block_kind in REAL_LINEAR else VIA_P


def _route(spec: MatrixClassSpec, via: str | None) -> str:
    """``via``, or the class's required route for None, checked against the class."""
    via = via or required_via(spec)
    if via not in (VIA_P, VIA_U):
        raise ValueError(f"unknown via {via!r}")
    if via == VIA_P and required_via(spec) == VIA_U:
        raise ClassViolation(
            f"{spec.describe()} must be conjugated via U; "
            "P does not preserve its symmetry conditions"
        )
    if via == VIA_U and spec.field.characteristic:
        raise FieldMismatch("the orthonormal route needs characteristic zero")
    return via


@dataclass(frozen=True)
class Frame:
    """Conjugation by a basis T = W·D = R·D⁻¹ with W and R = W·D² rational
    (over GF(p) for P over GF(p)) and D = diag(√f_0, ..., √f_n), f_k
    squarefree: for P, W = R = P and D = I; for U, (W, f) is
    ``_orthonormal_frame``.  R⁻¹ is ``Matrix.inverse`` of R on both
    routes (for U it is Wᵀ, as U is orthonormal).

    The image T⁻¹·m·T is D·Z·D⁻¹ with Z = R⁻¹·m·R, so every identity
    the theorem asserts between images (heap, action, the commutator
    bracket, the inverse) holds for the Z matrices over the class field.

    R⁻¹, R and W are held as (``matrix.staircase`` encoding of the
    numerators, denominator), built once per frame: each is a staircase
    times a diagonal plus at most one entry per row and per column, or
    the transpose of one.  ``image``, ``preimage`` and the pull-back each
    run one ``matrix.sandwich_form`` per rational part (per half over
    Q(i)), in O(m²) integer operations for size m.

    Every map into or out of the block field goes through D·x·D, split by
    radical in ``_split``: with f_i·f_j = s_ij²·g_ij, g_ij squarefree, its
    part of √g keeps the entries s_ij·x_ij with g_ij = g (for each part of
    x).  ``materialise`` builds D·Z·D⁻¹ = D·(Z·D⁻²)·D, ``pull_back`` builds
    T·y·T⁻¹ = W·(D·y·D)·R⁻¹ with one ``sandwich_form`` per part, and
    ``pulls_back_into`` tests those parts for a class-field z on their
    integer forms, with no matrix built.
    """

    field: Field  # the class field
    block_field: Field  # the field of T and of the block target
    left: tuple  # R⁻¹ as (staircase encoding, denominator), rational or over GF(p)
    right: tuple  # R, likewise
    outer: tuple  # W, likewise
    radicals: tuple  # f_0..f_n
    pieces: tuple  # (g, ((k, s_ij), ...)) for k = i*(n+1) + j, g = 1 first

    def _admit(self, x: Matrix) -> Matrix:
        # x must widen into the block field and have the size of T
        if x.field is not self.field and not can_widen(x.field, self.block_field):
            raise FieldMismatch(f"cannot widen {x.field.describe()} into {self.block_field.describe()}")
        if x.size != len(self.radicals):
            raise SizeMismatch(f"{len(self.radicals)} vs {x.size}")
        return x

    def image(self, m: Matrix) -> Matrix:
        """Z = R⁻¹·m·R."""
        return sandwich(self.left, self._admit(m), self.right)

    def preimage(self, z: Matrix) -> Matrix:
        """m = R·Z·R⁻¹."""
        return sandwich(self.right, self._admit(z), self.left)

    def _split(self, x: Matrix):
        """The terms (k, c, (nums, den)) of D·x·D = sum_k √k·X_k, for x
        over the block field or the class field: the part of √h of x
        gives, for each piece g, the entries s_ij·x_ij with g_ij = g, and
        √g·√h = c·√k."""
        m = x.size
        for h, (nums, den) in x.rational_parts():
            for g, entries in self.pieces:
                c, k = surd_basis_product(g, h)
                xg = [0] * len(nums)
                for at, s in entries:
                    for a in range(at, len(nums), m * m):  # each part of the form
                        xg[a] = s * nums[a]
                yield k, c, (xg, den)

    def _pulled(self, x: Matrix):
        # the terms of T·x·T⁻¹ = W·(D·x·D)·R⁻¹
        (w, dw), (r, dr) = self.outer, self.left
        for k, c, (nums, den) in self._split(x):
            yield k, c, (sandwich_form(w, nums, r, x.size), den * dw * dr)

    def materialise(self, z: Matrix) -> Matrix:
        """D·Z·D⁻¹ = D·(Z·D⁻²)·D; entry (i, j) is z_ij·√(f_i f_j)/f_j."""
        z = (z @ Matrix.diagonal(z.field, [RAT(1, f) for f in self.radicals])).widen(self.block_field)
        return graded(self.block_field, z.size, list(self._split(z)))

    def pull_back(self, y: Matrix) -> Matrix:
        """T·y·T⁻¹ for a block-field matrix y (surd-valued for U)."""
        y = self._admit(y).widen(self.block_field)
        return graded(self.block_field, y.size, list(self._pulled(y)))

    def pulls_back_into(self, spec: MatrixClassSpec, z: Matrix) -> bool:
        """Whether T·z·T⁻¹ = Σ_g √g·M_g is a member of the class, decided
        on the parts M_g by ``classes.contains_parts``; for z over the
        class field (with an integer form) each M_g is the pulled-back
        piece g, and no matrix is built."""
        if z.field is not self.field or z.field in PART_FIELDS:
            return contains(spec, self.pull_back(z))
        return contains_parts(spec, z.field, [form for _, _, form in self._pulled(self._admit(z))])


@memo
def _conjugators(n: int, field: Field, via: str) -> Frame:
    m = n + 1
    if via == VIA_P:
        base = field if field.characteristic else QQ
        base.inv_int(m)  # NonInvertibleScalar where P is singular
        outer, radicals, block = change_of_basis(n, base), (1,) * m, field
    else:
        (outer, radicals), block = _orthonormal_frame(n), SURD_C if field.is_complex else SURD
    right = outer @ Matrix.diagonal(outer.field, radicals)
    left = right.inverse()
    by_radical: dict = {}
    for i, fi in enumerate(radicals):
        for j, fj in enumerate(radicals):
            s, g = surd_basis_product(fi, fj)
            by_radical.setdefault(g, []).append((i * m + j, s))
    # the diagonal gives g = 1, so M_1 always exists and sorts first
    pieces = tuple((g, tuple(by_radical[g])) for g in sorted(by_radical))
    forms = (x.integer_form() for x in (left, right, outer))
    left, right, outer = ((staircase(nums, m), den) for nums, den in forms)
    return Frame(field, block, left, right, outer, radicals, pieces)


def _frame(spec: MatrixClassSpec, via: str | None) -> Frame:
    return _conjugators(spec.n, spec.field, _route(spec, via))


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
    ``report.expect`` of the properties in order: the images of a, b and
    c lie in the block target; for each of bracket, heap and action, the
    result stays in the class and conjugation preserves it; the inverse
    conjugation round trip; surjectivity.  Properties are checked on the
    frame matrices Z (see ``Frame``); a failure reports the block
    matrices D·Z·D⁻¹, or a and its round trip over the block field.
    An input that is not a member is a ClassViolation.
    """
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    alpha, z = inputs["alpha"], inputs["z"]
    target = block_target(spec)
    frame = _frame(spec, via)
    za, zb, zc = (_class_image(spec, frame, x) for x in (a, b, c))
    cases = [(f"image of {name} not in block target", target.contains(img, frame.radicals))
             for name, img in (("a", za), ("b", zb), ("c", zc))]
    for op, m, zm in (
        ("bracket", bracket(COMMUTATOR, a, b), bracket(COMMUTATOR, za, zb)),
        ("heap", heap(a, b, c), heap(za, zb, zc)),
        ("action", action(alpha, a, b), action(alpha, za, zb)),
    ):
        cases += [(f"{op} stays in the class", contains(spec, m)), (f"{op} preservation", zm, frame.image(m))]
    passed, detail = expect(*cases, show=lambda x: matrix_to_wire(frame.materialise(x)))
    if not passed:
        return passed, detail
    return expect(
        ("inverse conjugation roundtrip", frame.preimage(za), a),
        ("surjectivity pullback membership", frame.pulls_back_into(spec, z)),
        show=lambda x: matrix_to_wire(x.widen(frame.block_field)),
    )


class _Route(Context):
    """The conjugation route, recorded under ``via``; the class's
    required route when none is given."""

    def resolve(self, carrier, via):
        return _route(class_of(carrier), via)

    def label(self, via):
        return (via,)

    def to_wire(self, carrier, via):
        return {"via": via}

    def from_wire(self, ce, carrier):
        return wire_field(ce, "via", str, "counterexample") if "via" in ce else None


# a point of the block target
BLOCK = POINT._replace(sample=lambda cr, rng: block_target(class_of(cr)).sample(rng))

THEOREM = CheckDef(
    "theorem-iso",
    (("a", POINT), ("b", POINT), ("c", POINT), ("alpha", SCALAR), ("z", BLOCK)),
    lambda cr, via, **inputs: evaluate_theorem_case(cr.spec, via, inputs),
    context=_Route(),
    trial_stream="theorem",
    applies=is_commutator,
    default_trials=50,
)


def verify_theorem(
    spec: MatrixClassSpec, seed: int, samples: int | None = None, via: str | None = None
) -> CheckReport:
    """Sampled verification that conjugation is an isomorphism onto the
    block target; stops at the first counterexample."""
    return run_trials(THEOREM, MatrixClassCarrier(spec), seed, samples, via)
