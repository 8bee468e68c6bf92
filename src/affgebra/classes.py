"""The normalised affine matrix classes.

Six families of square matrices of size n+1, each an affine subspace of
the full matrix space, closed under the heap, the scalar action and the
commutator-style bracket:

* ``gna``  -- every row and column sums to 1,
* ``sna``  -- gna plus zero trace,
* ``ona``  -- gna plus unit diagonal and antisymmetric off-diagonal,
* ``una``  -- anti-hermitian with all row/column sums equal to i,
* ``suna`` -- una plus zero trace,
* ``ga_c`` -- row/column sums equal to an arbitrary fixed scalar c.

Each class is written once, as the linear equations of
``constraint_system`` on the halves (i, j, h) of the entries.  The
solver parameterises the class from them, and sampling draws small
rational coefficients of its directions as integers straight into the
integer form (``draw_form``).  Membership tests the same equations,
compiled once into a ``solve.constraint_table``, on the integer form of
a matrix over Q, Q(i) and GF(p), and of each part over the surd fields.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum

from .errors import FieldMismatch, MalformedWire, SizeMismatch, wire_field
from .matrix import Matrix
from .scalars import (
    PART_FIELDS,
    Field,
    QI,
    QQ,
    can_widen,
    field_from_wire,
    memo,
)
from .solve import AffineSubspace, constraint_table, satisfies, solve_affine_system


class ClassKind(str, Enum):
    GNA = "gna"
    SNA = "sna"
    ONA = "ona"
    UNA = "una"
    SUNA = "suna"
    GA_C = "ga_c"


# The paper's correspondence: the classical Lie algebra the block form of
# each class lands in.  Every other fact of a class follows from it.
BLOCK_KIND = {
    ClassKind.GNA: "gl",
    ClassKind.GA_C: "gl",
    ClassKind.SNA: "sl",
    ClassKind.ONA: "o",
    ClassKind.UNA: "u",
    ClassKind.SUNA: "su",
}
# (anti)symmetry is only real-linear: action scalars over Q, route U
REAL_LINEAR = frozenset({"o", "u", "su"})
# anti-hermitian: fields Q(i) and surd_c, normalisation i, CLI field Qi
COMPLEX = frozenset({"u", "su"})
# zero trace
TRACELESS = frozenset({"sl", "su"})

# The largest block size n of a class: above every size the tests, the
# acceptance criteria and the benchmark use (n <= 9), and small enough
# that solving suna(MAX_N), the largest system (una(MAX_N) plus its trace
# equation), stays well under a second: 0.09 s on sparse rows against
# 0.29 s on dense ones, and una(MAX_N) 0.09 s against 0.33 s (first
# solve in a fresh process, Python 3.11.7, 2 vCPUs).  A fixed bound,
# not an option.
MAX_N = 16


def check_block_size(n) -> None:
    """TypeError unless n is an int, ValueError unless 1 <= n <= MAX_N."""
    if type(n) is not int:
        raise TypeError(f"block size n must be an int, got {type(n).__name__}")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"block size n must be between 1 and {MAX_N}, got {n}")


@dataclass(frozen=True)
class MatrixClassSpec:
    kind: ClassKind
    n: int
    field: Field
    c: object = None

    def __post_init__(self):
        kind = ClassKind(self.kind)
        object.__setattr__(self, "kind", kind)
        check_block_size(self.n)
        if not isinstance(self.field, Field):
            raise TypeError(f"field must be a Field, got {type(self.field).__name__} {self.field!r}")
        if self.block_kind in REAL_LINEAR:
            # the class field, or its surd field
            complex_ = self.block_kind in COMPLEX
            if PART_FIELDS.get(self.field, self.field) is not (QI if complex_ else QQ):
                raise FieldMismatch(f"{kind.value} needs a {'complex' if complex_ else 'real'} field")
        elif self.field in PART_FIELDS:
            raise FieldMismatch(f"{kind.value} is not defined over surd fields here")
        if kind is ClassKind.GA_C:
            if self.c is None:
                raise ValueError("ga_c needs the normalisation scalar c")
            object.__setattr__(self, "c", self.field.coerce(self.c))
        elif self.c is not None:
            raise ValueError(f"{kind.value} does not take a scalar c")
        # the hash the dataclass would compute, once: every cached
        # per-class lookup hashes the spec, and hashing c is not cheap
        object.__setattr__(self, "_hash", hash((self.kind, self.n, self.field, self.c)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def ambient(self) -> int:
        return self.n + 1

    @property
    def block_kind(self) -> str:
        """The block algebra of the class: gl, sl, o, u or su."""
        return BLOCK_KIND[self.kind]

    @property
    def scalar_field(self) -> Field:
        """Field of the affine action.  The antisymmetry / anti-hermitian
        conditions are only real-linear, so those classes are affine
        spaces over the rationals even though entries may be complex."""
        return QQ if self.block_kind in REAL_LINEAR else self.field

    def normalisation(self):
        """The common value of all row and column sums."""
        if self.c is not None:
            return self.c
        return self.field.imaginary_unit() if self.block_kind in COMPLEX else self.field.one()

    def describe(self) -> str:
        inner = f"{self.n}, {self.field.describe()}"
        if self.c is not None:
            inner += f", c={self.field.format(self.c)}"
        return f"{self.kind.value}({inner})"


def contains(spec: MatrixClassSpec, m: Matrix) -> bool:
    """Exact membership test.  Accepts matrices over any field the spec
    field widens into, so conjugated images can be tested too."""
    if m.size != spec.ambient:
        raise SizeMismatch(f"expected size {spec.ambient}, got {m.size}")
    if m.field is not spec.field and not can_widen(spec.field, m.field):
        raise FieldMismatch(
            f"{spec.describe()} cannot contain a matrix over {m.field.describe()}"
        )
    return contains_parts(spec, PART_FIELDS.get(m.field, m.field), [form for _, form in m.rational_parts()])


def contains_parts(spec: MatrixClassSpec, field: Field, forms) -> bool:
    """``contains`` for the matrix sum_g sqrt(g)*M_g of the class's size
    from the integer forms (nums, den) of its parts M_g over ``field``,
    M_1 first; the forms need not be reduced.  The conditions are
    rational-linear, affine only in their constants, and the sqrt(g) are
    linearly independent over Q(i) (Besicovitch 1940): they hold exactly
    when M_1 and every M_1 + M_g are members, each tested by one
    ``satisfies`` call on the class's constraint table over ``field``."""
    table, p = _membership_table(spec, field), field.characteristic
    (one, d1), *rest = forms
    if not satisfies(table, one, d1, p):
        return False
    # M_1 + M_g over d1·d
    return all(satisfies(table, [x * d + y * d1 for x, y in zip(one, nums)], d1 * d, p) for nums, d in rest)


@memo
def _membership_table(spec: MatrixClassSpec, field: Field) -> tuple:
    """The equations of ``constraint_system``, the ones the solver
    solves, compiled for integer forms over ``field``; a spec over a
    surd field uses the same class over its part field, and a real
    class over Q(i) puts each on the imaginary half too, constant 0."""
    if spec.field in PART_FIELDS:
        spec = replace(spec, field=PART_FIELDS[spec.field])
    constraints = constraint_system(spec)
    if field is QI and spec.field is QQ:
        constraints += [({(i, j, 1): x for (i, j, _), x in coeffs.items()}, 0) for coeffs, _ in constraints]
    return constraint_table(constraints, spec.ambient)


def base_point(spec: MatrixClassSpec) -> Matrix:
    """A distinguished member of the class for its normalisation c: I for
    o, c·(J − I)/n for the traceless classes and c·J/(n+1) otherwise, J
    all ones (NonInvertibleScalar when the required 1/n or 1/(n+1) does
    not exist in the field)."""
    field, m, c = spec.field, spec.ambient, spec.normalisation()
    if spec.block_kind == "o":
        return Matrix.identity(field, m)
    J = Matrix.ones(field, m)
    if spec.block_kind in TRACELESS:
        return (J - Matrix.identity(field, m)).scale(c * field.inv_int(spec.n))
    return J.scale(c * field.inv_int(m))


def constraint_system(spec: MatrixClassSpec) -> list:
    """The defining equations for ``solve_affine_system``, on the halves
    (i, j, h) of the entries: each half's row and column sums are that
    half of c; sl and su have zero trace on each half (su's real one is
    zero already); o, u and su are antisymmetric on the real half, with
    diagonal 1 for o, and over Q(i) symmetric on the imaginary half."""
    if spec.field in PART_FIELDS:
        raise FieldMismatch(
            f"{spec.describe()} is parameterised over Q / Qi only; "
            "surd fields are conjugation targets"
        )
    m, kind, c = spec.ambient, spec.block_kind, spec.normalisation()
    c_halves = (c.re, c.im) if spec.field is QI else (c.residue if spec.field.characteristic else c,)
    constraints = []
    for h, ch in enumerate(c_halves):
        for l in range(m):
            constraints.append(({(l, k, h): 1 for k in range(m)}, ch))
            constraints.append(({(k, l, h): 1 for k in range(m)}, ch))
        if kind in TRACELESS and (h or kind not in COMPLEX):
            constraints.append(({(k, k, h): 1 for k in range(m)}, 0))
    if kind in REAL_LINEAR:
        for k in range(m):
            constraints.append(({(k, k, 0): 1}, 1 if kind == "o" else 0))
            for l in range(k + 1, m):
                constraints.append(({(k, l, 0): 1, (l, k, 0): 1}, 0))
                if len(c_halves) == 2:
                    constraints.append(({(k, l, 1): 1, (l, k, 1): -1}, 0))
    return constraints


def _solve(spec: MatrixClassSpec) -> AffineSubspace:
    # surface the characteristic obstruction before solving: sampling and
    # dimensions are only offered where the base point exists
    base_point(spec)
    return solve_affine_system(constraint_system(spec), spec.ambient, spec.field)


@memo
def subspace(spec: MatrixClassSpec) -> AffineSubspace:
    """The class as a particular solution plus direction matrices (built
    from the solver's integer forms on first read; v and i·v for each
    complex direction v).  Sampling and ``dimension`` do not go through
    this cache."""
    return _solve(spec)


def dimension(spec: MatrixClassSpec) -> int:
    """Dimension of the direction space over the action field (real
    dimension for una and suna)."""
    return _sampling_data(spec)[0]


def derive_rng(*parts) -> random.Random:
    """Deterministic RNG from any mix of ints/strings (stable across
    runs and platforms; string seeding hashes bytes, not PYTHONHASHSEED)."""
    return random.Random("\x1f".join(str(p) for p in parts))


@memo
def _sampling_data(spec: MatrixClassSpec):
    """(dimension, den, part, gens): the solver's particular solution
    and direction generators, flat integer vectors over its one common
    denominator laid out as in ``Matrix.integer_form``, so each sample
    is a single integer accumulation pass.  With complex coefficients
    the solver gives v and i·v, one per part of v's coefficient, and
    ``dimension`` counts them once.  Only these integers are kept."""
    space = _solve(spec)
    gens = tuple(tuple((k, x) for k, x in enumerate(v) if x) for v in space.direction_forms)
    return space.dimension // (2 if spec.scalar_field is QI else 1), space.den, space.particular_form, gens


def draw_element(spec: MatrixClassSpec, rng: random.Random) -> Matrix:
    """Particular solution plus a random small-rational combination of
    the direction space, drawn as integers (``draw_form``)."""
    _, den, part, gens = _sampling_data(spec)
    return draw_form(spec.field, spec.ambient, part, den, gens, rng)


def draw_form(field: Field, m: int, part, den: int, gens, rng: random.Random) -> Matrix:
    """The form part/den plus one drawn coefficient times each generator
    ((k, x), ...), x over den, as an m x m matrix over ``field``: the
    coefficients are ``field.draw`` (residues over 1 for GF(p), else
    rationals over SAMPLE_DEN), drawn as ``Field.sample`` draws (an empty
    generator still takes its draw)."""
    ints, seen = field.draw(rng, len(gens))
    acc = [x * seen for x in part]
    for f, gen in zip(ints, gens):
        if f:
            for k, v in gen:
                acc[k] += f * v
    return Matrix.from_integer_form(field, m, acc, den * seen)


def sample(spec: MatrixClassSpec, seed: int, index: int) -> Matrix:
    """Deterministic class member number ``index`` of stream ``seed``."""
    return draw_element(spec, derive_rng("sample", spec.describe(), seed, index))


# -- class spec wire form ----------------------------------------------


def spec_to_wire(spec: MatrixClassSpec) -> dict:
    doc: dict = {"kind": spec.kind.value, "n": spec.n, "field": spec.field.tag}
    if spec.field.tag == "GF":
        doc["p"] = spec.field.p
    if spec.c is not None:
        doc["c"] = spec.field.format(spec.c)
    return doc


def spec_from_wire(doc: dict) -> MatrixClassSpec:
    if not isinstance(doc, dict):
        raise MalformedWire(f"a class must be a JSON object, got {type(doc).__name__}")
    kind, n = wire_field(doc, "kind", str, "class"), wire_field(doc, "n", int, "class")
    field = field_from_wire(doc, "class")
    return MatrixClassSpec(
        kind=ClassKind(kind),
        n=n,
        field=field,
        c=field.parse(doc["c"]) if "c" in doc else None,
    )
