"""Dense square matrices over the exact scalar fields.

Matrices are immutable.  Every matrix is sum_g sqrt(g)*M_g over distinct
squarefree g, and holds that sum in one slot, as its reduced rational
parts ((g, (nums, den)), ...) (``rational_parts``): g increasing, M_1
always there and no other part zero.  Each part is an integer form, a
flat list of integers over one positive common denominator with the gcd
of all numerators and the denominator equal to 1: over Q the numerators
row by row, over Q(i) and the complex surds the real parts row by row
and then the imaginary parts, over GF(p) the residues in [0, p) over
denominator 1.  Over Q, Q(i) and GF(p) the parts are ((1, form),), and
``integer_form`` returns that form; over the surd fields they are unique
because the square roots of distinct squarefree g are linearly
independent over Q(i) (Besicovitch 1940).  Equal matrices have equal
parts, so equality compares the parts and the hash hashes them.

A matrix built from entries reads its parts when it is built, with one
reader for every field (``_read_parts``: a rational entry is the single
term (1, x), a GF(p) entry its residue); every other matrix is built
from its parts by ``_from_parts``, which makes the canonical scalar
entries with one list comprehension per field and builds no matrix per
part.  Those entries are canonical by construction, so it builds them
with the raw constructors that skip ``__init__`` and its checks:
``GaussianRational._raw`` and ``SurdComplex._raw`` (of ``_ComplexPair``),
``PrimeFieldElement._raw`` and ``SurdReal._raw``, and each rational
x/den with ``scalars.raw_rational``, which reduces by gcd(x, den) and
sets the two slots of ``Fraction`` without ``Fraction.__new__``.  Every
matrix-valued method runs on the parts: the heap, the action, the affine
commutator, the sum, the difference, the negation and the product are
integer loops with one normalisation per part of the result (``graded``:
combine each part, drop the zero parts, then build).  The product of
two forms is ``_product``: over a real form ``_real_product``, which
slices each row and each column once per product, and over a complex
form Gauss's three real products Ar·Br, Ai·Bi and (Ar + Ai)·(Br + Bi)
in place of four (Knuth, TAOCP vol. 2, §4.6.4).  ``scale`` is the
product with alpha·I.  Only ``commutator_shift`` (one fused pass) and
``sandwich`` (by the ``staircase`` encodings of two conjugators, in
O(m²)) multiply outside ``__matmul__``.  The transpose and ``dagger``
permute each form (and negate its imaginary half); ``widen`` pads each
form with a zero imaginary half from a real into a complex field; the
inverse, of P and of each conjugator's R in ``transforms``, is the
integer elimination of ``solve.row_reduce``.
Entries are read only at the boundary: by ``_read_parts``, ``entry``,
``with_entry``, ``trace`` (a scalar), ``repr`` and ``matrix_to_wire``;
``matrix_from_wire`` builds the parts from the integers that
``scalars.read_entries`` reads from the entry strings, with one
``graded`` call, and names the row, the column and the string of an
entry that does not read.  Every zero numerator of a form over Q or
Q(i) becomes one shared rational zero, not a fresh ``Fraction(0, den)``:
fractions are immutable, so values, hashes and wire strings do not
change.  The numerators are a list, never mutated, and gcd/lcm fold
over them with ``reduce``: CPython keeps freed tuples of up to 19 items
in per-size free lists, so short-lived tuples of those sizes would raise
the peak memory of a long run.
"""
from __future__ import annotations

import sys
from functools import reduce
from itertools import accumulate
from math import gcd, lcm
from operator import add, itemgetter, mul

from .errors import (
    DigitLimit,
    FieldMismatch,
    MalformedWire,
    NonInvertibleScalar,
    SingularMatrix,
    SizeMismatch,
    wire_field,
)
from .scalars import (
    PART_FIELDS,
    RAT,
    Field,
    GaussianRational,
    PrimeFieldElement,
    QI,
    QQ,
    SurdComplex,
    SurdReal,
    can_widen,
    common_denominator,
    field_from_wire,
    raw_rational,
    read_entries,
    surd_basis_product,
)


# the one rational zero that every zero numerator of a form becomes
_ZERO = RAT(0)


class Matrix:
    # _parts is read from the entries when built, or set by ``_from_parts``
    __slots__ = ("field", "size", "rows", "_parts")

    def __init__(self, field: Field, rows):
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        m = len(coerced)
        if m < 1 or any(len(row) != m for row in coerced):
            raise SizeMismatch("matrix must be square and nonempty")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "size", m)
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "_parts", _read_parts(field, coerced))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_integer_form(cls, field: Field, m: int, nums, den: int) -> Matrix:
        """The m x m matrix with entries nums / den (laid out as in
        ``integer_form``; den > 0), reduced to canonical form."""
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        return _from_parts(field, m, ((1, _reduced(field, nums, den)),))

    @classmethod
    def identity(cls, field: Field, m: int) -> Matrix:
        return cls.diagonal(field, [field.one()] * m)

    @classmethod
    def ones(cls, field: Field, m: int) -> Matrix:
        o = field.one()
        return cls(field, [[o] * m for _ in range(m)])

    @classmethod
    def diagonal(cls, field: Field, entries) -> Matrix:
        z = field.zero()
        m = len(entries)
        return cls(field, [[entries[i] if i == j else z for j in range(m)] for i in range(m)])

    # -- plumbing ------------------------------------------------------

    def _guard(self, other: Matrix) -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.field is not other.field:
            raise FieldMismatch(
                f"{self.field.describe()} vs {other.field.describe()}"
            )
        if self.size != other.size:
            raise SizeMismatch(f"{self.size} vs {other.size}")

    def integer_form(self) -> tuple[list[int], int]:
        """(numerators, denominator) of a matrix over Q, Q(i) or GF(p):
        the form of its one rational part; see the module docstring."""
        if self.field in PART_FIELDS:
            raise FieldMismatch(f"{self.field.describe()} has no integer form; see rational_parts")
        return self.rational_parts()[0][1]

    def rational_parts(self) -> tuple:
        """((g, (nums, den)), ...) with self = sum_g sqrt(g)*M_g and
        (nums, den) the reduced integer form of M_g, over Q or Q(i) for
        the surd fields: g increasing, M_1 always there and no other
        part zero; ((1, form),) over Q, Q(i) and GF(p)."""
        return self._parts

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def with_entry(self, i: int, j: int, value) -> Matrix:
        rows = [list(row) for row in self.rows]
        rows[i][j] = value
        return Matrix(self.field, rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field is not other.field or self.size != other.size:
            return False
        return self.rational_parts() == other.rational_parts()

    def __hash__(self):
        # equal matrices have equal reduced parts, as in ``==``
        return hash((self.field, *((g, tuple(nums), den) for g, (nums, den) in self.rational_parts())))

    def __repr__(self):
        return f"Matrix({self.field.describe()}, {[list(r) for r in self.rows]!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._guard(other)
        return combine(((1, self), (1, other)))

    def __sub__(self, other):
        self._guard(other)
        return combine(((1, self), (-1, other)))

    def __neg__(self):
        return combine(((-1, self),))

    def scale(self, alpha) -> Matrix:
        """alpha * self, the product of alpha·I with self."""
        return Matrix.diagonal(self.field, [alpha] * self.size) @ self

    def __matmul__(self, other):
        self._guard(other)
        return graded(self.field, self.size, list(_part_products(self, other)))

    def transpose(self) -> Matrix:
        return self._flipped(conjugate=False)

    def dagger(self) -> Matrix:
        """Conjugate transpose (plain transpose over real fields)."""
        return self._flipped(conjugate=True)

    def _flipped(self, conjugate: bool) -> Matrix:
        # each part's form transposed (each half of a complex form), with
        # the imaginary half negated for the conjugate transpose; both keep
        # the parts reduced
        m = self.size
        mm = m * m
        order = [j * m + i for i in range(m) for j in range(m)]
        negate = conjugate and self.field.is_complex
        parts = []
        for g, (nums, den) in self.rational_parts():
            nums = [nums[k + i] for k in range(0, len(nums), mm) for i in order]
            if negate:
                nums[mm:] = [-v for v in nums[mm:]]
            parts.append((g, (nums, den)))
        return _from_parts(self.field, m, tuple(parts))

    def trace(self):
        acc = self.field.zero()
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def inverse(self) -> Matrix:
        """Exact inverse over Q, GF(p) and Q(i): ``solve.row_reduce`` on
        the integer rows of [A | I].  Over Q(i), A = X + iY is inverted
        as the real block matrix [[X, -Y], [Y, X]], whose inverse is the
        block matrix of A⁻¹.  SingularMatrix names the first column
        without a pivot (over Q(i), a column of the block matrix);
        FieldMismatch over the surd fields."""
        from .solve import row_reduce  # solve builds on this module

        field, m = self.field, self.size
        if field in PART_FIELDS:
            raise FieldMismatch(f"no inverse over {field.describe()}")
        nums, den = self.integer_form()
        a = [nums[i : i + m] for i in range(0, m * m, m)]
        if field is QI:
            y = [nums[i : i + m] for i in range(m * m, 2 * m * m, m)]
            a = [r + [-v for v in s] for r, s in zip(a, y)] + [s + r for r, s in zip(a, y)]
        k = len(a)
        # den * [A | I]; elimination leaves [diag(a_i) | diag(a_i) * A⁻¹]
        rows = [{j: x for j, x in enumerate(row) if x} | {k + i: den} for i, row in enumerate(a)]
        pivots = row_reduce(rows, k, field.characteristic)
        if len(pivots) < k:
            col = next((c for c, q in enumerate(pivots) if c != q), len(pivots))
            raise SingularMatrix(f"no pivot in column {col}")
        d = reduce(lcm, (row[i] for i, row in enumerate(rows)), 1)
        # over Q(i) the left column of blocks holds the real and then the
        # imaginary part of A⁻¹
        inv = [row.get(j, 0) * (d // row[i]) for i, row in enumerate(rows) for j in range(k, k + m)]
        return Matrix.from_integer_form(field, m, inv, d)

    def widen(self, field: Field) -> Matrix:
        if field is self.field:
            return self
        if not can_widen(self.field, field):
            raise FieldMismatch(f"cannot widen {self.field.describe()} into {field.describe()}")
        # each part's form, with a zero imaginary half from a real field
        # into a complex one; the parts stay reduced
        parts = self.rational_parts()
        if field.is_complex and not self.field.is_complex:
            parts = tuple((g, (nums + [0] * len(nums), den)) for g, (nums, den) in parts)
        return _from_parts(field, self.size, parts)


def _read_parts(field: Field, rows) -> tuple:
    """The reduced parts (``Matrix.rational_parts``) of canonical entries:
    the coefficient of sqrt(g) of each entry (a rational entry is the
    single term (1, x)), each list over its least common denominator; a
    GF(p) entry gives its residue."""
    flat = [x for row in rows for x in row]
    if field.characteristic:
        return ((1, ([x.residue for x in flat], 1)),)
    if field.is_complex:
        flat = [x.re for x in flat] + [x.im for x in flat]
    if field in PART_FIELDS:
        coeffs = {1: [0] * len(flat)}  # and the radicals with a nonzero coefficient
        for k, x in enumerate(flat):
            for g, q in x.terms:
                coeffs.setdefault(g, [0] * len(flat))[k] = q
    else:
        coeffs = {1: flat}
    return tuple((g, common_denominator(v)) for g, v in sorted(coeffs.items()))


def _reduced(field: Field, nums, den: int) -> tuple[list[int], int]:
    # nums / den (den > 0) as a reduced form: residues over 1 for GF(p),
    # else divided by the gcd of the numerators and the denominator
    if field.characteristic:
        p = field.p
        if not den % p:
            raise NonInvertibleScalar(f"the denominator {den} is not invertible in {field.describe()}")
        inv = pow(den, -1, p)
        return [x * inv % p for x in nums], 1
    g = reduce(gcd, nums, den)
    return ([x // g for x in nums] if g != 1 else list(nums)), den // g


def _from_parts(field: Field, m: int, parts: tuple) -> Matrix:
    """The m x m matrix over ``field`` of the reduced parts ``parts`` (as
    ``Matrix.rational_parts`` gives them), its entries made from the
    numerators with one list comprehension per field."""
    if field in PART_FIELDS:
        keys, dens = [g for g, _ in parts], [d for _, (_, d) in parts]
        flat = [
            SurdReal._raw([(g, raw_rational(x, d)) for g, d, x in zip(keys, dens, xs) if x])
            for xs in zip(*[nums for _, (nums, _) in parts])
        ]
        if field.is_complex:
            raw = SurdComplex._raw
            flat = [raw(x, y) for x, y in zip(flat, flat[m * m :])]
    else:
        ((_, (nums, den)),) = parts
        if field.characteristic:
            p, raw = field.p, PrimeFieldElement._raw
            flat = [raw(x, p) for x in nums]
        elif field is QQ:
            flat = [raw_rational(x, den) if x else _ZERO for x in nums]
        else:
            # real parts first; zip stops after the m*m of them
            raw = GaussianRational._raw
            flat = [
                raw(raw_rational(x, den) if x else _ZERO, raw_rational(y, den) if y else _ZERO)
                for x, y in zip(nums, nums[m * m :])
            ]
    out = object.__new__(Matrix)
    object.__setattr__(out, "field", field)
    object.__setattr__(out, "size", m)
    object.__setattr__(out, "rows", tuple(tuple(flat[i : i + m]) for i in range(0, m * m, m)))
    object.__setattr__(out, "_parts", parts)
    return out


def combine(terms, q: int = 1) -> Matrix:
    """(c_1*M_1 + ... + c_k*M_k) / q for integer c_i, q > 0 and matrices
    M_i over the same field, on the forms of their parts."""
    first = terms[0][1]
    return graded(first.field, first.size, [(g, c, form) for c, x in terms for g, form in x.rational_parts()], q)


def _combine_forms(field: Field, terms, q: int = 1) -> tuple[list[int], int]:
    # the reduced form of (sum of c * nums / d over the terms
    # (k, c, (nums, d))) / q
    den = lcm(*[d for _, _, (_, d) in terms])
    acc = None
    for _, c, (nums, d) in terms:
        f = c * (den // d)
        if acc is None:
            acc = nums if f == 1 else [f * x for x in nums]
        else:
            acc = [y + f * x for y, x in zip(acc, nums)]
    return _reduced(field, acc, den * q)


def graded(field: Field, m: int, terms, q: int = 1) -> Matrix:
    """The matrix sum_k sqrt(k)*M_k / q, M_k the sum of c * nums / d over
    the terms (k, c, (nums, d)) of part k (k = 1 among them; the only k
    over a field without parts): combine each part, drop the zero parts
    other than M_1, then build."""
    if field not in PART_FIELDS:
        return _from_parts(field, m, ((1, _combine_forms(field, terms, q)),))
    by_part: dict = {}
    for term in terms:
        by_part.setdefault(term[0], []).append(term)
    parts = ((k, _combine_forms(field, by_part[k], q)) for k in sorted(by_part))
    return _from_parts(field, m, tuple((k, form) for k, form in parts if k == 1 or any(form[0])))


def _part_products(a: Matrix, b: Matrix, sign: int = 1):
    """The terms (k, sign * s, form of A_g·B_h) of a·b for every pair of
    rational parts, sqrt(g)*sqrt(h) = s*sqrt(k)."""
    m, complex_ = a.size, a.field.is_complex
    for g, (nx, dx) in a.rational_parts():
        for h, (ny, dy) in b.rational_parts():
            s, k = surd_basis_product(g, h)
            yield k, sign * s, (_product(complex_, m, nx, ny), dx * dy)


def _product(complex_: bool, m: int, a, b) -> list[int]:
    """Numerators of the product of two integer forms (over the product
    of their denominators), each with a real and an imaginary half for
    ``complex_``."""
    if complex_:
        # Gauss's three products: (ar + i ai)(br + i bi) has real part
        # ar·br - ai·bi and imaginary part (ar + ai)(br + bi) - ar·br - ai·bi
        mm = m * m
        ar, ai, br, bi = a[:mm], a[mm:], b[:mm], b[mm:]
        rr, ii = _real_product(m, ar, br), _real_product(m, ai, bi)
        ss = _real_product(m, list(map(add, ar, ai)), list(map(add, br, bi)))
        return [x - y for x, y in zip(rr, ii)] + [z - x - y for x, y, z in zip(rr, ii, ss)]
    return _real_product(m, a, b)


def _real_product(m: int, a, b) -> list[int]:
    # the m x m integer matrix product of two flat row-major lists; each
    # row and each column sliced once
    cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, row, col)) for row in [a[i : i + m] for i in range(0, m * m, m)] for col in cols]


def staircase(nums, m: int) -> tuple:
    """The encoding of an m x m integer matrix C, given by its row-major
    numerators, for ``sandwich_form``: C = S·diag(c) + E or its transpose,
    where column j of S is ones on rows [0, r_j) and zeros below and E
    has at most one nonzero per row and per column.  The encoding is the
    pair of ``_pass`` programs for C as the left and as the right factor
    of a product; ValueError when ``_staircase_fit`` finds no such form
    in either orientation."""
    rows = [nums[i : i + m] for i in range(0, m * m, m)]
    for transposed, cols in ((False, list(zip(*rows))), (True, rows)):
        fit = _staircase_fit(cols)
        if fit is not None:
            # C on the left of X is Cᵀ on the right of Xᵀ
            return _pass_program(*fit, not transposed), _pass_program(*fit, transposed)
    raise ValueError("not a staircase times a diagonal plus a partial permutation")


def _staircase_fit(cols):
    """(r, c, E) with B = S·diag(c) + E for the columns of B, E as a list of
    entries (i, j, e); None unless E has at most one entry per row and
    per column.  Each column takes the run (r_j, c_j) that leaves it the
    fewest entries of E; with at most one, c_j is its first or second
    entry, and r_j = 0 for a column of at most one nonzero."""
    runs, coeffs, extras = [], [], []
    for j, col in enumerate(cols):

        def off(r, c):
            return [(i, j, v - c if i < r else v) for i, v in enumerate(col) if v != (c if i < r else 0)]

        runs_of = [(0, 0)] + [(r, c) for c in dict.fromkeys(col[:2]) if c for r in range(1, len(col) + 1)]
        r, c = min(runs_of, key=lambda rc: len(off(*rc)))
        extra = off(r, c)
        if len(extra) > 1:
            return None
        runs.append(r)
        coeffs.append(c)
        extras += extra
    if len({i for i, _, _ in extras}) < len(extras):
        return None
    return runs, coeffs, extras


def _pass_program(runs, coeffs, extras, transposed: bool) -> tuple:
    """The program (perm, scale, steps) by which ``_pass`` multiplies by
    B = S·diag(c) + E on the right, or by Bᵀ with ``transposed``.  Entry
    j of row i of X·B is c_j·(x_i0 + ... + x_i(r_j - 1)), a prefix sum of
    the row, plus e·x_ik for the entry e of E at (k, j).  Entry j of row
    i of X·Bᵀ is the sum of c_k·x_ik over the k with r_k > j: a prefix
    sum of the row reordered by decreasing run length (``perm``) and
    scaled by c (``scale``), plus e·x_ik for the entry of E at (j, k).
    A step (end, start, f, at, e) is one output entry,
    f·(p[end] - p[start]) + e·x[at] for the prefix sums p of the whole
    reordered list; the steps run column by column, so ``_pass`` returns
    the transpose of the product."""
    m = len(runs)
    if transposed:
        order = sorted(range(m), key=lambda k: -runs[k])
        perm = None if order == list(range(m)) else itemgetter(*[i * m + k for i in range(m) for k in order])
        scale = tuple(coeffs[k] for k in order) * m
        ends, factors = [sum(r > j for r in runs) for j in range(m)], [1] * m
        extra = {i: (k, e) for i, k, e in extras}
    else:
        perm, scale = None, ()
        ends, factors = runs, coeffs
        extra = {j: (k, e) for k, j, e in extras}
    steps = []
    for j in range(m):
        k, e = extra.get(j, (0, 0))
        steps += [(i + ends[j], i, factors[j], i + k, e) for i in range(0, m * m, m)]
    return perm, scale if any(c != 1 for c in scale) else None, tuple(steps)


def _pass(program, x) -> list[int]:
    """(X·C)ᵀ, row-major, for the row-major numerators x of an m x m
    matrix X and the ``_pass_program`` of C: one prefix sum over the
    (reordered, scaled) list and O(1) work per entry."""
    perm, scale, steps = program
    src = x if perm is None else perm(x)
    if scale is not None:
        src = map(mul, scale, src)
    p = list(accumulate(src, initial=0))
    return [f * (p[end] - p[start]) + e * x[at] for end, start, f, at, e in steps]


def sandwich_form(left, nums, right, m: int) -> list[int]:
    """Numerators of L·X·R for the ``staircase`` encodings of the
    numerators of two real integer forms L and R (over Q, or over the
    GF(p) of X) and the numerators of a form X; over Q(i) each half of X
    is multiplied on its own.  Two ``_pass`` runs per half, O(m²) each:
    the first gives (X·R)ᵀ, the second (X·R)ᵀ·Lᵀ = (L·X·R)ᵀ transposed."""
    mm = m * m
    out: list[int] = []
    for k in range(0, len(nums), mm):
        out += _pass(left[0], _pass(right[1], nums[k : k + mm]))
    return out


def sandwich(left, x: Matrix, right) -> Matrix:
    """L·x·R for L and R given as (``staircase`` encoding of the numerators,
    denominator) of real integer forms as in ``sandwich_form``: O(m²)
    integer work and one normalisation per rational part, with no
    intermediate matrix."""
    (a, da), (b, db), m = left, right, x.size
    return graded(x.field, m, [(g, 1, (sandwich_form(a, nums, b, m), da * d * db)) for g, (nums, d) in x.rational_parts()])


def commutator_shift(a: Matrix, b: Matrix) -> Matrix:
    """a@b - b@a + b, with one normalisation per part of the result.
    Outside the surd fields this is one fused integer pass (numerators
    of ab - ba + b over da*db), faster than ``graded`` over the three
    terms."""
    a._guard(b)
    if a.field in PART_FIELDS:
        b_parts = [(g, 1, form) for g, form in b.rational_parts()]
        return graded(a.field, a.size, [*_part_products(a, b), *_part_products(b, a, -1), *b_parts])
    (x, da), (y, db) = a.integer_form(), b.integer_form()
    m, complex_ = a.size, a.field.is_complex
    ab, ba = _product(complex_, m, x, y), _product(complex_, m, y, x)
    return Matrix.from_integer_form(a.field, m, [p - q + da * v for p, q, v in zip(ab, ba, y)], da * db)


def common_field(a: Matrix, b: Matrix) -> tuple[Matrix, Matrix]:
    """Widen whichever operand sits in the smaller field."""
    if a.field is b.field:
        return a, b
    if can_widen(a.field, b.field):
        return a.widen(b.field), b
    if can_widen(b.field, a.field):
        return a, b.widen(a.field)
    raise FieldMismatch(f"{a.field.describe()} vs {b.field.describe()}")


# -- JSON wire format -------------------------------------------------


def matrix_to_wire(m: Matrix) -> dict:
    """{"field": tag, ["p": prime,] "n": size, "entries": [[str, ...], ...]};
    DigitLimit when an entry holds an integer of more digits than the
    interpreter writes as text (``sys.get_int_max_str_digits()``)."""
    doc: dict = {"field": m.field.tag}
    if m.field.tag == "GF":
        doc["p"] = m.field.p
    doc["n"] = m.size
    try:
        doc["entries"] = [[m.field.format(x) for x in row] for row in m.rows]
    except ValueError:
        i, j, _, _ = _first_refused(m.rows, m.field.format, ValueError)
        raise DigitLimit(
            f"entry (row {i}, column {j}) holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, the most the interpreter writes as text"
        ) from None
    return doc


def _first_refused(rows, call, errors):
    # (row, column, item, error) of the first item on which ``call``
    # raises one of ``errors``
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            try:
                call(x)
            except errors as exc:
                return i, j, x, exc


def matrix_from_wire(doc: dict) -> Matrix:
    """The matrix of a wire document: its entries through
    ``read_entries``, then one ``graded`` call.  An entry that does not
    read raises the reader's error type, its message led by the row, the
    column and the entry."""
    if not isinstance(doc, dict):
        raise MalformedWire("a matrix document must be a JSON object")
    field = field_from_wire(doc, "matrix")
    n = wire_field(doc, "n", int, "matrix")
    entries = wire_field(doc, "entries", None, "matrix")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise MalformedWire("entries must be a list of rows")
    if len(entries) != n:
        raise SizeMismatch("entry rows do not match declared size")
    try:
        parts, den = read_entries(field, [s for row in entries for s in row])
    except (ValueError, ZeroDivisionError):
        i, j, s, exc = _first_refused(entries, lambda s: read_entries(field, [s]), (ValueError, ZeroDivisionError))
        raise type(exc)(f"entry (row {i}, column {j}) {s!r}: {exc}") from None
    if n < 1 or any(len(row) != n for row in entries):
        raise SizeMismatch("matrix must be square and nonempty")
    return graded(field, n, [(g, 1, (nums, den)) for g, nums in parts.items()])
