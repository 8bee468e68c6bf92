"""Dense square matrices over the exact scalar fields.

Matrices are immutable.  Over Q, Q(i) and GF(p) every matrix also has
one canonical integer form, built at most once and cached in a slot: a
flat list of integers over one positive common denominator.  Over Q the
list holds the numerators row by row, over Q(i) the real parts row by
row and then the imaginary parts, with the gcd of all numerators and the
denominator equal to 1; over GF(p) it holds the residues in [0, p) over
denominator 1.  A matrix over a surd field is sum_g sqrt(g)*M_g, with
rational parts M_g over Q or Q(i) (``rational_parts``), unique because
the square roots of distinct squarefree g are linearly independent over
Q(i) (Besicovitch 1940).  Equal matrices have equal forms (parts), so
equality is one list compare per part and the hash hashes the form
(parts).  Every matrix-valued method runs on the forms, on each part
over the surd fields: the heap, the action, the affine commutator, the
sum, the difference, the negation and the product are integer loops
with one normalisation per result (``combine``, ``commutator_shift``,
``@``); ``sandwich`` multiplies by two conjugators of the shape
staircase times diagonal plus a partial permutation, through their
``staircase`` encodings, in O(m²) with one normalisation;
``scale`` is the product with alpha*I; the
transpose and ``dagger`` permute the form (and negate its imaginary
half); ``widen`` rebuilds the form (with a zero imaginary half from Q
into Q(i)); the inverse is the integer elimination of
``solve.row_reduce``.  Their results carry the form and still hold
canonical scalar entries.  Entries are read only at the boundary: by
``integer_form`` and ``rational_parts`` of a matrix built from entries,
by ``graded`` (which assembles surd entries from the parts), ``entry``,
``with_entry``, ``trace`` (a scalar), ``repr`` and ``matrix_to_wire``;
``matrix_from_wire`` builds the form (parts) from the integers that
``scalars.read_entries`` reads from the entry strings, with one
``graded`` call.  Every zero numerator of a form over Q or Q(i)
becomes one shared rational zero, not a fresh ``Fraction(0, den)``:
fractions are immutable, so values, hashes and wire strings do not
change.  The numerators are a list, never mutated, and gcd/lcm fold
over them with ``reduce``: CPython keeps freed tuples of up to 19 items
in per-size free lists, so short-lived tuples of those sizes would
raise the peak memory of a long run.
"""
from __future__ import annotations

from functools import reduce
from itertools import accumulate
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import FieldMismatch, MalformedWire, SingularMatrix, SizeMismatch, wire_field
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
    field_by_tag,
    read_entries,
    surd_basis_product,
)


# the one rational zero that every zero numerator of a form becomes
_ZERO = RAT(0)


class Matrix:
    # _parts is set only on surd matrices, by ``rational_parts``
    __slots__ = ("field", "size", "rows", "_form", "_parts")

    def __init__(self, field: Field, rows):
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        m = len(coerced)
        if m < 1 or any(len(row) != m for row in coerced):
            raise SizeMismatch("matrix must be square and nonempty")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "size", m)
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "_form", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _wrap(cls, field: Field, rows: tuple) -> Matrix:
        # internal: rows already canonical field elements, square
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "size", len(rows))
        object.__setattr__(out, "rows", rows)
        object.__setattr__(out, "_form", None)
        return out

    @classmethod
    def from_integer_form(cls, field: Field, m: int, nums, den: int) -> Matrix:
        """The m x m matrix with entries nums / den (laid out as in
        ``integer_form``; den > 0), reduced to canonical form."""
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        if field.characteristic:
            # residues over denominator 1: divide by den modulo p
            p = field.p
            inv = pow(den, -1, p)
            nums = [x * inv % p for x in nums]
            den = 1
            flat = [PrimeFieldElement(x, p) for x in nums]
        else:
            g = reduce(gcd, nums, den)
            nums = [x // g for x in nums] if g != 1 else list(nums)
            den //= g
            if field is QQ:
                flat = [RAT(x, den) if x else _ZERO for x in nums]
            else:
                # real parts first; zip stops after the m*m of them
                flat = [
                    GaussianRational(RAT(x, den) if x else _ZERO, RAT(y, den) if y else _ZERO)
                    for x, y in zip(nums, nums[m * m :])
                ]
        out = cls._wrap(field, tuple(tuple(flat[i : i + m]) for i in range(0, m * m, m)))
        object.__setattr__(out, "_form", (nums, den))
        return out

    @classmethod
    def zeros(cls, field: Field, m: int) -> Matrix:
        z = field.zero()
        return cls(field, [[z] * m for _ in range(m)])

    @classmethod
    def identity(cls, field: Field, m: int) -> Matrix:
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(m)] for i in range(m)])

    @classmethod
    def ones(cls, field: Field, m: int) -> Matrix:
        o = field.one()
        return cls(field, [[o] * m for _ in range(m)])

    @classmethod
    def diagonal(cls, field: Field, entries) -> Matrix:
        entries = [field.coerce(x) for x in entries]
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
        """(numerators, denominator) of a matrix over Q, Q(i) or GF(p);
        see the module docstring."""
        form = self._form
        if form is None:
            if self.field in PART_FIELDS:
                raise FieldMismatch(f"{self.field.describe()} has no integer form; see rational_parts")
            flat = [x for row in self.rows for x in row]
            if self.field.characteristic:
                form = [x.residue for x in flat], 1
            else:
                if self.field is QI:
                    flat = [x.re for x in flat] + [x.im for x in flat]
                # over the least common denominator, so the form is reduced
                form = common_denominator(flat)
            object.__setattr__(self, "_form", form)
        return form

    def rational_parts(self) -> tuple:
        """((g, M_g), ...) with self = sum_g sqrt(g)*M_g, g increasing, M_g over
        ``PART_FIELDS[field]``, M_1 always there and no other M_g zero;
        ((1, self),) over Q, Q(i) and GF(p)."""
        part_field = PART_FIELDS.get(self.field)
        if part_field is None:
            return ((1, self),)
        if hasattr(self, "_parts"):
            return self._parts
        flat = [x for row in self.rows for x in row]
        if part_field is QI:
            flat = [x.re for x in flat] + [x.im for x in flat]
        coeffs = {1: [0] * len(flat)}  # and the radicals with a nonzero coefficient
        for k, x in enumerate(flat):
            for g, q in x.terms:
                coeffs.setdefault(g, [0] * len(flat))[k] = q
        parts = tuple((g, Matrix.from_integer_form(part_field, self.size, *common_denominator(v)))
                      for g, v in sorted(coeffs.items()))
        object.__setattr__(self, "_parts", parts)
        return parts

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def with_entry(self, i: int, j: int, value) -> Matrix:
        value = self.field.coerce(value)
        rows = [list(row) for row in self.rows]
        rows[i][j] = value
        return Matrix(self.field, rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field is not other.field or self.size != other.size:
            return False
        if self.field in PART_FIELDS:
            return self.rational_parts() == other.rational_parts()
        return self.integer_form() == other.integer_form()

    def __hash__(self):
        # equal matrices have equal reduced forms (parts), as in ``==``
        if self.field in PART_FIELDS:
            return hash((self.field, self.rational_parts()))
        nums, den = self.integer_form()
        return hash((self.field, tuple(nums), den))

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
        return Matrix.diagonal(self.field, [alpha] * self.size) @ self

    def __matmul__(self, other):
        self._guard(other)
        if self.field in PART_FIELDS:
            return graded(self.field, self.size, _part_products(self, other))
        (a, da), (b, db) = self.integer_form(), other.integer_form()
        nums = _product(self.field, self.size, a, b)
        return Matrix.from_integer_form(self.field, self.size, nums, da * db)

    def transpose(self) -> Matrix:
        return self._flipped(conjugate=False)

    def dagger(self) -> Matrix:
        """Conjugate transpose (plain transpose over real fields)."""
        return self._flipped(conjugate=True)

    def _flipped(self, conjugate: bool) -> Matrix:
        # each part's form transposed (over Q(i) each half), with the
        # imaginary half negated for the conjugate transpose
        m = self.size
        mm = m * m
        order = [j * m + i for i in range(m) for j in range(m)]
        terms = []
        for g, x in self.rational_parts():
            nums, den = x.integer_form()
            nums = [nums[k + i] for k in range(0, len(nums), mm) for i in order]
            if conjugate and x.field is QI:
                nums[mm:] = [-v for v in nums[mm:]]
            terms.append((g, 1, (nums, den)))
        return graded(self.field, m, terms)

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
        # each part's form, with a zero imaginary half from Q into Q(i)
        pad = PART_FIELDS.get(field, field) is QI
        terms = []
        for g, x in self.rational_parts():
            nums, den = x.integer_form()
            if pad and x.field is QQ:
                nums = nums + [0] * len(nums)
            terms.append((g, 1, (nums, den)))
        return graded(field, self.size, terms)


def combine(terms, q: int = 1) -> Matrix:
    """(c_1*M_1 + ... + c_k*M_k) / q for integer c_i, q > 0 and matrices
    M_i over the same field, on the forms (of each rational part)."""
    first = terms[0][1]
    if first.field in PART_FIELDS:
        parts = [(g, c, x.integer_form()) for c, y in terms for g, x in y.rational_parts()]
        return graded(first.field, first.size, parts, q)
    return _combine_forms(first.field, first.size, [(1, c, x.integer_form()) for c, x in terms], q)


def _combine_forms(field: Field, m: int, terms, q: int = 1) -> Matrix:
    # (sum of c * nums / d over the terms (k, c, (nums, d))) / q,
    # normalised once
    den = lcm(*[d for _, _, (_, d) in terms])
    acc = None
    for _, c, (nums, d) in terms:
        f = c * (den // d)
        if acc is None:
            acc = nums if f == 1 else [f * x for x in nums]
        else:
            acc = [y + f * x for y, x in zip(acc, nums)]
    return Matrix.from_integer_form(field, m, acc, den * q)


def graded(field: Field, m: int, terms, q: int = 1) -> Matrix:
    """The matrix sum_k sqrt(k)*M_k / q, M_k the sum of c * nums / d over
    the terms (k, c, (nums, d)) of part k (k = 1 among them; the only k
    over a field without parts): one ``_combine_forms`` per part, zero
    parts other than M_1 dropped."""
    part_field = PART_FIELDS.get(field)
    if part_field is None:
        return _combine_forms(field, m, terms, q)
    by_part: dict = {}
    for term in terms:
        by_part.setdefault(term[0], []).append(term)
    parts = ((k, _combine_forms(part_field, m, by_part[k], q)) for k in sorted(by_part))
    parts = tuple((k, x) for k, x in parts if k == 1 or any(x.integer_form()[0]))
    keys, flats = [k for k, _ in parts], [[v for row in x.rows for v in row] for _, x in parts]

    def surd(values):
        return SurdReal._raw([(k, v) for k, v in zip(keys, values) if v])

    if part_field is QI:
        flat = [SurdComplex(surd([v.re for v in vs]), surd([v.im for v in vs])) for vs in zip(*flats)]
    else:
        flat = [surd(vs) for vs in zip(*flats)]
    out = Matrix._wrap(field, tuple(tuple(flat[i : i + m]) for i in range(0, m * m, m)))
    object.__setattr__(out, "_parts", parts)
    return out


def _part_products(a: Matrix, b: Matrix, sign: int = 1):
    """The terms (k, sign * s, form of A_g·B_h) of a·b for every pair of
    rational parts, sqrt(g)*sqrt(h) = s*sqrt(k)."""
    part_field, m = PART_FIELDS[a.field], a.size
    for g, x in a.rational_parts():
        nx, dx = x.integer_form()
        for h, y in b.rational_parts():
            ny, dy = y.integer_form()
            s, k = surd_basis_product(g, h)
            yield k, sign * s, (_product(part_field, m, nx, ny), dx * dy)


def _product(field: Field, m: int, a, b) -> list[int]:
    """Numerators of the product of two integer forms (over the product
    of their denominators)."""
    if field is QI:
        mm = m * m
        ar, ai, br, bi = a[:mm], a[mm:], b[:mm], b[mm:]
        re = [x - y for x, y in zip(_real_product(m, ar, br), _real_product(m, ai, bi))]
        return re + [x + y for x, y in zip(_real_product(m, ar, bi), _real_product(m, ai, br))]
    return _real_product(m, a, b)


def _real_product(m: int, a, b) -> list[int]:
    # the m x m integer matrix product of two flat row-major lists
    cols = [b[j::m] for j in range(m)]
    return [sum(map(mul, a[i : i + m], col)) for i in range(0, m * m, m) for col in cols]


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
    integer work and one normalisation (for each rational part over the
    surd fields), with no intermediate matrix."""
    (a, da), (b, db), m = left, right, x.size
    if x.field in PART_FIELDS:
        forms = ((g, y.integer_form()) for g, y in x.rational_parts())
        return graded(x.field, m, [(g, 1, (sandwich_form(a, nums, b, m), da * d * db)) for g, (nums, d) in forms])
    nums, d = x.integer_form()
    return Matrix.from_integer_form(x.field, m, sandwich_form(a, nums, b, m), da * d * db)


def commutator_shift(a: Matrix, b: Matrix) -> Matrix:
    """a@b - b@a + b.  On integer forms this is one integer pass
    (numerators of ab - ba + b over da*db) with one normalisation for
    the whole result (for each rational part over the surd fields)."""
    a._guard(b)
    if a.field in PART_FIELDS:
        b_parts = ((g, 1, y.integer_form()) for g, y in b.rational_parts())
        return graded(a.field, a.size, [*_part_products(a, b), *_part_products(b, a, -1), *b_parts])
    (x, da), (y, db) = a.integer_form(), b.integer_form()
    m = a.size
    ab, ba = _product(a.field, m, x, y), _product(a.field, m, y, x)
    return Matrix.from_integer_form(
        a.field, m, [p - q + da * v for p, q, v in zip(ab, ba, y)], da * db
    )


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
    """{"field": tag, ["p": prime,] "n": size, "entries": [[str, ...], ...]}"""
    doc: dict = {"field": m.field.tag}
    if m.field.tag == "GF":
        doc["p"] = m.field.p
    doc["n"] = m.size
    doc["entries"] = [[m.field.format(x) for x in row] for row in m.rows]
    return doc


def matrix_from_wire(doc: dict) -> Matrix:
    """The matrix of a wire document: its entries through
    ``read_entries``, then one ``graded`` call."""
    if not isinstance(doc, dict):
        raise MalformedWire("a matrix document must be a JSON object")
    tag = wire_field(doc, "field", str, "matrix")
    field = field_by_tag(tag, wire_field(doc, "p", int, "matrix") if tag == "GF" or "p" in doc else None)
    n = wire_field(doc, "n", int, "matrix")
    entries = wire_field(doc, "entries", None, "matrix")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise MalformedWire("entries must be a list of rows")
    if len(entries) != n:
        raise SizeMismatch("entry rows do not match declared size")
    parts, den = read_entries(field, [s for row in entries for s in row])
    if n < 1 or any(len(row) != n for row in entries):
        raise SizeMismatch("matrix must be square and nonempty")
    return graded(field, n, [(g, 1, (nums, den)) for g, nums in parts.items()])
