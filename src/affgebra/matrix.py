"""Dense square matrices over the exact scalar fields.

Matrices are immutable.  Over Q, Q(i) and GF(p) (the fields with
``Field.has_integer_form``) every matrix also has one canonical integer
form, built at most once and cached in a slot: a flat list of integers
over one positive common denominator.  Over Q the list holds the
numerators row by row, over Q(i) the real parts row by row and then the
imaginary parts, with the gcd of all numerators and the denominator
equal to 1; over GF(p) it holds the residues in [0, p) over denominator
1.  Equal matrices have equal forms, so equality is one list compare,
and the heap, the action, the affine commutator, the sum, the difference
and the product are integer loops with one normalisation per result
(``combine``, ``commutator_shift``, ``sandwich``, ``@``); the inverse
is the integer elimination of ``solve.row_reduce``.  Their results
carry the form and still hold canonical scalar entries.  Every other
field, and the other operations here, go through the entry types.  The
numerators are a list, never mutated, and gcd/lcm fold over them with
``reduce``: CPython keeps freed tuples of up to 19 items in per-size
free lists, so short-lived tuples of those sizes would raise the peak
memory of a long run.
"""
from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import mul

from .errors import FieldMismatch, MalformedWire, SingularMatrix, SizeMismatch, wire_field
from .scalars import (
    RAT,
    Field,
    GaussianRational,
    PrimeFieldElement,
    QI,
    QQ,
    can_widen,
    common_denominator,
    field_by_tag,
    widen_scalar,
)


class Matrix:
    __slots__ = ("field", "size", "rows", "_form")

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
                flat = [RAT(x, den) for x in nums]
            else:
                # real parts first; zip stops after the m*m of them
                flat = [GaussianRational(RAT(x, den), RAT(y, den)) for x, y in zip(nums, nums[m * m :])]
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
            if not self.field.has_integer_form:
                raise FieldMismatch(f"{self.field.describe()} has no integer form")
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
        if self.field.has_integer_form:
            return self.integer_form() == other.integer_form()
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Matrix({self.field.describe()}, {[list(r) for r in self.rows]!r})"

    def is_zero(self) -> bool:
        return not any(any(x for x in row) for row in self.rows)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._guard(other)
        if self.field.has_integer_form:
            return combine(((1, self), (1, other)))
        return Matrix._wrap(
            self.field,
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)),
        )

    def __sub__(self, other):
        self._guard(other)
        if self.field.has_integer_form:
            return combine(((1, self), (-1, other)))
        return Matrix._wrap(
            self.field,
            tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)),
        )

    def __neg__(self):
        return Matrix._wrap(self.field, tuple(tuple(-x for x in row) for row in self.rows))

    def scale(self, alpha) -> Matrix:
        alpha = self.field.coerce(alpha)
        return Matrix._wrap(self.field, tuple(tuple(alpha * x for x in row) for row in self.rows))

    def __matmul__(self, other):
        self._guard(other)
        if self.field.has_integer_form:
            (a, da), (b, db) = self.integer_form(), other.integer_form()
            nums = _product(self.field, self.size, a, b)
            return Matrix.from_integer_form(self.field, self.size, nums, da * db)
        cols = list(zip(*other.rows))
        z = self.field.zero()
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = z
                for x, y in zip(row, col):
                    acc = acc + x * y
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix._wrap(self.field, tuple(out))

    def transpose(self) -> Matrix:
        return Matrix._wrap(self.field, tuple(zip(*self.rows)))

    def dagger(self) -> Matrix:
        """Conjugate transpose (plain transpose over real fields)."""
        conj = self.field.conjugate
        return Matrix._wrap(
            self.field, tuple(tuple(conj(x) for x in col) for col in zip(*self.rows))
        )

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
        if not field.has_integer_form:
            raise FieldMismatch(f"no inverse over {field.describe()}")
        nums, den = self.integer_form()
        a = [nums[i : i + m] for i in range(0, m * m, m)]
        if field is QI:
            y = [nums[i : i + m] for i in range(m * m, 2 * m * m, m)]
            a = [r + [-v for v in s] for r, s in zip(a, y)] + [s + r for r, s in zip(a, y)]
        k = len(a)
        # den * [A | I]; elimination leaves [diag(a_i) | diag(a_i) * A⁻¹]
        rows = [row + [den if j == i else 0 for j in range(k)] for i, row in enumerate(a)]
        pivots = row_reduce(rows, k, field.characteristic)
        if len(pivots) < k:
            col = next((c for c, q in enumerate(pivots) if c != q), len(pivots))
            raise SingularMatrix(f"no pivot in column {col}")
        d = reduce(lcm, (row[i] for i, row in enumerate(rows)), 1)
        # over Q(i) the left column of blocks holds the real and then the
        # imaginary part of A⁻¹
        inv = [x * (d // row[i]) for i, row in enumerate(rows) for x in row[k : k + m]]
        return Matrix.from_integer_form(field, m, inv, d)

    def widen(self, field: Field) -> Matrix:
        if field is self.field:
            return self
        return Matrix._wrap(
            field,
            tuple(
                tuple(widen_scalar(x, self.field, field) for x in row)
                for row in self.rows
            ),
        )


def combine(terms, q: int = 1) -> Matrix:
    """(c_1*M_1 + ... + c_k*M_k) / q for integer c_i, q > 0 and matrices
    M_i over the same field with an integer form, on the forms."""
    forms = [(c, x.integer_form()) for c, x in terms]
    den = lcm(*(d for _, (_, d) in forms))
    acc = None
    for c, (nums, d) in forms:
        f = c * (den // d)
        acc = [f * x for x in nums] if acc is None else [y + f * x for y, x in zip(acc, nums)]
    first = terms[0][1]
    return Matrix.from_integer_form(first.field, first.size, acc, den * q)


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


def sandwich_form(left, nums, right, m: int) -> list[int]:
    """Numerators of L·X·R for the numerators of real integer forms L
    and R (over Q, or over the GF(p) of X) and the numerators of a form
    X; over Q(i) each part of X is multiplied on its own."""
    mm = m * m
    return [
        v
        for k in range(0, len(nums), mm)
        for v in _real_product(m, _real_product(m, left, nums[k : k + mm]), right)
    ]


def sandwich(left, x: Matrix, right) -> Matrix:
    """L·x·R for x with an integer form and the integer forms
    (numerators, denominator) of two real matrices L and R as in
    ``sandwich_form``: one integer triple product and one normalisation,
    with no intermediate matrix."""
    (a, da), (nums, d), (b, db) = left, x.integer_form(), right
    return Matrix.from_integer_form(x.field, x.size, sandwich_form(a, nums, b, x.size), da * d * db)


def commutator_shift(a: Matrix, b: Matrix) -> Matrix:
    """a@b - b@a + b.  On integer forms this is one integer pass
    (numerators of ab - ba + b over da*db) with one normalisation for
    the whole result."""
    a._guard(b)
    if not a.field.has_integer_form:
        return a @ b - b @ a + b
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
    if not isinstance(doc, dict):
        raise MalformedWire("a matrix document must be a JSON object")
    tag = wire_field(doc, "field", str, "matrix")
    field = field_by_tag(tag, wire_field(doc, "p", int, "matrix") if tag == "GF" else None)
    n = wire_field(doc, "n", int, "matrix")
    entries = wire_field(doc, "entries", None, "matrix")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise MalformedWire("entries must be a list of rows")
    if len(entries) != n:
        raise SizeMismatch("entry rows do not match declared size")
    return Matrix(field, [[field.parse(s) for s in row] for row in entries])
