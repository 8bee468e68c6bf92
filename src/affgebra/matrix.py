"""Dense square matrices over the exact scalar fields.

Matrices are immutable; arithmetic goes through the entry types, with a
faster integer-scaled path for rational and Gaussian-rational products
(one gcd per result entry instead of one per intermediate).
"""
from __future__ import annotations

from math import lcm

from .errors import FieldMismatch, MalformedWire, SingularMatrix, SizeMismatch
from .scalars import RAT, Field, GaussianRational, QI, QQ, can_widen, field_by_tag, widen_scalar


class Matrix:
    __slots__ = ("field", "size", "rows")

    def __init__(self, field: Field, rows):
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        m = len(coerced)
        if m < 1 or any(len(row) != m for row in coerced):
            raise SizeMismatch("matrix must be square and nonempty")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "size", m)
        object.__setattr__(self, "rows", coerced)

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
        return (
            self.field is other.field
            and self.size == other.size
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Matrix({self.field.describe()}, {[list(r) for r in self.rows]!r})"

    def is_zero(self) -> bool:
        return not any(any(x for x in row) for row in self.rows)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._guard(other)
        return Matrix._wrap(
            self.field,
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)),
        )

    def __sub__(self, other):
        self._guard(other)
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
        if self.field is QQ:
            return _matmul_rational(self, other)
        if self.field is QI:
            return _matmul_gaussian(self, other)
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
        """Exact Gauss-Jordan inverse, first-nonzero pivoting."""
        m = self.size
        field = self.field
        aug = [list(row) + list(ident) for row, ident in zip(self.rows, Matrix.identity(field, m).rows)]
        for col in range(m):
            pivot = next((r for r in range(col, m) if aug[r][col]), None)
            if pivot is None:
                raise SingularMatrix(f"no pivot in column {col}")
            if pivot != col:
                aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = field.one() / aug[col][col]
            aug[col] = [inv * x for x in aug[col]]
            for r in range(m):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return Matrix._wrap(field, tuple(tuple(row[m:]) for row in aug))

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


def _matmul_rational(a: Matrix, b: Matrix) -> Matrix:
    ai, da = _int_rows_rational(a)
    bi, db = _int_rows_rational(b)
    d = da * db
    cols = list(zip(*bi))
    out = tuple(
        tuple(RAT(sum(x * y for x, y in zip(row, col)), d) for col in cols)
        for row in ai
    )
    return Matrix._wrap(QQ, out)


def _int_rows_rational(a: Matrix):
    den = 1
    for row in a.rows:
        for x in row:
            den = lcm(den, int(x.denominator))
    # den is divisible by every denominator, so this stays integral
    return [
        [int(x.numerator) * (den // int(x.denominator)) for x in row] for row in a.rows
    ], den


def _matmul_gaussian(a: Matrix, b: Matrix) -> Matrix:
    ai, da = _int_rows_gaussian(a)
    bi, db = _int_rows_gaussian(b)
    d = da * db
    cols = list(zip(*bi))
    out = []
    for row in ai:
        out_row = []
        for col in cols:
            re = im = 0
            for (xr, xi), (yr, yi) in zip(row, col):
                re += xr * yr - xi * yi
                im += xr * yi + xi * yr
            out_row.append(GaussianRational(RAT(re, d), RAT(im, d)))
        out.append(tuple(out_row))
    return Matrix._wrap(QI, tuple(out))


def _int_rows_gaussian(a: Matrix):
    den = 1
    for row in a.rows:
        for x in row:
            den = lcm(den, int(x.re.denominator), int(x.im.denominator))
    return (
        [
            [
                (
                    int(x.re.numerator) * (den // int(x.re.denominator)),
                    int(x.im.numerator) * (den // int(x.im.denominator)),
                )
                for x in row
            ]
            for row in a.rows
        ],
        den,
    )


def commutator_shift(a: Matrix, b: Matrix) -> Matrix:
    """a@b - b@a + b with one shared integer scaling over the rational
    and Gaussian-rational fields (one normalisation per result entry)."""
    a._guard(b)
    m = a.size
    rng = range(m)
    if a.field is QQ:
        ai, da = _int_rows_rational(a)
        bi, db = _int_rows_rational(b)
        d = da * db
        rows = []
        for i in rng:
            arow, brow = ai[i], bi[i]
            row = []
            for j in rng:
                acc = 0
                for k in rng:
                    acc += arow[k] * bi[k][j] - brow[k] * ai[k][j]
                row.append(RAT(acc + brow[j] * da, d))
            rows.append(tuple(row))
        return Matrix._wrap(QQ, tuple(rows))
    if a.field is QI:
        ai, da = _int_rows_gaussian(a)
        bi, db = _int_rows_gaussian(b)
        d = da * db
        rows = []
        for i in rng:
            arow, brow = ai[i], bi[i]
            row = []
            for j in rng:
                re = im = 0
                for k in rng:
                    xr, xi = arow[k]
                    yr, yi = bi[k][j]
                    re += xr * yr - xi * yi
                    im += xr * yi + xi * yr
                    xr, xi = brow[k]
                    yr, yi = ai[k][j]
                    re -= xr * yr - xi * yi
                    im -= xr * yi + xi * yr
                br, bm = brow[j]
                row.append(
                    GaussianRational(RAT(re + br * da, d), RAT(im + bm * da, d))
                )
            rows.append(tuple(row))
        return Matrix._wrap(QI, tuple(rows))
    return a @ b - b @ a + b


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
    field = field_by_tag(doc["field"], doc.get("p"))
    entries = doc["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise MalformedWire("entries must be a list of rows")
    if len(entries) != doc["n"]:
        raise SizeMismatch("entry rows do not match declared size")
    return Matrix(field, [[field.parse(s) for s in row] for row in entries])
