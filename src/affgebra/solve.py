"""Exact solver for inhomogeneous linear systems on matrix entries.

A system is a list of ``(coeffs, rhs)`` pairs.  In the plain case
``coeffs`` maps entry positions ``(i, j)`` to field scalars.  In the
realified case (needed for conjugate-linear conditions such as
anti-hermitianity) the unknowns are the rational real/imaginary parts of
each entry and ``coeffs`` maps ``(i, j, part)`` with part 0 = re,
part 1 = im; the carrier field must then be the Gaussian rationals.

Elimination runs on sparse integer rows (``row_reduce``, which also
carries ``Matrix.inverse``): each row is a dict of its nonzero entries,
built from the constraint's own keys, and the work of an update follows
the nonzeros of the pivot row, not the width of the system.  Over Q, and
over the rational parts of a realified system, each row is scaled to
integers over the denominators of its nonzeros; over GF(p) the rows hold
residues.  Over Q(i) without realification the coefficients must be
rational (every system ``classes.constraint_system`` builds is), and
the right-hand side is carried as two integer columns, its real and its
imaginary part.  A non-real coefficient there, and the surd fields,
raise FieldMismatch.

The result is an affine parameterisation: the particular solution with
every free unknown 0, and one direction per free unknown (that unknown
1, the other free ones 0), in the order of the free unknowns.  These are
read off the reduced row echelon form, which is unique, so they depend
only on the solution space and the order of the unknowns.

The same constraints also test membership without solving:
``constraint_table`` compiles them once into integer rows over the flat
integer-form layout of ``Matrix.integer_form``, and ``satisfies`` checks
a form against those rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd, lcm
from operator import mul

from .errors import FieldMismatch, Infeasible
from .matrix import Matrix
from .scalars import PART_FIELDS, Field, QI, QQ, common_denominator


@dataclass(frozen=True)
class AffineSubspace:
    """particular + span(directions).  The particular solution and each
    direction are integer forms over the one positive denominator
    ``den``, laid out as in ``Matrix.integer_form`` (over GF(p),
    residues over 1) but not reduced; ``particular`` and ``directions``
    build the matrices from them on first read."""

    field: Field
    size: int
    den: int
    particular_form: tuple[int, ...]
    direction_forms: tuple[tuple[int, ...], ...]
    realified: bool

    @property
    def dimension(self) -> int:
        return len(self.direction_forms)

    @cached_property
    def particular(self) -> Matrix:
        return Matrix.from_integer_form(self.field, self.size, self.particular_form, self.den)

    @cached_property
    def directions(self) -> tuple[Matrix, ...]:
        return tuple(
            Matrix.from_integer_form(self.field, self.size, v, self.den) for v in self.direction_forms
        )


def solve_affine_system(constraints, size: int, field: Field, realify: bool = False) -> AffineSubspace:
    if realify and field is not QI:
        raise FieldMismatch("realified systems are solved over the Gaussian rationals")
    if field in PART_FIELDS:
        raise FieldMismatch(f"linear systems are solved over Q, Q(i) and GF(p), not {field.describe()}")
    p = field.characteristic
    split = field is QI and not realify  # rational coefficients, complex right-hand side
    scalar = QQ if realify else field
    mm = size * size
    ncols = 2 * mm if realify else mm

    rows = []
    for coeffs, rhs in constraints:
        row = {}
        for pos, c in coeffs.items():
            c = scalar.coerce(c)
            if split:
                if c.im:
                    raise FieldMismatch("a system over Q(i) needs rational coefficients unless realified")
                c = c.re
            row[_flat_index(pos, size, realify)] = c.residue if p else c
        rhs = scalar.coerce(rhs)
        if split:
            row[ncols], row[ncols + 1] = rhs.re, rhs.im
        else:
            row[ncols] = rhs.residue if p else rhs
        row = {j: x for j, x in row.items() if x}
        if not p:
            row = dict(zip(row, common_denominator(row.values())[0]))
        rows.append(row)

    pivots = row_reduce(rows, ncols, p)
    rank = len(pivots)
    if any(rows[rank:]):  # a row left holds only right-hand side
        raise Infeasible("inconsistent constraint system")

    # pivot row r stands for row / a_r; s_r = den / a_r scales it to den
    den = reduce(lcm, (row[c] for c, row in zip(pivots, rows)), 1)
    # form index of each unknown: realified unknowns interleave re and im
    where = [k % 2 * mm + k // 2 for k in range(ncols)] if realify else range(ncols)
    width = 2 * mm if field is QI else mm

    pivot_set = set(pivots)
    # one direction per free unknown, in order: that unknown den, the
    # other free ones 0
    directions = {}
    for free in range(ncols):
        if free not in pivot_set:
            directions[free] = vec = [0] * width
            vec[where[free]] = den
    particular = [0] * width
    for c, row in zip(pivots, rows):
        s = den // row[c]
        particular[where[c]] = row.get(ncols, 0) * s
        if split:
            particular[mm + c] = row.get(ncols + 1, 0) * s
        # a reduced row holds no pivot column but its own
        for j, x in row.items():
            if j < ncols and j != c:
                directions[j][where[c]] = -x * s % p if p else -x * s
    return AffineSubspace(field, size, den, tuple(particular), tuple(map(tuple, directions.values())), realify)


def _flat_index(pos, size: int, realify: bool) -> int:
    if realify:
        i, j, part = pos
        return (i * size + j) * 2 + part
    i, j = pos
    return i * size + j


def constraint_table(constraints, size: int, field: Field) -> tuple:
    """A system with integer coefficients as the rows (idx, coefs, cnum,
    cden) that ``satisfies`` tests on integer forms of size x size
    matrices over ``field`` (Q, Q(i) or GF(p)): the form indices of the
    unknowns, their coefficients (None when all are 1) and the constant
    cnum/cden, a residue over 1 over GF(p).  A realified key (i, j, part)
    names the entry (i, j) of the half ``part``; over Q(i) a plain
    constraint is one row on each half, its constant split between them."""
    mm = size * size
    table = []
    for coeffs, const in constraints:
        const = field.coerce(const)
        realified = len(next(iter(coeffs))) == 3
        if field.characteristic:
            consts = [QQ.coerce(const.residue)]
        elif field is QI:
            consts = [const.re] if realified else [const.re, const.im]
        else:
            consts = [const]
        coefs = tuple(coeffs.values())
        for h, c in enumerate(consts):
            idx = tuple((pos[2] if realified else h) * mm + pos[0] * size + pos[1] for pos in coeffs)
            table.append((idx, None if all(x == 1 for x in coefs) else coefs, c.numerator, c.denominator))
    return tuple(table)


def satisfies(table, nums, den: int, p: int = 0) -> bool:
    """Whether the integer form (nums, den), which need not be reduced,
    meets every row of a ``constraint_table``: sum(coefs*nums[idx])/den
    equals cnum/cden, modulo p over GF(p) (p > 0)."""
    at = nums.__getitem__
    for idx, coefs, cnum, cden in table:
        v = sum(map(at, idx)) if coefs is None else sum(map(mul, coefs, map(at, idx)))
        if (v * cden - cnum * den) % p if p else v * cden != cnum * den:
            return False
    return True


def row_reduce(rows, ncols: int, p: int = 0) -> list[int]:
    """Gauss-Jordan elimination in place on sparse integer rows, returning
    the pivot columns; rows[r] is the row of pivot r.  A row is a dict
    {column: entry} of its nonzero entries only, and each row is its own
    dict.  Pivots are taken in the first ``ncols`` columns, in order,
    from the first row with a nonzero entry; later columns are carried
    along.  An update walks the pivot row's nonzeros and drops the
    entries it cancels (Davis 2006), so the work follows the nonzeros,
    not the width.

    Over GF(p) (p > 0) the entries are residues in [1, p) and every
    pivot is 1.  Over Q (p = 0) a row stands for itself divided by its
    pivot: rows are updated fraction-free, row_k <- a*row_k - b*row_r
    with a the pivot and b row_k's entry under it (Bareiss 1968), and
    each row is kept primitive (the gcd of its entries is 1), which
    keeps the integers small.
    """
    if not p:
        for row in rows:
            _make_primitive(row)
    pivots = []
    r = 0
    n = len(rows)
    for c in range(ncols):
        if r == n:
            break
        pivot = next((k for k in range(r, n) if c in rows[k]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        a = prow[c]
        if p and a != 1:
            inv, a = pow(a, -1, p), 1
            for j in prow:
                prow[j] = prow[j] * inv % p
        terms = prow.items()
        for row in rows:
            b = row.get(c)
            if b is None or row is prow:
                continue
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, y in terms:
                x = row.get(j, 0) - b * y
                if p:
                    x %= p
                if x:
                    row[j] = x
                else:
                    del row[j]
            if not p:
                _make_primitive(row)
        pivots.append(c)
        r += 1
    return pivots


def _make_primitive(row: dict) -> None:
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
