"""Exact solver for inhomogeneous linear systems on matrix entries.

A system is a list of ``(coeffs, rhs)`` pairs, one linear condition on
the rational halves of the entries each: ``coeffs`` maps a key
``(i, j, h)``, entry (i, j) and half h (0 real; 1 imaginary, over Q(i)
only), to a rational coefficient, and ``rhs`` is a rational constant,
both read modulo p over GF(p).  A complex-linear condition over Q(i) is
two conditions, one per half; a conjugate-linear one (anti-hermitianity)
is the real conditions it puts on each half.  An equation with no keys
holds iff its constant is 0.  A half the field lacks, a value that is
not rational, and the surd fields raise FieldMismatch.

Elimination runs on sparse integer rows (``row_reduce``, which also
carries ``Matrix.inverse``): each row is a dict of its nonzero entries,
built from the constraint's own keys, and the work of an update follows
the nonzeros of the pivot row, not the width of the system.  Over Q and
Q(i) each row is scaled to integers over the denominators of its
nonzeros; over GF(p) the rows hold residues.

The result is an affine parameterisation: the particular solution with
every free unknown 0, and one direction per free unknown (that unknown
1, the other free ones 0), in the order of the free unknowns.  These are
read off the reduced row echelon form, which is unique, so they depend
only on the solution space and the order of the unknowns.  The two
halves of an entry are adjacent unknowns, so a complex-linear system
over Q(i) lists each direction v of its real half followed by i·v.

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
    """particular + span(directions), over Q for a system over Q(i).  The
    particular solution and each direction are integer forms over the
    one positive denominator ``den``, laid out as in
    ``Matrix.integer_form`` (over GF(p), residues over 1) but not
    reduced; ``particular`` and ``directions`` build the matrices from
    them on first read."""

    field: Field
    size: int
    den: int
    particular_form: tuple[int, ...]
    direction_forms: tuple[tuple[int, ...], ...]

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


def solve_affine_system(constraints, size: int, field: Field) -> AffineSubspace:
    if field in PART_FIELDS:
        raise FieldMismatch(f"linear systems are solved over Q, Q(i) and GF(p), not {field.describe()}")
    p = field.characteristic
    read = (lambda x: field.coerce(x).residue) if p else QQ.coerce
    halves = 2 if field is QI else 1
    mm = size * size
    ncols = halves * mm

    rows = []
    for coeffs, rhs in constraints:
        row = {}
        for (i, j, h), c in coeffs.items():
            if not 0 <= h < halves:
                raise FieldMismatch(f"key {(i, j, h)}: {field.describe()} has no half {h}")
            row[(i * size + j) * halves + h] = read(c)
        row[ncols] = read(rhs)
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
    # form index of each unknown: the real half, then the imaginary one
    where = [k % halves * mm + k // halves for k in range(ncols)]

    pivot_set = set(pivots)
    # one direction per free unknown, in order: that unknown den, the
    # other free ones 0
    directions = {}
    for free in range(ncols):
        if free not in pivot_set:
            directions[free] = vec = [0] * ncols
            vec[where[free]] = den
    particular = [0] * ncols
    for c, row in zip(pivots, rows):
        s = den // row[c]
        particular[where[c]] = row.get(ncols, 0) * s
        # a reduced row holds no pivot column but its own
        for j, x in row.items():
            if j < ncols and j != c:
                directions[j][where[c]] = -x * s % p if p else -x * s
    return AffineSubspace(field, size, den, tuple(particular), tuple(map(tuple, directions.values())))


def constraint_table(constraints, size: int) -> tuple:
    """A system with ``int`` coefficients (else ValueError) as the rows
    (idx, coefs, cnum, cden) that ``satisfies`` tests on integer forms of
    size x size matrices: the form index h*size*size + i*size + j of each
    key (i, j, h), the coefficients (None when all are 1) and the rational
    constant cnum/cden, which ``satisfies`` reads modulo p over GF(p)."""
    mm = size * size
    table = []
    for coeffs, const in constraints:
        for key, x in coeffs.items():
            if type(x) is not int:
                raise ValueError(f"key {key}: coefficient {x!r} is not an integer")
        const = QQ.coerce(const)
        coefs = tuple(coeffs.values())
        idx = tuple(h * mm + i * size + j for i, j, h in coeffs)
        table.append((idx, None if all(x == 1 for x in coefs) else coefs, const.numerator, const.denominator))
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
