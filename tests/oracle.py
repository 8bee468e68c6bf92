"""The plain entrywise scalar path: the reference the matrix operations
are tested against.

Every formula here uses only the scalar arithmetic of the field (the
entry types ``RAT``, ``GaussianRational``, ``PrimeFieldElement``,
``SurdReal`` and ``SurdComplex``) and builds results with the public
``Matrix`` constructor, so none of it goes through integer forms or
rational parts.  ``plain_parse`` reads an entry string by splitting it
with per-field string loops into tokens for ``Fraction``, as the
scalar parsers once did, and ``gaussian_text`` writes a Gaussian
rational with the ``Fraction`` sign test that ``GaussianField.format``
once made.  ``plain_row_reduce`` and ``plain_sandwich_form``
are the dense integer loops that the sparse ``solve.row_reduce`` and
the staircase ``matrix.sandwich_form`` replaced; ``plain_real_product``
and ``plain_complex_product`` are the entry-by-entry and four-product
forms of ``matrix._real_product`` and ``matrix._product``.
``plain_change_of_basis_inverse`` is the closed form of P⁻¹ that
``transforms.change_of_basis_inverse`` replaced with the elimination
of ``Matrix.inverse``.  The one exception to exact arithmetic is
``float_gram_schmidt``: the floating-point basis that the only
tolerance-based check in the repository compares the exact
orthonormal basis with.  It is imported by the test modules, from the
tests directory.
"""
import math
from functools import reduce
from math import gcd

from affgebra.classes import ClassKind
from affgebra.errors import DivisionByZero, MalformedWire
from affgebra.matrix import Matrix
from affgebra.scalars import (
    MAX_RADICAND,
    QI,
    QQ,
    RAT,
    SURD,
    GaussianRational,
    PrimeFieldElement,
    SurdComplex,
    SurdReal,
    squarefree_split,
    widen_scalar,
)
from affgebra.transforms import change_of_basis

_TRACELESS = (ClassKind.SNA, ClassKind.SUNA)
_COMPLEX_ONLY = (ClassKind.UNA, ClassKind.SUNA)


def entrywise(field, f, *mats):
    return Matrix(field, [[f(*xs) for xs in zip(*rows)] for rows in zip(*(m.rows for m in mats))])


def plain_heap(a, b, c):
    return entrywise(a.field, lambda x, y, z: x - y + z, a, b, c)


def plain_heap5(a, b, c, d, e):
    return entrywise(a.field, lambda v, w, x, y, z: v - w + x - y + z, a, b, c, d, e)


def plain_action(alpha, base, b):
    alpha = base.field.coerce(alpha)
    return entrywise(base.field, lambda x, y: alpha * y - alpha * x + x, base, b)


def plain_add(a, b):
    return entrywise(a.field, lambda x, y: x + y, a, b)


def plain_sub(a, b):
    return entrywise(a.field, lambda x, y: x - y, a, b)


def plain_neg(a):
    return entrywise(a.field, lambda x: -x, a)


def plain_scale(alpha, a):
    alpha = a.field.coerce(alpha)
    return entrywise(a.field, lambda x: alpha * x, a)


def plain_transpose(a):
    return Matrix(a.field, list(zip(*a.rows)))


def plain_dagger(a):
    conj = a.field.conjugate
    return Matrix(a.field, [[conj(x) for x in col] for col in zip(*a.rows)])


def plain_widen(a, field):
    return Matrix(field, [[widen_scalar(x, a.field, field) for x in row] for row in a.rows])


def plain_matmul(a, b):
    m = a.size
    z = a.field.zero()
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = z
            for k in range(m):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        rows.append(row)
    return Matrix(a.field, rows)


def plain_commutator_shift(a, b):
    return plain_heap(plain_matmul(a, b), plain_matmul(b, a), b)


def plain_contains(spec, m):
    """Class membership entry by entry: every row and column sum is the
    normalisation, plus the trace, unit diagonal, antisymmetry and
    anti-hermitian conditions of the class."""
    target = widen_scalar(spec.normalisation(), spec.field, m.field)
    rows, size = m.rows, m.size
    zero = m.field.zero()
    if any(sum(row, zero) != target for row in rows):
        return False
    if any(sum(col, zero) != target for col in zip(*rows)):
        return False
    if spec.kind in _TRACELESS and sum((rows[k][k] for k in range(size)), zero) != zero:
        return False
    if spec.kind is ClassKind.ONA:
        one = m.field.one()
        for k in range(size):
            if rows[k][k] != one:
                return False
            for l in range(k + 1, size):
                if rows[k][l] != -rows[l][k]:
                    return False
    if spec.kind in _COMPLEX_ONLY:
        conj = m.field.conjugate
        for k in range(size):
            for l in range(k, size):
                if rows[l][k] != -conj(rows[k][l]):
                    return False
    return True


def plain_block_member(kind, d, n, field, f):
    """Whether the top-left n x n block of d lies in the algebra ``kind``,
    (anti)symmetry read as f_l·d_lk = -f_k·conj(d_kl)."""
    zero = field.zero()
    if kind in ("sl", "su"):
        if sum((d.entry(k, k) for k in range(n)), zero) != zero:
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


def plain_block_contains(target, m, radicals=None):
    """Block membership entry by entry on the scalar difference m - base:
    a zero last row and column, then ``plain_block_member``."""
    base, n = Matrix(m.field, target.base_block.rows), target.n
    radicals = radicals or (1,) * m.size
    d = Matrix(m.field, [[x - y for x, y in zip(r, s)] for r, s in zip(m.rows, base.rows)])
    if any(d.entry(n, k) or d.entry(k, n) for k in range(m.size)):
        return False
    return plain_block_member(target.block_kind, d, n, m.field, radicals)


def plain_squarefree_split(m):
    """(s, f) with m = s*s*f and f squarefree, by trial division up to
    the square root of what is left."""
    s, f, d = 1, 1, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1
    return s, f * m


def _parse_rational(s: str):
    s = s.strip()
    if s.startswith("+"):
        s = s[1:]
    try:
        return RAT(s)
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {s!r}") from None


def _text(s) -> str:
    """A scalar's wire string, stripped; MalformedWire for any other type."""
    if not isinstance(s, str):
        raise MalformedWire(f"a scalar must be a string, got {type(s).__name__} {s!r}")
    return s.strip()


def _split_gaussian_string(s: str) -> tuple[str, str]:
    """Split 'a+bi' / 'a-bi' / 'bi' / 'a' into (real, imaginary) substrings
    at the last sign that is not an exponent's."""
    s = s.strip()
    if not s.endswith("i"):
        return s, "0"
    body = s[:-1]
    cut = -1
    for idx in range(1, len(body)):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            cut = idx
    if cut == -1:
        return "0", body if body not in ("", "+", "-") else body + "1"
    return body[:cut], body[cut:]


def _split_surd_terms(s: str) -> list[str]:
    """Split a surd sum on top-level +/- other than an exponent's sign
    (signs inside sqrt(...) are impossible)."""
    parts, depth, start = [], 0, 0
    for idx, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and idx > start and s[idx - 1] not in "eE":
            parts.append(s[start:idx])
            start = idx
    parts.append(s[start:])
    return parts


def _parse_surd_real(s: str) -> SurdReal:
    s = s.strip().replace(" ", "")
    acc = {}
    for part in _split_surd_terms(s):
        if "*sqrt(" in part:
            coef_str, rest = part.split("*sqrt(", 1)
            if not rest.endswith(")"):
                raise ValueError(f"a sqrt( term must end in ')', got {part!r}")
            d = int(rest[:-1])
            coef = _parse_rational(coef_str)
        elif part.startswith(("sqrt(", "-sqrt(", "+sqrt(")):
            if not part.endswith(")"):
                raise ValueError(f"a sqrt( term must end in ')', got {part!r}")
            sign = -1 if part.startswith("-") else 1
            d = int(part[part.index("(") + 1 : -1])
            coef = RAT(sign)
        else:
            d = 1
            coef = _parse_rational(part)
        if d > MAX_RADICAND:
            raise ValueError(f"a radicand must be at most {MAX_RADICAND}, got {d}")
        if d < 0:
            raise ValueError(f"a radicand must not be negative, got {d}")
        if d > 0:
            # sqrt(s*s*f) = s*sqrt(f) with f squarefree
            s, d = squarefree_split(d)
            coef *= s
        else:
            d, coef = 1, RAT(0)
        acc[d] = acc.get(d, RAT(0)) + coef
    return SurdReal(acc)


def plain_parse(field, s):
    """The scalar of an entry string, read by the per-field string
    splitters that served before ``scalars.read_entries``: the reference
    that reader is held to (``tests/test_wire_entries.py``).  A ``sqrt(``
    term must end in ``)``, and a negative radicand is refused whatever
    its coefficient."""
    if field is QQ:
        return _parse_rational(_text(s))
    if field is QI:
        re_str, im_str = _split_gaussian_string(_text(s))
        im_str = im_str.strip()
        if im_str in ("+", "-"):
            im_str += "1"
        return GaussianRational(_parse_rational(re_str), _parse_rational(im_str))
    if field.characteristic:
        return PrimeFieldElement(int(_text(s)), field.p)
    if field is SURD:
        return _parse_surd_real(_text(s))
    s = _text(s).replace(" ", "")
    # canonical form "(re)+(im)i"
    if not (s.startswith("(") and s.endswith(")i")):
        return SurdComplex(_parse_surd_real(s))
    depth = 0
    for idx, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            break
    # with unbalanced parentheses idx is the last index: nothing is left
    re_part, rest = s[1:idx], s[idx + 1 :]
    if not rest.startswith("+(") or not rest.endswith(")i"):
        raise ValueError(f"malformed complex surd string {s!r}")
    return SurdComplex(_parse_surd_real(re_part), _parse_surd_real(rest[2:-2]))


def gaussian_text(x: GaussianRational) -> str:
    """The wire text of a Gaussian rational, the sign of the imaginary
    half chosen by comparing it with zero: ``a``, ``bi``, ``a+bi`` or
    ``a-bi``.  ``GaussianField.format`` writes it from the text of each
    half instead."""
    if not x.im:
        return str(x.re)
    if not x.re:
        return f"{x.im}i"
    sep = "+" if x.im > 0 else "-"
    return f"{x.re}{sep}{abs(x.im)}i"


def plain_real_product(m: int, a, b) -> list[int]:
    """The m x m integer matrix product of two flat row-major lists, one
    entry at a time by its index."""
    return [sum(a[i * m + k] * b[k * m + j] for k in range(m)) for i in range(m) for j in range(m)]


def plain_complex_product(m: int, a, b) -> list[int]:
    """The product of two complex integer forms (real half, then
    imaginary half) from four real products: (ar·br - ai·bi) and
    (ar·bi + ai·br)."""
    mm = m * m
    ar, ai, br, bi = a[:mm], a[mm:], b[:mm], b[mm:]
    rr, ii = plain_real_product(m, ar, br), plain_real_product(m, ai, bi)
    ri, ir = plain_real_product(m, ar, bi), plain_real_product(m, ai, br)
    return [x - y for x, y in zip(rr, ii)] + [x + y for x, y in zip(ri, ir)]


def plain_sandwich_form(left, nums, right, m: int) -> list[int]:
    """Numerators of L·X·R for the numerators of real integer forms L
    and R (over Q, or over the GF(p) of X) and the numerators of a form
    X; over Q(i) each part of X is multiplied on its own."""
    mm = m * m
    return [
        v
        for k in range(0, len(nums), mm)
        for v in plain_real_product(m, plain_real_product(m, left, nums[k : k + mm]), right)
    ]


def plain_row_reduce(rows, ncols: int, p: int = 0) -> list[int]:
    """Gauss-Jordan elimination in place on dense integer rows, returning
    the pivot columns; rows[r] is the row of pivot r.  Pivots are taken in
    the first ``ncols`` columns, in order, from the first row with a
    nonzero entry; later columns are carried along.

    Over GF(p) (p > 0) the entries are residues and every pivot is 1.
    Over Q (p = 0) a row stands for itself divided by its pivot: rows
    are updated fraction-free, row_k <- a*row_k - b*row_r with a the
    pivot and b row_k's entry under it (Bareiss 1968), and each row is
    kept primitive (the gcd of its entries is 1), which keeps the
    integers small.
    """
    if not p:
        rows[:] = [_plain_primitive(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        a = prow[c]
        if p and a != 1:
            inv = pow(a, -1, p)
            prow = rows[r] = [x * inv % p for x in prow]
        for k, row in enumerate(rows):
            b = row[c]
            if b and k != r:
                if p:
                    rows[k] = [(x - b * y) % p for x, y in zip(row, prow)]
                else:
                    rows[k] = _plain_primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
    return pivots


def _plain_primitive(row: list[int]) -> list[int]:
    g = reduce(gcd, row)
    return [x // g for x in row] if g > 1 else row


def plain_change_of_basis_inverse(n: int, field) -> Matrix:
    """The closed form of P⁻¹: 1/(n+1) times the matrix whose row
    r = 1..n has -n in column n+2-r and ones elsewhere, and whose last
    row is all ones.  NonInvertibleScalar when the characteristic
    divides n+1."""
    m = n + 1
    scale = field.inv_int(m)
    rows = [[scale] * m for _ in range(m)]
    for i in range(n):
        rows[i][n - i] = field.from_int(-n) * scale
    return Matrix(field, rows)


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
