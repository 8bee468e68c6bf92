"""Exact scalar arithmetic.

Five fields are supported, each with an involutive conjugation:

* rationals,
* Gaussian rationals a + bi with rational a, b,
* prime fields GF(p),
* real quadratic surds, i.e. finite sums sum_d q_d * sqrt(d) with
  rational coefficients and squarefree d,
* complex surds (surd real + surd imaginary part).

All values are immutable and kept in canonical form, so ``==`` is exact
mathematical equality.  Surd fields only support division by single-term
divisors; nothing in this package needs more.

Rationals are stdlib ``fractions.Fraction``, the one rational type
(``RAT`` names it).  ``GaussianRational`` and ``SurdComplex`` share their
arithmetic through the private base ``_ComplexPair``: a value is a pair
(re, im), and only construction, coercion and division differ.

Random elements are small rationals num/den with |num| <= SAMPLE_BOUND
and 1 <= den <= SAMPLE_BOUND, drawn numerator first, and residues of
GF(p).  Every draw goes through ``sample_numerators`` (numerators over
SAMPLE_DEN) or ``sample_residues``, which call ``rng.getrandbits`` with
the rejection rule of CPython's ``randint`` and ``randrange``: the same
random stream, without their per-call frames.  The samplers of the
matrix classes draw these integers straight into integer forms.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm

from .errors import (
    DivisionByZero,
    FieldMismatch,
    MalformedWire,
    NonInvertibleScalar,
    NonInvertibleSurd,
)

RAT = Fraction
RATIONAL_TYPES = (int, Fraction)


def common_denominator(values) -> tuple[list[int], int]:
    """(numerators, den): the rationals ``values`` (ints allowed) as
    integers over their least common denominator, 1 for no values."""
    dens = [int(x.denominator) for x in values]
    den = reduce(lcm, dens, 1)
    return [int(x.numerator) * (den // d) for x, d in zip(values, dens)], den


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


@lru_cache(maxsize=None)
def squarefree_split(m: int) -> tuple[int, int]:
    """Factor m > 0 as s*s*f with f squarefree, by trial division up to
    the cube root: the cofactor left has no prime factor below d and is
    below d**3, so it is 1, p, p*p or p*q, and only p*p is a square."""
    if m <= 0:
        raise ValueError(f"squarefree_split needs a positive integer, got {m}")
    s, f = 1, 1
    d = 2
    while d * d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1
    r = isqrt(m)
    if r * r == m:
        return s * r, f
    return s, f * m


def surd_basis_product(d: int, e: int) -> tuple[int, int]:
    """sqrt(d)*sqrt(e) = s*sqrt(f) for squarefree d and e, without factoring:
    s = gcd(d, e) and f = (d/s)*(e/s), squarefree as d/s and e/s are coprime."""
    s = gcd(d, e)
    return s, (d // s) * (e // s)


# The largest radicand d of a parsed sqrt(d): above every product of two
# radicands up to about 2**23.5, and small enough that splitting off its
# square factor (about d**(1/3) trial divisions) takes milliseconds.  A
# fixed bound, not an option.  A product of larger radicands in a result
# may exceed it.
MAX_RADICAND = 2**47 - 1


SAMPLE_BOUND = 9
# a common denominator of every sampled rational: lcm(1, ..., SAMPLE_BOUND)
SAMPLE_DEN = reduce(lcm, range(1, SAMPLE_BOUND + 1))


# CPython's randint(a, b) and randrange(n) draw getrandbits(k), k the bit
# length of the range size, and redraw while the value is at least that
# size; the samplers below call getrandbits with the same rule, so they
# consume the same stream.  ``tests/test_sampling.py`` holds them to
# randint and randrange.
_NUM_SPAN = 2 * SAMPLE_BOUND + 1
_NUM_BITS = _NUM_SPAN.bit_length()
_DEN_BITS = SAMPLE_BOUND.bit_length()
# SAMPLE_DEN // q for the drawn index q - 1 of the denominator q
_DEN_SCALE = tuple(SAMPLE_DEN // q for q in range(1, SAMPLE_BOUND + 1))


def sample_numerators(rng, count: int) -> list[int]:
    """``count`` random small rationals as numerators over SAMPLE_DEN,
    each drawn as ``randint(-SAMPLE_BOUND, SAMPLE_BOUND)`` over
    ``randint(1, SAMPLE_BOUND)`` would be, numerator first."""
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        x = bits(_NUM_BITS)
        while x >= _NUM_SPAN:
            x = bits(_NUM_BITS)
        q = bits(_DEN_BITS)
        while q >= SAMPLE_BOUND:
            q = bits(_DEN_BITS)
        out.append((x - SAMPLE_BOUND) * _DEN_SCALE[q])
    return out


def sample_residues(rng, p: int, count: int) -> list[int]:
    """``count`` random residues in [0, p), each drawn as
    ``randrange(p)`` would be."""
    bits = rng.getrandbits
    k = p.bit_length()
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= p:
            r = bits(k)
        out.append(r)
    return out


# The largest prime p of a field GF(p): above every prime the tests and
# the benchmark use (p <= 101), and small enough that the trial-division
# primality test (about sqrt(p) steps) takes milliseconds.  A fixed
# bound, not an option.
MAX_P = 2**31 - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _ComplexPair:
    """re + i*im over a real field; a subclass gives ``__init__`` (which
    makes re and im canonical), ``_coerce`` and ``__truediv__``."""

    __slots__ = ("re", "im")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return type(self)(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.im:
            return type(self)(self.re * o.re, self.im * o.re)
        if not self.im:
            return type(self)(self.re * o.re, self.re * o.im)
        return type(self)(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self):
        return type(self)(self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value hashes like its real part; SurdReal parts hash like
        # the rationals they equal, so a GaussianRational and a SurdComplex
        # of the same value hash alike
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"{type(self).__name__}({self.re!r}, {self.im!r})"


class GaussianRational(_ComplexPair):
    """a + bi with rational a, b."""

    __slots__ = ()

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", re if type(re) is RAT else RAT(re))
        object.__setattr__(self, "im", im if type(im) is RAT else RAT(im))

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, RATIONAL_TYPES):
            return GaussianRational(x)
        return None

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise DivisionByZero("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )


I_GAUSS = GaussianRational(0, 1)


class PrimeFieldElement:
    """Residue in GF(p)."""

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        object.__setattr__(self, "residue", residue % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeFieldElement is immutable")

    def _coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({x.p})")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.residue + o.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.residue - o.residue, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.residue == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        # Fermat inverse; p is prime by field construction.
        inv = pow(o.residue, self.p - 2, self.p)
        return PrimeFieldElement(self.residue * inv, self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self) -> PrimeFieldElement:
        return self

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement) and other.p != self.p:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.residue == o.residue

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"PrimeFieldElement({self.residue}, {self.p})"


class SurdReal:
    """Finite sum of q_d * sqrt(d) terms, squarefree d, rational q_d.

    The key d = 1 carries the rational part.  Terms with zero
    coefficient are never stored, so equality is tuple equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif isinstance(terms, RATIONAL_TYPES):
            terms = {1: terms}
        clean = []
        for d in sorted(terms):
            q = terms[d]
            q = q if type(q) is RAT else RAT(q)
            if not q:
                continue
            if d < 1 or squarefree_split(d)[0] != 1:
                raise ValueError(f"surd key {d} is not squarefree positive")
            clean.append((d, q))
        object.__setattr__(self, "_terms", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("SurdReal is immutable")

    @classmethod
    def _raw(cls, pairs) -> SurdReal:
        # pairs already sorted, squarefree, nonzero
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", tuple(pairs))
        return out

    @classmethod
    def sqrt_int(cls, m: int) -> SurdReal:
        """Exact sqrt(m) for a positive integer m."""
        s, f = squarefree_split(m)
        return cls({f: RAT(s)})

    @property
    def terms(self):
        return self._terms

    def coefficient(self, d: int):
        for key, q in self._terms:
            if key == d:
                return q
        return RAT(0)

    @staticmethod
    def _coerce(x):
        if isinstance(x, SurdReal):
            return x
        if isinstance(x, RATIONAL_TYPES):
            return SurdReal(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for d, q in o._terms:
            s = acc.get(d, 0) + q
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
        return SurdReal._raw(sorted(acc.items()))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = dict(self._terms)
        for d, q in o._terms:
            s = acc.get(d, 0) - q
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
        return SurdReal._raw(sorted(acc.items()))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return SurdReal._raw((d, -q) for d, q in self._terms)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(o._terms) == 1 and o._terms[0][0] == 1:
            r = o._terms[0][1]
            return SurdReal._raw((d, q * r) for d, q in self._terms)
        if len(self._terms) == 1 and self._terms[0][0] == 1:
            r = self._terms[0][1]
            return SurdReal._raw((d, q * r) for d, q in o._terms)
        acc = {}
        for d, q in self._terms:
            for e, r in o._terms:
                s, f = surd_basis_product(d, e)
                v = acc.get(f, 0) + q * r * s
                if v:
                    acc[f] = v
                else:
                    acc.pop(f, None)
        return SurdReal._raw(sorted(acc.items()))

    __rmul__ = __mul__

    def _reciprocal(self) -> SurdReal:
        if not self._terms:
            raise DivisionByZero("division by zero surd")
        if len(self._terms) > 1:
            raise NonInvertibleSurd(
                "can only divide by a single-term surd, got "
                f"{len(self._terms)} terms"
            )
        d, q = self._terms[0]
        # 1/(q*sqrt(d)) = sqrt(d)/(q*d)
        return SurdReal._raw([(d, 1 / (q * d))])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def conjugate(self) -> SurdReal:
        return self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a rational value hashes like the rational it equals
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and self._terms[0][0] == 1:
            return hash(self._terms[0][1])
        return hash(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __float__(self):
        import math

        return float(sum(float(q) * math.sqrt(d) for d, q in self._terms))

    def __repr__(self):
        return f"SurdReal({dict(self._terms)!r})"


class SurdComplex(_ComplexPair):
    """Complex number with surd real and imaginary parts."""

    __slots__ = ()

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, SurdReal) else SurdReal(re))
        object.__setattr__(self, "im", im if isinstance(im, SurdReal) else SurdReal(im))

    @staticmethod
    def _coerce(x):
        if isinstance(x, SurdComplex):
            return x
        if isinstance(x, (SurdReal, *RATIONAL_TYPES)):
            return SurdComplex(x)
        if isinstance(x, GaussianRational):
            return SurdComplex(SurdReal(x.re), SurdReal(x.im))
        return None

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.re and not o.im:
            raise DivisionByZero("division by zero complex surd")
        if o.re and o.im:
            raise NonInvertibleSurd("divisor must be purely real or purely imaginary")
        if o.re:
            r = o.re._reciprocal()
            return SurdComplex(self.re * r, self.im * r)
        # 1/(t*i) = -i/t
        r = o.im._reciprocal()
        return SurdComplex(self.im * r, -(self.re * r))


def conjugate(x):
    """Field conjugation: identity on real fields, negated imaginary part
    on complex ones."""
    if isinstance(x, RATIONAL_TYPES):
        return x
    return x.conjugate()


def rational_value(x):
    """x as a rational when it is one, else None (x in Q, Q(i) or a surd field)."""
    if type(x) is RAT:
        return x
    if isinstance(x, (GaussianRational, SurdComplex)):
        return None if x.im else rational_value(x.re)
    return x.coefficient(1) if all(d == 1 for d, _ in x.terms) else None


def field_arith(x, y, op: str):
    """Apply one of add | sub | mul | div to two scalars of the same field."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        if isinstance(y, RATIONAL_TYPES) and not y:
            raise DivisionByZero("division by zero")
        return x / y
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# field descriptors


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
            d = int(rest[:-1])
            coef = _parse_rational(coef_str)
        elif part.startswith(("sqrt(", "-sqrt(", "+sqrt(")):
            sign = -1 if part.startswith("-") else 1
            d = int(part[part.index("(") + 1 : -1])
            coef = RAT(sign)
        else:
            d = 1
            coef = _parse_rational(part)
        if d > MAX_RADICAND:
            raise ValueError(f"a radicand must be at most {MAX_RADICAND}, got {d}")
        if d > 0:
            # sqrt(s*s*f) = s*sqrt(f) with f squarefree
            s, d = squarefree_split(d)
            coef *= s
        elif d == 0:
            d, coef = 1, RAT(0)
        acc[d] = acc.get(d, RAT(0)) + coef
    return SurdReal(acc)


def _format_surd_real(x: SurdReal) -> str:
    if not x.terms:
        return "0"
    parts = []
    for d, q in x.terms:
        parts.append(str(q) if d == 1 else f"{q}*sqrt({d})")
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


class Field:
    """Descriptor for one of the supported exact fields.

    Instances are shared singletons (one per prime for GF), so identity
    comparison is field equality.
    """

    tag: str = ""
    characteristic: int = 0
    is_complex: bool = False

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def imaginary_unit(self):
        raise FieldMismatch(f"{self.tag} has no imaginary unit")

    def from_int(self, k: int):
        raise NotImplementedError

    def inv_int(self, k: int):
        """1/k in the field; NonInvertibleScalar when k vanishes here."""
        kf = self.from_int(k)
        if not kf:
            raise NonInvertibleScalar(
                f"{k} is not invertible in {self.describe()}"
            )
        return self.one() / kf

    def coerce(self, x):
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def sample(self, rng):
        """Small random element; drives deterministic test data."""
        raise NotImplementedError

    def conjugate(self, x):
        return conjugate(x)

    def describe(self) -> str:
        return self.tag

    def __repr__(self):
        return f"<field {self.describe()}>"


class RationalField(Field):
    tag = "Q"

    def from_int(self, k):
        return RAT(k)

    def coerce(self, x):
        if isinstance(x, RATIONAL_TYPES):
            return x if type(x) is RAT else RAT(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot take {type(x).__name__} as a rational")

    def parse(self, s):
        return _parse_rational(_text(s))

    def format(self, x):
        return str(x)

    def sample(self, rng):
        (x,) = sample_numerators(rng, 1)
        return RAT(x, SAMPLE_DEN)


class GaussianField(Field):
    tag = "Qi"
    is_complex = True

    def from_int(self, k):
        return GaussianRational(k)

    def imaginary_unit(self):
        return I_GAUSS

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, RATIONAL_TYPES):
            return GaussianRational(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot take {type(x).__name__} as a Gaussian rational")

    def parse(self, s):
        re_str, im_str = _split_gaussian_string(_text(s))
        im_str = im_str.strip()
        if im_str in ("+", "-"):
            im_str += "1"
        return GaussianRational(_parse_rational(re_str), _parse_rational(im_str))

    def format(self, x):
        if not x.im:
            return str(x.re)
        if not x.re:
            return f"{x.im}i"
        sep = "+" if x.im > 0 else "-"
        return f"{x.re}{sep}{abs(x.im)}i"

    def sample(self, rng):
        re, im = sample_numerators(rng, 2)
        return GaussianRational(RAT(re, SAMPLE_DEN), RAT(im, SAMPLE_DEN))


class PrimeField(Field):
    def __init__(self, p: int):
        if p > MAX_P:
            raise ValueError(f"the prime p must be at most {MAX_P}, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    tag = "GF"

    def from_int(self, k):
        return PrimeFieldElement(k, self.p)

    def coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise FieldMismatch(f"GF({x.p}) element in GF({self.p})")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self.p)
        if isinstance(x, RATIONAL_TYPES):
            return self.from_int(int(x.numerator)) / self.from_int(int(x.denominator))
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot take {type(x).__name__} in GF({self.p})")

    def parse(self, s):
        return PrimeFieldElement(int(_text(s)), self.p)

    def format(self, x):
        return str(x.residue)

    def sample(self, rng):
        (r,) = sample_residues(rng, self.p, 1)
        return PrimeFieldElement(r, self.p)

    def describe(self):
        return f"GF({self.p})"


class SurdRealField(Field):
    tag = "surd"

    def from_int(self, k):
        return SurdReal(k)

    def coerce(self, x):
        if isinstance(x, SurdReal):
            return x
        if isinstance(x, RATIONAL_TYPES):
            return SurdReal(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot take {type(x).__name__} as a real surd")

    def parse(self, s):
        return _parse_surd_real(_text(s))

    def format(self, x):
        return _format_surd_real(x)


class SurdComplexField(Field):
    tag = "surd_c"
    is_complex = True

    def from_int(self, k):
        return SurdComplex(k)

    def imaginary_unit(self):
        return SurdComplex(0, 1)

    def coerce(self, x):
        if isinstance(x, SurdComplex):
            return x
        if isinstance(x, (SurdReal, GaussianRational, *RATIONAL_TYPES)):
            return SurdComplex._coerce(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot take {type(x).__name__} as a complex surd")

    def parse(self, s):
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

    def format(self, x):
        return f"({_format_surd_real(x.re)})+({_format_surd_real(x.im)})i"


QQ = RationalField()
QI = GaussianField()
SURD = SurdRealField()
SURD_C = SurdComplexField()

# the field of the rational parts of a surd matrix (``Matrix.rational_parts``)
PART_FIELDS = {SURD: QQ, SURD_C: QI}

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """The prime field GF(p); instances are cached so identity works."""
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def field_by_tag(tag: str, p: int | None = None) -> Field:
    """The field of a wire tag; ``p`` is the prime of GF and must be
    None with every other tag."""
    if p is not None and tag != "GF":
        raise ValueError(f"a prime p is only for the field GF, not {tag!r}")
    if tag == "Q":
        return QQ
    if tag == "Qi":
        return QI
    if tag == "surd":
        return SURD
    if tag == "surd_c":
        return SURD_C
    if tag == "GF":
        if type(p) is not int:
            raise ValueError("GF needs an integer prime p")
        return GF(p)
    raise ValueError(f"unknown field tag {tag!r}")


# widening: which fields embed into which
_WIDENINGS = {
    ("Q", "Q"), ("Q", "Qi"), ("Q", "surd"), ("Q", "surd_c"),
    ("Qi", "Qi"), ("Qi", "surd_c"),
    ("surd", "surd"), ("surd", "surd_c"),
    ("surd_c", "surd_c"),
    ("GF", "GF"),
}


def can_widen(src: Field, dst: Field) -> bool:
    if (src.tag, dst.tag) not in _WIDENINGS:
        return False
    if src.tag == "GF":
        return src is dst
    return True


def widen_scalar(x, src: Field, dst: Field):
    """Embed x from field src into field dst (raises FieldMismatch if impossible)."""
    if src is dst:
        return x
    if not can_widen(src, dst):
        raise FieldMismatch(f"cannot widen {src.describe()} into {dst.describe()}")
    return dst.coerce(x)
