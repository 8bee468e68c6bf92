"""Exact scalar arithmetic.

Five fields are supported, each with an involutive conjugation:

* rationals,
* Gaussian rationals a + bi with rational a, b,
* prime fields GF(p),
* real quadratic surds, i.e. finite sums sum_d q_d * sqrt(d) with
  rational coefficients and squarefree d,
* complex surds (surd real + surd imaginary part).

All values are immutable and kept in canonical form, so ``==`` is exact
mathematical equality, and it agrees with ``hash``: values of two
families compare in the complex surds, where both embed, and a GF(p)
element equals only an element of the same GF(p), never an int.

Rationals are stdlib ``fractions.Fraction``, the one rational type
(``RAT`` names it).  The other four types share the private base
``_Scalar``, which writes the immutability guard, ``+ - * /`` with their
reflected forms, ``==`` and the identity ``conjugate`` once.  Each
operator takes its operand through the type's ``_coerce`` (None for a
foreign operand), then calls the type's primitives: ``_add``, ``_mul``,
``_key`` (the canonical parts that ``==`` compares) and ``_inverse``,
which only ``GaussianRational`` and ``PrimeFieldElement`` have: the surd
types do not divide, as every matrix operation runs on rational parts.
``GaussianRational`` and ``SurdComplex`` share theirs through
``_ComplexPair``: a value is a pair (re, im), and only construction and
coercion differ.

Entry strings have one reader, ``read_entries``, which returns them as
rational parts, the layout of each field's integer-form codec
(``Field.parts``, ``Field.entries``); ``Field.parse`` is ``entries`` of
that reader on one string.

Random elements are small rationals num/den with |num| <= SAMPLE_BOUND
and 1 <= den <= SAMPLE_BOUND, drawn numerator first, and residues of
GF(p).  Every draw is ``Field.draw``: ``sample_numerators`` (over
SAMPLE_DEN) or ``sample_residues``, which call ``rng.getrandbits`` with
the rejection rule of CPython's ``randint`` and ``randrange``: the same
random stream, without their per-call frames.  The samplers of the
matrix classes draw these integers straight into integer forms.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, lcm

from .errors import (
    DivisionByZero,
    FieldMismatch,
    MalformedWire,
    NonInvertibleScalar,
    wire_field,
)

RAT = Fraction
RATIONAL_TYPES = (int, Fraction)

# the ``_raw`` constructors build a value of canonical parts without
# ``__init__``: they set its slots through the slot descriptors
# (``_set_re`` and the like, bound after each class), which skip the
# immutability guard of ``__setattr__``
_new = object.__new__
_set_numerator, _set_denominator = RAT._numerator.__set__, RAT._denominator.__set__


def raw_rational(x: int, den: int) -> Fraction:
    """x / den for ints x and den > 0, reduced: the value of
    ``Fraction(x, den)``, built through its slots without the type
    dispatch of ``Fraction.__new__``."""
    g = gcd(x, den)
    out = _new(RAT)
    _set_numerator(out, x // g)
    _set_denominator(out, den // g)
    return out


# the one rational zero that every zero numerator over Q or Q(i) becomes
_ZERO = RAT(0)


def common_denominator(values) -> tuple[list[int], int]:
    """(numerators, den): the rationals ``values`` (ints allowed) as
    integers over their least common denominator, 1 for no values."""
    dens = [int(x.denominator) for x in values]
    den = reduce(lcm, dens, 1)
    return [int(x.numerator) * (den // d) for x, d in zip(values, dens)], den


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

# The largest absolute exponent of a rational token such as "1e5": Fraction
# builds 10**exponent, which takes time and memory without bound, while
# "1" followed by more zeros than this as a plain integer is already
# refused by CPython's default int-string digit limit (4300).  A fixed
# bound, not an option.
MAX_EXPONENT = 4300


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


class _Scalar:
    """The operators of the four scalar types (see the module docstring)."""

    __slots__ = ()
    _inverse = None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _coerce(cls, x):
        # a value of the type or a rational; PrimeFieldElement and
        # SurdComplex take other operands
        if isinstance(x, cls):
            return x
        if isinstance(x, RATIONAL_TYPES):
            return cls(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._add(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._mul(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None or self._inverse is None:
            return NotImplemented
        return self._mul(o._inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None or self._inverse is None:
            return NotImplemented
        return o._mul(self._inverse())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is not None:
            return self._key == o._key
        # scalars of two families compare in the complex surds, where both
        # embed, so that equality stays transitive
        o = SurdComplex._coerce(other)
        return NotImplemented if o is None else SurdComplex._coerce(self) == o

    def conjugate(self):
        return self


class _ComplexPair(_Scalar):
    """re + i*im over a real field; a subclass gives ``__init__``, which
    makes re and im canonical."""

    __slots__ = ("re", "im")

    @classmethod
    def _raw(cls, re, im):
        # re and im already canonical: RAT for GaussianRational, SurdReal
        # for SurdComplex
        out = _new(cls)
        _set_re(out, re)
        _set_im(out, im)
        return out

    @property
    def _key(self):
        return self.re, self.im

    def _add(self, o):
        return type(self)(self.re + o.re, self.im + o.im)

    def _mul(self, o):
        return type(self)(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return type(self)(-self.re, -self.im)

    def conjugate(self):
        return type(self)(self.re, -self.im)

    def __hash__(self):
        # a real value hashes like its real part; SurdReal parts hash like
        # the rationals they equal, so a GaussianRational and a SurdComplex
        # of the same value hash alike
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"{type(self).__name__}({self.re!r}, {self.im!r})"


_set_re, _set_im = _ComplexPair.re.__set__, _ComplexPair.im.__set__


class GaussianRational(_ComplexPair):
    """a + bi with rational a, b."""

    __slots__ = ()

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", re if type(re) is RAT else RAT(re))
        object.__setattr__(self, "im", im if type(im) is RAT else RAT(im))

    def _inverse(self):
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise DivisionByZero("division by zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)


I_GAUSS = GaussianRational(0, 1)


class PrimeFieldElement(_Scalar):
    """Residue in GF(p)."""

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        object.__setattr__(self, "residue", residue % p)
        object.__setattr__(self, "p", p)

    @classmethod
    def _raw(cls, residue: int, p: int) -> PrimeFieldElement:
        # residue already in [0, p)
        out = _new(cls)
        _set_residue(out, residue)
        _set_p(out, p)
        return out

    def _coerce(self, x):
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({x.p})")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self.p)
        return None

    def _add(self, o):
        return PrimeFieldElement(self.residue + o.residue, self.p)

    def _mul(self, o):
        return PrimeFieldElement(self.residue * o.residue, self.p)

    def _inverse(self):
        if not self.residue:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        # Fermat inverse; p is prime by field construction.
        return PrimeFieldElement(pow(self.residue, self.p - 2, self.p), self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.residue, self.p)

    def __eq__(self, other):
        # never equal to an int: no hash agrees with equality mod p, as k
        # and k + p hash apart; compare with ``GF(p).coerce(k)``
        if type(other) is not PrimeFieldElement:
            return NotImplemented
        return self.p == other.p and self.residue == other.residue

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"PrimeFieldElement({self.residue}, {self.p})"


_set_residue, _set_p = PrimeFieldElement.residue.__set__, PrimeFieldElement.p.__set__


class SurdReal(_Scalar):
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

    @classmethod
    def _raw(cls, pairs) -> SurdReal:
        # pairs already sorted, squarefree, nonzero
        out = _new(cls)
        _set_terms(out, tuple(pairs))
        return out

    @property
    def terms(self):
        return self._terms

    _key = terms

    def coefficient(self, d: int):
        for key, q in self._terms:
            if key == d:
                return q
        return RAT(0)

    @staticmethod
    def _collect(terms) -> SurdReal:
        # the sum of the terms (d, q), like radicands collected
        acc = {}
        for d, q in terms:
            acc[d] = acc.get(d, 0) + q
        return SurdReal._raw(sorted((d, q) for d, q in acc.items() if q))

    def _add(self, o):
        return self._collect(self._terms + o._terms)

    def _mul(self, o):
        terms = []
        for d, q in self._terms:
            for e, r in o._terms:
                s, f = surd_basis_product(d, e)
                terms.append((f, q * r * s))
        return self._collect(terms)

    def __neg__(self):
        return SurdReal._raw((d, -q) for d, q in self._terms)

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


_set_terms = SurdReal._terms.__set__


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


def conjugate(x):
    """Field conjugation: identity on real fields, negated imaginary part
    on complex ones."""
    return x.conjugate()


def rational_value(x):
    """x as a rational when it is one, else None; a GF(p) element is its
    residue, an int."""
    if type(x) is RAT:
        return x
    if type(x) is PrimeFieldElement:
        return x.residue
    if isinstance(x, (GaussianRational, SurdComplex)):
        return None if x.im else rational_value(x.re)
    return x.coefficient(1) if all(d == 1 for d, _ in x.terms) else None


# ---------------------------------------------------------------------------
# reading entry strings: a plain rational token (_INTS: an optional sign,
# ASCII digits, optionally '/' and a nonzero denominator) goes straight to
# ints.  An entry of plain tokens is one match of its field's pattern (and
# a surd sum one ``findall`` over its terms); any other is cut into tokens
# by _TOKEN, read by ``_ratio`` (Fraction's grammar) and radicands by ``int``.

_INTS = r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?"

# Q: a plain token with at most one extra '+'
_RATIONAL = re.compile(rf"\+?{_INTS}")

# Q(i): "a", "a±bi" or "bi" (not empty) with plain a in groups 1 and 2,
# and b in groups 3 and 4
_GAUSSIAN = re.compile(rf"(?!\Z)(?:\+?{_INTS}(?=[+-]|\Z))?(?:{_INTS}i)?")

# surd: terms q, q*sqrt(r) and ±sqrt(r) with plain q and ASCII digits r,
# each term after the first signed
_SQRT = rf"{_INTS}(?:\*sqrt\(([0-9]+)\))?|([+-]?)sqrt\(([0-9]+)\)"
_SURD_TERM = re.compile(_SQRT)
_SURD = re.compile(rf"(?:{_SQRT})(?:(?=[+-])(?:{_SQRT}))*")

# a complex surd "(re)+(im)i", with at most one level of parentheses
# inside its real half
_COMPLEX_SURD = re.compile(r"\(((?:[^()]|\([^()]*\))*)\)\+\((.*)\)i", re.DOTALL)

# the tokens of an entry that is not plain: from its start or a sign to
# the next sign that is not an exponent's or inside parentheses
_TOKEN = re.compile(r"(?:[+-]|\A)(?:[^+\-(]|(?<=[eE])[+-]|\([^()]*\)?)*")

# the exponent of a token, as Fraction's grammar reads it: the last part
# of the token, underscores between digits
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def _ratio(token: str) -> tuple[int, int]:
    # a token that is not plain, by Fraction's grammar after one '+', its
    # exponent bounded before Fraction builds the power of ten
    token = token.strip().removeprefix("+")
    exponent = _EXPONENT.search(token)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"an exponent must be at most {MAX_EXPONENT} in absolute value, got {token!r}")
    try:
        x = RAT(token)
    except ZeroDivisionError:
        raise DivisionByZero(f"zero denominator in {token!r}") from None
    return x.numerator, x.denominator


def _gaussian_ratios(s: str) -> tuple[int, int, int, int]:
    # (re numerator, re denominator, im numerator, im denominator) of a
    # Q(i) entry that is not plain: a, or a±bi and bi cut before their
    # last token; a blank, '+' or '-' b reads as 1, +1 or -1
    s = s.strip()
    if not s.endswith("i"):
        return (*_ratio(s), 0, 1)
    *re_tokens, im_token = _TOKEN.findall(s[:-1])
    im_token = im_token.strip()
    return (*_ratio("".join(re_tokens) or "0"), *_ratio(im_token + "1" if im_token in ("", "+", "-") else im_token))


def _surd_term(term: str) -> tuple:
    # (numerator, denominator, radicand) of a surd term that is not plain:
    # c*sqrt(r), ±sqrt(r) or a token c
    coef, star, rad = term.partition("*sqrt(")
    if not star and term.startswith(("sqrt(", "+sqrt(", "-sqrt(")):
        coef, star, rad = term.partition("sqrt(")
        coef += "1"
    if star and not rad.endswith(")"):
        raise ValueError(f"a sqrt( term must end in ')', got {term!r}")
    rad = int(rad[:-1]) if star else 1
    return (*_ratio(coef if star else term), rad)


def _surd_terms(text: str, k: int, terms: list) -> None:
    # append (squarefree radical, k, numerator, denominator) for each term
    # of a surd sum, in order
    if _SURD.fullmatch(text):
        found = [(q or sign + "1", d or 1, r or r1 or 1) for q, d, r, sign, r1 in _SURD_TERM.findall(text)]
    else:
        found = map(_surd_term, _TOKEN.findall(text.strip()))
    for q, d, r in found:
        r = int(r)
        if r > MAX_RADICAND:
            raise ValueError(f"a radicand must be at most {MAX_RADICAND}, got {r}")
        if r < 0:
            raise ValueError(f"a radicand must not be negative, got {r}")
        # sqrt(s*s*g) = s*sqrt(g); sqrt(0) is a zero term
        s, g = squarefree_split(r) if r > 1 else (r, 1)
        terms.append((g, k, int(q) * s, int(d)))


def _read_rationals(strings: list, gaussian: bool) -> tuple:
    # numerator and denominator per half: digit strings (None for a
    # missing part) of a plain entry, ints of any other
    if gaussian:
        ratios = [_gaussian_ratios(s) if x is None else x.group(1, 2, 3, 4)
                  for x, s in zip(map(_GAUSSIAN.fullmatch, strings), strings)]
        qs = [x[0] for x in ratios] + [x[2] for x in ratios]
        ds = [int(x[1] or 1) for x in ratios] + [int(x[3] or 1) for x in ratios]
    else:
        ratios = [_ratio(s) if x is None else x.group(1, 2) for x, s in zip(map(_RATIONAL.fullmatch, strings), strings)]
        qs = [x[0] for x in ratios]
        ds = [int(x[1] or 1) for x in ratios]
    den = lcm(*ds)
    return ((1, ([int(q or 0) * (den // d) for q, d in zip(qs, ds)], den)),)


def _read_surds(strings: list, complex_: bool) -> tuple:
    mm, terms = len(strings), []
    for k, s in enumerate(strings):
        s = str.strip(s).replace(" ", "")
        if complex_ and s.startswith("(") and s.endswith(")i"):
            x = _COMPLEX_SURD.fullmatch(s)
            if x is None:
                raise ValueError(f"malformed complex surd string {s!r}")
            _surd_terms(x[1], k, terms)
            _surd_terms(x[2], mm + k, terms)
        else:
            _surd_terms(s, k, terms)
    den = lcm(*{d for _, _, _, d in terms})
    size = 2 * mm if complex_ else mm
    parts = {1: [0] * size}
    for g, k, q, d in terms:
        if g not in parts:
            parts[g] = [0] * size
        parts[g][k] += q * (den // d)
    return tuple((g, (parts[g], den)) for g in sorted(parts))


def read_entries(field: Field, strings: list) -> tuple:
    """The entry strings of ``field`` as parts laid out as
    ``Matrix.rational_parts``, but unreduced, over one positive common
    denominator: g increasing, 1 first, a cancelled radical's part kept as
    zeros.  Blanks are ignored inside surd entries; a GF(p) entry is the
    residue of what ``int`` reads.  The error is that of the first refused
    entry: of ``_ratio`` or ``int``, a non-string, a sqrt( term that does
    not end in ')', a radicand out of bounds or a malformed complex surd."""
    try:
        if field.characteristic:
            p = field.p
            return ((1, ([int(t) % p for t in map(str.strip, strings)], 1)),)
        if field in PART_FIELDS:
            return _read_surds(strings, field.is_complex)
        return _read_rationals(strings, field.is_complex)
    except TypeError:
        # a non-string: one entry at a time, so the first refused one wins
        for s in strings:
            if not isinstance(s, str):
                raise MalformedWire(f"a scalar must be a string, got {type(s).__name__} {s!r}") from None
            read_entries(field, [s])
        raise


# ---------------------------------------------------------------------------
# field descriptors


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
    comparison is field equality.  A value enters a field by one rule,
    ``coerce``: first the operand rule of the field's element type
    (``_operand``: an element, or a value of a field that embeds in this
    one), then a string through ``parse`` (``read_entries`` on one
    string); anything else is a ``FieldMismatch``.

    Each field has one integer-form codec: ``parts`` reads canonical
    values into reduced parts ((g, (nums, den)), ...), laid out as
    ``Matrix.rational_parts``; ``entries`` makes the canonical values of
    such parts, or of ``read_entries``, with the raw constructors; ``draw``
    draws ``count`` coefficients as (numerators, den).  The base writes
    the rational codec.
    """

    # ``parse``, ``format`` and ``sample`` stay on each field class that
    # defines them: ``perfbench/tracer.py`` times them there.

    tag: str = ""
    characteristic: int = 0
    is_complex: bool = False
    # how the FieldMismatch of ``coerce`` names the field
    _as: str = ""

    def coerce(self, x):
        o = self._operand(x)
        if o is not None:
            return o
        if isinstance(x, str):
            return self.parse(x)
        raise FieldMismatch(f"cannot take {type(x).__name__} {self._as}")

    def parts(self, values) -> tuple:
        return ((1, common_denominator(values)),)

    def entries(self, parts) -> list:
        ((_, (nums, den)),) = parts
        return [raw_rational(x, den) if x else _ZERO for x in nums]

    def draw(self, rng, count: int) -> tuple[list[int], int]:
        return sample_numerators(rng, count), SAMPLE_DEN

    def from_int(self, k):
        return self.coerce(k)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def imaginary_unit(self):
        raise FieldMismatch(f"{self.tag} has no imaginary unit")

    def inv_int(self, k: int):
        """1/k in the field; NonInvertibleScalar when k vanishes here."""
        if not self.from_int(k):
            raise NonInvertibleScalar(
                f"{k} is not invertible in {self.describe()}"
            )
        return self.coerce(RAT(1, k))

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
    _as = "as a rational"

    @staticmethod
    def _operand(x):
        if isinstance(x, RATIONAL_TYPES):
            return x if type(x) is RAT else RAT(x)
        return None

    def parse(self, s):
        return self.entries(read_entries(self, [s]))[0]

    def format(self, x):
        return str(x)

    def sample(self, rng):
        return self.entries(((1, self.draw(rng, 1)),))[0]


class PrimeField(Field):
    def __init__(self, p: int):
        if p > MAX_P:
            raise ValueError(f"the prime p must be at most {MAX_P}, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self._as = f"in GF({p})"

    tag = "GF"

    def _operand(self, x):
        # an element of another GF(q) is refused, a rational is divided out
        if isinstance(x, PrimeFieldElement):
            if x.p != self.p:
                raise FieldMismatch(f"GF({x.p}) element in GF({self.p})")
            return x
        if isinstance(x, int):
            return PrimeFieldElement(x, self.p)
        if isinstance(x, RAT):
            return PrimeFieldElement(x.numerator, self.p) / PrimeFieldElement(x.denominator, self.p)
        return None

    def parts(self, values):
        return ((1, ([x.residue for x in values], 1)),)

    def entries(self, parts):
        ((_, (nums, _)),) = parts
        p, raw = self.p, PrimeFieldElement._raw
        return [raw(x, p) for x in nums]

    def draw(self, rng, count):
        return sample_residues(rng, self.p, count), 1

    def parse(self, s):
        return self.entries(read_entries(self, [s]))[0]

    def format(self, x):
        return str(x.residue)

    def sample(self, rng):
        return self.entries(((1, self.draw(rng, 1)),))[0]

    def describe(self):
        return f"GF({self.p})"


class SurdRealField(Field):
    tag = "surd"
    _as = "as a real surd"
    _operand = staticmethod(SurdReal._coerce)

    def parts(self, values):
        # the coefficients of sqrt(g) for g = 1 and every radical that
        # occurs, each list over its least common denominator
        coeffs = {1: [0] * len(values)}
        for k, x in enumerate(values):
            for g, q in x.terms:
                coeffs.setdefault(g, [0] * len(values))[k] = q
        return tuple((g, common_denominator(v)) for g, v in sorted(coeffs.items()))

    def entries(self, parts):
        keys, dens = [g for g, _ in parts], [d for _, (_, d) in parts]
        return [
            SurdReal._raw([(g, raw_rational(x, d)) for g, d, x in zip(keys, dens, xs) if x])
            for xs in zip(*[nums for _, (nums, _) in parts])
        ]

    def parse(self, s):
        return self.entries(read_entries(self, [s]))[0]

    def format(self, x):
        return _format_surd_real(x)


QQ = RationalField()
SURD = SurdRealField()


class _ComplexField(Field):
    """The codec of the real field ``_real`` on the real parts, then the
    imaginary parts, of the values, paired by ``_pair``."""

    is_complex = True

    def parts(self, values):
        return self._real.parts([x.re for x in values] + [x.im for x in values])

    def entries(self, parts):
        flat = self._real.entries(parts)
        # map stops after the first half, the real parts
        return list(map(self._pair, flat, flat[len(flat) // 2 :]))


class GaussianField(_ComplexField):
    tag = "Qi"
    _as = "as a Gaussian rational"
    _operand = staticmethod(GaussianRational._coerce)
    _real, _pair = QQ, staticmethod(GaussianRational._raw)

    def imaginary_unit(self):
        return I_GAUSS

    def parse(self, s):
        return self.entries(read_entries(self, [s]))[0]

    def format(self, x):
        if not x.im:
            return str(x.re)
        if not x.re:
            return f"{x.im}i"
        sep = "+" if x.im > 0 else "-"
        return f"{x.re}{sep}{abs(x.im)}i"

    def sample(self, rng):
        return self.entries(((1, self.draw(rng, 2)),))[0]


class SurdComplexField(_ComplexField):
    tag = "surd_c"
    _as = "as a complex surd"
    _operand = staticmethod(SurdComplex._coerce)
    _real, _pair = SURD, staticmethod(SurdComplex._raw)

    def imaginary_unit(self):
        return SurdComplex(0, 1)

    def parse(self, s):
        return self.entries(read_entries(self, [s]))[0]

    def format(self, x):
        return f"({_format_surd_real(x.re)})+({_format_surd_real(x.im)})i"


QI = GaussianField()
SURD_C = SurdComplexField()

# the field of the rational parts of a surd matrix (``Matrix.rational_parts``)
PART_FIELDS = {SURD: QQ, SURD_C: QI}

# the fields of the wire tags but GF, whose field depends on p
_TAGGED = {field.tag: field for field in (QQ, QI, SURD, SURD_C)}

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
    if tag == "GF":
        if type(p) is not int:
            raise ValueError("GF needs an integer prime p")
        return GF(p)
    if tag not in _TAGGED:
        raise ValueError(f"unknown field tag {tag!r}")
    return _TAGGED[tag]


def field_from_wire(doc: dict, what: str) -> Field:
    """The field of the ``what`` wire document ``doc``: its "field" tag
    (str) and, with GF or whenever present, its "p" (int)."""
    tag = wire_field(doc, "field", str, what)
    return field_by_tag(tag, wire_field(doc, "p", int, what) if tag == "GF" or "p" in doc else None)


# widening: the other fields each field embeds into (a GF(p) into none)
_WIDER = {QQ: (QI, SURD, SURD_C), QI: (SURD_C,), SURD: (SURD_C,)}


def can_widen(src: Field, dst: Field) -> bool:
    return src is dst or dst in _WIDER.get(src, ())


def widen_scalar(x, src: Field, dst: Field):
    """Embed x from field src into field dst (raises FieldMismatch if impossible)."""
    if src is dst:
        return x
    if not can_widen(src, dst):
        raise FieldMismatch(f"cannot widen {src.describe()} into {dst.describe()}")
    return dst.coerce(x)
