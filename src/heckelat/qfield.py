"""Exact rational-function arithmetic over Q in one formal variable q.

An element of Q(q) is stored as q^v * n/d in Laurent normal form: v is an int,
and n, d are integer polynomials (coefficient tuples in Z[q]) that q divides
neither (n[0] != 0 != d[0]), coprime in Q[q], with no common integer content
and a positive leading coefficient of d; zero is v = 0, n = (), d = (1,). The
form is unique (a canonical form in the sense of Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992), so equality and hashing compare
(v, n, d).

Almost every element the program builds is a Laurent polynomial (d = (1,)).
Those add by shifting to the smaller valuation and multiply by adding
valuations, with no gcd and no exact division; a polynomial gcd (primitive
pseudo-remainder sequence in Z[q]) runs only where a non-constant d appears.
`num` and `den` give the element as one coprime pair in Z[q], q^v moved to the
side it belongs to; that is the pair the printer reads. `Fraction` appears only
at the boundary: `from_fraction`, `eval` and `q_pow`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

Coeffs = tuple[int, ...]  # ascending degree, no trailing zeros, () is the zero polynomial


class QFieldError(ArithmeticError):
    pass


def _strip(c: list[int]) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    return _strip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-x for x in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _strip(out)


def _content(a: Coeffs) -> int:
    g = 0
    for x in a:
        g = _int_gcd(g, abs(x))
    return g


def _primitive(a: Coeffs) -> Coeffs:
    g = _content(a)
    if g <= 1:
        return a
    return tuple(x // g for x in a)


def _qrem(a: Coeffs, b: Coeffs) -> Coeffs:
    # primitive part of the pseudo-remainder of a by b, computed in Z[q]
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b):
        g = _int_gcd(r[-1], lb)
        s, c = lb // g, r[-1] // g
        off = len(r) - len(b)
        r = [x * s for x in r]
        for i, y in enumerate(b):
            r[off + i] -= c * y
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _primitive(tuple(r))


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _qrem(a, b)
    if not a:
        return ()
    if a[-1] < 0:
        a = _pneg(a)
    return a


def _pdiv_exact(a: Coeffs, b: Coeffs) -> Coeffs:
    # exact quotient in Z[q] (raises if b does not divide a there)
    if b == (1,):
        return a
    r = list(a)
    out: list[int] = []
    lb = b[-1]
    while len(r) >= len(b):
        c, rem = divmod(r[-1], lb)
        if rem:
            raise QFieldError("inexact polynomial division")
        out.append(c)
        off = len(r) - len(b)
        for i, y in enumerate(b):
            r[off + i] -= c * y
        r.pop()
    if any(r):
        raise QFieldError("inexact polynomial division")
    out.reverse()
    return _strip(out)


def _poly_str(a: Coeffs, var: str) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
    return "".join(parts)


class RatFunc:
    """q^v n/d in Laurent normal form; RatFunc(num, den) brings any pair of integer polynomials to it."""

    __slots__ = ("_v", "_n", "_d")

    def __new__(cls, num: Coeffs, den: Coeffs) -> "RatFunc":
        num, den = _strip(list(num)), _strip(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        k = _valuation(den)
        return _lowest_terms(-k, num, den[k:])

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    # -- the coprime pair in Z[q] ----------------------------------------
    @property
    def num(self) -> Coeffs:
        return (0,) * self._v + self._n if self._v > 0 else self._n

    @property
    def den(self) -> Coeffs:
        return (0,) * -self._v + self._d if self._v < 0 else self._d

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "RatFunc":
        return _rf(0, (n,), (1,)) if n else ZERO

    @staticmethod
    def from_fraction(x: Fraction) -> "RatFunc":
        x = Fraction(x)
        return _rf(0, (x.numerator,), (x.denominator,)) if x else ZERO

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self._n

    def is_one(self) -> bool:
        return self._v == 0 and self._n == (1,) and self._d == (1,)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, n2 = self._n, other._n
        if not n1:
            return other
        if not n2:
            return self
        v1, v2, d1, d2 = self._v, other._v, self._d, other._d
        v = min(v1, v2)
        if d1 == d2:
            return _lowest_terms(v, _padd(_shift(n1, v1 - v), _shift(n2, v2 - v)), d1)
        n = _padd(_shift(_pmul(n1, d2), v1 - v), _shift(_pmul(n2, d1), v2 - v))
        if len(d1) == 1 or len(d2) == 1:
            # a constant denominator is a unit of Q[q], so n stays coprime to the other one
            return _coprime_terms(v, n, _pmul(d1, d2))
        return _lowest_terms(v, n, _pmul(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _rf(self._v, _pneg(self._n), self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not n1 or not n2:
            return ZERO
        v = self._v + other._v
        if d1 == (1,) and d2 == (1,):
            return _rf(v, _pmul(n1, n2), (1,))
        # cross-reduce against a non-constant denominator before multiplying
        if len(d2) > 1 and len(n1) > 1:
            g = _pgcd(n1, d2)
            n1, d2 = _pdiv_exact(n1, g), _pdiv_exact(d2, g)
        if len(d1) > 1 and len(n2) > 1:
            g = _pgcd(n2, d1)
            n2, d1 = _pdiv_exact(n2, g), _pdiv_exact(d1, g)
        # n1/d1 and n2/d2 are coprime and so are n1/d2 and n2/d1: the product needs no gcd
        return _rf(v, *_normalize(_pmul(n1, n2), _pmul(d1, d2)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        n, d = other._n, other._d
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return self * _rf(-other._v, d, n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "RatFunc":
        if k == 0:
            return ONE
        base = self if k > 0 else ONE / self
        k = abs(k)
        out = ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v and self._n == other._n and self._d == other._d

    def __hash__(self):
        return hash((self._v, self._n, self._d))

    # -- evaluation / substitution ----------------------------------------
    def eval(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        num = sum((Fraction(c) * x**k for k, c in enumerate(self.num)), Fraction(0))
        den = sum((Fraction(c) * x**k for k, c in enumerate(self.den)), Fraction(0))
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={x}")
        return num / den

    def double_exponents(self) -> "RatFunc":
        """Substitute q -> q^2 (used to realize half-integral powers exactly)."""

        def stretch(a: Coeffs) -> Coeffs:
            if not a:
                return ()
            out = [0] * (2 * len(a) - 1)
            for k, c in enumerate(a):
                out[2 * k] = c
            return tuple(out)

        return _rf(2 * self._v, stretch(self._n), stretch(self._d))

    # -- printing -----------------------------------------------------------
    def to_str(self, var: str = "q") -> str:
        num, den = self.num, self.den
        if den == (1,):
            return _poly_str(num, var)
        return f"({_poly_str(num, var)})/({_poly_str(den, var)})"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


_new = object.__new__
_set_v, _set_n, _set_d = RatFunc._v.__set__, RatFunc._n.__set__, RatFunc._d.__set__


def _rf(v: int, n: Coeffs, d: Coeffs) -> RatFunc:
    """The element q^v n/d of a triple already in Laurent normal form."""
    r = _new(RatFunc)
    _set_v(r, v)
    _set_n(r, n)
    _set_d(r, d)
    return r


def _valuation(a: Coeffs) -> int:
    """The power of q dividing a nonzero polynomial."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _shift(a: Coeffs, k: int) -> Coeffs:
    return (0,) * k + a if k else a


def _coprime_terms(v: int, n: Coeffs, d: Coeffs) -> RatFunc:
    """q^v n/d in normal form, for d[0] != 0 and n coprime to d in Q[q] (n may be zero or divisible by q)."""
    if not n:
        return ZERO
    k = _valuation(n)
    return _rf(v + k, *_normalize(n[k:] if k else n, d))


def _lowest_terms(v: int, n: Coeffs, d: Coeffs) -> RatFunc:
    """q^v n/d in normal form, for d[0] != 0; the gcd runs only when n and d are not constants."""
    if len(d) > 1 and len(n) > 1:
        g = _pgcd(n, d)
        n, d = _pdiv_exact(n, g), _pdiv_exact(d, g)
    return _coprime_terms(v, n, d)


def _normalize(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Content and sign of num/den when num and den are already coprime in Q[q]."""
    if den == (1,):
        return num, den
    c = _int_gcd(_content(num), _content(den))
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc.from_int(x)
    if isinstance(x, Fraction):
        return RatFunc.from_fraction(x)
    return NotImplemented


ZERO = _rf(0, (), (1,))
ONE = _rf(0, (1,), (1,))
Q = _rf(1, (1,), (1,))  # the variable q


def q_pow(k) -> RatFunc:
    """q^k for integral k (Fraction input must be integral)."""
    if isinstance(k, Fraction):
        if k.denominator != 1:
            raise QFieldError(f"q^{k} is not a rational function of q (half-integral power)")
        k = int(k)
    return _rf(k, (1,), (1,))


def as_ratfunc(x) -> RatFunc:
    r = _coerce(x)
    if r is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a rational function")
    return r
