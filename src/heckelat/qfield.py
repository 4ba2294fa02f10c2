"""Exact rational-function arithmetic over Q in one formal variable q.

An element of Q(q) is a pair num/den of integer polynomials (coefficient tuples
in Z[q]) in canonical form: coprime in Q[q], no common integer content, and a
positive leading coefficient of den; zero is ()/(1,). The form is unique, so
equality and hashing compare the tuples. Polynomial gcd (primitive
pseudo-remainder sequence) and exact division run in Z[q]; `Fraction` appears
only at the boundary: `from_fraction`, `eval` and `q_pow`.
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
    """A rational function num/den with coprime integer polynomials, den leading coefficient > 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: Coeffs, den: Coeffs, _canonical: bool = False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "RatFunc":
        return RatFunc((n,) if n else (), (1,), _canonical=True)

    @staticmethod
    def from_fraction(x: Fraction) -> "RatFunc":
        x = Fraction(x)
        num = (x.numerator,) if x.numerator else ()
        return RatFunc(num, (x.denominator,), _canonical=True)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == (1,)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(_padd(self.num, other.num), self.den)
        return RatFunc(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(_pneg(self.num), self.den, _canonical=True)

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
        if self.den == (1,) and other.den == (1,):
            return RatFunc(_pmul(self.num, other.num), (1,), _canonical=True)
        # cross-reduce before multiplying to keep degrees small
        g1 = _pgcd(self.num, other.den)
        g2 = _pgcd(other.num, self.den)
        n1, d2 = _pdiv_exact(self.num, g1), _pdiv_exact(other.den, g1)
        n2, d1 = _pdiv_exact(other.num, g2), _pdiv_exact(self.den, g2)
        # n1/d1 and n2/d2 are coprime and so are n1/d2 and n2/d1: the product needs no gcd
        return RatFunc(*_normalize(_pmul(n1, n2), _pmul(d1, d2)), _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(*_normalize(other.den, other.num), _canonical=True)

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
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

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

        return RatFunc(stretch(self.num), stretch(self.den), _canonical=True)

    # -- printing -----------------------------------------------------------
    def to_str(self, var: str = "q") -> str:
        if self.den == (1,):
            return _poly_str(self.num, var)
        return f"({_poly_str(self.num, var)})/({_poly_str(self.den, var)})"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


def _canonicalize(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    num = _strip(list(num))
    den = _strip(list(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    g = _pgcd(num, den)
    return _normalize(_pdiv_exact(num, g), _pdiv_exact(den, g))


def _normalize(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Canonical form of num/den when num and den are already coprime in Q[q]: content and sign."""
    if not num:
        return (), (1,)
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


ZERO = RatFunc.from_int(0)
ONE = RatFunc.from_int(1)
Q = RatFunc((0, 1), (1,), _canonical=True)  # the variable q


def q_pow(k) -> RatFunc:
    """q^k for integral k (Fraction input must be integral)."""
    if isinstance(k, Fraction):
        if k.denominator != 1:
            raise QFieldError(f"q^{k} is not a rational function of q (half-integral power)")
        k = int(k)
    if k >= 0:
        return RatFunc((0,) * k + (1,), (1,), _canonical=True)
    return RatFunc((1,), (0,) * (-k) + (1,), _canonical=True)


def as_ratfunc(x) -> RatFunc:
    r = _coerce(x)
    if r is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a rational function")
    return r
