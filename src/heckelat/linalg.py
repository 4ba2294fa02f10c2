"""Exact linear algebra over Q, on vectors and matrices stored as tuples (matrices as tuples of row tuples).

Products (`dot`, `mat_vec`, `mat_mul`, `identity`) keep their inputs' type: integer
inputs give integers, and one rational input gives Fractions. The vector
helpers and the elimination routines always return Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

QVec = tuple[Fraction, ...]
QMat = tuple[QVec, ...]


def fvec(v) -> QVec:
    return tuple(Fraction(x) for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(Fraction(x) + Fraction(y) for x, y in zip(a, b))


def vsub(a, b):
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))


def vscale(c, a):
    c = Fraction(c)
    return tuple(c * Fraction(x) for x in a)


def vneg(a):
    return tuple(-Fraction(x) for x in a)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    rows = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m) -> int:
    if not m:
        return 0
    _, pivots = _rref([list(r) for r in m])
    return len(pivots)


def solve(a, b) -> QVec | None:
    """One solution x of a x = b, or None if inconsistent."""
    if not a:
        return ()
    n = len(a[0])
    aug = [list(map(Fraction, row)) + [Fraction(bb)] for row, bb in zip(a, b)]
    rows, pivots = _rref(aug)
    for row in rows:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        if c < n:
            x[c] = rows[r][-1]
        elif rows[r][-1] != 0:
            return None
    return tuple(x)


def nullspace(a) -> list[QVec]:
    """Basis of {x : a x = 0}."""
    if not a:
        return []
    n = len(a[0])
    rows, pivots = _rref([list(r) for r in a])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def inverse(m) -> QMat:
    n = len(m)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def primitive_vector(v) -> QVec:
    """Scale a nonzero rational vector by a positive constant to a primitive integer vector (sign preserved)."""
    v = fvec(v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(Fraction(x // g) for x in ints)
