"""Exact linear algebra over Q, on vectors and matrices stored as tuples (matrices as tuples of row tuples).

Products (`dot`, `mat_vec`, `mat_mul`, `identity`) and `vneg` keep their inputs'
type: integer inputs give integers, and one rational input gives Fractions.
`clear_denominators`, `primitive_vector`, `nullspace`, `det` and `adjugate` (of
an integer matrix) return integers. The other vector helpers, `solve` and
`inverse` (adjugate over determinant) always return Fractions. Elimination runs
fraction-free on integer rows (`_echelon`); `_rref` divides by the pivots only
at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    return tuple(-x for x in a)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination: (nonzero int rows, pivot columns).

    Each rational row is first scaled to a primitive int row. Row r has its
    pivot in column pivots[r], and every other row is 0 there, so row r is a
    multiple of row r of the reduced row echelon form.
    """
    rows = [list(primitive_vector(r)) if any(r) else list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top, pv = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                row = [pv * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """The nonzero rows of the reduced row echelon form, and their pivot columns."""
    rows, pivots = _echelon(rows)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)], pivots


def pivot_columns(m) -> list[int]:
    return _echelon(m)[1]


def rank(m) -> int:
    return len(pivot_columns(m))


def solve(a, b) -> QVec | None:
    """One solution x of a x = b, or None if inconsistent."""
    if not a:
        return ()
    n = len(a[0])
    rows, pivots = _rref([list(row) + [bb] for row, bb in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return tuple(x)


def nullspace(a) -> list[tuple[int, ...]]:
    """Basis of {x : a x = 0}: primitive int vectors, one per free column, positive there and 0 at the other free columns."""
    if not a:
        return []
    n = len(a[0])
    rows, pivots = _echelon(a)
    scale = lcm(*(abs(row[c]) for row, c in zip(rows, pivots)))
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = scale
        for row, c in zip(rows, pivots):
            v[c] = -row[f] * (scale // row[c])
        basis.append(primitive_vector(v))
    return basis


def inverse(m) -> QMat:
    d = det(m)
    if not d:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row) for row in adjugate(m))


def det(m) -> int:
    """Determinant of a small square int matrix by Bareiss elimination (exact integer division)."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            p = next((i for i in range(k + 1, n) if m[i][k]), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def adjugate(m) -> tuple[tuple[int, ...], ...]:
    """Adjugate of a small square int matrix, det(m) times its inverse: entry (i, j) is the cofactor of (j, i)."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * det([r[:i] + r[i + 1 :] for k, r in enumerate(m) if k != j]) for j in range(n))
        for i in range(n)
    )


def clear_denominators(vectors) -> tuple[int, list[tuple[int, ...]]]:
    """(d, [d v for v in vectors]) with d > 0 the least common denominator of the rational entries, so d v is int."""
    d = lcm(*(x.denominator for v in vectors for x in v))
    return d, [tuple(x.numerator * (d // x.denominator) for x in v) for v in vectors]


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive constant to a primitive integer vector (sign preserved)."""
    _, (ints,) = clear_denominators([v])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in ints)
