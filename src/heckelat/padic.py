"""Ground-truth computation of the unipotent-pushforward measure over F_q((t)) for SL2 and SL3, by exact cell enumeration.

A cell fixes the digits of every unipotent coordinate below t^n. `_mu_sl2`,
`_mu_sl3_full` and `ball_histogram` evaluate `iwasawa_ord` on every cell of
their coordinate boxes through `_fibre_measures`. The SL3 oracle
`_mu_sl3_fast` enumerates the (x12, x23) cells the same way but counts x13 by
its digits below t^0, the only ones that move the valuations it tests;
`_mu_sl3_full` stays the witness for that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

CELL_CAP = 10**7


class PrecisionError(RuntimeError):
    pass


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class LaurentElement:
    """Truncated Laurent series over the prime field F_q.

    Coefficients are exact on exponents below `tail`; the series is undetermined
    (an arbitrary element of t^tail * O) from `tail` on.
    """

    q: int
    coeffs: tuple  # ((exponent, coefficient), ...) sorted, coefficients in [1, q)
    tail: int

    @staticmethod
    def make(q: int, pairs, tail: int) -> "LaurentElement":
        clean = {}
        for e, c in pairs:
            c %= q
            if c and e < tail:
                clean[int(e)] = c
        return LaurentElement(q, tuple(sorted(clean.items())), int(tail))

    def min_exp(self):
        return self.coeffs[0][0] if self.coeffs else None

    def add(self, other: "LaurentElement") -> "LaurentElement":
        tail = min(self.tail, other.tail)
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = (acc.get(e, 0) + c) % self.q
        return LaurentElement.make(self.q, acc.items(), tail)

    def neg(self) -> "LaurentElement":
        return LaurentElement.make(self.q, [(e, -c) for e, c in self.coeffs], self.tail)

    def mul(self, other: "LaurentElement") -> "LaurentElement":
        me, oe = self.min_exp(), other.min_exp()
        tail = min(
            self.tail + (oe if oe is not None else other.tail),
            other.tail + (me if me is not None else self.tail),
            self.tail + other.tail,
        )
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                if e < tail:
                    acc[e] = (acc.get(e, 0) + c1 * c2) % self.q
        return LaurentElement.make(self.q, acc.items(), tail)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j].mul(_det(minor))
        if j % 2:
            term = term.neg()
        acc = term if acc is None else acc.add(term)
    return acc


def _min_valuation(elements) -> int:
    """Exact minimum of the valuations; PrecisionError when the truncation leaves it ambiguous."""
    exact = [e.coeffs[0][0] for e in elements if e.coeffs]
    bounds = [e.tail for e in elements if not e.coeffs]
    if not exact:
        raise PrecisionError("all candidate valuations exceed the working precision")
    m = min(exact)
    if any(b <= m for b in bounds):
        raise PrecisionError("an undetermined valuation could fall below the current minimum")
    return m


_GROUP_SIZES = {"SL2": 2, "SL3": 3}


def iwasawa_ord(group: str, g) -> tuple[int, ...]:
    """Coweight of the torus part of g = k t ubar: valuations of the minors built from the last j columns.

    For lower-triangular Iwasawa data the only contributing minor of the last j
    columns uses the last j rows, so these valuations are truncation-stable.
    """
    if group not in _GROUP_SIZES:
        raise OracleError(f"unknown group {group!r}; expected SL2 or SL3")
    r = _GROUP_SIZES[group]
    if len(g) != r or any(len(row) != r for row in g):
        raise OracleError("matrix size does not match the group")
    ms = []
    for j in range(1, r):
        cols = range(r - j, r)
        minors = [_det([[g[i][c] for c in cols] for i in rows]) for rows in combinations(range(r), j)]
        ms.append(_min_valuation(minors))
    # coroot coordinates: n_k = -m_{r-k}
    return tuple(-ms[r - 1 - k] for k in range(1, r))


def _cell_values(q: int, lo: int, hi: int):
    """All exact Laurent representatives with support in [lo, hi) (cells of t^hi O)."""
    exps = list(range(lo, hi))
    for coeffs in product(range(q), repeat=len(exps)):
        yield LaurentElement.make(q, zip(exps, coeffs), hi)


def _unipotent(group: str, q: int, coords, tail: int):
    """The upper unitriangular matrix with the given coordinates above the diagonal (SL2: x; SL3: x12, x13, x23)."""
    zero, one = LaurentElement.make(q, [], tail), LaurentElement.make(q, [(0, 1)], tail)
    if group == "SL2":
        (x,) = coords
        return ((one, x), (zero, one))
    x12, x13, x23 = coords
    return ((one, x12, x13), (zero, one, x23), (zero, zero, one))


def _fibre_measures(group: str, q: int, lows, n: int) -> dict:
    """{iwasawa_ord: measure} over the cells mod t^n of the box prod_i t^lows[i] O, one iwasawa_ord per cell.

    lows gives the lowest exponent of each coordinate in the order of
    `_unipotent`; each cell has measure q^(-n dim U).
    """
    counts: dict = {}

    def walk(coords):
        if len(coords) == len(lows):
            lam = iwasawa_ord(group, _unipotent(group, q, coords, n))
            counts[lam] = counts.get(lam, 0) + 1
            return
        for x in _cell_values(q, lows[len(coords)], n):
            walk(coords + (x,))

    walk(())
    return {lam: Fraction(c, q ** (n * len(lows))) for lam, c in counts.items()}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def mu_oracle(group: str, lam, q: int, precision: int) -> Fraction:
    """Exact measure of {u in U : iwasawa_ord(u) = lam}, normalized by mes(U cap K) = 1."""
    if not _is_prime(q):
        raise OracleError(f"oracle requires a prime residue cardinality, got {q}")
    if group == "SL2":
        return _mu_sl2(lam, q, precision)
    if group == "SL3":
        return _mu_sl3_fast(lam, q, precision)
    raise OracleError(f"unknown group {group!r}")


def _mu_sl2(lam, q: int, n: int) -> Fraction:
    if len(lam) != 1:
        raise OracleError("SL2 coweights have one coordinate")
    target = int(lam[0])
    if target < 0:
        return Fraction(0)
    if n < 1:
        raise PrecisionError("precision must be at least 1")
    # cells with v(x) < -(target+1) map to strictly larger coweights: skipping them is exact
    w = target + 1
    if q ** (w + n) > CELL_CAP:
        raise OracleError("cell count exceeds the cap")
    return _fibre_measures("SL2", q, (-w,), n).get((target,), Fraction(0))


def _sl3_window(lam, n: int) -> int:
    n1, n2 = int(lam[0]), int(lam[1])
    w = max(n1, n2) + 1
    if n < w + 1:
        # keeps the product minor x12*x23 - x13 determined at all valuations <= 0
        raise PrecisionError(f"precision {n} too small for window {w} (need >= {w + 1})")
    return w


def _mu_sl3_full(lam, q: int, n: int) -> Fraction:
    """Enumeration of every (x12, x13, x23) cell of the window; the witness for `_mu_sl3_fast`.

    Cells with v(x13) or v(x23) below -w are excluded by the exact last-column
    valuations; cells with v(x12) < -n1 by the exact single-entry minor x12.
    """
    n1, n2 = int(lam[0]), int(lam[1])
    if n1 < 0 or n2 < 0:
        return Fraction(0)
    w = _sl3_window(lam, n)
    cells = q ** (n + n1) * q ** (2 * (n + w))
    if cells > CELL_CAP:
        raise OracleError(f"cell count {cells} exceeds the cap {CELL_CAP}")
    return _fibre_measures("SL3", q, (-n1, -w, -w), n).get((n1, n2), Fraction(0))


def _v_below_0(x: LaurentElement) -> int:
    """min(v(x), 0) for an x that is exact below t^0 (tail >= 0)."""
    return min(x.coeffs[0][0], 0) if x.coeffs else 0


def _mu_sl3_fast(lam, q: int, n: int) -> Fraction:
    """Enumerates the (x12, x23) cells and, for each pair, the digits of x13 below t^0.

    The minors of `iwasawa_ord` give n2 = -min(v(x13), v(x23), 0) and
    n1 = -min(v(x12*x23 - x13), v(x12), 0). Digits of x13 at t^0 and above move
    neither valuation below 0, and the precision `_sl3_window` demands keeps
    x12*x23 exact below t^1, so each prefix of x13 on [t^-w, t^0) that meets
    both conditions stands for the q^n cells of its digits on [t^0, t^n).
    """
    n1, n2 = int(lam[0]), int(lam[1])
    if n1 < 0 or n2 < 0:
        return Fraction(0)
    w = _sl3_window(lam, n)
    visits = q ** (n + n1) * q ** (n + n2) * q**w
    if visits > CELL_CAP:
        raise OracleError(f"cell count {visits} exceeds the cap {CELL_CAP}")
    prefixes = [(x13.neg(), _v_below_0(x13)) for x13 in _cell_values(q, -w, 0)]
    total = 0
    # v(x23) < -n2 fails the last-column condition; v(x12) < -n1 fails the
    # single-entry minor condition: both skips are valuation-exact.
    for x23 in _cell_values(q, -n2, n):
        v23 = _v_below_0(x23)
        meets_n2 = [neg13 for neg13, v13 in prefixes if min(v13, v23) == -n2]
        for x12 in _cell_values(q, -n1, n):
            p, v12 = x12.mul(x23), _v_below_0(x12)
            total += sum(1 for neg13 in meets_n2 if min(_v_below_0(p.add(neg13)), v12) == -n1)
    return Fraction(total * q**n, q ** (3 * n))


def ball_histogram(group: str, q: int, ball_depth: int, precision: int) -> dict:
    """Measure of each fibre {lam: mes(iwasawa_ord = lam)} on the ball t^{-ball_depth} O^{dim U}.

    The fibres partition the ball, so the values sum to its volume
    q^{ball_depth * dim U}; a fibre that leaves the ball is only partly counted.
    """
    if group not in _GROUP_SIZES:
        raise OracleError(f"unknown group {group!r}")
    r = _GROUP_SIZES[group]
    return _fibre_measures(group, q, (-ball_depth,) * (r * (r - 1) // 2), precision)
