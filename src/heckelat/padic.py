"""Ground-truth computation of the unipotent-pushforward measure over F_q((t)) for SL2 and SL3, by exact cell enumeration."""

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

    def val(self):
        """('exact', v) when the valuation is certified, ('ge', tail) otherwise."""
        if self.coeffs:
            return ("exact", self.coeffs[0][0])
        return ("ge", self.tail)

    def add(self, other: "LaurentElement") -> "LaurentElement":
        tail = min(self.tail, other.tail)
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = (acc.get(e, 0) + c) % self.q
        return LaurentElement.make(self.q, acc.items(), tail)

    def neg(self) -> "LaurentElement":
        return LaurentElement.make(self.q, [(e, -c) for e, c in self.coeffs], self.tail)

    def sub(self, other: "LaurentElement") -> "LaurentElement":
        return self.add(other.neg())

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


@dataclass(frozen=True)
class UnipotentCell:
    """A congruence cell of the unipotent group: exact Laurent coordinates modulo t^precision."""

    q: int
    coords: tuple  # LaurentElement coordinates in the fixed order (SL2: x; SL3: x12, x13, x23)
    precision: int

    def measure(self) -> Fraction:
        return Fraction(1, self.q ** (self.precision * len(self.coords)))

    def matrix(self):
        if len(self.coords) == 1:
            return unipotent_sl2(self.q, self.coords[0], self.precision)
        if len(self.coords) == 3:
            return unipotent_sl3(self.q, *self.coords, self.precision)
        raise OracleError("cells carry one (SL2) or three (SL3) coordinates")


def _zero(q: int, tail: int) -> LaurentElement:
    return LaurentElement.make(q, [], tail)


def _one(q: int, tail: int) -> LaurentElement:
    return LaurentElement.make(q, [(0, 1)], tail)


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
    exact, bounds = [], []
    for e in elements:
        kind, v = e.val()
        (exact if kind == "exact" else bounds).append(v)
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


def unipotent_sl2(q: int, x: LaurentElement, tail: int):
    z, o = _zero(q, tail), _one(q, tail)
    return ((o, x), (z, o))


def unipotent_sl3(q: int, x12, x13, x23, tail: int):
    z, o = _zero(q, tail), _one(q, tail)
    return ((o, x12, x13), (z, o, x23), (z, z, o))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def mu_oracle(group: str, lam, q: int, precision: int, fast: bool = True) -> Fraction:
    """Exact measure of {u in U : iwasawa_ord(u) = lam}, normalized by mes(U cap K) = 1."""
    if not _is_prime(q):
        raise OracleError(f"oracle requires a prime residue cardinality, got {q}")
    if group == "SL2":
        return _mu_sl2(lam, q, precision)
    if group == "SL3":
        return _mu_sl3_fast(lam, q, precision) if fast else _mu_sl3_full(lam, q, precision)
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
    total = Fraction(0)
    for x in _cell_values(q, -w, n):
        cell = UnipotentCell(q, (x,), n)
        if iwasawa_ord("SL2", cell.matrix()) == (target,):
            total += cell.measure()
    return total


def _sl3_window(lam, n: int) -> int:
    n1, n2 = int(lam[0]), int(lam[1])
    w = max(n1, n2) + 1
    if n < w + 1:
        # keeps the product minor x12*x23 - x13 determined at all valuations <= 0
        raise PrecisionError(f"precision {n} too small for window {w} (need >= {w + 1})")
    return w


def _mu_sl3_full(lam, q: int, n: int) -> Fraction:
    """Triple-loop enumeration; used to validate the counting version on small windows.

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
    total = Fraction(0)
    for x13 in _cell_values(q, -w, n):
        for x23 in _cell_values(q, -w, n):
            for x12 in _cell_values(q, -n1, n):
                cell = UnipotentCell(q, (x12, x13, x23), n)
                if iwasawa_ord("SL3", cell.matrix()) == (n1, n2):
                    total += cell.measure()
    return total


def _mu_sl3_fast(lam, q: int, n: int) -> Fraction:
    """Enumerates (x12, x23) cells and counts x13 cells by exact prefix combinatorics.

    The x13 count per pair is a finite case split over the positions of the first
    nonzero coefficient and of the first coefficient differing from x12*x23; it is
    validated against the full enumeration in tests.
    """
    n1, n2 = int(lam[0]), int(lam[1])
    if n1 < 0 or n2 < 0:
        return Fraction(0)
    w = _sl3_window(lam, n)
    pair_cells = q ** (n + n1) * q ** (n + n2)
    if pair_cells > CELL_CAP:
        raise OracleError(f"cell count {pair_cells} exceeds the cap {CELL_CAP}")
    exps = list(range(-w, n))
    total = 0
    # v(x23) < -n2 fails the last-column condition; v(x12) < -n1 fails the
    # single-entry minor condition: both skips are valuation-exact.
    for x23 in _cell_values(q, -n2, n):
        v23 = x23.min_exp()
        for x12 in _cell_values(q, -n1, n):
            v12 = x12.min_exp()
            p = x12.mul(x23)
            total += _count_x13_cells(q, exps, p, v12, v23, n1, n2)
    return Fraction(total, q ** (3 * n))


def _meets_target(v, other, target: int) -> bool:
    """min(v, other, 0) == -target, with None meaning 'nonnegative'."""
    vals = [x for x in (v, other) if x is not None] + [0]
    return min(vals) == -target


def _count_x13_cells(q: int, exps: list[int], p: LaurentElement, v12, v23, n1: int, n2: int) -> int:
    """Number of x13 cells on the window with m1 = -n2 and m2 = -n1 (x12, x23 fixed exact)."""
    pc = dict(p.coeffs)
    if any(e < exps[0] for e in pc):
        # v(x12*x23) lies below the x13 window, so v(M) = v(p) < -w <= -n1 - 1: no cell qualifies
        return 0
    L = len(exps)
    # number of window positions where p is exactly known
    lp = sum(1 for e in exps if e < p.tail)
    total = 0
    for a in range(L + 1):  # first nonzero coefficient of x13 (L: none)
        v13 = exps[a] if a < L else None
        if v13 is not None and v13 >= 0:
            v13 = None
        if not _meets_target(v13, v23 if (v23 is None or v23 < 0) else None, n2):
            continue
        for b in range(lp + 1):  # first difference from p on the determined positions (lp: none)
            vm = exps[b] if b < lp else None
            if vm is not None and vm >= 0:
                vm = None
            if not _meets_target(vm, v12 if (v12 is None or v12 < 0) else None, n1):
                continue
            total += _profile_count(q, exps, pc, lp, a, b)
    return total


def _profile_count(q: int, exps: list[int], pc: dict, lp: int, a: int, b: int) -> int:
    """Cells whose first nonzero coefficient sits at index a and whose first difference from p sits at index b.

    a ranges over [0, L] (a = L: identically zero on the window); b over
    [0, lp] (b = lp: equal to p on every determined position).
    """
    L = len(exps)

    def p_at(i):
        return pc.get(exps[i], 0)

    def p_zero_before(k):
        return all(p_at(i) == 0 for i in range(k))

    if b < lp:
        if a < b:
            # zero before a, then equal to p through b: p = 0 before a, c_a = p_a != 0
            if not p_zero_before(a) or p_at(a) == 0:
                return 0
            return (q - 1) * q ** (L - b - 1)
        if a == b:
            if not p_zero_before(a):
                return 0
            choices = (q - 2) if p_at(a) else (q - 1)
            return choices * q ** (L - a - 1) if choices > 0 else 0
        # a > b: c_b = 0 must differ from p_b, and p = 0 before b
        if not p_zero_before(b) or p_at(b) == 0:
            return 0
        return (q - 1) * q ** (L - a - 1) if a < L else 1
    # b == lp: c agrees with p on every determined position
    if a < lp:
        # first nonzero at a < lp forces p = 0 before a and p_a != 0
        if not p_zero_before(a) or p_at(a) == 0:
            return 0
        return q ** (L - lp)
    # a >= lp: c vanishes on all determined positions, so p must too
    if not p_zero_before(lp):
        return 0
    return (q - 1) * q ** (L - a - 1) if a < L else 1


def ball_histogram(group: str, q: int, ball_depth: int, precision: int) -> dict:
    """Measure of each fibre {lam: mes(iwasawa_ord = lam)} on the ball t^{-ball_depth} O^{dim U}.

    The fibres partition the ball, so the values sum to its volume
    q^{ball_depth * dim U}; a fibre that leaves the ball is only partly counted.
    """
    if group not in _GROUP_SIZES:
        raise OracleError(f"unknown group {group!r}")
    r = _GROUP_SIZES[group]
    hist: dict = {}
    for coords in product(_cell_values(q, -ball_depth, precision), repeat=r * (r - 1) // 2):
        cell = UnipotentCell(q, coords, precision)
        lam = iwasawa_ord(group, cell.matrix())
        hist[lam] = hist.get(lam, 0) + cell.measure()
    return hist
