"""Ground-truth computation of the unipotent-pushforward measure over F_q((t)) for SL2 and SL3, by exact cell enumeration.

An element of F_q((t)) is a `LaurentElement`: a window of digits in F_q on
the exponents [low, tail), exact there and undetermined from t^tail on, whose
valuation (the exponent of its first nonzero digit) is found once when it is
built. A cell fixes the digits of every unipotent coordinate below t^n, so the
cells of a coordinate are the digit tuples of `product(range(q), repeat=k)`.
`_fibre_measures` evaluates `iwasawa_ord` on every cell of a coordinate box;
`ball_histogram` and `_mu_sl3_full` run it, and it is the witness for the
counts `mu_oracle` makes, in which no cell costs an `iwasawa_ord`. Each count
enumerates only the digits that can move the coweight and lets each of its
prefixes stand for the cells of the digits it leaves out. SL2's coweight is
-min(v(x), 0), so `_mu_sl2` counts x by its digits below t^0. The SL3 oracle
`_mu_sl3_fast` enumerates x12 below t^n2 and x23 below t^n1, the digits that
reach the product minor below t^0, counts x13 by its digits below t^0, and
evaluates the product minor on packed integers, not `LaurentElement`s.
`iwasawa_ord` checks a matrix's shape with one comparison of its row lengths
against the group's precomputed [r] * r.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

CELL_CAP = 10**7


class PrecisionError(RuntimeError):
    pass


class OracleError(ValueError):
    pass


class LaurentElement:
    """Truncated Laurent series over the prime field F_q: the digits on the exponents [low, tail).

    The series is zero below `low`, exact below `tail` and undetermined (an
    arbitrary element of t^tail O) from `tail` on. `val` is the exponent of
    the first nonzero digit, None when there is none.
    """

    __slots__ = ("q", "low", "digits", "tail", "val")

    def __init__(self, q: int, low: int, digits: tuple):
        self.q, self.low, self.digits, self.tail, self.val = q, low, digits, low + len(digits), None
        for i, d in enumerate(digits):
            if d:
                self.val = low + i
                break

    def add(self, other: "LaurentElement") -> "LaurentElement":
        q, tail = self.q, min(self.tail, other.tail)
        low = min(self.low, other.low, tail)
        a = ((0,) * (self.low - low) + self.digits)[: tail - low]
        b = ((0,) * (other.low - low) + other.digits)[: tail - low]
        return LaurentElement(q, low, tuple((x + y) % q for x, y in zip(a, b)))

    def neg(self) -> "LaurentElement":
        q = self.q
        return LaurentElement(q, self.low, tuple(-d % q for d in self.digits))

    def mul(self, other: "LaurentElement") -> "LaurentElement":
        q, sv, ov = self.q, self.val, other.val
        tail = min(
            self.tail + (ov if ov is not None else other.tail),
            other.tail + (sv if sv is not None else self.tail),
            self.tail + other.tail,
        )
        if sv is None or ov is None:
            return LaurentElement(q, tail, ())
        # both leading digits are units of F_q, so the product starts at sv + ov < tail
        low = sv + ov
        size = tail - low
        a = self.digits[sv - self.low : sv - self.low + size]
        b = other.digits[ov - other.low : ov - other.low + size]
        acc = [0] * size
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    if i + j >= size:
                        break
                    acc[i + j] += x * y
        return LaurentElement(q, low, tuple(c % q for c in acc))


def _minor(g, rows, cols):
    """The minor of g on the given rows and columns, 1x1 or 2x2: the sizes `iwasawa_ord` takes for SL2 and SL3."""
    if len(rows) == 1:
        return g[rows[0]][cols[0]]
    (i, k), (c, d) = rows, cols
    return g[i][c].mul(g[k][d]).add(g[i][d].mul(g[k][c]).neg())


def _min_valuation(elements) -> int:
    """Exact minimum of the valuations; PrecisionError when the truncation leaves it ambiguous."""
    m = bound = None
    for e in elements:
        if e.val is not None:
            if m is None or e.val < m:
                m = e.val
        elif bound is None or e.tail < bound:
            bound = e.tail
    if m is None:
        raise PrecisionError("all candidate valuations exceed the working precision")
    if bound is not None and bound <= m:
        raise PrecisionError("an undetermined valuation could fall below the current minimum")
    return m


_GROUP_SIZES = {"SL2": 2, "SL3": 3}
# per group size r, for j = r-1 down to 1: the last j columns and every choice of j rows
_MINORS = {
    r: tuple((tuple(range(r - j, r)), tuple(combinations(range(r), j))) for j in range(r - 1, 0, -1))
    for r in _GROUP_SIZES.values()
}
# per group size r, the row lengths of an r x r matrix
_SHAPES = {r: [r] * r for r in _GROUP_SIZES.values()}


def iwasawa_ord(group: str, g) -> tuple[int, ...]:
    """Coweight of the torus part of g = k t ubar: valuations of the minors built from the last j columns.

    For lower-triangular Iwasawa data the only contributing minor of the last j
    columns uses the last j rows, so these valuations are truncation-stable.
    """
    r = _GROUP_SIZES.get(group)
    if r is None:
        raise OracleError(f"unknown group {group!r}; expected SL2 or SL3")
    if list(map(len, g)) != _SHAPES[r]:
        raise OracleError("matrix size does not match the group")
    # coroot coordinates: n_k = -m_{r-k}, m_j the least valuation of the minors on the last j columns;
    # tuple() of a list, since tuple() of a generator resizes a fresh block per call that the tuple free list keeps
    return tuple([-_min_valuation([_minor(g, rows, cols) for rows in row_sets]) for cols, row_sets in _MINORS[r]])


def _cells(q: int, lo: int, hi: int):
    """Every exact representative with digits on [lo, hi): the cells of t^lo O mod t^hi."""
    return (LaurentElement(q, lo, digits) for digits in product(range(q), repeat=hi - lo))


def _unipotent(group: str, q: int, tail: int):
    """The map from coordinates (SL2: x; SL3: x12, x13, x23) to the upper unitriangular matrix with them above the diagonal."""
    zero = LaurentElement(q, tail, ())
    one = LaurentElement(q, 0, (1,) + (0,) * (tail - 1)) if tail > 0 else zero
    if group == "SL2":
        return lambda x: ((one, x), (zero, one))
    return lambda x12, x13, x23: ((one, x12, x13), (zero, one, x23), (zero, zero, one))


def _fibre_measures(group: str, q: int, lows, n: int) -> dict:
    """{iwasawa_ord: measure} over the cells mod t^n of the box prod_i t^lows[i] O, one iwasawa_ord per cell.

    lows gives the lowest exponent of each coordinate in the order of
    `_unipotent`; each cell has measure q^(-n dim U). The first coordinate's
    cells are streamed, the others' are built once.
    """
    unipotent = _unipotent(group, q, n)
    inner = [list(_cells(q, lo, n)) for lo in lows[1:]]
    counts: dict = {}
    for x in _cells(q, lows[0], n):
        for rest in product(*inner):
            lam = iwasawa_ord(group, unipotent(x, *rest))
            counts[lam] = counts.get(lam, 0) + 1
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
    # each prefix on [t^-w, t^0) stands for the q^n cells of its digits on [t^0, t^n), each of measure q^-n
    return Fraction(_sl2_prefix_hits(q, w, target) * q**n, q**n)


def _sl2_prefix_hits(q: int, w: int, target: int) -> int:
    """The x with digits on [t^-w, t^0) whose coweight -min(v(x), 0) is target, counted by their first nonzero digit.

    The minors of `iwasawa_ord` for SL2 are x and 1, so the coweight reads
    only the exponent of x's first nonzero digit below t^0 (0 for none).
    """
    hits = 0
    for digits in product(range(q), repeat=w):
        v = next((i - w for i, d in enumerate(digits) if d), 0)
        hits += -v == target
    return hits


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


def _packed_cells(q: int, lo: int, hi: int, bits: int, offset: int, negate: bool = False) -> list:
    """[(packed, min(v, 0))] over the cells with digits on [lo, hi), the digit at t^e in bit field e - lo + offset.

    With `negate` the fields hold the digits of -x (mod q); min(v, 0) is the
    valuation of x capped at 0, 0 for x = 0.
    """
    out = []
    for digits in product(range(q), repeat=hi - lo):
        packed = 0
        for d in reversed(digits):
            packed = (packed << bits) | (-d % q if negate else d)
        v = next((lo + i for i, d in enumerate(digits) if d), 0)
        out.append((packed << (bits * offset), min(v, 0)))
    return out


def _mu_sl3_fast(lam, q: int, n: int) -> Fraction:
    """Enumerates x12 on [t^-n1, t^n2), x23 on [t^-n2, t^n1) and, for each pair, the digits of x13 below t^0.

    The minors of `iwasawa_ord` give n2 = -min(v(x13), v(x23), 0) and
    n1 = -min(v(x12*x23 - x13), v(x12), 0). Digits of x13 at t^0 and above move
    neither valuation below 0, and the precision `_sl3_window` demands keeps
    x12*x23 exact below t^1, so each prefix of x13 on [t^-w, t^0) that meets
    both conditions stands for the q^n cells of its digits on [t^0, t^n).
    Below t^0 the coefficient of x12*x23 at t^e is the sum of a_i b_j over
    i + j = e with i >= -n1 and j >= -n2, so i < n2 and j < n1: x12 stands for
    the q^(n-n2) cells of its digits from t^n2 on, x23 for the q^(n-n1) from t^n1 on.

    The product minor is computed by Kronecker substitution: each digit sits in
    its own bit field, wide enough that no sum of digit products carries into
    the next, so one integer product per (x12, x23) pair holds every
    coefficient of x12*x23 and adding the packed -x13 puts those of the minor
    in the fields; its valuation below t^0 is the first field, scanning up from
    the lowest exponent, that is nonzero mod q.
    """
    n1, n2 = int(lam[0]), int(lam[1])
    if n1 < 0 or n2 < 0:
        return Fraction(0)
    w = _sl3_window(lam, n)
    visits = q ** (n + n1) * q ** (n + n2) * q**w
    if visits > CELL_CAP:
        raise OracleError(f"cell count {visits} exceeds the cap {CELL_CAP}")
    base = min(-n1 - n2, -w)  # lowest exponent of x12*x23 and of x13: bit field 0
    bits = ((n + w) * (q - 1) ** 2 + q).bit_length()
    mask = (1 << bits) - 1
    below_0 = range(base, 0)
    prefixes = _packed_cells(q, -w, 0, bits, -w - base, negate=True)
    cells12 = _packed_cells(q, -n1, n2, bits, -n1 - n2 - base)
    total = 0
    # v(x23) < -n2 fails the last-column condition; v(x12) < -n1 fails the
    # single-entry minor condition: both skips are valuation-exact.
    for x23, v23 in _packed_cells(q, -n2, n1, bits, 0):
        meets_n2 = [neg13 for neg13, v13 in prefixes if min(v13, v23) == -n2]
        for x12, v12 in cells12:
            p = x12 * x23
            for neg13 in meets_n2:
                minor, v = p + neg13, 0
                for e in below_0:
                    if (minor & mask) % q:
                        v = e
                        break
                    minor >>= bits
                if min(v, v12) == -n1:
                    total += 1
    return Fraction(total * q ** (3 * n - n1 - n2), q ** (3 * n))


def ball_histogram(group: str, q: int, ball_depth: int, precision: int) -> dict:
    """Measure of each fibre {lam: mes(iwasawa_ord = lam)} on the ball t^{-ball_depth} O^{dim U}.

    The fibres partition the ball, so the values sum to its volume
    q^{ball_depth * dim U}; a fibre that leaves the ball is only partly counted.
    """
    if group not in _GROUP_SIZES:
        raise OracleError(f"unknown group {group!r}")
    r = _GROUP_SIZES[group]
    return _fibre_measures(group, q, (-ball_depth,) * (r * (r - 1) // 2), precision)
