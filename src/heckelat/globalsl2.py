"""Fully computable global model for rank one over the projective line: bundle counts, Eisenstein/constant-term operators, the degree-shift intertwiner, and the operators L, L^{-1}, and the bilinear form B.

Every formula is parametric in qv, which may be the formal variable of Q(q) or an
exact rational number. All normalizations follow mes(K) = 1 and
mes(U(A)/U(F)) = 1; on the projective line this gives mes(O_A) = q, which is the
source of the extra factor of q in the modulus twists below (see docs/conventions.md).

The opposite parabolic enters only as the degree negation d -> -d (`negate`); every
torus pairing, the opposite side's included, has one weight. Both pairings, the naive
one over bundle classes and the torus one, divide by (q-1) once, after their sums.
"""

from __future__ import annotations

from fractions import Fraction

PROBE = 8  # degrees below a pseudo-compactness certificate that op_L_inverse re-checks


class GlobalError(ValueError):
    pass


class CertificationError(GlobalError):
    pass


def _zero_like(qv):
    return qv - qv


def _one_like(qv):
    return qv**0


# ---------------------------------------------------------------------------
# point counts


def aut_count(n: int, qv):
    """Order of the automorphism group of the rank-two trivial-determinant bundle O(n) + O(-n)."""
    if n == 0:
        return qv * (qv - 1) * (qv + 1)
    return (qv - 1) * qv ** (2 * n + 1)


def aut_count_bruteforce(n: int, q: int) -> int:
    """Direct enumeration of determinant-one automorphisms over F_q (oracle for aut_count)."""
    if n == 0:
        return sum(
            1
            for a in range(q)
            for b in range(q)
            for c in range(q)
            for d in range(q)
            if (a * d - b * c) % q == 1
        )
    # upper-triangular with scalar blocks a, a^{-1} and an arbitrary section of O(2n)
    count = 0
    for a in range(1, q):
        for d in range(1, q):
            if (a * d) % q == 1:
                count += q ** (2 * n + 1)
    return count


def subbundle_count(n: int, d: int, qv):
    """Number of degree-d line subbundles of O(n) + O(-n) (closed form; see the brute-force oracle)."""
    if d > n:
        return _zero_like(qv)
    if n == 0:
        if d == 0:
            return qv + 1
        return (qv**2 - 1) * qv ** (-2 * d - 1)
    if d == n:
        return _one_like(qv)
    if -n < d < n:
        return _zero_like(qv)
    if d == -n:
        return qv ** (2 * n + 1)
    return (qv**2 - 1) * qv ** (-2 * d - 1)


def _poly_gcd_mod(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = [x % q for x in a], [x % q for x in b]

    def strip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[-1], q - 2, q) if q > 2 else b[-1]
        while len(a) >= len(b):
            c = (a[-1] * inv) % q
            if c:
                for i in range(len(b)):
                    a[len(a) - len(b) + i] = (a[len(a) - len(b) + i] - c * b[i]) % q
            a.pop()
            a = strip(a)
            if not a:
                break
        a, b = b, strip(a)
    return a


def subbundle_count_bruteforce(n: int, d: int, q: int) -> Fraction:
    """Count pairs of homogeneous sections with no common zero on the projective line, modulo scalars."""
    from itertools import product

    deg_f, deg_g = n - d, -n - d
    fs = (
        [list(c) for c in product(range(q), repeat=deg_f + 1)] if deg_f >= 0 else [[0] * 0]
    )
    gs = (
        [list(c) for c in product(range(q), repeat=deg_g + 1)] if deg_g >= 0 else [[0] * 0]
    )
    count = 0
    for f in fs:
        for g in gs:
            fz = all(x == 0 for x in f)
            gz = all(x == 0 for x in g)
            if fz and gz:
                continue
            if fz:
                # f vanishes everywhere; no common zero iff g never vanishes, i.e. deg 0
                if deg_g == 0:
                    count += 1
                continue
            if gz:
                if deg_f == 0:
                    count += 1
                continue
            # common zero at infinity: both leading coefficients vanish
            if f[-1] % q == 0 and g[-1] % q == 0:
                continue
            if len(_poly_gcd_mod(f, g, q)) > 1:
                continue
            count += 1
    return Fraction(count, q - 1)


# ---------------------------------------------------------------------------
# zeta-side series oracle


def count_closed_points(m: int, qv):
    """Number of closed points of degree m on the projective line (necklace count), as a value in qv."""
    if m == 1:
        return qv + 1

    def mobius(k):
        out, kk, p = 1, k, 2
        while p * p <= kk:
            if kk % p == 0:
                kk //= p
                if kk % p == 0:
                    return 0
                out = -out
            p += 1
        if kk > 1:
            out = -out
        return out

    acc = _zero_like(qv)
    k = 1
    while k <= m:
        if m % k == 0:
            acc = acc + mobius(k) * qv ** (m // k)
        k += 1
    return acc * Fraction(1, m)


def _series_mul(a: list, b: list, order: int) -> list:
    out = [_zero_like(a[0]) for _ in range(order + 1)]
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] = out[i + j] + x * y
    return out


def _geom_series(ratio_power: int, scale, order: int, qv) -> list:
    """Series of 1/(1 - scale * t^ratio_power) to the given order."""
    out = [_zero_like(qv) for _ in range(order + 1)]
    out[0] = _one_like(qv)
    k = ratio_power
    acc = scale
    while k <= order:
        out[k] = acc
        acc = acc * scale
        k += ratio_power
    return out


def _series_power(f: list, k, order: int) -> list:
    """f^k to the given order, for a series f with constant term 1, by J.C.P. Miller's recurrence.

    g_0 = 1 and n g_n = sum_{j=1..n} ((k+1) j - n) f_j g_{n-j} (Knuth, TAOCP vol. 2,
    4.7). The cost is O(order^2) whatever k is, and k may be any scalar: an
    integer, a Fraction or an element of Q(q).
    """
    g = [_one_like(f[0])]
    for n in range(1, order + 1):
        acc = _zero_like(f[0])
        for j in range(1, n + 1):
            if f[j] != 0:
                acc = acc + ((k + 1) * j - n) * f[j] * g[n - j]
        g.append(acc * Fraction(1, n))
    return g


def gk_degree_series_euler(order: int, qv, inverse: bool = False) -> list:
    """Degree-m coefficients of the product of local factors over closed points, by necklace counts.

    The forward series multiplies (1 - t^deg)/(1 - (q t)^deg) per closed point;
    `inverse` swaps numerator and denominator. The factor of degree m is raised
    to the point count a_m by Miller's recurrence (`_series_power`), so the cost
    does not depend on a_m, and the product is an identity of power series over
    Q[q]: it holds at the formal q and at every rational q, integral or not. This
    is the independent oracle for the closed forms mu_hat and nu_hat.
    """
    out = [_one_like(qv)] + [_zero_like(qv) for _ in range(order)]
    for m in range(1, order + 1):
        num = [_one_like(qv)] + [_zero_like(qv)] * order
        num[m] = -(qv**m) if inverse else -_one_like(qv)
        den = _geom_series(m, (qv**m if not inverse else _one_like(qv)), order, qv)
        factor = _series_mul(num, den, order)
        out = _series_mul(out, _series_power(factor, count_closed_points(m, qv), order), order)
    return out


def mu_hat(m: int, qv):
    """Global forward kernel coefficient: 1 at m = 0, q^{2m} - q^{2m-2} for m >= 1."""
    return _one_like(qv) if m == 0 else qv ** (2 * m) - qv ** (2 * m - 2)


def nu_hat(m: int, qv):
    """Global inverse kernel coefficient: 1 at m = 0, 1 - q^2 for m >= 1."""
    return _one_like(qv) if m == 0 else 1 - qv**2


# ---------------------------------------------------------------------------
# groupoid functions


class TFunction:
    """Function on the degree axis of the torus side, memoized, with certified support bounds.

    `upper` (resp. `lower`) certifies vanishing strictly above (below) the bound;
    None leaves the side unbounded.
    """

    def __init__(self, fn, upper=None, lower=None, *, qv):
        self._fn = fn
        self._memo: dict[int, object] = {}
        self.upper = upper
        self.lower = lower
        self._zero = _zero_like(qv)

    @classmethod
    def from_dict(cls, values: dict, qv) -> "TFunction":
        vals = {int(k): v for k, v in values.items() if v != 0}
        zero = _zero_like(qv)
        return cls(lambda d: vals.get(d, zero), upper=max(vals, default=0), lower=min(vals, default=0), qv=qv)

    def value(self, d: int):
        d = int(d)
        if self.upper is not None and d > self.upper:
            return self._zero
        if self.lower is not None and d < self.lower:
            return self._zero
        if d not in self._memo:
            self._memo[d] = self._fn(d)
        return self._memo[d]


class GFunction(TFunction):
    """Function on bundle classes: a TFunction whose lower bound is at least 0; a negative degree raises.

    `psc_ct` is an optional pseudo-compactness certificate: the constant term, vanishing below its `lower`.
    """

    def __init__(self, fn, upper=None, lower=0, *, qv, psc_ct=None):
        if lower < 0:
            raise GlobalError("bundle classes are indexed by nonnegative integers")
        super().__init__(fn, upper, lower, qv=qv)
        self.psc_ct = psc_ct

    def value(self, n: int):
        n = int(n)
        if n < 0:
            raise GlobalError("bundle classes are indexed by nonnegative integers")
        if n < self.lower or (self.upper is not None and n > self.upper):
            return self._zero
        if n not in self._memo:
            self._memo[n] = self._fn(n)
        return self._memo[n]


# ---------------------------------------------------------------------------
# operators
#
# Away from one or two diagonal terms every kernel below is a constant or a
# geometric sequence along its window, so each operator value is those diagonal
# terms plus a running sum over the window, filled on demand by _running_sum.
# Each running sum reads its first weight from the kernel once and steps every
# later weight by the kernel's ratio, q^{-2} or q^2; the diagonal terms use
# their closed forms, and coefficients equal to 1 are not multiplied in. Both
# pairings further below step their weights the same way and divide by (q-1)
# once, after the sum. The ratios and closed forms each of them relies on are
# tested against the kernels themselves.


def _running_sum(first, ratio, fn, start, step, zero):
    """Lazy running sum: k -> sum of w(j) * fn(j) for j = start, start + step, ... through k.

    The weights are geometric: w(start) = first, and each later weight is the one
    before it times ratio. The sum is zero for k before start. Partial sums are
    memoised as they are filled, so reading w degrees, in any order, costs w terms in all.
    """
    sums = [zero]  # sums[i] is the sum of the first i terms
    weight = first  # the weight of the next term

    def total(k):
        nonlocal weight
        i = (k - start) * step + 1
        while len(sums) <= i:
            v = fn(start + (len(sums) - 1) * step)
            sums.append(sums[-1] + weight * v if v != 0 else sums[-1])
            weight = weight * ratio
        return sums[i] if i > 0 else zero

    return total


def eis_B(phi: TFunction, qv) -> GFunction:
    """Eisenstein sum over line subbundles: (Eis phi)(n) = sum_d sigma(n, d) phi(d).

    sigma(n, d) vanishes for d > n and for -n < d < n and equals sigma(0, d) for
    d < -n, so (Eis phi)(n) is the terms at d = n and d = -n plus a prefix sum
    of sigma(0, d) phi(d) from the lower bound of phi through -n - 1. The
    diagonal coefficients are sigma(0, 0) = q + 1, and sigma(n, n) = 1 and
    sigma(n, -n) = q^{2n+1} for n > 0. The prefix sum ends at -1 or below,
    where sigma(0, d + 1) = q^{-2} sigma(0, d); when phi.lower >= 0 it is empty.
    """
    if phi.lower is None:
        raise GlobalError("Eisenstein sum needs a support bound below (plus-type window)")
    below = _running_sum(subbundle_count(0, phi.lower, qv), qv**-2, phi.value, phi.lower, 1, _zero_like(qv))

    def fn(n):
        if n == 0:
            return below(-1) + (qv + 1) * phi.value(0)
        return below(-n - 1) + phi.value(n) + qv ** (2 * n + 1) * phi.value(-n)

    upper = None
    if phi.upper is not None:
        upper = max(abs(phi.upper), abs(phi.lower))
    return GFunction(fn, upper=upper, qv=qv)


def negate(phi: TFunction, qv) -> TFunction:
    """Degree negation d -> phi(-d), the transport between the standard and opposite torus coordinates."""
    return TFunction(
        lambda d: phi.value(-d),
        upper=None if phi.lower is None else -phi.lower,
        lower=None if phi.upper is None else -phi.upper,
        qv=qv,
    )


def eis_B_minus(psi: TFunction, qv) -> GFunction:
    """Eisenstein operator for the opposite parabolic: degree negation then eis_B."""
    if psi.upper is None:
        raise GlobalError("opposite Eisenstein sum needs a support bound above")
    return eis_B(negate(psi, qv), qv)


def ct_kernel(n: int, d: int, qv):
    """Constant-term kernel c(n, d): the measure of unipotent classes gluing O(d) into O(n) + O(-n).

    Equals the adjoint kernel (q-1) q^{2d+1} sigma(n, d) / aut(n) for the
    groupoid pairings; for d >= 0 it collapses to the identity matrix.
    """
    if d >= 0:
        return _one_like(qv) if n == d else _zero_like(qv)
    if n == -d:
        return qv ** (2 * d + 1)
    if n == 0:
        return (qv - 1) / qv
    if 1 <= n <= -d - 1:
        return (qv**2 - 1) * qv ** (-2 * n - 1)
    return _zero_like(qv)


def ct_B(f: GFunction, qv) -> TFunction:
    """Constant term: integrate over unipotent classes; column-finite in the degree.

    For d < 0 the column is c(0, d) f(0) + c(-d, d) f(-d) plus the middle terms
    1 <= n <= -d - 1, where c(n, d) = c(n, -n - 1) does not depend on d: a
    prefix sum over n, with c(n + 1, -n - 2) = q^{-2} c(n, -n - 1). c(0, d) does
    not depend on d < 0 either, so c(0, -1) f(0) is computed once, and
    c(-d, d) = q^{2d+1}.
    """
    middle = _running_sum(ct_kernel(1, -2, qv), qv**-2, f.value, 1, 1, _zero_like(qv))
    c0_f0 = ct_kernel(0, -1, qv) * f.value(0)

    def fn(d):
        if d >= 0:
            return f.value(d)
        return c0_f0 + middle(-d - 1) + qv ** (2 * d + 1) * f.value(-d)

    return TFunction(fn, upper=f.upper, lower=None, qv=qv)


def ct_B_minus(f: GFunction, qv) -> TFunction:
    """Constant term along the opposite parabolic, stored in its own degree coordinate."""
    return negate(ct_B(f, qv), qv)


def global_R(psi: TFunction, qv) -> TFunction:
    """Forward intertwiner: modulus-inverse prefactor times upward convolution with the forward kernel.

    R(psi)(d) = q^{2d+1} sum_m mu_hat(m) psi(d + m), on windows bounded above.
    Since mu_hat(0) = 1 and mu_hat(m) = q^{2m-2} mu_hat(1) for m >= 1, this is
    q^{2d+1} psi(d) + mu_hat(1) sum_{e > d} q^{2e-1} psi(e): a suffix sum whose
    weight steps by q^{-2} from each degree to the one below it.
    """
    if psi.upper is None:
        raise GlobalError("forward intertwiner needs a support bound above")
    mu1 = mu_hat(1, qv)
    above = _running_sum(qv ** (2 * psi.upper - 1), qv**-2, psi.value, psi.upper, -1, _zero_like(qv))

    def fn(d):
        return qv ** (2 * d + 1) * psi.value(d) + mu1 * above(d + 1)

    return TFunction(fn, upper=psi.upper, lower=None, qv=qv)


def global_R_inverse(phi: TFunction, qv) -> TFunction:
    """Inverse intertwiner: modulus at the input point inside the sum, inverse kernel.

    R^{-1}(phi)(d) = sum_m q^{-2(d+m)-1} nu_hat(m) phi(d + m), on windows bounded above.
    Since nu_hat(0) = 1 and nu_hat(m) = nu_hat(1) for m >= 1, this is
    q^{-2d-1} phi(d) + nu_hat(1) sum_{e > d} q^{-2e-1} phi(e): a suffix sum whose
    weight steps by q^2 from each degree to the one below it.
    """
    if phi.upper is None:
        raise GlobalError("inverse intertwiner needs a support bound above")
    nu1 = nu_hat(1, qv)
    above = _running_sum(qv ** (-2 * phi.upper - 1), qv**2, phi.value, phi.upper, -1, _zero_like(qv))

    def fn(d):
        return qv ** (-2 * d - 1) * phi.value(d) + nu1 * above(d + 1)

    return TFunction(fn, upper=phi.upper, lower=None, qv=qv)


# ---------------------------------------------------------------------------
# pairings


def naive_pairing(f1: GFunction, f2: GFunction, qv):
    """Groupoid-weighted sum over bundle classes: sum_n f1(n) f2(n) / aut(n).

    aut(0) = (q-1) q (q+1) and aut(n) = (q-1) q^{2n+1} for n >= 1, so this is
    f1(0) f2(0) / (q (q+1)) + sum_{n >= 1} q^{-2n-1} f1(n) f2(n), over (q-1).
    """
    if f1.upper is None and f2.upper is None:
        raise GlobalError("naive pairing needs one factor of certified finite support")
    upper = min(x for x in (f1.upper, f2.upper) if x is not None)
    acc = f1.value(0) * f2.value(0) / (qv * (qv + 1))
    weight, ratio = qv**-3, qv**-2
    for n in range(1, upper + 1):
        acc = acc + weight * (f1.value(n) * f2.value(n))
        weight = weight * ratio
    return acc / (qv - 1)


def t_weight(d: int, qv):
    """The monomial q^{-2d-1}: the degree-d torus measure is q^{-2d-1}/(q-1), and t_pairing divides by (q-1) once."""
    return qv ** (-2 * d - 1)


def t_pairing(phi1: TFunction, phi2: TFunction, qv):
    """Torus-side pairing sum_d q^{-2d-1} phi1(d) phi2(d) / (q-1), finite when the windows overlap finitely.

    The weight is read from t_weight at the lowest degree of the window and steps by q^{-2} from there.
    The opposite side's weight q^{2d-1}/(q-1) is this one at -d: pair the negated functions instead.
    """
    uppers = [x for x in (phi1.upper, phi2.upper) if x is not None]
    lowers = [x for x in (phi1.lower, phi2.lower) if x is not None]
    if not uppers or not lowers:
        raise GlobalError("pairing window is not certified finite")
    lo, hi = max(lowers), min(uppers)
    acc = _zero_like(qv)
    weight, ratio = t_weight(lo, qv), qv**-2
    for d in range(lo, hi + 1):
        acc = acc + weight * (phi1.value(d) * phi2.value(d))
        weight = weight * ratio
    return acc / (qv - 1)


# ---------------------------------------------------------------------------
# the operator L, its inverse, and the bilinear form


def op_L(f: GFunction, qv) -> GFunction:
    """L = (identity term) - Eis_{B^-} R^{-1} CT_B on finitely supported bundle functions.

    The output carries the certified constant term -psi(-d) (psi the inverse
    intertwiner of the constant term), which is the pseudo-compact support
    certificate: it vanishes below -psi.upper.
    """
    if f.upper is None:
        raise GlobalError("L needs finitely supported input")
    psi = global_R_inverse(ct_B(f, qv), qv)
    flipped = negate(psi, qv)  # eis_B_minus(psi) is eis_B of this same negation
    eis = eis_B(flipped, qv)
    certificate = TFunction(lambda d: -flipped.value(d), upper=flipped.upper, lower=flipped.lower, qv=qv)
    return GFunction(lambda n: f.value(n) - eis.value(n), upper=None, qv=qv, psc_ct=certificate)


def op_L_inverse(g: GFunction, qv) -> GFunction:
    """L^{-1} = (identity term) - Eis_B CT_B on certified pseudo-compactly supported functions.

    The input must carry a pseudo-compactness certificate (a lower bound for the
    support of its constant term); the certificate is verified against the
    honestly computed constant term on the PROBE degrees below the bound.
    """
    cert = g.psc_ct
    if cert is None or cert.lower is None:
        raise CertificationError("input carries no pseudo-compact support certificate")
    ct = ct_B(g, qv)
    for d in range(cert.lower - PROBE, cert.lower):
        if ct.value(d) != 0:
            raise CertificationError(f"constant term does not vanish at {d} despite the certificate")
    bounded_ct = TFunction(ct.value, upper=None, lower=cert.lower, qv=qv)
    eis = eis_B(bounded_ct, qv)

    def fn(n):
        return g.value(n) - eis.value(n)

    return GFunction(fn, upper=None, qv=qv)


def form_B(f1: GFunction, f2: GFunction, qv):
    """The bilinear form: the naive pairing minus the inverse-intertwined constant-term pairing."""
    if f1.upper is None or f2.upper is None:
        raise GlobalError("the form needs finitely supported inputs")
    psi = global_R_inverse(ct_B(f1, qv), qv)
    return naive_pairing(f1, f2, qv) - t_pairing(negate(psi, qv), ct_B(f2, qv), qv)


# ---------------------------------------------------------------------------
# verification helpers


def verify_functional_equation(qv, d_range=range(-6, 7), e_range=range(-4, 5)) -> bool:
    """CT_B Eis_B = identity + (forward intertwiner after degree negation), on indicator inputs."""
    for e in e_range:
        phi = TFunction.from_dict({e: _one_like(qv)}, qv)
        lhs = ct_B(eis_B(phi, qv), qv)
        rw = global_R(negate(phi, qv), qv)
        for d in d_range:
            rhs = phi.value(d) + rw.value(d)
            if lhs.value(d) != rhs:
                return False
    return True


def verify_adjunction(f: GFunction, phi: TFunction, qv) -> bool:
    """<CT f, phi> = naive(f, Eis phi) for finitely supported data."""
    lhs = t_pairing(ct_B(f, qv), phi, qv)
    rhs = naive_pairing(f, eis_B(phi, qv), qv)
    return lhs == rhs


CONVENTIONS = """\
Degree and normalization conventions of the rank-one global model
-----------------------------------------------------------------
* Bundle classes are n >= 0 for O(n) + O(-n); torus classes are the degree d of
  the line subbundle defining the standard reduction. Opposite-parabolic data
  are stored in their own torus coordinate; transport is degree negation.
* mes(K) = 1 and mes(U(A)/U(F)) = 1. On the projective line mes(O_A) = q, so the
  global modulus twist is q^{-2d-1}: the familiar q^{-2d} of the local modulus
  times one factor q^{-1} from the genus-zero normalization.
* Torus-side pairing weight: q^{-2d-1}/(q-1) (opposite side: q^{2d-1}/(q-1)).
  With these weights the constant term is the exact adjoint of the Eisenstein
  sum, and the composition CT Eis equals identity + R, with
  R(psi)(d) = q^{2d+1} * sum_m mu_hat(m) psi(d+m),
  R^{-1}(phi)(d) = sum_m q^{-2(d+m)-1} nu_hat(m) phi(d+m).
* Kernel series: mu_hat has generating function (1-t)/(1-q^2 t) (coefficients
  1, q^2-1, q^4-q^2, ...) and nu_hat has (1-q^2 t)/(1-t) (coefficients
  1, 1-q^2, 1-q^2, ...); both arise as Euler products of the local factors over
  the closed points of the line and are oracle-checked by necklace counts.
* Signs: the parabolic sign is (-1)^(rank - |J|), so L = id - Eis- R^{-1} CT and
  L^{-1} = id - Eis CT; on constant-term-free vectors L is +identity.
"""
