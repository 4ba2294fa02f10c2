"""Completed Hecke series on the unipotent support cone: the Gindikin-Karpelevich measure, its convolution inverse, and the character-ring reformulations."""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from . import cones
from .qfield import ONE, RatFunc, ZERO, as_ratfunc, q_pow
from .rootdata import ParabolicType, RootDatum, Vec


class HeckeError(ValueError):
    pass


class TruncationError(HeckeError):
    pass


_CONE_MEMO: dict = {}


def in_support_cone(par, lam) -> bool:
    """Cached membership of a lattice point in the parabolic's unipotent support cone, by `cones.in_pos_U`.

    The memo is keyed on the cone's generators, not on names, so data that share
    a name but not a cone never share entries.
    """
    key = (par.pos_coroots_unipotent, tuple(lam))
    hit = _CONE_MEMO.get(key)
    if hit is None:
        hit = _CONE_MEMO[key] = cones.in_pos_U(par, lam)
    return hit


E_BASIS = "e"
INDICATOR_BASIS = "indicator"


def twist_scale(par: ParabolicType) -> int:
    """1 if <rho_P, a> is integral on every unipotent coroot a, else 2: exponents are doubled (q = u^2)."""
    return 1 if all(par.height(a) % 2 == 0 for a in par.pos_coroots_unipotent) else 2


class GradedSeries:
    """Truncated series supported on lattice points of the unipotent cone.

    Coefficients live in Q(q); the truncation height is the pairing with 2rho_P.
    The basis tag says how to read them. On the Hecke side the multiplicative
    e-basis is primary and the indicator basis differs by the exact scalar
    q^{<rho_P, lam>} per lattice point; the completed character ring reads the
    indicator coefficients as its own e-basis (see satake_character_bridge).
    In either basis the product is the cone-graded Cauchy product.

    A series is read-only once built (coeffs is a read-only mapping), so each
    conversion to another basis is made once and kept on the instance.
    """

    def __init__(self, rd: RootDatum, par: ParabolicType, height: int, coeffs: dict, basis: str = E_BASIS):
        if basis not in (E_BASIS, INDICATOR_BASIS):
            raise HeckeError(f"unknown basis {basis!r}")
        self.rd = rd
        self.par = par
        self.height = int(height)
        self.basis = basis
        clean: dict[Vec, RatFunc] = {}
        for k, v in coeffs.items():
            v = as_ratfunc(v)
            if v.is_zero():
                continue
            key = tuple(int(x) for x in k)
            if par.height(key) > self.height:
                continue
            if not in_support_cone(par, key):
                raise HeckeError(f"support point {key} lies outside the support cone")
            clean[key] = v
        self.coeffs = MappingProxyType(clean)
        self._converted: dict[tuple[str, int], GradedSeries] = {}

    # -- basics ---------------------------------------------------------
    @staticmethod
    def unit(rd, par, height) -> "GradedSeries":
        return GradedSeries(rd, par, height, {(0,) * rd.rank: ONE})

    def coeff(self, lam) -> RatFunc:
        return self.coeffs.get(tuple(int(x) for x in lam), ZERO)

    def constant_term(self) -> RatFunc:
        return self.coeff((0,) * self.rd.rank)

    def __eq__(self, other):
        return (
            isinstance(other, GradedSeries)
            and self.basis == other.basis
            and self.height == other.height
            and self.coeffs == other.coeffs
        )

    # -- basis conversion --------------------------------------------------
    def to_basis(self, basis: str, scale: int = 1) -> "GradedSeries":
        """The same element in the given basis: the indicator coefficient at lam is c q^{<rho_P, lam>}.

        With scale 2 the indicator coefficients are read in u = q^{1/2}: c(u^2) u^{<2rho_P, lam>}.
        That is integral where <rho_P, lam> is not; twist_scale picks the scale.
        A second call with the same basis and scale returns the same object.
        """
        if scale != 1 and (self.basis, basis) != (E_BASIS, INDICATOR_BASIS):
            raise HeckeError("only the e-basis converts to the doubled indicator basis")
        if basis == self.basis:
            return self
        converted = self._converted.get((basis, scale))
        if converted is not None:
            return converted
        sign = 1 if basis == INDICATOR_BASIS else -1
        out = {}
        for lam, c in self.coeffs.items():
            e = scale * self.par.height(lam)
            if e % 2:
                raise HeckeError(
                    f"basis conversion at {lam} needs q^{Fraction(e, 2)}: half-integral powers of q do not "
                    "lie in Q(q); keep the e-basis or work with doubled exponents"
                )
            out[lam] = (c if scale == 1 else c.double_exponents()) * q_pow(sign * e // 2)
        converted = self._converted[basis, scale] = GradedSeries(self.rd, self.par, self.height, out, basis)
        return converted

    # -- algebra ----------------------------------------------------------
    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        return convolve(self, other)

    def invert(self) -> "GradedSeries":
        """Graded Neumann inversion in push form; requires an invertible constant term.

        inv(0) = 1/c0 and inv(lam) = -(sum over nonzero mu of c(mu) inv(lam - mu))/c0. Heights add, so the
        points are settled one height bucket at a time: a settled inv(p) at height t is pushed, as
        c(mu) inv(p), to p + mu in bucket t + height(mu) for every mu with t + height(mu) <= height. The
        constructor's cone check puts every nonzero support point at height >= 1, so each push lands in a
        later bucket, and no point outside the result is visited.
        """
        c0 = self.constant_term()
        if c0.is_zero():
            raise HeckeError("series has zero constant term; not a unit")
        zero = (0,) * self.rd.rank
        h = self.height
        steps = sorted((self.par.height(mu), mu, c) for mu, c in self.coeffs.items() if mu != zero)
        buckets: list[dict[Vec, RatFunc]] = [{} for _ in range(h + 1)]
        buckets[0][zero] = -ONE  # so that the rule below settles inv(0) = 1/c0
        inv = {}
        for t, bucket in enumerate(buckets):
            for p, acc in bucket.items():
                value = -acc / c0
                if value.is_zero():
                    continue
                inv[p] = value
                for hmu, mu, cmu in steps:
                    if t + hmu > h:
                        break
                    target = buckets[t + hmu]
                    key = tuple(x + y for x, y in zip(p, mu))
                    prev = target.get(key)
                    target[key] = cmu * value if prev is None else prev + cmu * value
        return GradedSeries(self.rd, self.par, self.height, inv, self.basis)


def convolve(s1: GradedSeries, s2: GradedSeries) -> GradedSeries:
    """Cone-graded Cauchy product; truncation height is the minimum of the two."""
    if s1.par.indices != s2.par.indices or s1.rd is not s2.rd and s1.rd.config() != s2.rd.config():
        raise HeckeError("mismatched parabolic types")
    if s1.basis != s2.basis:
        raise HeckeError("mismatched bases; convert first")
    h = min(s1.height, s2.height)
    height = s1.par.height
    terms2 = [(b, cb, height(b)) for b, cb in s2.coeffs.items()]
    out: dict[Vec, RatFunc] = {}
    for a, ca in s1.coeffs.items():
        ha = height(a)
        if ha > h:
            continue
        for b, cb, hb in terms2:
            if ha + hb > h:
                continue
            key = tuple(x + y for x, y in zip(a, b))
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return GradedSeries(s1.rd, s1.par, h, out, s1.basis)


def rank_one_product(rd: RootDatum, par: ParabolicType, height: int, factors) -> GradedSeries:
    """The product of the rank-one factors (1 - t e^a)/(1 - s e^a), one for each (a, t, s) in factors.

    Each factor is a one-term recurrence along a: g = f (1 - t e^a)/(1 - s e^a) has
    g(p) = f(p) - t f(p - a) + s g(p - a), a running sum pushed up each a-string from its
    lowest point in the support of f to the height bound. The points of f are taken in
    height order, so a string is walked once, from that lowest point. A factor of height
    <= 0 raises: its strings would never reach the bound.
    """
    terms = {(0,) * rd.rank: ONE}
    for a, t, s in factors:
        ha = par.height(a)
        if ha <= 0:
            raise HeckeError(f"factor at {a} has height {ha}; a rank-one factor needs positive height")
        out: dict[Vec, RatFunc] = {}
        for hp, p in sorted((par.height(p), p) for p in terms):
            if p in out:
                continue
            f_prev = g = ZERO
            while hp <= height:
                f = terms.get(p, ZERO)
                out[p] = g = f - t * f_prev + s * g
                f_prev = f
                p, hp = tuple(x + y for x, y in zip(p, a)), hp + ha
        terms = out
    return GradedSeries(rd, par, height, terms)


def gk_mu(rd: RootDatum, par: ParabolicType, height: int) -> GradedSeries:
    """The Gindikin-Karpelevich series: product over non-Levi positive coroots of (1 - q^{-1} e^a)/(1 - e^a)."""
    out = rank_one_product(rd, par, height, [(a, q_pow(-1), ONE) for a in par.pos_coroots_unipotent])
    if not out.constant_term().is_one():
        raise HeckeError("GK series must have constant term 1")
    if not par.is_levi_invariant(out.coeffs):
        raise HeckeError("GK series must be W_M-invariant")
    return out


def nu(rd: RootDatum, par: ParabolicType, height: int) -> GradedSeries:
    """Convolution inverse of the Gindikin-Karpelevich series: the product of the reciprocal factors
    (1 - e^a)/(1 - q^{-1} e^a); its constant term is checked to be 1."""
    out = rank_one_product(rd, par, height, [(a, ONE, q_pow(-1)) for a in par.pos_coroots_unipotent])
    if not out.constant_term().is_one():
        raise HeckeError("inverse series must have constant term 1")
    return out


# ---------------------------------------------------------------------------
# character-ring bridge
#
# charring builds its series on the type above, so it is imported where used.


def satake_character_bridge(rd: RootDatum, par: ParabolicType, s: GradedSeries) -> GradedSeries:
    """Reinterpret a W_M-invariant e-basis series as an element of the completed character ring.

    The character-side coefficient at a lattice point is the indicator-basis
    coefficient there, read in u = q^{1/2} when twist_scale(par) is 2; products
    of series correspond to products of characters.
    """
    if not s.par.is_levi_invariant(s.coeffs):
        raise HeckeError("series is not W_M-invariant")
    return GradedSeries(rd, par, s.height, s.to_basis(INDICATOR_BASIS, twist_scale(par)).coeffs)


def _lambda_product_side(rd, par, height: int, swap: bool) -> GradedSeries:
    """Product over graded pieces of Lambda(q^{a-1}, piece)/Lambda(q^a, piece) (or its reciprocal)."""
    from .charring import u_P_graded_pieces

    scale = twist_scale(par)
    factors = []
    for piece in u_P_graded_pieces(rd, par):
        t, s = q_pow(int(scale * (piece.level - 1))), q_pow(int(scale * piece.level))
        if swap:
            t, s = s, t
        factors += [(w, t, s) for w in piece.weights]
    return rank_one_product(rd, par, height, factors)


def verify_series_reformulation(rd: RootDatum, par: ParabolicType, height: int) -> bool:
    """Check both character-ring reformulations of the GK series and its inverse.

    Levels with half-integral values are handled by doubling all exponents
    (q -> u^2, see twist_scale), which is injective on Q(q).
    """
    smu = satake_character_bridge(rd, par, gk_mu(rd, par, height))
    snu = satake_character_bridge(rd, par, nu(rd, par, height))
    lhs_mu = _lambda_product_side(rd, par, height, swap=False)
    lhs_nu = _lambda_product_side(rd, par, height, swap=True)
    return smu == lhs_mu and snu == lhs_nu


def verify_smu_snu_unit(rd: RootDatum, par: ParabolicType, height: int) -> bool:
    """The bridge is multiplicative: S(mu) S(nu) = 1 in the completed character ring."""
    smu = satake_character_bridge(rd, par, gk_mu(rd, par, height))
    snu = satake_character_bridge(rd, par, nu(rd, par, height))
    return smu * snu == GradedSeries.unit(rd, par, height)


def verify_alternating_sym_expansion(rd: RootDatum, par: ParabolicType, height: int) -> bool:
    """Termwise check that Lambda(q^a)/Lambda(q^{a-1}) equals the alternating-sym product, per graded piece.

    The left side inverts the denominator by graded Neumann inversion; the right
    side expands the symmetric series independently from its generating product.
    """
    from .charring import lambda_series, sym_series, u_P_graded_pieces

    scale = twist_scale(par)
    for piece in u_P_graded_pieces(rd, par):
        e_hi = int(scale * piece.level)
        e_lo = int(scale * (piece.level - 1))
        lam_hi = lambda_series(rd, par, q_pow(e_hi), piece, height)
        lam_lo = lambda_series(rd, par, q_pow(e_lo), piece, height)
        lhs = lam_hi * lam_lo.invert()
        rhs = lam_hi * sym_series(rd, par, q_pow(e_lo), piece, height)
        if lhs != rhs:
            return False
    return True
