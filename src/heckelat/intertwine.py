"""K-invariant intertwining operator and its inverse, acting on windowed functions on the coweight lattice."""

from __future__ import annotations

from . import cones
from .cones import SupportShape
from .hecke import INDICATOR_BASIS, GradedSeries, TruncationError, twist_scale
from .qfield import RatFunc, ZERO, as_ratfunc, q_pow
from .rootdata import ParabolicType, RootDatum, Vec


class IntertwineError(ValueError):
    pass


class SphericalFunction:
    """Finitely supported function on lattice coweights inside a declared support window."""

    def __init__(self, rd: RootDatum, par: ParabolicType, values: dict, window: SupportShape, check_window: bool = True):
        self.rd = rd
        self.par = par
        self.values: dict[Vec, RatFunc] = {}
        for k, v in values.items():
            v = as_ratfunc(v)
            if not v.is_zero():
                self.values[tuple(int(x) for x in k)] = v
        self.window = window
        if check_window:
            if not cones.bounded_above(rd, window):
                raise IntertwineError("window is not of bounded-above type")
            for lam in self.values:
                if not window.contains(rd, lam):
                    raise IntertwineError(f"support point {lam} lies outside the declared window")

    def value(self, lam) -> RatFunc:
        return self.values.get(tuple(int(x) for x in lam), ZERO)

    def __eq__(self, other):
        return isinstance(other, SphericalFunction) and self.values == other.values

    def max_height(self):
        return max(map(self.par.height, self.values), default=0)


def _apply_kernel(rd, par, series, phi, out_points, twist):
    """Twisted shift convolution out(lam) = twist(lam, theta) sum kernel(theta) phi(lam + theta)."""
    if series.par.indices != par.indices:
        raise IntertwineError("series parabolic does not match")
    scale = twist_scale(par)
    kernel = series.to_basis(INDICATOR_BASIS, scale).coeffs
    max_h = phi.max_height()
    if out_points is None:
        # default to the certified part of the potential support; requested
        # points outside the certificate raise instead of truncating silently
        potential = {tuple(a - b for a, b in zip(p, th)) for p in phi.values for th in kernel}
        out_points = sorted(lam for lam in potential if max_h - par.height(lam) <= series.height)
    else:
        bad = [lam for lam in out_points if max_h - par.height(lam) > series.height]
        if bad:
            raise TruncationError(
                f"series height {series.height} cannot certify outputs at {bad[:3]} "
                f"(needs height {max(max_h - par.height(lam) for lam in bad)})"
            )
    out_set = set(out_points)
    out: dict[Vec, RatFunc] = {}
    for theta, k in kernel.items():
        for p, v in phi.values.items():
            lam = tuple(a - b for a, b in zip(p, theta))
            if lam in out_set:
                term = twist(scale, lam, theta) * k * v
                prev = out.get(lam)
                out[lam] = term if prev is None else prev + term
    out = {k2: v2 for k2, v2 in out.items() if not v2.is_zero()}
    window = SupportShape.make(phi.window.base, cones.neg_pos_U(par.indices))
    return SphericalFunction(rd, par, out, window, check_window=False)


def apply_R_K(rd: RootDatum, par: ParabolicType, series: GradedSeries, phi: SphericalFunction, out_points=None) -> SphericalFunction:
    """The K-invariant intertwining operator: modulus-inverse prefactor times shift convolution with the series."""
    def twist(scale, lam, theta):
        return q_pow(scale * par.height(lam))

    return _apply_kernel(rd, par, series, phi, out_points, twist)


def apply_R_inverse_K(rd: RootDatum, par: ParabolicType, series: GradedSeries, phi: SphericalFunction, out_points=None) -> SphericalFunction:
    """The inverse operator: modulus evaluated at the input point inside the sum, kernel the inverse series."""
    def twist(scale, lam, theta):
        return q_pow(-scale * (par.height(lam) + par.height(theta)))

    return _apply_kernel(rd, par, series, phi, out_points, twist)
