"""K-invariant intertwining operator and its inverse, acting on windowed functions on the coweight lattice."""

from __future__ import annotations

from operator import add, sub

from . import cones
from .cones import SupportShape
from .hecke import INDICATOR_BASIS, GradedSeries, TruncationError, twist_scale
from .qfield import RatFunc, ZERO, as_ratfunc, q_pow, sum_of_products
from .rootdata import ParabolicType, RootDatum, Vec


class IntertwineError(ValueError):
    pass


class SphericalFunction:
    """Finitely supported function on lattice coweights inside a declared support window; the constructor checks every point."""

    def __init__(self, rd: RootDatum, par: ParabolicType, values: dict, window: SupportShape):
        self.rd = rd
        self.par = par
        self.values: dict[Vec, RatFunc] = {}
        for k, v in values.items():
            v = as_ratfunc(v)
            if not v.is_zero():
                self.values[tuple(int(x) for x in k)] = v
        self.window = window
        for lam in self.values:
            if not window.contains(par, lam):
                raise IntertwineError(f"support point {lam} lies outside the declared window")

    @classmethod
    def _build(cls, rd: RootDatum, par: ParabolicType, values: dict, window: SupportShape) -> "SphericalFunction":
        """A function on values the intertwiner derived: nonzero RatFunc values at int points of the window.

        Nothing is checked again: each output is an input point, which lies in base - pos_U, minus a kernel
        point in pos_U, so it lies in base - pos_U too.
        """
        self = cls.__new__(cls)
        self.rd, self.par, self.values, self.window = rd, par, values, window
        return self

    def value(self, lam) -> RatFunc:
        return self.values.get(tuple(int(x) for x in lam), ZERO)

    def __eq__(self, other):
        return isinstance(other, SphericalFunction) and self.values == other.values

    def max_height(self):
        return max(map(self.par.height, self.values), default=0)


def _apply_kernel(rd, par, series, phi, out_points, out_twist=None, in_twist=None):
    """Twisted shift convolution out(lam) = out_twist(lam) sum kernel(theta) in_twist(lam + theta) phi(lam + theta).

    A twist is a function of (scale, point) with scale = twist_scale(par); None is the twist 1. The in twist
    multiplies each input value once, and the out twist each output once, so every output is one
    qfield.sum_of_products over its (kernel, input) pairs. With fewer requested outputs than input points,
    each output pulls phi(lam + theta) over the kernel (|out| x |kernel| reads); otherwise every kernel term
    is pushed from every input point (|kernel| x |phi|), keeping those that land on a requested output.
    """
    if series.par.indices != par.indices:
        raise IntertwineError("series parabolic does not match")
    scale = twist_scale(par)
    kernel = series.to_basis(INDICATOR_BASIS, scale).coeffs
    max_h = phi.max_height()
    if out_points is None:
        # default to the certified part of the potential support; requested
        # points outside the certificate raise instead of truncating silently
        potential = {tuple(map(sub, p, th)) for p in phi.values for th in kernel}
        out_points = sorted(lam for lam in potential if max_h - par.height(lam) <= series.height)
    else:
        bad = [lam for lam in out_points if max_h - par.height(lam) > series.height]
        if bad:
            raise TruncationError(
                f"series height {series.height} cannot certify outputs at {bad[:3]} "
                f"(needs height {max(max_h - par.height(lam) for lam in bad)})"
            )
    out_set = set(out_points)
    values = phi.values if in_twist is None else {p: in_twist(scale, p) * v for p, v in phi.values.items()}
    groups: dict[Vec, list] = {}
    if len(out_set) < len(values):
        for lam in out_set:
            pairs = []
            for theta, k in kernel.items():
                v = values.get(tuple(map(add, lam, theta)))
                if v is not None:
                    pairs.append((k, v))
            groups[lam] = pairs
    else:
        for theta, k in kernel.items():
            for p, v in values.items():
                lam = tuple(map(sub, p, theta))
                if lam in out_set:
                    pairs = groups.get(lam)
                    if pairs is None:
                        groups[lam] = [(k, v)]
                    else:
                        pairs.append((k, v))
    out: dict[Vec, RatFunc] = {}
    for lam, pairs in groups.items():
        total = sum_of_products(pairs)
        if not total.is_zero():
            out[lam] = total if out_twist is None else out_twist(scale, lam) * total
    window = SupportShape.make(phi.window.base, cones.neg_pos_U(par.indices))
    return SphericalFunction._build(rd, par, out, window)


def apply_R_K(rd: RootDatum, par: ParabolicType, series: GradedSeries, phi: SphericalFunction, out_points=None) -> SphericalFunction:
    """The K-invariant intertwining operator: modulus-inverse prefactor times shift convolution with the series."""
    def out_twist(scale, lam):
        return q_pow(scale * par.height(lam))

    return _apply_kernel(rd, par, series, phi, out_points, out_twist=out_twist)


def apply_R_inverse_K(rd: RootDatum, par: ParabolicType, series: GradedSeries, phi: SphericalFunction, out_points=None) -> SphericalFunction:
    """The inverse operator: modulus evaluated at the input point inside the sum, kernel the inverse series."""
    def in_twist(scale, p):
        return q_pow(-scale * par.height(p))

    return _apply_kernel(rd, par, series, phi, out_points, in_twist=in_twist)
