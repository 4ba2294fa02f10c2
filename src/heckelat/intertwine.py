"""K-invariant intertwining operator and its inverse, acting on windowed functions on the coweight lattice."""

from __future__ import annotations

from operator import add, sub

from .cones import SupportShape
from .hecke import INDICATOR_BASIS, GradedSeries, TruncationError
from .qfield import RatFunc, ZERO, as_ratfunc, q_pow, sum_of_products
from .rootdata import ParabolicType, RootDatum, Vec, same_datum, same_parabolic


class IntertwineError(ValueError):
    pass


class SphericalFunction:
    """Finitely supported function on lattice coweights inside a declared support window of the parabolic's cone.

    The constructor checks the window's cone against the parabolic once, then every point against the window.
    """

    def __init__(self, rd: RootDatum, par: ParabolicType, values: dict, window: SupportShape):
        if window.cone != par.indices:
            raise IntertwineError(f"window cone -pos_U of J={sorted(window.cone)} does not belong to {par}")
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
        return (
            isinstance(other, SphericalFunction)
            and same_parabolic(self.par, other.par)
            and self.window == other.window
            and self.values == other.values
        )

    def max_height(self):
        return max(map(self.par.height, self.values), default=0)


def _apply_kernel(par, series, phi, out_points):
    """The untwisted shift convolution K: out(lam) = sum kernel(theta) phi(lam + theta), theta over the series' indicator kernel.

    Each output is one qfield.sum_of_products over its (kernel, input) pairs. With fewer requested outputs than
    input points, each output pulls phi(lam + theta) over the kernel (|out| x |kernel| reads); otherwise every
    kernel term is pushed from every input point once (|kernel| x |phi|), and the groups kept are those of the
    requested outputs, or with none requested those the series height certifies. A requested output it cannot
    certify raises instead of truncating silently. The output keeps phi's window, whose cone is J.
    """
    for name, other in (("series", series.par), ("function", phi.par)):
        if not same_parabolic(other, par):
            raise IntertwineError(f"{name} parabolic {other} does not match the operator's {par}")
    kernel = series.to_basis(INDICATOR_BASIS, par.twist_scale).coeffs
    max_h = phi.max_height()
    if out_points is not None:
        bad = [lam for lam in out_points if max_h - par.height(lam) > series.height]
        if bad:
            raise TruncationError(
                f"series height {series.height} cannot certify outputs at {bad[:3]} "
                f"(needs height {max(max_h - par.height(lam) for lam in bad)})"
            )
        out_points = set(out_points)
    groups: dict[Vec, list] = {}
    if out_points is not None and len(out_points) < len(phi.values):
        for lam in out_points:
            pairs = []
            for theta, k in kernel.items():
                v = phi.values.get(tuple(map(add, lam, theta)))
                if v is not None:
                    pairs.append((k, v))
            groups[lam] = pairs
    else:
        for theta, k in kernel.items():
            for p, v in phi.values.items():
                lam = tuple(map(sub, p, theta))
                if out_points is not None and lam not in out_points:
                    continue
                pairs = groups.get(lam)
                if pairs is None:
                    groups[lam] = [(k, v)]
                else:
                    pairs.append((k, v))
        if out_points is None:
            groups = {lam: pairs for lam, pairs in groups.items() if max_h - par.height(lam) <= series.height}
    out = {lam: total for lam, pairs in groups.items() if not (total := sum_of_products(pairs)).is_zero()}
    return SphericalFunction._build(phi.rd, par, out, phi.window)


def _twist(rd, par, phi, sign):
    """T^sign: phi times q^(sign scale height(lam)) pointwise, scale = par.twist_scale; phi keeps its parabolic.

    rd, which the public operators take beside par, must be par's datum.
    """
    if not same_datum(rd, par.rd):
        raise IntertwineError(f"datum {rd.name} is not the datum of the operator's {par}")
    scale = sign * par.twist_scale
    values = {lam: q_pow(scale * par.height(lam)) * v for lam, v in phi.values.items()}
    return SphericalFunction._build(rd, phi.par, values, phi.window)


def apply_R_K(rd: RootDatum, par: ParabolicType, series: GradedSeries, phi: SphericalFunction, out_points=None) -> SphericalFunction:
    """The K-invariant intertwining operator R = T o K: the shift convolution with the series, then the modulus-inverse twist."""
    return _twist(rd, par, _apply_kernel(par, series, phi, out_points), 1)


def apply_R_inverse_K(rd: RootDatum, par: ParabolicType, series: GradedSeries, phi: SphericalFunction, out_points=None) -> SphericalFunction:
    """The inverse operator R^-1 = K o T^-1: the modulus twist at each input point, then the shift convolution with the inverse series."""
    return _apply_kernel(par, series, _twist(rd, par, phi, -1), out_points)
