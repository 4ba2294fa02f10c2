"""Character calculus for the dual Levi: graded pieces of the nilpotent radical, exterior/symmetric power series, and irreducible decomposition by Weyl's character formula."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .hecke import GradedSeries, rank_one_product
from .qfield import ZERO, as_ratfunc
from .rootdata import ParabolicType, RootDatum, Vec, pair

# The completed character ring is the cone-series ring of hecke: its e-basis
# coefficients are the Hecke side's indicator-basis coefficients.
CharSeries = GradedSeries


class CharError(ValueError):
    pass


@dataclass(frozen=True)
class GradedPiece:
    """One graded piece of the dual nilpotent radical: its level and its weight multiset."""

    level: Fraction
    weights: tuple[Vec, ...]  # sorted, with multiplicity


def u_P_graded_pieces(rd: RootDatum, par: ParabolicType) -> list[GradedPiece]:
    """Partition of the non-Levi positive coroots by the pairing with rho_P (levels ascending)."""
    buckets: dict[Fraction, list[Vec]] = {}
    for a in par.pos_coroots_unipotent:
        lvl = Fraction(par.height(a), 2)
        if lvl <= 0:
            raise CharError(f"nonpositive grading level {lvl} for weight {a}")
        buckets.setdefault(lvl, []).append(a)
    return [GradedPiece(lvl, tuple(sorted(ws))) for lvl, ws in sorted(buckets.items())]


def lambda_series(rd: RootDatum, par: ParabolicType, t, piece: GradedPiece, height: int) -> CharSeries:
    """Alternating exterior-power series of a graded piece: the product of (1 - t e^w) over its weights."""
    t = as_ratfunc(t)
    return rank_one_product(rd, par, height, [(w, t, ZERO) for w in piece.weights])


def sym_series(rd: RootDatum, par: ParabolicType, t, piece: GradedPiece, height: int) -> CharSeries:
    """Symmetric-power series of a graded piece: the product of the geometric series 1/(1 - t e^w) over its weights."""
    t = as_ratfunc(t)
    return rank_one_product(rd, par, height, [(w, ZERO, t) for w in piece.weights])


# ---------------------------------------------------------------------------
# irreducible decomposition for the dual Levi (Weyl's character formula)


def decompose_into_irreducibles(rd: RootDatum, par: ParabolicType, f) -> tuple[list[tuple[Vec, int]], bool]:
    """Multiplicities of the dual-Levi irreducibles in a W_M-invariant weight function, by Weyl's character formula.

    With rho half the sum of the positive Levi coroots and Delta the Weyl
    denominator sum_{w in W_M} det(w) e^{w rho - rho}, chi_lam * Delta is
    sum_w det(w) e^{w(lam + rho) - rho}; for dominant lam only w = 1 lands on a
    dominant weight, so the multiplicity of chi_lam in f is the coefficient of
    lam in f * Delta.

    Returns (components, virtual): components reconstruct the input exactly; the
    flag marks signed multiplicities (virtual characters).
    """
    work = {tuple(int(x) for x in k): int(v) for k, v in f.items() if v}
    if not par.is_levi_invariant(work):
        raise CharError("weight function is not W_M-invariant")
    two_rho = tuple(sum(a[i] for a in par.pos_coroots_levi) for i in range(rd.rank))
    # w(2rho) - 2rho is twice an integer combination of coroots, so halving is exact
    delta = {
        tuple((x - y) // 2 for x, y in zip(linalg.mat_vec(w, two_rho), two_rho)): linalg.det(w) for w in par.weyl_levi
    }
    prod: dict[Vec, int] = {}
    for mu, c in work.items():
        for shift, sign in delta.items():
            lam = tuple(a + b for a, b in zip(mu, shift))
            prod[lam] = prod.get(lam, 0) + sign * c
    out = [(lam, m) for lam, m in prod.items() if m and par.is_levi_dominant(lam)]
    out.sort(key=lambda item: (-pair(par.two_rho_check_levi, item[0]), item[0]))
    return out, any(m < 0 for _, m in out)
