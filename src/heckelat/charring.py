"""Character calculus for the dual Levi: graded pieces of the nilpotent radical, exterior/symmetric power series, and irreducible decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hecke import GradedSeries
from .qfield import ONE, as_ratfunc
from .rootdata import ParabolicType, RootDatum, Vec, dominance_leq, pair

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
    out = CharSeries.unit(rd, par, height)
    for w in piece.weights:
        factor = CharSeries(rd, par, height, {(0,) * rd.rank: ONE, w: -t})
        out = out * factor
    return out


def sym_series(rd: RootDatum, par: ParabolicType, t, piece: GradedPiece, height: int) -> CharSeries:
    """Symmetric-power series of a graded piece: the product of geometric series in t e^w."""
    t = as_ratfunc(t)
    out = CharSeries.unit(rd, par, height)
    for w in piece.weights:
        hw = par.height(w)
        if hw <= 0:
            raise CharError(f"weight {w} is not strictly positive in the grading; series not summable")
        coeffs = {}
        n = 0
        tn = ONE
        while n * hw <= height:
            coeffs[tuple(n * x for x in w)] = tn
            tn = tn * t
            n += 1
        out = out * CharSeries(rd, par, height, coeffs)
    return out


# ---------------------------------------------------------------------------
# irreducible decomposition for the dual Levi (Freudenthal multiplicities)


def _levi_form(rd: RootDatum, par: ParabolicType):
    """A W_M-invariant symmetric form on the coweight lattice, positive on the Levi root span."""
    roots = sorted(par.roots_levi)

    def form(x, y):
        return sum(pair(r, x) * pair(r, y) for r in roots)

    return form


def irreducible_character(rd: RootDatum, par: ParabolicType, highest: Vec) -> dict[Vec, int]:
    """Weight multiplicities of the dual-Levi irreducible with the given dominant highest weight."""
    highest = tuple(int(x) for x in highest)
    if not par.is_levi_dominant(highest):
        raise CharError(f"{highest} is not dominant for the Levi")
    if not par.indices:
        return {highest: 1}
    form = _levi_form(rd, par)
    rho = tuple(Fraction(sum(col), 2) for col in zip(*par.pos_coroots_levi))
    simples = [rd.simple_coroots[j] for j in sorted(par.indices)]
    # candidate weights: lattice points below the highest weight whose dominant
    # conjugate is still majorized by it
    candidates = {highest}
    frontier = [highest]
    while frontier:
        new = []
        for lam in frontier:
            for s in simples:
                mu = tuple(a - b for a, b in zip(lam, s))
                if mu in candidates:
                    continue
                dom = tuple(rd.dominant_representative(mu, par.indices))
                if dominance_leq(rd, par, highest, dom):
                    candidates.add(mu)
                    new.append(mu)
        frontier = new
    lamrho = tuple(Fraction(a) + b for a, b in zip(highest, rho))
    norm_top = form(lamrho, lamrho)
    order = sorted(candidates, key=lambda v: (-pair(par.two_rho_check_levi, v), v))
    mults: dict[Vec, int] = {}
    for mu in order:
        if mu == highest:
            mults[mu] = 1
            continue
        murho = tuple(Fraction(a) + b for a, b in zip(mu, rho))
        den = norm_top - form(murho, murho)
        acc = Fraction(0)
        for alpha in par.pos_coroots_levi:
            k = 1
            while True:
                shifted = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mults.get(shifted)
                if m is None and shifted not in candidates:
                    break
                if m:
                    acc += 2 * m * form(shifted, alpha)
                k += 1
        if den == 0:
            mults[mu] = 0
            continue
        val = acc / den
        if val.denominator != 1 or val < 0:
            raise CharError(f"Freudenthal produced a non-integer multiplicity at {mu}")
        if val:
            mults[mu] = int(val)
    return {k: v for k, v in mults.items() if v}


def decompose_into_irreducibles(rd: RootDatum, par: ParabolicType, f) -> tuple[list[tuple[Vec, int]], bool]:
    """Greedy highest-weight stripping of a W_M-invariant weight function.

    Returns (components, virtual): components reconstruct the input exactly; the
    flag marks signed multiplicities (virtual characters).
    """
    work = {tuple(int(x) for x in k): int(v) for k, v in f.items() if v}
    if not par.is_levi_invariant(work):
        raise CharError("weight function is not W_M-invariant")
    out: list[tuple[Vec, int]] = []
    virtual = False
    guard = 0
    while work:
        guard += 1
        if guard > 10000:
            raise CharError("decomposition did not terminate")
        maxima = [
            lam
            for lam in work
            if not any(
                other != lam and dominance_leq(rd, par, other, lam) for other in work
            )
        ]
        dom_maxima = [lam for lam in maxima if par.is_levi_dominant(lam)]
        if not dom_maxima:
            raise CharError("no dominant maximal weight (input not W_M-invariant?)")
        lam = max(dom_maxima)
        mult = work[lam]
        if mult < 0:
            virtual = True
        char = irreducible_character(rd, par, lam)
        for mu, m in char.items():
            new = work.get(mu, 0) - mult * m
            if new:
                work[mu] = new
            else:
                work.pop(mu, None)
        out.append((lam, mult))
    out.sort(key=lambda item: (-pair(par.two_rho_check_levi, item[0]), item[0]))
    return out, virtual
