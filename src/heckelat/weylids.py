"""Exhaustive verification of the Weyl-group and parabolic-sign identities behind the global operator calculus."""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import mat_mul
from .rootdata import Matrix, ParabolicType, RootDatum, index_subsets

RANK_CAP = 4


class WeylIdentityError(ValueError):
    pass


def parabolic_sign(rd: RootDatum, indices) -> int:
    """(-1)^(dim of the Levi center) with dim Z(M) = rank - |J|."""
    return -1 if (rd.rank - len(frozenset(indices))) % 2 else 1


def _is_positive_root(rd: RootDatum, chi) -> bool:
    if chi in rd.positive_root_set:
        return True
    if tuple(-x for x in chi) in rd.positive_root_set:
        return False
    raise WeylIdentityError(f"{chi} is not a root")


def w_bullet_set(rd: RootDatum, par: ParabolicType, par2: ParabolicType) -> list[Matrix]:
    """Minimal-length representatives of the double cosets W_{M'} \\ W / W_M."""
    out = []
    for w in rd.weyl_elements:
        image = rd.root_image(w)
        if not all(_is_positive_root(rd, image[chi]) for chi in par.pos_roots_levi):
            continue
        inv_image = rd.root_image(rd.w_inverse(w))
        if not all(_is_positive_root(rd, inv_image[chi]) for chi in par2.pos_roots_levi):
            continue
        out.append(w)
    return out


def double_coset(rd: RootDatum, par: ParabolicType, par2: ParabolicType, w: Matrix) -> frozenset:
    """The double coset W_{M'} w W_M, enumerated directly."""
    right = [mat_mul(w, b) for b in par.weyl_levi]
    return frozenset(mat_mul(a, wb) for a in par2.weyl_levi for wb in right)


def check_w_bullet_transversal(rd: RootDatum, par: ParabolicType, par2: ParabolicType) -> bool:
    """The bullets' (W_{M'}, W_M) double cosets are pairwise disjoint and cover W: each is hit exactly once."""
    covered = set()
    for w in w_bullet_set(rd, par, par2):
        coset = double_coset(rd, par, par2, w)
        if not covered.isdisjoint(coset):
            return False
        covered |= coset
    return covered == set(rd.weyl_elements)


@dataclass
class VanishingReport:
    datum: str
    kind: str
    passed: bool = True
    cases: int = 0
    witnesses: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.passed = False
        if len(self.witnesses) < 10:
            self.witnesses.append(msg)


def verify_vanishing_A(rd: RootDatum) -> VanishingReport:
    """Alternating Levi sums over {M' : M' cap B^- in w'Bw'^{-1}, w'Mw'^{-1} in M'} vanish except at w' = w0^M.

    For each standard J and each w', the sum of (-1)^{dim Z(M')} over admissible
    M' must vanish unless w'(negative roots outside M) contains no simple root,
    and the surviving configuration must be exactly w' = w0^M with M' = M.
    """
    if rd.rank > RANK_CAP:
        raise WeylIdentityError(f"rank {rd.rank} exceeds the sweep cap {RANK_CAP}")
    report = VanishingReport(rd.name, "A")
    simple_set = set(rd.simple_roots)
    neg_roots = [tuple(-x for x in chi) for chi in rd.positive_roots]
    for indices in index_subsets(rd.n_simple):
        par = ParabolicType(rd, indices)
        roots_m = set(par.roots_levi)
        for w in rd.weyl_elements:
            report.cases += 1
            image = rd.root_image(w)
            translated_neg = {image[chi] for chi in neg_roots}
            translated_m = {image[chi] for chi in roots_m}
            constraint_lower = {chi for chi in simple_set if chi in translated_m}
            constraint_upper = {chi for chi in simple_set if chi in translated_neg}
            total = 0
            admissible = []
            for j2 in index_subsets(rd.n_simple):
                simples_m2 = {rd.simple_roots[j] for j in j2}
                if simples_m2 <= constraint_upper and constraint_lower <= simples_m2:
                    total += parabolic_sign(rd, j2)
                    admissible.append(frozenset(j2))
            no_simple_hit = not ({image[chi] for chi in neg_roots if chi not in roots_m} & simple_set)
            if total != 0 and not no_simple_hit:
                report.fail(f"J={sorted(indices)} w'={w}: nonzero sum hits a simple root")
            if w == par.w0_levi:
                if total != parabolic_sign(rd, indices) or admissible != [frozenset(indices)]:
                    report.fail(f"J={sorted(indices)} w'=w0_M: sum {total}, admissible {admissible}")
            elif total != 0:
                report.fail(f"J={sorted(indices)} w'={w}: nonzero sum {total}")
    return report


def verify_vanishing_B(rd: RootDatum) -> VanishingReport:
    """The two cancellation patterns behind the inversion formula.

    (i) For each standard M' and each w positive on it, the inner alternating sum
    over Levis M with fixed M cap w^{-1}M'w vanishes unless w = w0^{M'} w0 (and
    that w is admissible with the full Levi choice forced).
    (ii) The parabolic Moebius sum over P containing a fixed P2 vanishes unless
    P2 = G, where it is the sign of G itself: (-1)^(rank - number of simple roots).
    """
    if rd.rank > RANK_CAP:
        raise WeylIdentityError(f"rank {rd.rank} exceeds the sweep cap {RANK_CAP}")
    report = VanishingReport(rd.name, "B")
    for j2 in index_subsets(rd.n_simple):
        par2 = ParabolicType(rd, j2)
        pos_m2 = set(par2.pos_roots_levi)
        survivor = mat_mul(par2.w0_levi, rd.w0)
        for w in rd.weyl_elements:
            inv_image = rd.root_image(rd.w_inverse(w))
            if not all(_is_positive_root(rd, inv_image[chi]) for chi in par2.pos_roots_levi):
                continue
            report.cases += 1
            # simple roots grouped by where w sends them
            image = rd.root_image(w)
            simple_images = [image[chi] for chi in rd.simple_roots]
            inside = frozenset(j for j, chi in enumerate(simple_images) if chi in pos_m2)
            outside_pos = frozenset(
                j for j, chi in enumerate(simple_images) if j not in inside and _is_positive_root(rd, chi)
            )
            empty_d = not outside_pos
            if empty_d != (w == survivor):
                report.fail(f"J'={sorted(j2)}: D empty iff w = w0^M' w0 fails at {w}")
            for j1 in index_subsets(len(inside)):
                j1_set = frozenset(sorted(inside)[i] for i in j1)
                total = 0
                for extra in index_subsets(len(outside_pos)):
                    extra_set = frozenset(sorted(outside_pos)[i] for i in extra)
                    total += parabolic_sign(rd, j1_set | extra_set)
                if outside_pos and total != 0:
                    report.fail(f"J'={sorted(j2)} w={w} J1={sorted(j1_set)}: sum {total} != 0")
                if not outside_pos and total != parabolic_sign(rd, j1_set):
                    report.fail(f"J'={sorted(j2)} w={w}: surviving sum wrong")
    # (ii) Moebius sums over the parabolic poset
    full = frozenset(range(rd.n_simple))
    for j2 in index_subsets(rd.n_simple):
        total = sum(
            parabolic_sign(rd, j) for j in index_subsets(rd.n_simple) if frozenset(j2) <= frozenset(j)
        )
        expected = parabolic_sign(rd, full) if frozenset(j2) == full else 0
        report.cases += 1
        if total != expected:
            report.fail(f"Moebius sum from J2={sorted(j2)} is {total}, expected {expected}")
    return report
