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


def w_set(rd: RootDatum, par: ParabolicType, par2: ParabolicType) -> list[Matrix]:
    """Elements w with w^{-1} positive on the roots of M' and wMw^{-1} a standard Levi of M'."""
    simple_set = set(rd.simple_roots)
    roots_m2 = set(par2.roots_levi)
    out = []
    for w in rd.weyl_elements:
        winv = rd.w_inverse(w)
        if not all(_is_positive_root(rd, rd.act_on_weight(winv, chi)) for chi in par2.pos_roots_levi):
            continue
        image_simples = [rd.act_on_weight(w, rd.simple_roots[j]) for j in sorted(par.indices)]
        if all(chi in simple_set and chi in roots_m2 for chi in image_simples):
            out.append(w)
    return out


def w_bullet_set(rd: RootDatum, par: ParabolicType, par2: ParabolicType) -> list[Matrix]:
    """Minimal-length representatives of the double cosets W_{M'} \\ W / W_M."""
    out = []
    for w in rd.weyl_elements:
        winv = rd.w_inverse(w)
        if not all(_is_positive_root(rd, rd.act_on_weight(w, chi)) for chi in par.pos_roots_levi):
            continue
        if not all(_is_positive_root(rd, rd.act_on_weight(winv, chi)) for chi in par2.pos_roots_levi):
            continue
        out.append(w)
    return out


def double_cosets(rd: RootDatum, par: ParabolicType, par2: ParabolicType) -> list[frozenset]:
    """The double cosets W_{M'} w W_M, enumerated directly."""
    left = sorted(par2.weyl_levi)
    right = sorted(par.weyl_levi)
    remaining = set(rd.weyl_elements)
    cosets = []
    while remaining:
        w = min(remaining)
        coset = set()
        for a in left:
            aw = mat_mul(a, w)
            for b in right:
                coset.add(mat_mul(aw, b))
        cosets.append(frozenset(coset))
        remaining -= coset
    return cosets


def check_w_bullet_transversal(rd: RootDatum, par: ParabolicType, par2: ParabolicType) -> bool:
    """The bullet set hits every (W_{M'}, W_M) double coset exactly once."""
    bullets = w_bullet_set(rd, par, par2)
    cosets = double_cosets(rd, par, par2)
    if len(bullets) != len(cosets):
        return False
    for coset in cosets:
        if sum(1 for w in bullets if w in coset) != 1:
            return False
    return True


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
            translated_neg = {rd.act_on_weight(w, chi) for chi in neg_roots}
            translated_m = {rd.act_on_weight(w, chi) for chi in roots_m}
            constraint_lower = {chi for chi in simple_set if chi in translated_m}
            constraint_upper = {chi for chi in simple_set if chi in translated_neg}
            total = 0
            admissible = []
            for j2 in index_subsets(rd.n_simple):
                simples_m2 = {rd.simple_roots[j] for j in j2}
                if simples_m2 <= constraint_upper and constraint_lower <= simples_m2:
                    total += parabolic_sign(rd, j2)
                    admissible.append(frozenset(j2))
            no_simple_hit = not (
                {rd.act_on_weight(w, tuple(-x for x in chi)) for chi in rd.positive_roots if chi not in roots_m}
                & simple_set
            )
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
            winv = rd.w_inverse(w)
            if not all(_is_positive_root(rd, rd.act_on_weight(winv, chi)) for chi in par2.pos_roots_levi):
                continue
            report.cases += 1
            # simple roots grouped by where w sends them
            inside = frozenset(
                j for j in range(rd.n_simple) if rd.act_on_weight(w, rd.simple_roots[j]) in pos_m2
            )
            outside_pos = frozenset(
                j
                for j in range(rd.n_simple)
                if j not in inside and _is_positive_root(rd, rd.act_on_weight(w, rd.simple_roots[j]))
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
