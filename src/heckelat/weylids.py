"""Exhaustive verification of the Weyl-group and parabolic-sign identities behind the global operator calculus.

A double coset W_{M'} w W_M is the orbit of w's columns and rows under simple reflections: no matrix is multiplied.

Each vanishing sweep builds what does not depend on its case once per call,
before its (J, w) loop: sweep A the table of every J' (its simple roots, its
parabolic_sign, J') and, per w', the root permutation and the simple roots
among w'(negative roots); sweep B, per case, the sorted simple indices inside
and outside M' and every subset of the outside ones. The tables are per call,
not cached per datum, so that a replaced `parabolic_sign` or `root_image` is
read by the next sweep.
"""

from __future__ import annotations

from .linalg import mat_mul
from .rootdata import Matrix, ParabolicType, RootDatum, index_subsets, orbit

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
        inv_image = rd.root_preimage(w)
        if not all(_is_positive_root(rd, inv_image[chi]) for chi in par2.pos_roots_levi):
            continue
        out.append(w)
    return out


def double_coset(rd: RootDatum, par: ParabolicType, par2: ParabolicType, w: Matrix) -> frozenset:
    """The double coset W_{M'} w W_M: s_j x reflects each column of x and x s_i each row, so it is w's column orbit under J', then row orbits under J."""
    left = orbit([tuple(zip(*w))], [rd.coweight_reflections[j] for j in sorted(par2.indices)])
    right = [rd.weight_reflections[i] for i in sorted(par.indices)]
    return frozenset(orbit([tuple(zip(*cols)) for cols in left], right))


def check_w_bullet_transversal(rd: RootDatum, par: ParabolicType, par2: ParabolicType) -> bool:
    """The bullets' (W_{M'}, W_M) double cosets are pairwise disjoint and cover W: each is hit exactly once."""
    covered = set()
    for w in w_bullet_set(rd, par, par2):
        coset = double_coset(rd, par, par2, w)
        if not covered.isdisjoint(coset):
            return False
        covered |= coset
    return covered == set(rd.weyl_elements)


class VanishingReport:
    """One sweep over one datum: the cases it checked and, when it failed, up to ten witnesses.

    Two reports are equal when every field is; equal reports are what a sweep and its per-case reference must return.
    """

    def __init__(self, datum: str, kind: str):
        self.datum = datum
        self.kind = kind
        self.passed = True
        self.cases = 0
        self.witnesses: list[str] = []

    def __eq__(self, other):
        if not isinstance(other, VanishingReport):
            return NotImplemented
        return (self.datum, self.kind, self.passed, self.cases, self.witnesses) == (
            other.datum, other.kind, other.passed, other.cases, other.witnesses
        )

    def __repr__(self):
        return f"VanishingReport({self.datum!r}, {self.kind!r}, passed={self.passed}, cases={self.cases}, witnesses={self.witnesses!r})"

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
    simple_set = frozenset(rd.simple_roots)
    neg_roots = [tuple(-x for x in chi) for chi in rd.positive_roots]
    # every J' once per call: (its simple roots, its sign, J')
    levis = [
        (frozenset(rd.simple_roots[j] for j in j2), parabolic_sign(rd, j2), frozenset(j2))
        for j2 in index_subsets(rd.n_simple)
    ]
    # every w' once per call: its root permutation and the simple roots among w'(negative roots)
    translates = []
    for w in rd.weyl_elements:
        image = rd.root_image(w)
        translates.append((w, image, simple_set.intersection([image[chi] for chi in neg_roots])))
    for indices in index_subsets(rd.n_simple):
        par = ParabolicType(rd, indices)
        roots_m = par.roots_levi
        neg_outside_m = [chi for chi in neg_roots if chi not in roots_m]
        for w, image, constraint_upper in translates:
            report.cases += 1
            constraint_lower = simple_set.intersection([image[chi] for chi in roots_m])
            total = 0
            admissible = []
            for simples_m2, sign, j2 in levis:
                if constraint_lower <= simples_m2 <= constraint_upper:
                    total += sign
                    admissible.append(j2)
            hits_simple = any(image[chi] in simple_set for chi in neg_outside_m)
            if total != 0 and hits_simple:
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
            inv_image = rd.root_preimage(w)
            if not all(_is_positive_root(rd, inv_image[chi]) for chi in par2.pos_roots_levi):
                continue
            report.cases += 1
            # simple roots grouped by where w sends them, each list ascending
            image = rd.root_image(w)
            simple_images = [image[chi] for chi in rd.simple_roots]
            inside = [j for j, chi in enumerate(simple_images) if chi in pos_m2]
            outside_pos = [j for j, chi in enumerate(simple_images) if chi not in pos_m2 and _is_positive_root(rd, chi)]
            if (not outside_pos) != (w == survivor):
                report.fail(f"J'={sorted(j2)}: D empty iff w = w0^M' w0 fails at {w}")
            extra_sets = [frozenset(outside_pos[i] for i in extra) for extra in index_subsets(len(outside_pos))]
            for j1 in index_subsets(len(inside)):
                j1_set = frozenset(inside[i] for i in j1)
                total = sum(parabolic_sign(rd, j1_set | extra_set) for extra_set in extra_sets)
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
