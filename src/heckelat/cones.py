"""Rational polyhedral cone decision procedures: membership, duality certificates, the Langlands retraction, and support windows.

Membership in pos_U, for series supports and windows alike, is a sign test
against the generators of its dual cone (`in_pos_U`). The exact phase-1
simplex on an int tableau (`in_cone`) is the independent route that the
certificates, the retraction property and criterion 4 use. The Langlands
retraction solves in ints once the coweight's denominators are cleared:
Fraction appears only in the simplex's coefficients and the retraction's input
and output. The double description (`rays_from_inequalities`) runs in integers
too: constraints, lineality basis and extreme rays are primitive int vectors.
It is Motzkin's incremental method on a pointed section of the cone: it starts
from the simplicial cone of d independent constraints (rays from the signed
adjugate) and adds one constraint at a time, joining only adjacent pairs of
rays, by the combinatorial test on tight-constraint bit masks, so every ray it
keeps is extreme. The certificates keep coroots, roots and rays as
int vectors, so their Weyl actions and pairings stay in Z, and they read the
double description through `dual_generators`, one generating set per datum and
vector tuple. W_M enters only as orbits under its simple reflections.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import linalg
from .linalg import dot, fvec, primitive_vector, vneg
from .rootdata import ParabolicType, RootDatum, index_subsets, orbit, pair


class ConeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact LP feasibility (phase-1 simplex with Bland's rule)


def nonneg_combination(gens, target):
    """Coefficients c >= 0 with sum c_i gens_i = target, or None if infeasible. Exact over Q.

    The equations are scaled to ints by their common denominator, which keeps
    the solutions and the pivots. The int tableau is D times the rational one,
    D > 0 the basis determinant: a pivot on p keeps its row, replaces the others
    by 2x2 minors divided exactly by D, and makes p the new D (Edmonds 1967,
    Bareiss 1968). The ratio test cross-multiplies.
    """
    n, m = len(gens), len(target)
    if not any(target):
        return [Fraction(0)] * n
    if n == 0:
        return None
    _, cols = linalg.clear_denominators((*gens, target))
    rows = []
    for i in range(m):
        sign = -1 if cols[-1][i] < 0 else 1
        rows.append([sign * c[i] for c in cols[:n]] + [int(k == i) for k in range(m)] + [sign * cols[-1][i]])
    ncols = n + m
    basis = list(range(n, ncols))
    # reduced-cost row for minimizing the sum of artificial variables
    w = [sum(col) for col in zip(*rows)]
    w[n:ncols] = [0] * m
    den = 1
    while True:
        enter = next((j for j in range(ncols) if w[j] > 0), None)  # Bland: smallest index
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            if row[enter] <= 0:
                continue
            if leave is not None:
                lhs, rhs = row[-1] * rows[leave][enter], rows[leave][-1] * row[enter]
            if leave is None or lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            raise RuntimeError("phase-1 simplex unbounded")  # impossible: objective >= 0
        top = rows[leave]
        piv = top[enter]
        for i, row in enumerate(rows):
            if i != leave:
                f = row[enter]
                rows[i] = [(piv * x - f * y) // den for x, y in zip(row, top)]
        f = w[enter]
        w = [(piv * x - f * y) // den for x, y in zip(w, top)]
        basis[leave] = enter
        den = piv
    if w[-1] != 0:
        return None
    value = {bi: Fraction(row[-1], den) for bi, row in zip(basis, rows)}
    return [value.get(j, Fraction(0)) for j in range(n)]


def in_cone(gens, v) -> bool:
    return nonneg_combination(gens, v) is not None


# ---------------------------------------------------------------------------
# double description: extreme rays of {y : <c, y> >= 0 for all constraints c}


def rays_from_inequalities(constraints, dim: int):
    """Return (lineality_basis, extreme_rays) of the cone cut out by the constraints, as primitive int vectors.

    The cone is L + C, with L the lineality space (the common kernel of the
    constraints) and C its section by the span of the coordinate vectors that
    are not pivots of L. C is pointed of dimension d = dim C, and its extreme
    rays come from Motzkin's double description, one constraint at a time
    (Fukuda and Prodon 1996). The first d independent constraints cut out a
    simplicial cone whose rays are the columns of sign(det) adjugate. Each
    further constraint c keeps the rays with <c, r> >= 0 and joins each pair
    of rays on opposite sides, s+ r- - s- r+, when the pair is adjacent: the
    two share at least d - 2 tight constraints and no third ray is tight on
    all of them. A ray carries its tight constraints as an int bit mask.
    """
    cons = _distinct_directions(constraints)
    if not cons:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)], []
    lin = linalg.nullspace(cons)
    pivots = linalg.pivot_columns(lin)
    section = [j for j in range(dim) if j not in pivots]
    d = len(section)
    cons = _distinct_directions([tuple(c[j] for j in section) for c in cons])
    basis = linalg.pivot_columns(tuple(zip(*cons)))
    simplex = [cons[i] for i in basis]
    sign = 1 if linalg.det(simplex) > 0 else -1
    adj = linalg.adjugate(simplex)
    in_simplex = sum(1 << i for i in basis)
    # column k of sign(det) adjugate is tight on every constraint of the simplex but the k-th
    rays = [(primitive_vector([sign * row[k] for row in adj]), in_simplex & ~(1 << i)) for k, i in enumerate(basis)]
    for i, c in enumerate(cons):
        if in_simplex >> i & 1:
            continue
        scored = [(dot(c, r), r, z) for r, z in rays]
        masks = [z for _, _, z in scored]
        rays = [(r, z | 1 << i if s == 0 else z) for s, r, z in scored if s >= 0]
        pos = [(s, r, z) for s, r, z in scored if s > 0]
        neg = [(s, r, z) for s, r, z in scored if s < 0]
        for sp, rp, zp in pos:
            for sn, rn, zn in neg:
                common = zp & zn
                if common.bit_count() < d - 2 or sum(z & common == common for z in masks) > 2:
                    continue
                rays.append((primitive_vector([sp * x - sn * y for x, y in zip(rn, rp)]), common | 1 << i))
    out = []
    for v, _ in rays:
        ray = [0] * dim
        for j, x in zip(section, v):
            ray[j] = x
        out.append(tuple(ray))
    return lin, sorted(out)


def dual_generators(rd: RootDatum, vectors) -> tuple:
    """Generators of the cone {y : <v, y> >= 0 for every v}: its extreme rays, then its lineality basis, then that basis negated.

    Computed once per datum and vector tuple: the memo is `rd.cone_rays`, keyed
    on the vectors' values (a list and a tuple of equal vectors share one
    entry), so it lives as long as the datum and a freshly loaded datum starts
    cold.
    """
    key = tuple(map(tuple, vectors))
    gens = rd.cone_rays.get(key)
    if gens is None:
        lin, rays = rays_from_inequalities(key, rd.rank)
        gens = rd.cone_rays[key] = (*rays, *lin, *map(vneg, lin))
    return gens


def _distinct_directions(vectors) -> list[tuple[int, ...]]:
    """The distinct primitive int directions of the nonzero vectors, in first-seen order."""
    out, seen = [], set()
    for v in vectors:
        if any(v):
            key = primitive_vector(v)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


# ---------------------------------------------------------------------------
# membership in pos_U, and support windows


def in_pos_U(par: ParabolicType, v) -> bool:
    """v lies in pos_U, the cone of the parabolic's unipotent coroots.

    By the Farkas lemma, exactly when v pairs >= 0 with every generator of the
    dual cone (`dual_generators`: its rays and both signs of its lineality
    basis), so membership is a few integer sign tests. `in_cone` stays the
    independent route of the certificates.
    """
    return all(dot(c, v) >= 0 for c in dual_generators(par.rd, par.pos_coroots_unipotent))


def neg_pos_U(indices) -> frozenset:
    """The cone -pos_U of the standard parabolic with these Levi indices, named by the indices."""
    return frozenset(map(int, indices))


def cone_member(rd: RootDatum, cone: frozenset, lam) -> bool:
    """lam lies in the cone -pos_U named by cone."""
    return in_pos_U(ParabolicType(rd, cone), vneg(lam))


class SupportShape(namedtuple("SupportShape", "base cone")):
    """The window {b - c : b in base, c in pos_U}, a finite union of translates of -pos_U; cone names it by J.

    base is a sorted tuple of points and cone a frozenset of simple-root indices.
    """

    __slots__ = ()

    @staticmethod
    def make(base, cone: frozenset) -> "SupportShape":
        return SupportShape(tuple(sorted(set(map(tuple, base)))), cone)

    def contains(self, par: ParabolicType, lam) -> bool:
        """lam lies in the window: b - lam lies in pos_U for some base point b."""
        if par.indices != self.cone:
            raise ConeError(f"window cone -pos_U of J={sorted(self.cone)} does not belong to {par}")
        return any(in_pos_U(par, tuple(x - y for x, y in zip(b, lam))) for b in self.base)


def bounded_above(rd: RootDatum, shape: SupportShape) -> bool:
    """True iff every dominant weight is bounded above on the shape.

    By linearity it suffices that every generator of the dominant-weight cone
    pairs >= 0 with every generator of pos_U (the base is finite by construction).
    """
    pos_u = ParabolicType(rd, shape.cone).pos_coroots_unipotent
    return all(dot(chi, a) >= 0 for chi in dual_generators(rd, rd.simple_coroots) for a in pos_u)


# ---------------------------------------------------------------------------
# cone certificates


def _levi_orbit(rd: RootDatum, par: ParabolicType, items) -> set:
    """The W_M-orbit of the tuples of weights: closed under s_j . chi = chi - <chi, alpha-check_j> alpha_j, j in J."""
    return orbit(items, [rd.weight_reflections[j] for j in sorted(par.indices)])


def check_pos_U_intersection(rd: RootDatum, par: ParabolicType) -> bool:
    """Certificate that pos_U equals the intersection of w(pos_G) over w in W_M."""
    pos_u = par.pos_coroots_unipotent
    # the generators of pos_G's dual cone cut out pos_G, and their W_M-orbit cuts out the intersection of its translates
    all_cons = [c for (c,) in sorted(_levi_orbit(rd, par, [(c,) for c in dual_generators(rd, rd.positive_coroots)]))]
    # inclusion pos_U subseteq intersection: every generator satisfies every constraint
    for g in pos_u:
        if any(dot(c, g) < 0 for c in all_cons):
            return False
    # inclusion intersection subseteq pos_U: every generator is a nonneg combination
    return all(in_cone(pos_u, v) for v in dual_generators(rd, all_cons))


def check_pos_U_consequent(rd: RootDatum, par: ParabolicType) -> bool:
    """Certificate that pos_U meets -dom_M in the same cone as pos_G does."""
    neg_dom = tuple(vneg(rd.simple_roots[j]) for j in sorted(par.indices))

    def side(gens):
        cons = dual_generators(rd, gens) + neg_dom
        return cons, dual_generators(rd, cons)

    cons1, pts1 = side(par.pos_coroots_unipotent)
    cons2, pts2 = side(rd.positive_coroots)
    return all(all(dot(c, v) >= 0 for c in cons2) for v in pts1) and all(
        all(dot(c, v) >= 0 for c in cons1) for v in pts2
    )


def check_dual_cone(rd: RootDatum, par: ParabolicType) -> bool:
    """Certificate that W_M . (dominant weights) is exactly the dual cone of pos_U."""
    gens_u = par.pos_coroots_unipotent
    # (i) every W_M-translate of the dominant cone pairs >= 0 with pos_U
    for (wv,) in _levi_orbit(rd, par, [(v,) for v in dual_generators(rd, rd.simple_coroots)]):
        if any(dot(wv, g) < 0 for g in gens_u):
            return False
    # (ii) every generator of the dual cone lies in some W_M-translate of the dominant cone
    for v in dual_generators(rd, gens_u):
        if not any(all(pair(wv, a) >= 0 for a in rd.simple_coroots) for (wv,) in _levi_orbit(rd, par, [(v,)])):
            return False
    # (iii) wall-gluing: the chamber walls off J lie on the boundary of the dual cone (a wall i in J is glued to w s_i's chamber)
    walls = [tuple(dual_generators(rd, rd.simple_coroots + (vneg(a),))) for i, a in enumerate(rd.simple_coroots) if i not in par.indices]
    return all(any(all(dot(tv, g) == 0 for tv in translated) for g in gens_u) for translated in _levi_orbit(rd, par, walls))


# ---------------------------------------------------------------------------
# Langlands retraction


def langlands_retraction(rd: RootDatum, lam):
    """The least dominant coweight majorizing lam, with its linearity-domain index set.

    Solved by exhausting subsets J: the candidate for J is the Levi projection
    lam - sum_j c_j alpha-check_j with C_J c = <alpha_J, lam> (`RootDatum.levi_solve`),
    admissible when c <= 0 and <alpha_k, candidate> >= 0 off J. With lam's
    denominators cleared once, the solves and sign tests run in ints, and only
    admissible candidates are divided back. All admissible subsets must agree on
    the retracted value; the smallest admissible J is returned (ties on
    linearity walls admit several).
    """
    den, (scaled,) = linalg.clear_denominators([fvec(lam)])
    n = rd.n_simple
    solutions = []
    for idx in index_subsets(n):
        val, coeffs, d = rd.levi_solve(idx, scaled)
        if all(c <= 0 for c in coeffs) and all(pair(rd.simple_roots[k], val) >= 0 for k in range(n) if k not in idx):
            solutions.append((frozenset(idx), tuple(Fraction(x, d * den) for x in val)))
    if not solutions:
        raise ConeError("no linearity domain admits a solution (invalid root datum?)")
    vals = {v for _, v in solutions}
    if len(vals) != 1:
        raise ConeError(f"inconsistent retraction values across linearity domains: {sorted(vals)}")
    best = min(solutions, key=lambda s: (len(s[0]), tuple(sorted(s[0]))))
    return best[1], best[0]


def check_retraction_property(rd: RootDatum, par: ParabolicType, lam) -> bool:
    """For Levi-dominant lam: the retraction moves lam inside pos_U and against the M-dominant cone."""
    if not par.is_levi_dominant(lam):
        raise ConeError("lam is not M-dominant")
    val, _ = langlands_retraction(rd, lam)
    diff = tuple(a - b for a, b in zip(val, lam))
    if not in_cone(par.pos_coroots_unipotent, diff):
        return False
    return rd.is_dominant(vneg(diff), par.indices)
