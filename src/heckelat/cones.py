"""Rational polyhedral cone decision procedures: membership, duality certificates, the Langlands retraction, and support shapes.

Membership is an exact phase-1 simplex on an int tableau, and the Langlands
retraction solves in ints once the coweight's denominators are cleared:
Fraction appears only in the simplex's coefficients and the retraction's input
and output. The double description (`rays_from_inequalities`) runs in
integers too: constraints, lineality basis and extreme rays are primitive int
vectors, and each candidate ray is the generalised cross product (signed
maximal minors, `linalg.det`) of d - 1 constraints restricted to a pointed
section of dimension d. A feasible candidate is tight on d - 1 independent
constraints, so it spans a one-dimensional face of the pointed section and is
extreme; no extremality filter is needed. The certificates keep coroots, roots
and rays as int vectors, so their Weyl actions and pairings stay in Z, and
they read the double description through `dual_generators`, one generating
set per datum and vector tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .linalg import dot, fvec, primitive_vector, vneg
from .rootdata import ParabolicType, RootDatum, index_subsets, pair

RANK_CAP = 4  # exact double description is only run for ranks up to this bound


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
    are not pivots of L. C is pointed, so a vector of C that is tight on d - 1
    linearly independent constraints of the section (d = dim C) spans a
    one-dimensional face: it is an extreme ray, and every extreme ray arises
    this way. Each (d - 1)-subset gives its candidate as the generalised cross
    product of its rows, which is zero exactly when the rows are dependent.
    """
    cons = _distinct_directions(constraints)
    if not cons:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)], []
    lin = linalg.nullspace(cons)
    pivots = linalg.pivot_columns(lin)
    section = [j for j in range(dim) if j not in pivots]
    d = len(section)
    if d == 0:
        return lin, []
    cons = _distinct_directions([tuple(c[j] for j in section) for c in cons])
    rays = set()
    for rows in combinations(cons, d - 1):
        v = _cross(rows, d)
        if not any(v):
            continue
        if all(dot(c, v) >= 0 for c in cons):
            rays.add(primitive_vector(v))
        elif all(dot(c, v) <= 0 for c in cons):
            rays.add(primitive_vector(vneg(v)))
    out = []
    for v in rays:
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


def _cross(rows, d: int) -> tuple[int, ...]:
    """Generalised cross product of d - 1 int vectors of length d: the signed maximal minors."""
    return tuple((-1) ** k * linalg.det([r[:k] + r[k + 1 :] for r in rows]) for k in range(d))


# ---------------------------------------------------------------------------
# named cones


@dataclass(frozen=True)
class ConeId:
    tag: str
    indices: frozenset | None = None


def pos_G() -> ConeId:
    return ConeId("pos_G")


def neg_pos_G() -> ConeId:
    return ConeId("neg_pos_G")


def pos_U(indices) -> ConeId:
    return ConeId("pos_U", frozenset(indices))


def neg_pos_U(indices) -> ConeId:
    return ConeId("neg_pos_U", frozenset(indices))


def cone_generators(rd: RootDatum, cone: ConeId):
    """A finite generating set (lineality directions appear with both signs)."""
    tag = cone.tag
    if tag in ("pos_G", "neg_pos_G"):
        gens = list(rd.positive_coroots)
    elif cone.indices is None:
        raise ConeError(f"cone {tag} requires a parabolic index set")
    elif tag in ("pos_U", "neg_pos_U"):
        # the unipotent coroots, by the rule of ParabolicType.pos_coroots_unipotent
        gens = [a for a in rd.positive_coroots if not rd.in_span_of_simples(a, cone.indices)]
    else:
        raise ConeError(f"unknown cone tag {tag!r}")
    return gens if tag.startswith("pos") else [vneg(g) for g in gens]


def cone_member(rd: RootDatum, cone: ConeId, lam) -> bool:
    """lam lies in the rational cone generated by the named cone's generators."""
    return in_cone(cone_generators(rd, cone), lam)


# ---------------------------------------------------------------------------
# support shapes


@dataclass(frozen=True)
class SupportShape:
    """The set {theta + c : theta in base, c in cone}; carrier for boundedness predicates."""

    base: tuple
    cone: ConeId

    @staticmethod
    def make(base, cone: ConeId) -> "SupportShape":
        return SupportShape(tuple(sorted(set(map(tuple, base)))), cone)

    def contains(self, rd: RootDatum, lam) -> bool:
        gens = cone_generators(rd, self.cone)
        return any(in_cone(gens, tuple(x - y for x, y in zip(lam, b))) for b in self.base)


def bounded_above(rd: RootDatum, shape: SupportShape) -> bool:
    """True iff every dominant weight is bounded above on the shape.

    By linearity it suffices that every generator of the dominant-weight cone
    is nonpositive on the shape's cone (the base is finite by construction).
    """
    gens = cone_generators(rd, shape.cone)
    return all(dot(chi, g) <= 0 for chi in dual_generators(rd, rd.simple_coroots) for g in gens)


# ---------------------------------------------------------------------------
# cone certificates


def check_pos_U_intersection(rd: RootDatum, par: ParabolicType) -> bool:
    """Certificate that pos_U equals the intersection of w(pos_G) over w in W_M."""
    if rd.rank > RANK_CAP:
        raise ConeError(f"rank {rd.rank} exceeds the double-description cap {RANK_CAP}")
    pos_u = par.pos_coroots_unipotent
    # the generators of pos_G's dual cone are the inequalities cutting out pos_G
    dual_pos_g = dual_generators(rd, rd.positive_coroots)
    all_cons = [rd.act_on_weight(w, c) for w in sorted(par.weyl_levi) for c in dual_pos_g]
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
    if rd.rank > RANK_CAP:
        raise ConeError(f"rank {rd.rank} exceeds the double-description cap {RANK_CAP}")
    gens_u = par.pos_coroots_unipotent
    chamber = dual_generators(rd, rd.simple_coroots)
    w_levi = sorted(par.weyl_levi)
    # (i) every W_M-translate of the dominant cone pairs >= 0 with pos_U
    for w in w_levi:
        for v in chamber:
            wv = rd.act_on_weight(w, v)
            if any(dot(wv, g) < 0 for g in gens_u):
                return False
    # (ii) every generator of the dual cone lies in some W_M-translate of the dominant cone
    for v in dual_generators(rd, gens_u):
        if not any(
            all(pair(rd.act_on_weight(w, v), a) >= 0 for a in rd.simple_coroots)
            for w in w_levi
        ):
            return False
    # (iii) wall-gluing: chamber walls not internal to W_M lie on the boundary of the dual cone
    for i in range(rd.n_simple):
        if i in par.indices:
            continue  # glued to the neighboring chamber w s_i inside W_M
        wall = dual_generators(rd, rd.simple_coroots + (vneg(rd.simple_coroots[i]),))
        for w in w_levi:
            translated = [rd.act_on_weight(w, v) for v in wall]
            if not any(all(dot(tv, g) == 0 for tv in translated) for g in gens_u):
                return False
    return True


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
