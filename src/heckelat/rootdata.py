"""Split based root data, standard parabolic types, and finite Weyl groups, all in exact integer arithmetic.

Pairings and Weyl actions keep their inputs' type (see linalg): on lattice
points they are integers, on rational coweights Fractions. Heights, the pairing
with 2rho_P, come only from ParabolicType.height.

A RootDatum owns the lattice coordinates: int tables of every coroot and root
on the simple coroots and roots, built by reflecting coordinate vectors with
the Cartan matrix, and the one Levi solve (`levi_solve`, with det C_J and the
int adjugate of each Cartan principal submatrix C_J cached) behind the
Langlands retraction and the dominance order.

A Weyl element acts on the roots by lookup: `root_image(w)` is w's permutation
of the root set, built from the cached columns of w^-1 the first time w is
used. Matrices stay the elements' keys and their action on coweights.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import linalg
from .linalg import dot, mat_mul, mat_vec

Vec = tuple[int, ...]  # coweight, coordinates in the ambient lattice Z^rank
Covec = tuple[int, ...]  # weight, a functional on the coweight lattice via the dot product
Matrix = tuple[Vec, ...]  # lattice automorphism acting on coweights, row-major

WEYL_CAP = 10**6


class RootDatumError(ValueError):
    pass


class WeylEnumerationError(RuntimeError):
    pass


def pair(chi, lam):
    """Pairing <chi, lam> of a weight with a coweight: an int on the lattice, a Fraction on a rational coweight."""
    return dot(chi, lam)


def index_subsets(n: int):
    """Every subset of range(n) as an ascending list, in the order of the bit masks 0, 1, ..., 2^n - 1."""
    for mask in range(1 << n):
        yield [i for i in range(n) if mask >> i & 1]


def weyl_order(heights: list[int]) -> int:
    """|W| from the heights of the positive roots: the product of (h + 1) / h over them (Macdonald 1972)."""
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def _orbit_coordinates(cartan, simples) -> dict[Vec, Vec]:
    """{vector: int coordinates on the simples} over the Weyl orbit of the simples.

    The orbit is closed in coordinates under the simple reflections
    s_i(c) = c - (cartan c)_i e_i: the Cartan matrix for coroots, its
    transpose for roots.
    """
    n = len(cartan)
    seen = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    stack = list(seen)
    while stack:
        c = stack.pop()
        for i in range(n):
            k = dot(cartan[i], c)
            if k:
                image = c[:i] + (c[i] - k,) + c[i + 1 :]
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    basis = tuple(zip(*simples))
    return {mat_vec(basis, c): c for c in seen}


def _as_vec(v) -> Vec:
    return tuple(int(x) for x in v)


class RootDatum:
    """Root datum on Lambda = Z^rank with explicit simple coroots (vectors) and simple roots (covectors).

    The coroot/root systems, the Weyl group as integer matrices, 2*rho and
    2*rho-check are computed eagerly and frozen. Per-element and per-J data
    (w^-1 columns, root permutations, Levi adjugates, subgroups, cone rays)
    are cached on first use.
    """

    def __init__(self, name: str, rank: int, simple_coroots, simple_roots):
        self.name = str(name)
        self.rank = int(rank)
        self.simple_coroots: tuple[Vec, ...] = tuple(_as_vec(v) for v in simple_coroots)
        self.simple_roots: tuple[Covec, ...] = tuple(_as_vec(v) for v in simple_roots)
        self.n_simple = len(self.simple_coroots)
        if len(self.simple_roots) != self.n_simple:
            raise RootDatumError("simple root and coroot lists must have equal length")
        for v in self.simple_coroots + self.simple_roots:
            if len(v) != self.rank:
                raise RootDatumError("vector length does not match rank")
        self.cartan: tuple[Vec, ...] = tuple(
            tuple(pair(self.simple_roots[i], self.simple_coroots[j]) for j in range(self.n_simple))
            for i in range(self.n_simple)
        )
        self._check_cartan()
        self._build_roots()
        # |W| from the root heights alone, a witness for the matrix enumeration that does not read it
        order = weyl_order([sum(self.root_coords[chi]) for chi in self.positive_roots])
        if order > WEYL_CAP:
            raise WeylEnumerationError(f"|W| = {order} exceeds cap {WEYL_CAP}")
        self._simple_reflections = tuple(self._reflection(i) for i in range(self.n_simple))
        self.weyl_elements: tuple[Matrix, ...] = tuple(self._weyl_bfs(range(self.n_simple)))
        if len(self.weyl_elements) != order:
            raise RootDatumError(f"|W| = {len(self.weyl_elements)} enumerated, {order} from the root heights")
        self._subgroup_cache: dict[frozenset, frozenset] = {frozenset(range(self.n_simple)): frozenset(self.weyl_elements)}
        self._levi_adjugates: dict[tuple[int, ...], tuple[int, Matrix]] = {}
        self._w_inverse = {w: self._invert(w) for w in self.weyl_elements}
        # filled on first use of each Weyl element: the columns of w^-1, and w's permutation of the roots
        self._inverse_columns: dict[Matrix, Matrix] = {}
        self._root_images: dict[Matrix, dict[Covec, Covec]] = {}
        # cones.dual_generators: the dual cone's generators per vector tuple, for as long as the datum lives
        self.cone_rays: dict[tuple, tuple[Covec, ...]] = {}
        self.w0 = self.longest_element(range(self.n_simple))
        self.two_rho_check: Covec = tuple(sum(col) for col in zip(*self.positive_roots)) if self.positive_roots else (0,) * self.rank

    # -- construction helpers -------------------------------------------
    def _check_cartan(self) -> None:
        c = self.cartan
        n = self.n_simple
        for i in range(n):
            if c[i][i] != 2:
                raise RootDatumError(f"<coroot_{i}, root_{i}> = {c[i][i]} != 2")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise RootDatumError("off-diagonal Cartan entries must be <= 0")
                if i != j and (c[i][j] == 0) != (c[j][i] == 0):
                    raise RootDatumError("Cartan matrix zero pattern must be symmetric")
        if linalg.rank(self.simple_coroots) != n or linalg.rank(self.simple_roots) != n:
            raise RootDatumError("simple coroots (and roots) must be linearly independent")
        # finite type: DC is symmetric with every d_i > 0 and det((DC)_J) = prod_{i in J} d_i * det(C_J),
        # so DC is positive definite iff every principal minor of C itself is positive
        self._symmetrizer()
        for idx in index_subsets(n):
            if idx and linalg.det([[c[i][j] for j in idx] for i in idx]) <= 0:
                raise RootDatumError("Cartan matrix is not of finite type (nonpositive principal minor)")

    def _symmetrizer(self) -> list[Fraction]:
        """Positive d with d_i c_ij = d_j c_ji; raises RootDatumError if C is not symmetrizable."""
        n = self.n_simple
        d = [Fraction(0)] * n
        for start in range(n):
            if d[start]:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if self.cartan[i][j] and i != j:
                        val = d[i] * self.cartan[i][j] / self.cartan[j][i]
                        if d[j] == 0:
                            d[j] = val
                            stack.append(j)
                        elif d[j] != val:
                            raise RootDatumError("Cartan matrix is not symmetrizable")
        return d

    def _reflection(self, i: int) -> Matrix:
        # s_i(lam) = lam - <alpha-check_i, lam> alpha_i
        rows = []
        for r in range(self.rank):
            row = [int(r == cidx) for cidx in range(self.rank)]
            for cidx in range(self.rank):
                row[cidx] -= self.simple_coroots[i][r] * self.simple_roots[i][cidx]
            rows.append(tuple(row))
        return tuple(rows)

    def _weyl_bfs(self, indices):
        """Elements of the subgroup generated by the listed simple reflections, breadth first by length.

        Elements of equal length come out sorted. More than WEYL_CAP elements
        raise WeylEnumerationError.
        """
        gens = [self._simple_reflections[i] for i in sorted(indices)]
        ident = linalg.identity(self.rank)
        seen = {ident}
        frontier = [ident]
        yield ident
        while frontier:
            new = []
            for w in frontier:
                for s in gens:
                    ws = mat_mul(s, w)
                    if ws not in seen:
                        seen.add(ws)
                        new.append(ws)
                        if len(seen) > WEYL_CAP:
                            raise WeylEnumerationError(f"Weyl enumeration exceeded cap {WEYL_CAP}")
            new.sort()
            yield from new
            frontier = new

    def _build_roots(self) -> None:
        self.coroot_coords: dict[Vec, Vec] = _orbit_coordinates(self.cartan, self.simple_coroots)
        self.root_coords: dict[Covec, Vec] = _orbit_coordinates(tuple(zip(*self.cartan)), self.simple_roots)
        self.coroots: frozenset[Vec] = frozenset(self.coroot_coords)
        self.roots: frozenset[Covec] = frozenset(self.root_coords)
        self.positive_coroots: tuple[Vec, ...] = tuple(v for v in sorted(self.coroots) if min(self.coroot_coords[v]) >= 0)
        self.positive_roots: tuple[Covec, ...] = tuple(chi for chi in sorted(self.roots) if min(self.root_coords[chi]) >= 0)
        self.positive_root_set: frozenset[Covec] = frozenset(self.positive_roots)
        npos = len(self.positive_coroots)
        if 2 * npos != len(self.coroots) or 2 * len(self.positive_roots) != len(self.roots) or len(self.positive_roots) != npos:
            raise RootDatumError("root system is not split into positive/negative halves")

    def _invert(self, w: Matrix) -> Matrix:
        d = linalg.det(w)  # +-1 on a lattice automorphism, so w^-1 = d adj(w)
        return tuple(tuple(d * x for x in row) for row in linalg.adjugate(w))

    # -- queries -----------------------------------------------------------
    def act_on_weight(self, w: Matrix, chi) -> Covec:
        """(w . chi)(lam) = chi(w^{-1} lam); chi as a covector row, against the columns of w^{-1} cached per w."""
        cols = self._inverse_columns.get(w)
        if cols is None:
            cols = self._inverse_columns[w] = tuple(zip(*self.w_inverse(w)))
        return tuple(dot(chi, col) for col in cols)

    def root_image(self, w: Matrix) -> dict[Covec, Covec]:
        """w's permutation of the roots, {chi: w . chi}, built on the first call for w and cached."""
        image = self._root_images.get(w)
        if image is None:
            image = self._root_images[w] = {chi: self.act_on_weight(w, chi) for chi in self.roots}
        return image

    def w_inverse(self, w: Matrix) -> Matrix:
        return self._w_inverse[w]

    def subgroup(self, indices) -> frozenset:
        """The parabolic subgroup W_J generated by the listed simple reflections (cached)."""
        key = frozenset(indices)
        if key not in self._subgroup_cache:
            self._subgroup_cache[key] = frozenset(self._weyl_bfs(key))
        return self._subgroup_cache[key]

    def longest_element(self, indices) -> Matrix:
        """The longest element of W_J: the one element of W_J sending every positive coroot of the Levi to a negative coroot."""
        pos = [a for a in self.positive_coroots if self.in_span_of_simples(a, indices)]
        for w in self.subgroup(indices):
            if all(min(self.coroot_coords[mat_vec(w, a)]) < 0 for a in pos):
                return w
        raise RootDatumError(f"no longest element in W_J for J = {sorted(indices)}")

    def in_span_of_simples(self, v: Vec, indices) -> bool:
        """The coroot v is a combination of the simple coroots listed in indices."""
        allowed = set(indices)
        return all(c == 0 for j, c in enumerate(self.coroot_coords[v]) if j not in allowed)

    def levi_solve(self, indices, lam) -> tuple[tuple, tuple, int]:
        """(d (lam - sum_j c_j alpha-check_j), d c, d) over j in J, where C_J c = (<alpha_j, lam>)_{j in J} and d = det C_J > 0.

        lam - sum_j c_j alpha-check_j projects lam along the Levi coroots onto
        the common kernel of the Levi roots. d c is the int adjugate of C_J,
        cached with d per J, applied to the pairings: both vectors keep lam's type.
        """
        idx = tuple(sorted(indices))
        if idx not in self._levi_adjugates:
            cj = [[self.cartan[i][j] for j in idx] for i in idx]
            self._levi_adjugates[idx] = linalg.det(cj), linalg.adjugate(cj)
        d, adj = self._levi_adjugates[idx]
        coeffs = linalg.mat_vec(adj, [pair(self.simple_roots[i], lam) for i in idx])
        val = tuple(d * x - sum(c * self.simple_coroots[j][r] for c, j in zip(coeffs, idx)) for r, x in enumerate(lam))
        return val, coeffs, d

    def is_dominant(self, lam, indices=None) -> bool:
        idx = range(self.n_simple) if indices is None else sorted(indices)
        return all(pair(self.simple_roots[i], lam) >= 0 for i in idx)

    def dominant_representative(self, lam, indices=None) -> tuple:
        """The dominant element of the W_M-orbit of lam (M given by the index set)."""
        idx = list(range(self.n_simple)) if indices is None else sorted(indices)
        cur = tuple(lam)
        while True:
            neg = next((i for i in idx if pair(self.simple_roots[i], cur) < 0), None)
            if neg is None:
                return cur
            cur = mat_vec(self._simple_reflections[neg], cur)

    def config(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "cartan": [list(r) for r in self.cartan],
            "simple_coroots": [list(v) for v in self.simple_coroots],
            "simple_roots": [list(v) for v in self.simple_roots],
        }


class ParabolicType:
    """A standard parabolic type: a subset J of simple-root indices plus derived Levi data."""

    def __init__(self, rd: RootDatum, indices):
        self.rd = rd
        self.indices: frozenset[int] = frozenset(int(i) for i in indices)
        bad = [i for i in self.indices if not 0 <= i < rd.n_simple]
        if bad:
            raise RootDatumError(f"parabolic indices out of range: {bad}")
        idx = sorted(self.indices)
        self.pos_coroots_levi = tuple(a for a in rd.positive_coroots if rd.in_span_of_simples(a, idx))
        self.pos_coroots_unipotent = tuple(a for a in rd.positive_coroots if a not in set(self.pos_coroots_levi))
        self.pos_roots_levi = tuple(
            chi for chi in rd.positive_roots if all(c == 0 for j, c in enumerate(rd.root_coords[chi]) if j not in self.indices)
        )
        self.roots_levi = frozenset(self.pos_roots_levi) | frozenset(tuple(-x for x in c) for c in self.pos_roots_levi)
        self.two_rho_check_levi: Covec = (
            tuple(sum(col) for col in zip(*self.pos_roots_levi)) if self.pos_roots_levi else (0,) * rd.rank
        )
        self.two_rho_check_P: Covec = tuple(a - b for a, b in zip(rd.two_rho_check, self.two_rho_check_levi))
        for j in idx:
            if self.height(rd.simple_coroots[j]) != 0:
                raise RootDatumError("2rho_P does not annihilate the Levi coroots")
        self.weyl_levi: frozenset[Matrix] = rd.subgroup(self.indices)
        self.w0_levi: Matrix = rd.longest_element(self.indices)
        w2 = mat_mul(self.w0_levi, self.w0_levi)
        if w2 != linalg.identity(rd.rank):
            raise RootDatumError("w0_M does not square to the identity")

    def is_levi_invariant(self, values: dict) -> bool:
        """The map {lattice point: nonzero value} is constant along W_M-orbits (a missing point holds zero)."""
        return all(values.get(mat_vec(w, lam)) == v for w in self.weyl_levi for lam, v in values.items())

    def height(self, lam):
        """Grading <2rho_P, lam> used for all truncations: an int on the lattice."""
        return pair(self.two_rho_check_P, lam)

    def is_levi_dominant(self, lam) -> bool:
        return self.rd.is_dominant(lam, self.indices)

    def __repr__(self):
        return f"ParabolicType({self.rd.name}, J={sorted(self.indices)})"


def dominance_leq(rd: RootDatum, parabolic: ParabolicType, lam, mu) -> bool:
    """mu <=_M lam: lam - mu is a nonnegative combination of the simple (so of the positive) coroots of M."""
    residue, coeffs, _ = rd.levi_solve(parabolic.indices, tuple(a - b for a, b in zip(lam, mu)))
    return not any(residue) and all(c >= 0 for c in coeffs)


# ---------------------------------------------------------------------------
# presets and loading

_PRESET_CARTANS: dict[str, list[list[int]]] = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
}


def _preset_config(name: str) -> dict:
    if name in _PRESET_CARTANS:
        c = _PRESET_CARTANS[name]
        n = len(c)
        return {
            "name": name,
            "rank": n,
            "cartan": c,
            "simple_coroots": [[int(i == j) for j in range(n)] for i in range(n)],
            "simple_roots": [list(row) for row in c],
        }
    if name == "GL2":
        # rank-2 lattice with a single simple coroot e1 - e2
        return {
            "name": "GL2",
            "rank": 2,
            "cartan": [[2]],
            "simple_coroots": [[1, -1]],
            "simple_roots": [[1, -1]],
        }
    raise RootDatumError(f"unknown preset {name!r}")


PRESET_NAMES = tuple(sorted(_PRESET_CARTANS) + ["GL2"])


def load_root_datum(config) -> RootDatum:
    """Build a RootDatum from a preset name, config dict or JSON text."""
    if isinstance(config, str):
        name = config.strip()
        if name in PRESET_NAMES:
            config = _preset_config(name)
        else:
            try:
                config = json.loads(config)
            except json.JSONDecodeError as e:
                raise RootDatumError(f"cannot parse root-datum config: {e}") from e
    if not isinstance(config, dict):
        raise RootDatumError("config must be a mapping")
    missing = {"name", "rank", "cartan", "simple_coroots", "simple_roots"} - set(config)
    if missing:
        raise RootDatumError(f"config missing keys: {sorted(missing)}")
    rd = RootDatum(config["name"], config["rank"], config["simple_coroots"], config["simple_roots"])
    declared = [list(map(int, row)) for row in config["cartan"]]
    if declared != [list(r) for r in rd.cartan]:
        raise RootDatumError("declared cartan matrix is inconsistent with the root/coroot pairings")
    return rd
