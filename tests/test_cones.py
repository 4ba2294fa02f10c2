import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from heckelat import acceptance, cones, hecke, linalg
from heckelat.cones import SupportShape, in_cone, langlands_retraction, nonneg_combination
from heckelat.intertwine import SphericalFunction
from heckelat.rootdata import PRESET_NAMES, ParabolicType, index_subsets, load_root_datum


def brute_member(gens, target, grid=5):
    """Tiny brute-force feasibility oracle over a rational grid (only for 1-2 generators)."""
    from itertools import product

    steps = [Fraction(i, 2) for i in range(0, 2 * grid + 1)]
    for coeffs in product(steps, repeat=len(gens)):
        cand = tuple(
            sum((c * Fraction(g[k]) for c, g in zip(coeffs, gens)), Fraction(0))
            for k in range(len(target))
        )
        if cand == tuple(Fraction(x) for x in target):
            return True
    return False


def test_nonneg_combination_against_brute():
    gens = [(0, 1), (1, 1)]
    rng = random.Random(3)
    for _ in range(60):
        target = (rng.randint(-3, 3), rng.randint(-3, 3))
        got = nonneg_combination(gens, target) is not None
        assert got == brute_member(gens, target, grid=8), target


def test_cone_member_examples():
    # A2 with J = {0}: pos_U is spanned by the coroots (0, 1) and (1, 1)
    rd = load_root_datum("A2")
    assert in_cone([(0, 1), (1, 1)], (1, 1))
    assert not in_cone([(0, 1), (1, 1)], (1, 0))
    assert in_cone([(0, 1), (1, 1)], (0, 0))
    assert cones.cone_member(rd, cones.neg_pos_U([0]), (-1, -1))
    assert not cones.cone_member(rd, cones.neg_pos_U([0]), (-1, 0))
    assert cones.cone_member(rd, cones.neg_pos_U([0]), (0, 0))
    coeffs = nonneg_combination([(0, 1), (1, 1)], (1, 2))
    assert coeffs is not None and all(c >= 0 for c in coeffs)


def test_simplex_agrees_with_the_facets_of_the_dual_cone():
    """Seeded systems in dimensions 1-4 with zero, duplicate, opposite and rational generators.

    Targets lie on faces, at zero, or anywhere; some systems have no generators.
    A feasible answer must be an exact nonnegative combination, and feasibility
    must agree with the extreme rays and lineality of the dual cone from the
    double description.
    """
    rng = random.Random(8)

    def entry():
        r = rng.random()
        return 0 if r < 0.2 else Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if r < 0.4 else rng.randint(-3, 3)

    seen = {True: 0, False: 0}
    for _ in range(400):
        dim = rng.randint(1, 4)
        gens = [tuple(entry() for _ in range(dim)) for _ in range(rng.randint(0, 5))]
        if gens:
            g = rng.choice(gens)
            gens += rng.choice([[], [(0,) * dim], [g], [tuple(-x for x in g)]])
        kind = rng.randrange(3)
        if kind == 0 and gens:
            face = rng.sample(gens, rng.randint(1, len(gens)))
            target = tuple(sum(rng.randint(0, 2) * g[i] for g in face) for i in range(dim))
        elif kind == 1:
            target = (0,) * dim
        else:
            target = tuple(entry() for _ in range(dim))
        coeffs = nonneg_combination(gens, target)
        lin, rays = cones.rays_from_inequalities(gens, dim)
        expected = all(linalg.dot(v, target) == 0 for v in lin) and all(linalg.dot(r, target) >= 0 for r in rays)
        assert (coeffs is not None) == expected, (gens, target)
        if coeffs is not None:
            assert all(c >= 0 for c in coeffs)
            assert all(sum(c * g[i] for c, g in zip(coeffs, gens)) == target[i] for i in range(dim))
        seen[expected] += 1
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "GL2", "A3", "B3", "C3"])
def test_cone_certificates_all_parabolics(name):
    rd = load_root_datum(name)
    for mask in range(1 << rd.n_simple):
        J = [i for i in range(rd.n_simple) if mask >> i & 1]
        par = ParabolicType(rd, J)
        assert cones.check_pos_U_intersection(rd, par)
        assert cones.check_dual_cone(rd, par)
        assert cones.check_pos_U_consequent(rd, par)


def _random_constraints(rng, dim):
    """Random constraints with zero, duplicate, rational, redundant and opposite (equality) ones mixed in."""
    cons = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, dim + 3))]
    extras = [
        lambda: (0,) * dim,
        lambda: tuple(3 * x for x in rng.choice(cons)),
        lambda: tuple(Fraction(x, 2) for x in rng.choice(cons)),
        lambda: tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)),
        lambda: tuple(x + y for x, y in zip(rng.choice(cons), rng.choice(cons))),
        lambda: tuple(-x for x in rng.choice(cons)),
    ]
    for _ in range(rng.randint(0, 3)):
        if cons:
            cons.append(rng.choice(extras)())
    rng.shuffle(cons)
    return cons


def test_rays_from_inequalities_random_cones():
    rng = random.Random(2024)
    for case in range(160):
        dim = 1 + case % 4
        cons = _random_constraints(rng, dim)
        lin, rays = cones.rays_from_inequalities(cons, dim)
        witness = (dim, cons, lin, rays)
        nonzero = [c for c in cons if any(c)]
        assert len(lin) == dim - linalg.rank(nonzero), witness
        for v in lin + rays:
            assert all(type(x) is int for x in v) and gcd(*v) == 1, witness
        for l in lin:
            assert all(linalg.dot(c, l) == 0 for c in cons), witness
        gens = rays + lin + [linalg.vneg(l) for l in lin]
        for i, r in enumerate(rays):
            assert all(linalg.dot(c, r) >= 0 for c in cons), witness
            tight = [c for c in nonzero if linalg.dot(c, r) == 0]
            assert linalg.rank(tight) == dim - len(lin) - 1, witness
            assert not in_cone(gens[:i] + gens[i + 1 :], r), witness
        box = range(-2, 3) if dim <= 2 else range(-1, 2)
        for p in product(box, repeat=dim):
            if all(linalg.dot(c, p) >= 0 for c in cons):
                assert in_cone(gens, p), (p, witness)


def test_primitive_vector_on_ints_matches_the_route_through_clear_denominators(monkeypatch):
    """An all-int vector skips clear_denominators; int, Fraction and mixed vectors all give what that route gives."""
    rng = random.Random(12)

    def by_clearing(v):
        _, (ints,) = linalg.clear_denominators([v])
        g = gcd(*ints)
        return tuple(x // g for x in ints)

    for _ in range(300):
        ints = tuple(rng.randint(-12, 12) * rng.choice([1, 6]) for _ in range(rng.randint(1, 5)))
        if not any(ints):
            continue
        fracs = tuple(Fraction(x, rng.randint(1, 4)) for x in ints)
        mixed = tuple(rng.choice([x, Fraction(x, 3)]) for x in ints)
        for v in (ints, list(ints), fracs, mixed):
            got = linalg.primitive_vector(v)
            assert got == by_clearing(v) and all(type(x) is int for x in got), v
        assert linalg.primitive_vector(fracs) == linalg.primitive_vector(tuple(x.numerator * 12 // x.denominator for x in fracs))
    for zero in ((0, 0), (Fraction(0), 0), (Fraction(0),)):
        with pytest.raises(ValueError, match="zero vector"):
            linalg.primitive_vector(zero)

    def refuse(vectors):
        raise AssertionError(f"clear_denominators called on {vectors}")

    monkeypatch.setattr(linalg, "clear_denominators", refuse)
    assert linalg.primitive_vector((4, -6, 0)) == (2, -3, 0)
    with pytest.raises(AssertionError, match="clear_denominators called"):
        linalg.primitive_vector((Fraction(4), -6))


def _rays_by_subsets(constraints, dim):
    """The extreme rays by their definition: every (d - 1)-subset of the section's constraints, d = dim C.

    On the pointed section C (as in `rays_from_inequalities`), a ray tight on
    d - 1 independent constraints spans a one-dimensional face, so it is extreme.
    The subset's candidate is the generalised cross product of its rows (signed
    maximal minors), which is zero exactly when the rows are dependent.
    """
    cons = cones._distinct_directions(constraints)
    if not cons:
        return [tuple(int(i == j) for j in range(dim)) for i in range(dim)], []
    lin = linalg.nullspace(cons)
    pivots = linalg.pivot_columns(lin)
    section = [j for j in range(dim) if j not in pivots]
    d = len(section)
    if d == 0:
        return lin, []
    cons = cones._distinct_directions([tuple(c[j] for j in section) for c in cons])
    rays = set()
    for rows in combinations(cons, d - 1):
        v = tuple((-1) ** k * linalg.det([r[:k] + r[k + 1 :] for r in rows]) for k in range(d))
        if not any(v):
            continue
        for w in (v, linalg.vneg(v)):
            if all(linalg.dot(c, w) >= 0 for c in cons):
                rays.add(linalg.primitive_vector(w))
    out = []
    for v in rays:
        ray = [0] * dim
        for j, x in zip(section, v):
            ray[j] = x
        out.append(tuple(ray))
    return lin, sorted(out)


def _star(*arms):
    """Cartan matrix of a simply-laced tree: a branch node 0 with a path of each given length."""
    n = 1 + sum(arms)
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    node = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            cartan[prev][node] = cartan[node][prev] = -1
            prev, node = node, node + 1
    return cartan


def _path(n, last=-1):
    """Cartan matrix of a path of n nodes with c[n-1][n-2] = last: A_n, or B_n for last = -2."""
    out = [[2 * (i == j) - (abs(i - j) == 1) for j in range(n)] for i in range(n)]
    out[n - 1][n - 2] = last
    return out


def _inline_datum(name, cartan):
    """A datum from inline JSON: standard basis coroots, Cartan rows as roots."""
    n = len(cartan)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return load_root_datum(json.dumps({"name": name, "rank": n, "cartan": cartan, "simple_coroots": identity, "simple_roots": cartan}))


def _translates(rd, J, items):
    """{w . item : w in W_J}, element by element: w . chi is chi against the columns of a Fraction w^-1, not the datum's int one."""
    out = set()
    for w in rd.subgroup(J):
        cols = tuple(zip(*linalg.inverse(w)))
        out |= {tuple(linalg.mat_vec(cols, chi) for chi in item) for item in items}
    return out


def _certificate_constraints(rd, par):
    """The constraint systems the certificates hand to the double description, besides the chamber's."""
    dual_pos_g = cones.dual_generators(rd, rd.positive_coroots)
    translated = [c for (c,) in sorted(_translates(rd, par.indices, [(c,) for c in dual_pos_g]))]
    return [par.pos_coroots_unipotent, translated]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_certificate_orbits_are_the_translates_by_every_element_of_w_m(name):
    """The orbits the certificates close under the simple reflections of M are the sets of translates by each element of W_M."""
    rd = load_root_datum(name)
    walls = [tuple(cones.dual_generators(rd, rd.simple_coroots + (linalg.vneg(a),))) for a in rd.simple_coroots]
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        for vectors in (rd.positive_coroots, rd.simple_coroots, par.pos_coroots_unipotent):
            items = [(c,) for c in cones.dual_generators(rd, vectors)]
            assert cones._levi_orbit(rd, par, items) == _translates(rd, J, items), (name, J, vectors)
            for item in items:  # step (ii) of check_dual_cone closes each generator's orbit on its own
                assert cones._levi_orbit(rd, par, [item]) == _translates(rd, J, [item]), (name, J, item)
        for wall in walls:
            assert cones._levi_orbit(rd, par, [wall]) == _translates(rd, J, [wall]), (name, J, wall)


@pytest.mark.parametrize("name", [*PRESET_NAMES, "B4"])
def test_rays_agree_with_the_subset_enumeration_on_every_parabolic(name):
    rd = _inline_datum("B4", _path(4, last=-2)) if name == "B4" else load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        for cons in _certificate_constraints(rd, ParabolicType(rd, J)):
            assert cones.rays_from_inequalities(cons, rd.rank) == _rays_by_subsets(cons, rd.rank), (name, J, cons)


def test_rays_agree_with_the_subset_enumeration_on_random_cones():
    """Seeded cones of dimension 1-5 with d to d + 8 constraints: entries in {-1, 0, 1}, with sums, negatives, zeros and rational multiples mixed in.

    A sum c1 + c2 is tight wherever c1 and c2 are, so two rays can share d - 2
    tight constraints of rank below d - 2. Their join is then not extreme, and
    only the "no third ray" half of the adjacency test keeps it out. Without
    that half, about 1 % of these cones (dimensions 4 and 5) get extra rays.
    """
    rng = random.Random(77)
    rays_seen = 0
    for case in range(1000):
        dim = 1 + case % 5
        cons = [tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(rng.randint(dim, dim + 6))]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(cons), rng.choice(cons)
            cons.append(rng.choice([tuple(map(sum, zip(a, b))), linalg.vneg(a), (0,) * dim, tuple(Fraction(x, 3) for x in a)]))
        rng.shuffle(cons)
        got = cones.rays_from_inequalities(cons, dim)
        assert got == _rays_by_subsets(cons, dim), (dim, cons)
        rays_seen += len(got[1])
    assert rays_seen > 1500, rays_seen


def test_e6_sign_tests_agree_with_the_simplex_on_sampled_points():
    """On E6 the subset enumeration is too slow to be the reference, so in_pos_U answers against in_cone.

    Points are sums of unipotent coroots (members), those minus a simple
    coroot (near the boundary), and random points of [-2, 2]^6.
    """
    rd = _inline_datum("E6", _star(1, 2, 2))
    rng = random.Random(6)
    answers = set()
    for J in rng.sample(list(index_subsets(rd.n_simple)), 12):
        par = ParabolicType(rd, J)
        gens = par.pos_coroots_unipotent
        for _ in range(8):
            inside = tuple(map(sum, zip((0,) * rd.rank, *rng.sample(gens, min(3, len(gens))))))
            below = tuple(x - y for x, y in zip(inside, rng.choice(rd.simple_coroots)))
            for lam in (inside, below, tuple(rng.randint(-2, 2) for _ in range(rd.rank))):
                member = in_cone(gens, lam)
                answers.add(member)
                assert cones.in_pos_U(par, lam) == member, (J, lam)
    assert answers == {True, False}


def test_cone_certificates_fail_when_a_ray_is_dropped(monkeypatch):
    assert acceptance.check_cone_certificates(("B2",)).passed
    all_rays = cones.rays_from_inequalities

    def drop_last_ray(constraints, dim):
        lin, rays = all_rays(constraints, dim)
        return lin, rays[:-1]

    monkeypatch.setattr(cones, "rays_from_inequalities", drop_last_ray)
    result = acceptance.check_cone_certificates(("B2",))
    assert not result.passed and result.detail.startswith("B2 J="), result.detail


def _counted_rays(monkeypatch):
    calls = []
    compute = cones.rays_from_inequalities

    def counted(constraints, dim):
        calls.append(tuple(map(tuple, constraints)))
        return compute(constraints, dim)

    monkeypatch.setattr(cones, "rays_from_inequalities", counted)
    return calls


@pytest.mark.parametrize("name, vectors", [
    ("B2", "positive_coroots"),
    ("B2", "simple_coroots"),
    ("GL2", "positive_coroots"),
])
def test_dual_generators_are_rays_then_lineality_with_both_signs(name, vectors):
    rd = load_root_datum(name)
    lin, rays = cones.rays_from_inequalities(getattr(rd, vectors), rd.rank)
    expected = tuple(rays) + tuple(lin) + tuple(map(linalg.vneg, lin))
    assert cones.dual_generators(rd, getattr(rd, vectors)) == expected


def test_dual_generators_keys_on_vector_values(monkeypatch):
    calls = _counted_rays(monkeypatch)
    rd = load_root_datum("A2")
    as_tuple = cones.dual_generators(rd, ((1, 0), (0, 1), (1, 1)))
    as_list = cones.dual_generators(rd, [[1, 0], [0, 1], [1, 1]])
    assert as_tuple == as_list and len(calls) == 1
    cones.dual_generators(rd, [[0, 1], [1, 0], [1, 1]])
    assert len(calls) == 2


def test_certificates_compute_each_double_description_once_per_datum(monkeypatch):
    calls = _counted_rays(monkeypatch)
    rd = load_root_datum("B2")

    def certify(rd):
        for J in ([], [0], [1], [0, 1]):
            par = ParabolicType(rd, J)
            assert cones.check_pos_U_intersection(rd, par) and cones.check_dual_cone(rd, par)
            assert cones.check_pos_U_consequent(rd, par)

    certify(rd)
    cold = len(calls)
    assert cold == len(set(calls)) and cold > 0
    certify(rd)
    assert len(calls) == cold  # the same datum: every double description is a memo hit
    certify(load_root_datum("B2"))
    assert len(calls) == 2 * cold  # a freshly loaded datum starts cold


def test_sign_tests_agree_with_the_simplex_on_every_preset_and_parabolic():
    """in_pos_U, in_support_cone and SupportShape.contains against in_cone, over a box of lattice points.

    The box is [-3, 3]^r for r <= 2 and [-2, 2]^r otherwise. GL2's dual cone has a
    lineality line, and J = full has the zero cone, whose dual is the whole space.
    """
    rng = random.Random(29)
    answers = set()
    for name in PRESET_NAMES:
        rd = load_root_datum(name)
        r = 3 if rd.rank <= 2 else 2
        box = list(product(range(-r, r + 1), repeat=rd.rank))
        for J in index_subsets(rd.n_simple):
            par = ParabolicType(rd, J)
            gens = par.pos_coroots_unipotent
            for lam in box:
                member = in_cone(gens, lam)
                answers.add(member)
                assert cones.in_pos_U(par, lam) == member, (name, J, lam)
                assert hecke.in_support_cone(par, lam) == member, (name, J, lam)
            for _ in range(2):
                base = rng.sample(box, rng.randint(1, 3))
                window = SupportShape.make(base, cones.neg_pos_U(J))
                for lam in box:
                    member = any(in_cone(gens, tuple(x - y for x, y in zip(b, lam))) for b in base)
                    assert window.contains(par, lam) == member, (name, J, base, lam)
    assert answers == {True, False}


def test_series_and_windows_never_reach_the_simplex(monkeypatch):
    def refuse(gens, target):
        raise AssertionError(f"simplex called on {target}")

    monkeypatch.setattr(cones, "nonneg_combination", refuse)
    monkeypatch.setattr(hecke, "_CONE_MEMO", {})
    rd = load_root_datum("A2")
    pts = [(0, 0), (1, 0), (0, -1), (-1, 1)]
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        mu, nu = hecke.gk_mu(rd, par, 8), hecke.nu(rd, par, 8)
        assert hecke.convolve(mu, nu) == hecke.GradedSeries.unit(rd, par, 8)
        phi = SphericalFunction(rd, par, {p: 1 for p in pts}, SupportShape.make(pts, cones.neg_pos_U(J)))
        assert sorted(phi.values) == sorted(pts)
    with pytest.raises(AssertionError, match="simplex called"):
        in_cone(par.pos_coroots_unipotent, (1, 0))


def test_window_check_builds_no_parabolic(monkeypatch):
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    pts = [(0, 0), (1, 0), (0, -1), (-1, 1)]
    window = SupportShape.make(pts, cones.neg_pos_U([0]))
    built = []
    init = ParabolicType.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ParabolicType, "__init__", counting_init)
    phi = SphericalFunction(rd, par, {p: 1 for p in pts}, window)
    assert sorted(phi.values) == sorted(pts) and built == []


def test_retraction_examples():
    rd1 = load_root_datum("A1")
    val, J = langlands_retraction(rd1, (-1,))
    assert val == (Fraction(0),) and J == frozenset({0})
    rd2 = load_root_datum("A2")
    val, J = langlands_retraction(rd2, (-1, 0))
    assert val == (Fraction(0), Fraction(0)) and J == frozenset({0})
    lam = (Fraction(3), Fraction(2))  # strictly dominant: fixed with empty domain
    val, J = langlands_retraction(rd2, lam)
    assert val == lam and J == frozenset()


def test_retraction_idempotent_dominant_minimal():
    rng = random.Random(41)
    for name in ("A2", "B2", "G2"):
        rd = load_root_datum(name)
        pos = [cones.fvec(a) for a in rd.positive_coroots]
        for _ in range(60):
            lam = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(rd.rank))
            val, _ = langlands_retraction(rd, lam)
            assert rd.is_dominant(val)
            assert in_cone(pos, tuple(a - b for a, b in zip(val, lam)))
            val2, _ = langlands_retraction(rd, val)
            assert val2 == val


def test_retraction_property_sweep():
    rng = random.Random(42)
    for name in ("A2", "B2"):
        rd = load_root_datum(name)
        for mask in range(1 << rd.n_simple):
            J = [i for i in range(rd.n_simple) if mask >> i & 1]
            par = ParabolicType(rd, J)
            for _ in range(25):
                lam = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rd.rank))
                lam_m = tuple(rd.dominant_representative(lam, par.indices))
                assert cones.check_retraction_property(rd, par, lam_m)


def test_retraction_property_rejects_non_dominant():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    with pytest.raises(cones.ConeError):
        cones.check_retraction_property(rd, par, (-1, 0))


def test_downward_saturation_in_support_cone():
    # within a bounded window: Levi-dominant points below a pos_U point stay in pos_U
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    pos_u = [cones.fvec(a) for a in par.pos_coroots_unipotent]
    window = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    from heckelat.rootdata import dominance_leq

    dominant = [p for p in window if par.is_levi_dominant(p)]
    for hi in dominant:
        if not in_cone(pos_u, hi):
            continue
        for lo in dominant:
            if dominance_leq(rd, par, hi, lo):
                assert in_cone(pos_u, lo), (hi, lo)


def test_bounded_above_examples():
    # a dominant weight pairs >= 0 with every positive coroot, so every -pos_U window is bounded above;
    # that is why SphericalFunction does not check it
    for name in PRESET_NAMES:
        rd = load_root_datum(name)
        for J in index_subsets(rd.n_simple):
            assert cones.bounded_above(rd, SupportShape.make([(1,) * rd.rank], cones.neg_pos_U(J))), (name, J)


def test_support_shape_contains():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    shape = SupportShape.make([(1, 0)], cones.neg_pos_U([0]))
    assert shape.contains(par, (1, 0))
    assert shape.contains(par, (0, -1))
    assert not shape.contains(par, (2, 0))
    with pytest.raises(cones.ConeError, match="does not belong"):
        shape.contains(ParabolicType(rd, []), (1, 0))


def test_cone_certificates_pass_above_rank_four():
    """Every parabolic of A5, D5 and E6: the certificates need no rank cap, and neither they nor the parabolics enumerate a Weyl group."""
    for name, cartan in [("A5", _path(5)), ("D5", _star(1, 1, 2)), ("E6", _star(1, 2, 2))]:
        rd = _inline_datum(name, cartan)
        pars = [ParabolicType(rd, J) for J in index_subsets(rd.n_simple)]
        assert "weyl_elements" not in vars(rd) and not rd._subgroup_cache, name
        for par in pars:
            J = sorted(par.indices)
            assert cones.check_pos_U_intersection(rd, par), (name, J)
            assert cones.check_dual_cone(rd, par), (name, J)
            assert cones.check_pos_U_consequent(rd, par), (name, J)
        assert "weyl_elements" not in vars(rd) and not rd._subgroup_cache, name
