import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from heckelat import acceptance, cones, linalg
from heckelat.cones import SupportShape, in_cone, langlands_retraction, nonneg_combination
from heckelat.intertwine import SphericalFunction
from heckelat.rootdata import ParabolicType, load_root_datum


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
    rd = load_root_datum("A2")
    assert cones.cone_member(rd, cones.pos_U([0]), (1, 1))
    assert not cones.cone_member(rd, cones.pos_U([0]), (1, 0))
    assert cones.cone_member(rd, cones.pos_U([0]), (0, 0))
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
    rd = load_root_datum("A2")
    assert cones.bounded_above(rd, SupportShape.make([(0, 0)], cones.neg_pos_G()))
    assert not cones.bounded_above(rd, SupportShape.make([(0, 0)], cones.pos_G()))
    assert cones.bounded_above(rd, SupportShape.make([(1, 0)], cones.neg_pos_U([0])))


def test_support_shape_contains():
    rd = load_root_datum("A2")
    shape = SupportShape.make([(1, 0)], cones.neg_pos_U([0]))
    assert shape.contains(rd, (1, 0))
    assert shape.contains(rd, (0, -1))
    assert not shape.contains(rd, (2, 0))


def test_rank_cap_enforced():
    config = {
        "name": "A5",
        "rank": 5,
        "cartan": [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(5)] for i in range(5)],
        "simple_coroots": [[int(i == j) for j in range(5)] for i in range(5)],
        "simple_roots": [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(5)] for i in range(5)],
    }
    rd = load_root_datum(config)
    with pytest.raises(cones.ConeError):
        cones.check_dual_cone(rd, ParabolicType(rd, []))
