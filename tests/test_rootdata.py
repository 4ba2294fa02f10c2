import json
import random
from fractions import Fraction
from itertools import product

import pytest

from heckelat import cones, linalg, rootdata
from heckelat.rootdata import (
    PRESET_NAMES,
    ParabolicType,
    RootDatumError,
    WeylEnumerationError,
    dominance_leq,
    index_subsets,
    load_root_datum,
    pair,
)

# orders from the classification, used as the enumeration oracle
WEYL_ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48, "C3": 48, "GL2": 2}
POSITIVE_COUNTS = {"A1": 1, "A2": 3, "B2": 4, "G2": 6, "A3": 6, "B3": 9, "C3": 9, "GL2": 1}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_load_and_enumerate(name):
    rd = load_root_datum(name)
    assert len(rd.weyl_elements) == WEYL_ORDERS[name]
    assert len(rd.positive_coroots) == POSITIVE_COUNTS[name]
    # w0 sends positives to negatives
    neg = {tuple(-x for x in a) for a in rd.positive_coroots}
    assert all(tuple(int(x) for x in linalg.mat_vec(rd.w0, a)) in neg for a in rd.positive_coroots)


def _all_int(vectors) -> bool:
    return all(type(x) is int for v in vectors for x in v)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_lattice_data_and_products_stay_integral(name):
    rd = load_root_datum(name)
    assert all(_all_int(w) for w in rd.weyl_elements)
    for vectors in (rd.coroots, rd.roots, rd.positive_coroots, rd.positive_roots, rd.cartan):
        assert _all_int(vectors)
    assert _all_int([rd.two_rho_check])
    pars = [ParabolicType(rd, J) for J in index_subsets(rd.n_simple)]
    assert all(_all_int([par.two_rho_check_P]) for par in pars)
    lam = tuple(range(1, rd.rank + 1))
    rational = tuple(Fraction(k, 3) for k in lam)
    chi = rd.simple_roots[0]
    for w in rd.weyl_elements:
        assert _all_int([linalg.mat_vec(w, lam), rd.act_on_weight(w, chi)])
        moved = linalg.mat_vec(w, rational)
        assert all(type(x) is Fraction for x in moved)
        assert all(type(x) is Fraction for x in rd.act_on_weight(w, rational))
    assert type(pair(chi, lam)) is int and type(pair(chi, rational)) is Fraction
    for par in pars:
        assert type(par.height(lam)) is int
        assert type(par.height(rational)) is Fraction
        assert par.height(rational) * 3 == par.height(lam)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_coordinate_tables(name):
    rd = load_root_datum(name)
    tables = ((rd.coroot_coords, rd.simple_coroots, rd.coroots), (rd.root_coords, rd.simple_roots, rd.roots))
    for table, simples, vectors in tables:
        assert set(table) == set(vectors)
        cols = list(zip(*simples))
        for v, coords in table.items():
            assert len(coords) == rd.n_simple and _all_int([coords])
            assert tuple(sum(c * s[r] for c, s in zip(coords, simples)) for r in range(rd.rank)) == v
            assert linalg.solve(cols, v) == coords
    orbit = {linalg.mat_vec(w, a) for w in rd.weyl_elements for a in rd.simple_coroots}
    assert set(rd.coroot_coords) == orbit
    assert set(rd.root_coords) == {rd.act_on_weight(w, chi) for w in rd.weyl_elements for chi in rd.simple_roots}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_root_image_is_chi_times_w_inverse(name):
    rd = load_root_datum(name)
    for w in rd.weyl_elements:
        w_inverse_columns = tuple(zip(*linalg.inverse(w)))  # a Fraction inverse, not the datum's cached int one
        image = rd.root_image(w)
        for chi in rd.roots:
            assert image[chi] == linalg.mat_vec(w_inverse_columns, chi), (name, w, chi)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_root_image_permutes_the_roots(name):
    rd = load_root_datum(name)
    for w in rd.weyl_elements:
        image = rd.root_image(w)
        assert set(image) == rd.roots and set(image.values()) == rd.roots and len(image) == len(rd.roots), (name, w)
        assert rd.root_image(w) is image  # cached per element


def test_root_images_are_built_on_first_use():
    rd = load_root_datum("B3")
    assert not rd._root_images and not rd._inverse_columns
    rd.root_image(rd.w0)
    assert list(rd._root_images) == [rd.w0]


def test_a2_positive_coroots_from_closure():
    rd = load_root_datum("A2")
    assert set(rd.positive_coroots) == {(1, 0), (0, 1), (1, 1)}


def test_every_weyl_element_permutes_coroots():
    for name in ("A2", "B2", "G2"):
        rd = load_root_datum(name)
        for w in rd.weyl_elements:
            image = {tuple(int(x) for x in linalg.mat_vec(w, a)) for a in rd.coroots}
            assert image == set(rd.coroots)


def test_load_rejects_bad_pairing():
    config = {
        "name": "bad",
        "rank": 1,
        "cartan": [[3]],
        "simple_coroots": [[1]],
        "simple_roots": [[3]],
    }
    with pytest.raises(RootDatumError):
        load_root_datum(config)


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


def _inline(name, cartan, simples=None):
    """Inline JSON of a datum whose simple coroots and roots are both `simples`, by default the standard basis and the Cartan rows."""
    n = len(cartan)
    coroots = simples or [[int(i == j) for j in range(n)] for i in range(n)]
    config = {"name": name, "rank": len(coroots[0]), "cartan": cartan, "simple_coroots": coroots, "simple_roots": simples or cartan}
    return json.dumps(config)


@pytest.mark.parametrize(
    "cartan",
    [[[2, -2], [-2, 2]], [[2, -3], [-3, 2]], [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], _star(1, 1, 1, 1), _star(2, 2, 2)],
    ids=["affine", "hyperbolic", "non-symmetrizable", "affine-D4", "affine-E6"],
)
def test_load_rejects_non_finite_type(cartan):
    with pytest.raises(RootDatumError):
        load_root_datum(_inline("non-finite", cartan))


def _block(*cartans):
    """Block-diagonal Cartan matrix of a product of root systems."""
    n = sum(len(c) for c in cartans)
    out = [[0] * n for _ in range(n)]
    at = 0
    for c in cartans:
        for i, row in enumerate(c):
            out[at + i][at : at + len(row)] = row
        at += len(c)
    return out


def _path(n, last=-1, first=-1):
    """Cartan matrix of a path of n nodes, c[n-1][n-2] = last and c[n-2][n-1] = first: A_n, B_n (last = -2) or C_n (first = -2)."""
    out = [[2 * (i == j) - (abs(i - j) == 1) for j in range(n)] for i in range(n)]
    out[n - 1][n - 2], out[n - 2][n - 1] = last, first
    return out


B4_CARTAN = _path(4, last=-2)
C4_CARTAN = _path(4, first=-2)
F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
G2_CARTAN = [[2, -1], [-3, 2]]


@pytest.mark.parametrize("cartan, order", [
    (F4_CARTAN, 1152),
    (B4_CARTAN, 384),
    (C4_CARTAN, 384),
    (_star(1, 1, 1), 192),
    (_star(1, 1, 2), 1920),
    (_star(3, 1, 1), 23040),
    (_star(1, 2, 2), 51840),
    (_star(1, 2, 3), 2903040),
    (_star(4, 2, 1), 696729600),
], ids=["F4", "B4", "C4", "D4", "D5", "D6", "E6", "E7", "E8"])
def test_component_weyl_order_classifies_each_diagram(cartan, order):
    # the order of each connected diagram from its root heights: the root orbit is closed in
    # coordinates on the simple roots, so no Weyl group is enumerated
    identity = [[int(i == j) for j in range(len(cartan))] for i in range(len(cartan))]
    coords = rootdata._orbit_coordinates(tuple(zip(*cartan)), identity).values()
    assert rootdata.weyl_order([sum(c) for c in coords if min(c) >= 0]) == order


def test_d4_from_inline_json_passes_the_weyl_order_check():
    rd = load_root_datum(_inline("D4", _star(1, 1, 1)))
    heights = [sum(rd.root_coords[chi]) for chi in rd.positive_roots]
    assert len(rd.weyl_elements) == rootdata.weyl_order(heights) == 192
    assert len(rd.positive_coroots) == 12


RANK_AT_MOST_FOUR = [
    ("A4", _path(4), None, 120),
    ("B3", _path(3, last=-2), None, 48),
    ("B4", B4_CARTAN, None, 384),
    ("C4", C4_CARTAN, None, 384),
    ("D4", _star(1, 1, 1), None, 192),
    ("F4", F4_CARTAN, None, 1152),
    ("A1xA1", _block([[2]], [[2]]), None, 4),
    ("A2xA1", _block(_path(2), [[2]]), None, 12),
    ("B2xG2", _block(_path(2, last=-2), G2_CARTAN), None, 96),
    ("GL3", _path(2), [[1, -1, 0], [0, 1, -1]], 6),
]


@pytest.mark.parametrize("name, cartan, simples, order", RANK_AT_MOST_FOUR, ids=[row[0] for row in RANK_AT_MOST_FOUR])
def test_every_finite_type_of_rank_at_most_four_loads_with_its_weyl_order(name, cartan, simples, order):
    rd = load_root_datum(_inline(name, cartan, simples))
    assert len(set(rd.weyl_elements)) == len(rd.weyl_elements) == order


@pytest.mark.parametrize("name, cartan", [("E7", _star(1, 2, 3)), ("E8", _star(4, 2, 1))], ids=["E7", "E8"])
def test_weyl_group_over_the_cap_is_refused_before_enumerating(monkeypatch, name, cartan):
    def no_enumeration(self, indices):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(rootdata.RootDatum, "_weyl_bfs", no_enumeration)
    with pytest.raises(WeylEnumerationError, match="exceeds cap"):
        load_root_datum(_inline(name, cartan))


def test_an_enumeration_that_drops_an_element_fails_the_order_check(monkeypatch):
    bfs = rootdata.RootDatum._weyl_bfs

    def drops_the_last(self, indices):
        return list(bfs(self, indices))[:-1]

    monkeypatch.setattr(rootdata.RootDatum, "_weyl_bfs", drops_the_last)
    with pytest.raises(RootDatumError, match="from the root heights"):
        load_root_datum("B2")


def test_load_rejects_inconsistent_declared_cartan():
    rd = load_root_datum("A2")
    config = rd.config()
    config["cartan"] = [[2, 0], [0, 2]]
    with pytest.raises(RootDatumError):
        load_root_datum(json.dumps(config))


def test_load_is_deterministic():
    a = load_root_datum("B2")
    b = load_root_datum(json.dumps(load_root_datum("B2").config()))
    assert a.config() == b.config()
    assert a.weyl_elements == b.weyl_elements


def test_parabolic_caches():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    assert set(par.pos_coroots_levi) == {(1, 0)}
    assert set(par.pos_coroots_unipotent) == {(0, 1), (1, 1)}
    # the parabolic half-sum annihilates the Levi coroots
    assert pair(par.two_rho_check_P, (1, 0)) == 0
    # w0 of the Levi is an involution
    sq = tuple(tuple(int(x) for x in linalg.mat_vec(par.w0_levi, row)) for row in zip(*((1, 0), (0, 1))))
    assert par.w0_levi != rd.w0


def test_projection_kills_levi_and_fixes_slice():
    rd = load_root_datum("A3")
    J = [0, 2]
    for j in J:
        assert all(x == 0 for x in rd.levi_solve(J, rd.simple_coroots[j])[0])
    lam = (1, 2, -1)
    # levi_solve gives d times the projection, so projecting that point again gives d times it, with no Levi part
    proj, coeffs, d = rd.levi_solve(J, lam)
    assert d > 0 and any(coeffs)
    assert tuple(d * x for x in lam) == tuple(p + sum(c * rd.simple_coroots[j][r] for c, j in zip(coeffs, J)) for r, p in enumerate(proj))
    again, coeffs_again, d_again = rd.levi_solve(J, proj)
    assert d_again == d and again == tuple(d * x for x in proj) and not any(coeffs_again)


def test_dominance_order_properties():
    rd = load_root_datum("A2")
    full = ParabolicType(rd, [0, 1])
    p0 = ParabolicType(rd, [0])
    assert dominance_leq(rd, full, (1, 1), (0, 0))
    assert not dominance_leq(rd, p0, (0, 1), (0, 0))
    assert dominance_leq(rd, full, (Fraction(2, 3), Fraction(1, 3)), (0, 0))
    # reflexive / antisymmetric / transitive on a small sample
    pts = [(0, 0), (1, 0), (1, 1), (2, 1), (-1, 2)]
    for a in pts:
        assert dominance_leq(rd, full, a, a)
        for b in pts:
            if a != b and dominance_leq(rd, full, a, b) and dominance_leq(rd, full, b, a):
                raise AssertionError("antisymmetry violated")
            for c in pts:
                if dominance_leq(rd, full, a, b) and dominance_leq(rd, full, b, c):
                    assert dominance_leq(rd, full, a, c)


def test_dominance_is_membership_in_the_levi_coroot_cone():
    rng = random.Random(5)
    for name in PRESET_NAMES:
        rd = load_root_datum(name)
        box = list(product(range(-2, 3), repeat=rd.rank))
        rational = [tuple(Fraction(x, 3) for x in v) for v in box[::3]]
        rational += [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rd.rank)) for _ in range(20)]
        for J in index_subsets(rd.n_simple):
            par = ParabolicType(rd, J)
            mu = tuple(rng.randint(-2, 2) for _ in range(rd.rank))
            for diff in box + rational:
                lam = tuple(a + b for a, b in zip(mu, diff))
                assert dominance_leq(rd, par, lam, mu) == cones.in_cone(par.pos_coroots_levi, diff), (name, J, diff)


def test_gl2_non_semisimple():
    rd = load_root_datum("GL2")
    assert rd.rank == 2 and rd.n_simple == 1
    par = ParabolicType(rd, [])
    # pos_G is spanned by the one positive coroot (1, -1); the lineality (1, 1) of its dual cone is signed both ways
    assert cones.in_cone([(1, -1)], (1, -1))
    assert not cones.in_cone([(1, -1)], (1, 0))
    assert cones.in_pos_U(par, (1, -1)) and not cones.in_pos_U(par, (1, 0)) and not cones.in_pos_U(par, (-1, 1))


def test_dominant_representative():
    rd = load_root_datum("B2")
    for lam in [(-3, 1), (2, -5), (0, 0)]:
        rep = rd.dominant_representative(lam)
        assert rd.is_dominant(rep)
        assert any(
            tuple(Fraction(x) for x in linalg.mat_vec(w, lam)) == tuple(rep) for w in rd.weyl_elements
        )


def test_weyl_cap_signals_error(monkeypatch):
    from heckelat.rootdata import RootDatum

    monkeypatch.setattr(rootdata, "WEYL_CAP", 3)
    with pytest.raises(WeylEnumerationError, match="exceeds cap"):
        RootDatum("B2-capped", 2, [[1, 0], [0, 1]], [[2, -1], [-2, 2]])
    # the cap inside the enumeration still holds when the order from the heights is wrong
    monkeypatch.setattr(rootdata, "weyl_order", lambda heights: 1)
    with pytest.raises(WeylEnumerationError, match="exceeded cap"):
        RootDatum("B2-capped", 2, [[1, 0], [0, 1]], [[2, -1], [-2, 2]])
    monkeypatch.undo()
    rd = load_root_datum("B2")
    assert len(rd.weyl_elements) == 8


def test_invert_unit_is_unit():
    from heckelat import hecke as hk

    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    unit = hk.GradedSeries.unit(rd, par, 6)
    assert unit.invert() == unit


def test_levi_involution_fixes_projection_classes():
    rd = load_root_datum("B2")
    for J in ([0], [1]):
        par = ParabolicType(rd, J)
        for lam in [(1, 0), (0, 1), (2, -1), (-1, 3)]:
            moved = tuple(int(x) for x in linalg.mat_vec(par.w0_levi, lam))
            assert rd.levi_solve(J, moved)[0] == rd.levi_solve(J, lam)[0]
