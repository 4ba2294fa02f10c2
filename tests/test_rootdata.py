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
        assert _all_int([linalg.mat_vec(w, lam), rd.root_image(w)[chi]])
        moved = linalg.mat_vec(w, rational)
        assert all(type(x) is Fraction for x in moved)
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
    assert set(rd.root_coords) == {rd.root_image(w)[chi] for w in rd.weyl_elements for chi in rd.simple_roots}


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
    assert not rd._root_images
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


def _counting_enumerations(monkeypatch):
    """Wrap rootdata.orbit, the enumerator of W and of every W_J; the returned list gets the reflections of every call."""
    calls = []
    orbit = rootdata.orbit

    def counted(items, reflections):
        calls.append(reflections)
        return orbit(items, reflections)

    monkeypatch.setattr(rootdata, "orbit", counted)
    return calls


def test_e6_loads_and_finds_w0_without_enumerating_w(monkeypatch):
    calls = _counting_enumerations(monkeypatch)
    rd = load_root_datum(_inline("E6", _star(1, 2, 2)))
    assert len(rd.positive_coroots) == 36
    negative = {tuple(-x for x in a) for a in rd.positive_coroots}
    assert all(linalg.mat_vec(rd.w0, a) in negative for a in rd.positive_coroots)
    assert calls == [] and "weyl_elements" not in vars(rd)


def test_weyl_group_is_enumerated_on_the_first_read_only(monkeypatch):
    calls = _counting_enumerations(monkeypatch)
    rd = load_root_datum("B3")
    for J in index_subsets(rd.n_simple):  # a parabolic holds no W_M: building every one enumerates nothing
        ParabolicType(rd, J)
    assert calls == [] and not rd._subgroup_cache
    proper = [J for J in index_subsets(rd.n_simple) if len(J) < rd.n_simple]
    for J in proper + proper:
        rd.subgroup(J)
    # one enumeration per proper W_J, by its own reflections, and none of W
    assert calls == [[rd.weight_reflections[j] for j in J] for J in proper]
    assert "weyl_elements" not in vars(rd)
    assert rd.subgroup(range(rd.n_simple)) == frozenset(rd.weyl_elements) and len(rd.weyl_elements) == 48
    assert calls[-1] == list(rd.weight_reflections) and len(calls) == len(proper) + 1


REFERENCE_DATA = [(name, name) for name in PRESET_NAMES] + [
    ("B4", _inline("B4", B4_CARTAN)),
    ("C4", _inline("C4", C4_CARTAN)),
    ("D5", _inline("D5", _star(1, 1, 2))),
]


def _reflection_matrix(rd, i):
    """s_i as a matrix: s_i(lam) = lam - <alpha_i, lam> alpha-check_i."""
    return tuple(
        tuple(int(r == c) - rd.simple_coroots[i][r] * rd.simple_roots[i][c] for c in range(rd.rank)) for r in range(rd.rank)
    )


def _matrix_product_search(rd, indices):
    """W_J as first enumerated: breadth first over the products s_j w of reflection matrices, j in J."""
    gens = [_reflection_matrix(rd, j) for j in sorted(indices)]
    seen = {linalg.identity(rd.rank)}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                sw = linalg.mat_mul(s, w)
                if sw not in seen:
                    seen.add(sw)
                    new.append(sw)
        frontier = new
    return seen


@pytest.mark.parametrize("config", [row[1] for row in REFERENCE_DATA], ids=[row[0] for row in REFERENCE_DATA])
def test_weyl_subgroups_equal_the_matrix_product_search(config):
    rd = load_root_datum(config)
    for J in index_subsets(rd.n_simple):
        assert rd.subgroup(J) == _matrix_product_search(rd, J), J
    assert list(rd.weyl_elements) == sorted(_matrix_product_search(rd, range(rd.n_simple)))


@pytest.mark.parametrize("config", [row[1] for row in REFERENCE_DATA], ids=[row[0] for row in REFERENCE_DATA])
def test_recorded_inverses_invert(config):
    # the permutations of the roots by w and by w^-1, recorded together per w, are mutually inverse
    rd = load_root_datum(config)
    for w in rd.weyl_elements:
        image, preimage = rd.root_image(w), rd.root_preimage(w)
        assert all(preimage[image[chi]] == chi == image[preimage[chi]] for chi in rd.roots), w
        inverse = linalg.inverse(w)  # a Fraction inverse; no inverse is stored by the datum
        as_int = tuple(tuple(int(x) for x in row) for row in inverse)
        assert as_int == inverse and preimage == rd.root_image(as_int), w


def _longest_by_scan(rd, J):
    """w0_J as first defined: the one element of W_J sending every positive Levi coroot to a negative coroot."""
    levi = ParabolicType(rd, J).pos_coroots_levi
    found = [w for w in rd.subgroup(J) if all(min(rd.coroot_coords[linalg.mat_vec(w, a)]) < 0 for a in levi)]
    assert len(found) == 1, J
    return found[0]


LONGEST_DATA = [(name, name) for name in PRESET_NAMES] + [("D5", _inline("D5", _star(1, 1, 2)))]


@pytest.mark.parametrize("config", [row[1] for row in LONGEST_DATA], ids=[row[0] for row in LONGEST_DATA])
def test_longest_element_by_descent_is_the_scan_definition(config):
    rd = load_root_datum(config)
    for J in index_subsets(rd.n_simple):
        w0 = _longest_by_scan(rd, J)
        assert rd.longest_element(J) == w0, J
        assert ParabolicType(rd, J).w0_levi is rd.longest_element(reversed(J))  # memoised per J, not per order
    assert rd.w0 == _longest_by_scan(rd, range(rd.n_simple))


@pytest.mark.parametrize("config", [row[1] for row in LONGEST_DATA], ids=[row[0] for row in LONGEST_DATA])
def test_levi_split_agrees_with_the_rank_of_the_levi_simples(config):
    # a positive coroot (root) lies in the Levi iff it is a combination of J's simple coroots (roots): adding it keeps the rank |J|
    rd = load_root_datum(config)
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)

        def in_levi(simples, v):
            return linalg.rank([simples[j] for j in J] + [v]) == len(J)

        assert par.pos_coroots_levi == tuple(a for a in rd.positive_coroots if in_levi(rd.simple_coroots, a)), J
        assert par.pos_coroots_unipotent == tuple(a for a in rd.positive_coroots if not in_levi(rd.simple_coroots, a)), J
        assert par.pos_roots_levi == tuple(chi for chi in rd.positive_roots if in_levi(rd.simple_roots, chi)), J
        assert len(par.pos_roots_levi) == len(par.pos_coroots_levi), J


def _invariant_by_walk(par, values):
    """W_M-invariance as first tested: every element of W_M keeps the map."""
    return all(values.get(linalg.mat_vec(w, lam)) == v for w in par.rd.subgroup(par.indices) for lam, v in values.items())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_levi_invariance_on_the_generators_agrees_with_the_walk_over_w_m(name):
    rd = load_root_datum(name)
    rng = random.Random(7)
    s0 = rd.longest_element([0])  # s_0 is the longest element of W_{0}
    answers = set()
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        points = [tuple(rng.randint(-3, 3) for _ in range(rd.rank)) for _ in range(4)]
        invariant = {linalg.mat_vec(w, lam): k + 1 for k, lam in enumerate(points) for w in rd.subgroup(J)}
        moved = next((lam for lam in invariant if any(linalg.mat_vec(w, lam) != lam for w in rd.subgroup(J))), None)
        maps = [invariant]
        if moved is not None:  # a point off the fixed locus of W_M: change its value, or drop it
            maps += [{**invariant, moved: 0}, {lam: v for lam, v in invariant.items() if lam != moved}]
        lam = points[0]
        maps.append({lam: 1, linalg.mat_vec(s0, lam): 1})  # invariant under s_0 alone
        for values in maps:
            got = par.is_levi_invariant(values)
            assert got == _invariant_by_walk(par, values), (J, values)
            answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("name, cartan", [("E7", _star(1, 2, 3)), ("E8", _star(4, 2, 1))], ids=["E7", "E8"])
def test_weyl_group_over_the_cap_is_refused_before_enumerating(monkeypatch, name, cartan):
    def no_enumeration(items, reflections):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(rootdata, "orbit", no_enumeration)
    with pytest.raises(WeylEnumerationError, match="exceeds cap"):
        load_root_datum(_inline(name, cartan))


def test_an_enumeration_that_drops_an_element_fails_the_order_check(monkeypatch):
    orbit = rootdata.orbit

    def drops_one(items, reflections):
        return set(sorted(orbit(items, reflections))[:-1])

    monkeypatch.setattr(rootdata, "orbit", drops_one)
    rd = load_root_datum("B2")  # W is not enumerated at load, so the check runs on the first read
    with pytest.raises(RootDatumError, match="from the root heights"):
        rd.weyl_elements


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
    # the cap on the enumerated set still holds when the order from the heights is wrong: W is
    # enumerated on the first read of weyl_elements, not at load
    monkeypatch.setattr(rootdata, "weyl_order", lambda heights: 1)
    rd = RootDatum("B2-capped", 2, [[1, 0], [0, 1]], [[2, -1], [-2, 2]])
    with pytest.raises(WeylEnumerationError, match="exceeded cap"):
        rd.weyl_elements
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


def _config(**changes):
    """The A2 config with the given keys replaced; a value None removes its key."""
    config = {"name": "A2", "rank": 2, "cartan": [[2, -1], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]], "simple_roots": [[2, -1], [-1, 2]]}
    config.update(changes)
    return {k: v for k, v in config.items() if v is not None}


@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param(_config(simple_roots=[[2, -1]]), r"^simple root and coroot lists must have equal length$", id="unequal-lists"),
        pytest.param(_config(simple_coroots=[[1, 0], [0, 1, 0]]), r"^vector length does not match rank$", id="wrong-length"),
        pytest.param(
            _config(cartan=[[2, 1], [-1, 2]], simple_roots=[[2, 1], [-1, 2]]),
            r"^off-diagonal Cartan entries must be <= 0$",
            id="positive-off-diagonal",
        ),
        pytest.param(
            _config(cartan=[[2, 0], [-1, 2]], simple_roots=[[2, 0], [-1, 2]]),
            r"^Cartan matrix zero pattern must be symmetric$",
            id="asymmetric-zeros",
        ),
        pytest.param([["A2"]], r"^config must be a mapping$", id="not-a-mapping"),
        pytest.param("[1, 2]", r"^config must be a mapping$", id="json-not-a-mapping"),
        pytest.param(_config(cartan=None, rank=None), r"^config missing keys: \['cartan', 'rank'\]$", id="missing-keys"),
    ],
)
def test_load_refuses_a_malformed_config(config, message):
    with pytest.raises(RootDatumError, match=message):
        load_root_datum(config)


def test_parabolic_indices_out_of_range_are_refused():
    rd = load_root_datum("A2")
    for bad in ([2], [0, -1]):
        with pytest.raises(RootDatumError, match=rf"^parabolic indices out of range: \[{bad[-1]}\]$"):
            ParabolicType(rd, bad)
