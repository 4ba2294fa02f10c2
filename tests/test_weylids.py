import pytest

from heckelat import weylids as wi
from heckelat.linalg import mat_vec
from heckelat.rootdata import ParabolicType, index_subsets, load_root_datum


def ident(rank):
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def test_parabolic_sign():
    rd = load_root_datum("A2")
    assert wi.parabolic_sign(rd, []) == 1
    assert wi.parabolic_sign(rd, [0]) == -1
    assert wi.parabolic_sign(rd, [0, 1]) == 1
    rd3 = load_root_datum("B3")
    assert wi.parabolic_sign(rd3, [1]) == 1  # (-1)^(3-1)
    # multiplicative under disjoint index unions
    assert wi.parabolic_sign(rd3, [0, 2]) == -1


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "GL2"])
def test_w_bullet_set_agrees_with_its_coroot_side_definition(name):
    # second route to the same set: act on coweights by the matrices themselves
    # instead of on roots by root_image
    rd = load_root_datum(name)
    positive = set(rd.positive_coroots)
    for J in index_subsets(rd.n_simple):
        for J2 in index_subsets(rd.n_simple):
            par, par2 = ParabolicType(rd, J), ParabolicType(rd, J2)
            expected = [
                w
                for w in rd.weyl_elements
                if all(mat_vec(w, a) in positive for a in par.pos_coroots_levi)
                and all(mat_vec(rd.w_inverse(w), a) in positive for a in par2.pos_coroots_levi)
            ]
            assert wi.w_bullet_set(rd, par, par2) == expected, (name, J, J2)


def test_w_bullet_counts():
    rd = load_root_datum("A2")
    torus = ParabolicType(rd, [])
    assert len(wi.w_bullet_set(rd, torus, torus)) == 6
    for Ja, Jb in [([], []), ([0], [1]), ([0], [0]), ([0, 1], []), ([], [0, 1])]:
        pa, pb = ParabolicType(rd, Ja), ParabolicType(rd, Jb)
        assert ident(2) in wi.w_bullet_set(rd, pa, pb)
        assert wi.check_w_bullet_transversal(rd, pa, pb)


def test_w_bullet_transversal_b2():
    rd = load_root_datum("B2")
    p1, p2 = ParabolicType(rd, [0]), ParabolicType(rd, [1])
    bullets = wi.w_bullet_set(rd, p1, p2)
    assert len(bullets) == len({wi.double_coset(rd, p1, p2, w) for w in rd.weyl_elements})
    assert wi.check_w_bullet_transversal(rd, p1, p2)


def test_transversal_fails_when_a_bullet_is_dropped(monkeypatch):
    rd = load_root_datum("B2")
    p1, p2 = ParabolicType(rd, [0]), ParabolicType(rd, [1])
    bullets = wi.w_bullet_set(rd, p1, p2)
    monkeypatch.setattr(wi, "w_bullet_set", lambda rd, par, par2: bullets[1:])
    assert not wi.check_w_bullet_transversal(rd, p1, p2)


def test_transversal_fails_when_a_covered_coset_gains_a_bullet(monkeypatch):
    rd = load_root_datum("B2")
    p1, p2 = ParabolicType(rd, [0]), ParabolicType(rd, [1])
    bullets = wi.w_bullet_set(rd, p1, p2)
    extra = next(w for w in wi.double_coset(rd, p1, p2, bullets[0]) if w != bullets[0])
    monkeypatch.setattr(wi, "w_bullet_set", lambda rd, par, par2: [*bullets, extra])
    assert not wi.check_w_bullet_transversal(rd, p1, p2)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "GL2"])
def test_vanishing_sweeps(name):
    rd = load_root_datum(name)
    rep_a = wi.verify_vanishing_A(rd)
    assert rep_a.passed, rep_a.witnesses
    rep_b = wi.verify_vanishing_B(rd)
    assert rep_b.passed, rep_b.witnesses


def test_moebius_examples():
    rd = load_root_datum("A2")
    # from the Borel: 1 - 2 + 1 = 0
    sub = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    assert sum(wi.parabolic_sign(rd, j) for j in sub) == 0
    # from the full group: a single term +1
    assert wi.parabolic_sign(rd, [0, 1]) == 1


def test_a1_survivor_is_levi_longest_element():
    # for the Borel of the rank-one datum the surviving translate is the identity
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    assert par.w0_levi == ident(1)
    rep = wi.verify_vanishing_A(rd)
    assert rep.passed
