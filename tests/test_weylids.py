import pytest

from heckelat import weylids as wi
from heckelat.linalg import inverse, mat_mul, mat_vec
from heckelat.rootdata import PRESET_NAMES, ParabolicType, index_subsets, load_root_datum


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
                and all(mat_vec(inverse(w), a) in positive for a in par2.pos_coroots_levi)
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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_double_coset_closure_is_the_set_of_all_products(name):
    # the double coset as first enumerated: a w b for every a in W_{M'} and b in W_M, as matrix products
    rd = load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        for J2 in index_subsets(rd.n_simple):
            par, par2 = ParabolicType(rd, J), ParabolicType(rd, J2)
            for w in wi.w_bullet_set(rd, par, par2):
                products = {mat_mul(a, mat_mul(w, b)) for a in rd.subgroup(J2) for b in rd.subgroup(J)}
                assert wi.double_coset(rd, par, par2, w) == products, (name, J, J2, w)


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


def test_sweeps_refuse_a_datum_above_the_rank_cap():
    # inline A5: rank 5 > RANK_CAP, |W| = 720
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5)] for i in range(5)]
    coroots = [[int(i == j) for j in range(5)] for i in range(5)]
    rd = load_root_datum({"name": "A5", "rank": 5, "cartan": cartan, "simple_coroots": coroots, "simple_roots": cartan})
    assert rd.rank == 5 > wi.RANK_CAP
    for sweep in (wi.verify_vanishing_A, wi.verify_vanishing_B):
        with pytest.raises(wi.WeylIdentityError, match=r"^rank 5 exceeds the sweep cap 4$"):
            sweep(rd)


def reference_vanishing_A(rd):
    """Sweep A as first written: every per-datum and per-w' set rebuilt for each (J, w') case."""
    report = wi.VanishingReport(rd.name, "A")
    simple_set = set(rd.simple_roots)
    neg_roots = [tuple(-x for x in chi) for chi in rd.positive_roots]
    for indices in index_subsets(rd.n_simple):
        par = ParabolicType(rd, indices)
        roots_m = set(par.roots_levi)
        for w in rd.weyl_elements:
            report.cases += 1
            image = rd.root_image(w)
            translated_neg = {image[chi] for chi in neg_roots}
            translated_m = {image[chi] for chi in roots_m}
            constraint_lower = {chi for chi in simple_set if chi in translated_m}
            constraint_upper = {chi for chi in simple_set if chi in translated_neg}
            total = 0
            admissible = []
            for j2 in index_subsets(rd.n_simple):
                simples_m2 = {rd.simple_roots[j] for j in j2}
                if simples_m2 <= constraint_upper and constraint_lower <= simples_m2:
                    total += wi.parabolic_sign(rd, j2)
                    admissible.append(frozenset(j2))
            no_simple_hit = not ({image[chi] for chi in neg_roots if chi not in roots_m} & simple_set)
            if total != 0 and not no_simple_hit:
                report.fail(f"J={sorted(indices)} w'={w}: nonzero sum hits a simple root")
            if w == par.w0_levi:
                if total != wi.parabolic_sign(rd, indices) or admissible != [frozenset(indices)]:
                    report.fail(f"J={sorted(indices)} w'=w0_M: sum {total}, admissible {admissible}")
            elif total != 0:
                report.fail(f"J={sorted(indices)} w'={w}: nonzero sum {total}")
    return report


def reference_vanishing_B(rd):
    """Sweep B as first written: the index sets re-sorted for every subset, the extra subsets rebuilt for every J1."""
    report = wi.VanishingReport(rd.name, "B")
    for j2 in index_subsets(rd.n_simple):
        par2 = ParabolicType(rd, j2)
        pos_m2 = set(par2.pos_roots_levi)
        survivor = mat_mul(par2.w0_levi, rd.w0)
        for w in rd.weyl_elements:
            inv_image = rd.root_preimage(w)
            if not all(wi._is_positive_root(rd, inv_image[chi]) for chi in par2.pos_roots_levi):
                continue
            report.cases += 1
            image = rd.root_image(w)
            simple_images = [image[chi] for chi in rd.simple_roots]
            inside = frozenset(j for j, chi in enumerate(simple_images) if chi in pos_m2)
            outside_pos = frozenset(
                j for j, chi in enumerate(simple_images) if j not in inside and wi._is_positive_root(rd, chi)
            )
            if (not outside_pos) != (w == survivor):
                report.fail(f"J'={sorted(j2)}: D empty iff w = w0^M' w0 fails at {w}")
            for j1 in index_subsets(len(inside)):
                j1_set = frozenset(sorted(inside)[i] for i in j1)
                total = 0
                for extra in index_subsets(len(outside_pos)):
                    extra_set = frozenset(sorted(outside_pos)[i] for i in extra)
                    total += wi.parabolic_sign(rd, j1_set | extra_set)
                if outside_pos and total != 0:
                    report.fail(f"J'={sorted(j2)} w={w} J1={sorted(j1_set)}: sum {total} != 0")
                if not outside_pos and total != wi.parabolic_sign(rd, j1_set):
                    report.fail(f"J'={sorted(j2)} w={w}: surviving sum wrong")
    full = frozenset(range(rd.n_simple))
    for j2 in index_subsets(rd.n_simple):
        total = sum(wi.parabolic_sign(rd, j) for j in index_subsets(rd.n_simple) if frozenset(j2) <= frozenset(j))
        expected = wi.parabolic_sign(rd, full) if frozenset(j2) == full else 0
        report.cases += 1
        if total != expected:
            report.fail(f"Moebius sum from J2={sorted(j2)} is {total}, expected {expected}")
    return report


# (cases of sweep A, cases of sweep B): the perfbench sweep tasks hash these counts
SWEEP_CASES = {"A1": (4, 5), "A2": (24, 17), "B2": (32, 21), "G2": (48, 29), "A3": (192, 83), "B3": (384, 155), "C3": (384, 155)}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sweeps_report_what_the_per_case_reference_reports(name):
    rd = load_root_datum(name)
    for sweep, reference in ((wi.verify_vanishing_A, reference_vanishing_A), (wi.verify_vanishing_B, reference_vanishing_B)):
        assert sweep(rd) == reference(rd), (name, sweep.__name__)
    if name in SWEEP_CASES:
        assert (wi.verify_vanishing_A(rd).cases, wi.verify_vanishing_B(rd).cases) == SWEEP_CASES[name]


def test_sweeps_fail_like_the_reference_under_a_flipped_sign(monkeypatch):
    rd = load_root_datum("A2")
    original = wi.parabolic_sign
    monkeypatch.setattr(wi, "parabolic_sign", lambda rd, J: -original(rd, J) if frozenset(J) == {0} else original(rd, J))
    for sweep, reference in ((wi.verify_vanishing_A, reference_vanishing_A), (wi.verify_vanishing_B, reference_vanishing_B)):
        report = sweep(rd)
        assert not report.passed and report.witnesses
        assert report == reference(rd), sweep.__name__
