import pytest

from heckelat import hecke as hk
from heckelat.qfield import ONE, Q
from heckelat.rootdata import load_root_datum, mat_apply, parabolic


def test_convolution_identities():
    rd = load_root_datum("A1")
    par = parabolic(rd, [])
    s = hk.GradedSeries(rd, par, 10, {(0,): ONE, (1,): ONE})
    unit = hk.GradedSeries.unit(rd, par, 10)
    assert hk.convolve(s, unit) == s
    t = hk.GradedSeries(rd, par, 10, {(0,): ONE, (1,): -1})
    st = hk.convolve(s, t)
    assert st.coeff((0,)) == ONE and st.coeff((1,)).is_zero() and st.coeff((2,)) == -ONE
    rd2 = load_root_datum("A2")
    par2 = parabolic(rd2, [])
    e1 = hk.GradedSeries(rd2, par2, 8, {(1, 0): ONE})
    e2 = hk.GradedSeries(rd2, par2, 8, {(0, 1): ONE})
    assert hk.convolve(e1, e2).coeff((1, 1)) == ONE


def test_convolution_rejects_mismatch():
    rd = load_root_datum("A2")
    s1 = hk.GradedSeries.unit(rd, parabolic(rd, []), 6)
    s2 = hk.GradedSeries.unit(rd, parabolic(rd, [0]), 6)
    with pytest.raises(hk.HeckeError):
        hk.convolve(s1, s2)


def test_gk_tables_rank_one():
    rd = load_root_datum("A1")
    par = parabolic(rd, [])
    ind = hk.gk_mu(rd, par, 14).to_basis(hk.INDICATOR_BASIS)
    assert ind.coeff((0,)) == ONE
    for n in range(1, 8):
        assert ind.coeff((n,)) == Q**n - Q ** (n - 1)
    nu_ind = hk.nu(rd, par, 14).to_basis(hk.INDICATOR_BASIS)
    assert nu_ind.coeff((0,)) == ONE
    for n in range(1, 8):
        assert nu_ind.coeff((n,)) == 1 - Q


def test_gk_table_a2():
    rd = load_root_datum("A2")
    par = parabolic(rd, [])
    ind = hk.gk_mu(rd, par, 8).to_basis(hk.INDICATOR_BASIS)
    # expanding the three factors by hand to height 4 and converting bases
    assert ind.coeff((1, 1)) == 2 * Q**2 - 3 * Q + 1
    assert ind.coeff((1, 0)) == Q - 1
    nu_s = hk.nu(rd, par, 8)
    assert nu_s.to_basis(hk.INDICATOR_BASIS).coeff((1, 0)) == 1 - Q


def test_gk_is_levi_invariant():
    rd = load_root_datum("B2")
    for J in ([], [0], [1]):
        par = parabolic(rd, J)
        mu = hk.gk_mu(rd, par, 8)
        assert par.is_levi_invariant(mu.coeffs)
        for w in par.weyl_levi:
            for lam, c in mu.coeffs.items():
                assert mu.coeff(tuple(int(x) for x in mat_apply(w, lam))) == c


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_inversion_to_height_ten(name):
    rd = load_root_datum(name)
    full = set(range(rd.n_simple))
    subsets = [[]] + sorted({tuple(sorted(full - {j})) for j in full})
    for J in subsets:
        par = parabolic(rd, list(J))
        mu = hk.gk_mu(rd, par, 10)
        nu_s = mu.invert()
        assert hk.convolve(mu, nu_s) == hk.GradedSeries.unit(rd, par, 10)
        assert nu_s.constant_term() == ONE


def test_invert_rejects_zero_constant_term():
    rd = load_root_datum("A1")
    par = parabolic(rd, [])
    s = hk.GradedSeries(rd, par, 6, {(1,): ONE})
    with pytest.raises(hk.HeckeError):
        s.invert()


def test_basis_conversion_roundtrip_and_halfpow_error():
    rd = load_root_datum("A2")
    par0 = parabolic(rd, [])
    mu = hk.gk_mu(rd, par0, 6)
    assert mu.to_basis(hk.INDICATOR_BASIS).to_basis(hk.E_BASIS) == mu
    par1 = parabolic(rd, [0])
    mu1 = hk.gk_mu(rd, par1, 6)
    with pytest.raises(hk.HeckeError):
        mu1.to_basis(hk.INDICATOR_BASIS)  # needs q^{3/2}


def test_satake_bridge_values():
    rd = load_root_datum("A1")
    par = parabolic(rd, [])
    mu = hk.gk_mu(rd, par, 8)
    bridged = hk.satake_character_bridge(rd, par, mu)
    assert bridged.coeff((1,)) == Q - 1
    unit = hk.GradedSeries.unit(rd, par, 8)
    assert hk.satake_character_bridge(rd, par, unit).coeff((0,)) == ONE


def test_satake_bridge_is_multiplicative():
    rd = load_root_datum("A2")
    par = parabolic(rd, [])
    mu = hk.gk_mu(rd, par, 6)
    nu_s = mu.invert()
    lhs = hk.satake_character_bridge(rd, par, hk.convolve(mu, nu_s))
    rhs = hk.satake_character_bridge(rd, par, mu) * hk.satake_character_bridge(rd, par, nu_s)
    assert lhs == rhs


def test_bridge_rejects_non_invariant():
    rd = load_root_datum("A2")
    par = parabolic(rd, [0])
    s = hk.GradedSeries(rd, par, 6, {(0, 0): ONE, (0, 1): Q})
    with pytest.raises(hk.HeckeError):
        hk.satake_character_bridge(rd, par, s)


@pytest.mark.parametrize(
    "name,J",
    [("A1", []), ("A2", []), ("B2", []), ("G2", []), ("A2", [0]), ("B2", [1]), ("A3", [0, 2])],
)
def test_series_reformulations(name, J):
    rd = load_root_datum(name)
    par = parabolic(rd, J)
    assert hk.verify_series_reformulation(rd, par, 8)
    assert hk.verify_smu_snu_unit(rd, par, 8)
    assert hk.verify_alternating_sym_expansion(rd, par, 8)


def test_expansion_to_height_ten_rank_one():
    rd = load_root_datum("A1")
    assert hk.verify_alternating_sym_expansion(rd, parabolic(rd, []), 10)


def test_height_slab_is_finite():
    rd = load_root_datum("G2")
    par = parabolic(rd, [])
    mu = hk.gk_mu(rd, par, 10)
    heights = {}
    for lam in mu.coeffs:
        h = par.height(lam)
        heights[h] = heights.get(h, 0) + 1
    assert all(count < 100 for count in heights.values())
    assert max(heights) <= 10


def test_cone_memo_is_keyed_on_content_not_name():
    from heckelat.rootdata import RootDatum

    a2_shaped = RootDatum("X", 2, [[1, 0], [0, 1]], [[2, -1], [-1, 2]])
    gl2_shaped = RootDatum("X", 2, [[1, -1]], [[1, -1]])
    assert hk.in_support_cone(a2_shaped, parabolic(a2_shaped, []), (1, 0))
    assert not hk.in_support_cone(gl2_shaped, parabolic(gl2_shaped, []), (1, 0))
