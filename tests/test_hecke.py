import pytest

from heckelat import charring
from heckelat import hecke as hk
from heckelat.qfield import ONE, Q, ZERO, RatFunc, as_ratfunc, q_pow
from heckelat.linalg import mat_vec
from heckelat.rootdata import PRESET_NAMES, ParabolicType, index_subsets, load_root_datum


def test_convolution_identities():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    s = hk.GradedSeries(rd, par, 10, {(0,): ONE, (1,): ONE})
    unit = hk.GradedSeries.unit(rd, par, 10)
    assert hk.convolve(s, unit) == s
    t = hk.GradedSeries(rd, par, 10, {(0,): ONE, (1,): -1})
    st = hk.convolve(s, t)
    assert st.coeff((0,)) == ONE and st.coeff((1,)).is_zero() and st.coeff((2,)) == -ONE
    rd2 = load_root_datum("A2")
    par2 = ParabolicType(rd2, [])
    e1 = hk.GradedSeries(rd2, par2, 8, {(1, 0): ONE})
    e2 = hk.GradedSeries(rd2, par2, 8, {(0, 1): ONE})
    assert hk.convolve(e1, e2).coeff((1, 1)) == ONE


def test_convolution_rejects_mismatch():
    rd = load_root_datum("A2")
    s1 = hk.GradedSeries.unit(rd, ParabolicType(rd, []), 6)
    s2 = hk.GradedSeries.unit(rd, ParabolicType(rd, [0]), 6)
    with pytest.raises(hk.HeckeError):
        hk.convolve(s1, s2)


def test_gk_tables_rank_one():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
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
    par = ParabolicType(rd, [])
    ind = hk.gk_mu(rd, par, 8).to_basis(hk.INDICATOR_BASIS)
    # expanding the three factors by hand to height 4 and converting bases
    assert ind.coeff((1, 1)) == 2 * Q**2 - 3 * Q + 1
    assert ind.coeff((1, 0)) == Q - 1
    nu_s = hk.nu(rd, par, 8)
    assert nu_s.to_basis(hk.INDICATOR_BASIS).coeff((1, 0)) == 1 - Q


def test_gk_is_levi_invariant():
    rd = load_root_datum("B2")
    for J in ([], [0], [1]):
        par = ParabolicType(rd, J)
        mu = hk.gk_mu(rd, par, 8)
        assert par.is_levi_invariant(mu.coeffs)
        for w in par.weyl_levi:
            for lam, c in mu.coeffs.items():
                assert mu.coeff(tuple(int(x) for x in mat_vec(w, lam))) == c


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_inversion_to_height_ten(name):
    rd = load_root_datum(name)
    full = set(range(rd.n_simple))
    subsets = [[]] + sorted({tuple(sorted(full - {j})) for j in full})
    for J in subsets:
        par = ParabolicType(rd, list(J))
        mu = hk.gk_mu(rd, par, 10)
        nu_s = mu.invert()
        assert hk.convolve(mu, nu_s) == hk.GradedSeries.unit(rd, par, 10)
        assert nu_s.constant_term() == ONE


def test_invert_rejects_zero_constant_term():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    s = hk.GradedSeries(rd, par, 6, {(1,): ONE})
    with pytest.raises(hk.HeckeError):
        s.invert()


def test_basis_conversion_roundtrip_and_halfpow_error():
    rd = load_root_datum("A2")
    par0 = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par0, 6)
    assert mu.to_basis(hk.INDICATOR_BASIS).to_basis(hk.E_BASIS) == mu
    par1 = ParabolicType(rd, [0])
    mu1 = hk.gk_mu(rd, par1, 6)
    with pytest.raises(hk.HeckeError):
        mu1.to_basis(hk.INDICATOR_BASIS)  # needs q^{3/2}


def test_satake_bridge_values():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 8)
    bridged = hk.satake_character_bridge(rd, par, mu)
    assert bridged.coeff((1,)) == Q - 1
    unit = hk.GradedSeries.unit(rd, par, 8)
    assert hk.satake_character_bridge(rd, par, unit).coeff((0,)) == ONE


def test_satake_bridge_is_multiplicative():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 6)
    nu_s = mu.invert()
    lhs = hk.satake_character_bridge(rd, par, hk.convolve(mu, nu_s))
    rhs = hk.satake_character_bridge(rd, par, mu) * hk.satake_character_bridge(rd, par, nu_s)
    assert lhs == rhs


def test_bridge_rejects_non_invariant():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    s = hk.GradedSeries(rd, par, 6, {(0, 0): ONE, (0, 1): Q})
    with pytest.raises(hk.HeckeError):
        hk.satake_character_bridge(rd, par, s)


@pytest.mark.parametrize(
    "name,J",
    [("A1", []), ("A2", []), ("B2", []), ("G2", []), ("A2", [0]), ("B2", [1]), ("A3", [0, 2])],
)
def test_series_reformulations(name, J):
    rd = load_root_datum(name)
    par = ParabolicType(rd, J)
    assert hk.verify_series_reformulation(rd, par, 8)
    assert hk.verify_smu_snu_unit(rd, par, 8)
    assert hk.verify_alternating_sym_expansion(rd, par, 8)


def test_expansion_to_height_ten_rank_one():
    rd = load_root_datum("A1")
    assert hk.verify_alternating_sym_expansion(rd, ParabolicType(rd, []), 10)


def test_height_slab_is_finite():
    rd = load_root_datum("G2")
    par = ParabolicType(rd, [])
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
    assert hk.in_support_cone(a2_shaped, ParabolicType(a2_shaped, []), (1, 0))
    assert not hk.in_support_cone(gl2_shaped, ParabolicType(gl2_shaped, []), (1, 0))


# -- reference implementations: the local series as first written -------------------------------


def _invert_reference(s):
    """Pull-form Neumann inversion: every sum of support points up to the height, each reading the whole support."""
    c0 = s.constant_term()
    zero = (0,) * s.rd.rank
    pos = {k: v for k, v in s.coeffs.items() if k != zero}
    seen, frontier = {zero}, [zero]
    while frontier:
        new = []
        for p in frontier:
            for g in pos:
                q = tuple(a + b for a, b in zip(p, g))
                if q not in seen and s.par.height(q) <= s.height:
                    seen.add(q)
                    new.append(q)
        frontier = new
    inv = {zero: ONE / c0}
    for lam in sorted(seen, key=lambda v: (s.par.height(v), v)):
        if lam == zero:
            continue
        acc = ZERO
        for mu, cmu in pos.items():
            prev = inv.get(tuple(a - b for a, b in zip(lam, mu)))
            if prev is not None:
                acc = acc + cmu * prev
        inv[lam] = -acc / c0
    return hk.GradedSeries(s.rd, s.par, s.height, inv, s.basis)


def _gk_mu_reference(rd, par, height):
    """The GK series as a convolution of dense factors 1 + (1 - q^-1)(e^a + e^2a + ...)."""
    zero = (0,) * rd.rank
    out = hk.GradedSeries.unit(rd, par, height)
    for a in par.pos_coroots_unipotent:
        factor, n = {zero: ONE}, 1
        while n * par.height(a) <= height:
            factor[tuple(n * x for x in a)] = ONE - q_pow(-1)
            n += 1
        out = hk.convolve(out, hk.GradedSeries(rd, par, height, factor))
    return out


def _skewed(s):
    """s with constant term 3 - q and every other coefficient times (1 + hq)/(2 - q), h its height."""
    out = {}
    for lam, c in s.coeffs.items():
        h = s.par.height(lam)
        out[lam] = RatFunc((3, -1), (1,)) if h == 0 else c * RatFunc((1, h), (2, -1))
    return hk.GradedSeries(s.rd, s.par, s.height, out, s.basis)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_local_series_equal_their_references(name):
    rd = load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        for height in range(10):
            mu = _gk_mu_reference(rd, par, height)
            assert hk.gk_mu(rd, par, height) == mu, (name, J, height)
            assert hk.nu(rd, par, height) == _invert_reference(mu), (name, J, height)
            assert mu.invert() == _invert_reference(mu), (name, J, height)
            skewed = _skewed(mu)
            assert skewed.invert() == _invert_reference(skewed), (name, J, height)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_invert_equals_its_reference_on_character_series(name):
    rd = load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        for piece in charring.u_P_graded_pieces(rd, par):
            for build in (charring.lambda_series, charring.sym_series):
                s = build(rd, par, q_pow(2), piece, 8)
                assert s.invert() == _invert_reference(s), (name, J, piece.level)


def _lambda_reference(rd, par, t, piece, height):
    """The Lambda-series as a convolution of the explicit factors 1 - t e^w."""
    zero = (0,) * rd.rank
    out = hk.GradedSeries.unit(rd, par, height)
    for w in piece.weights:
        out = hk.convolve(out, hk.GradedSeries(rd, par, height, {zero: ONE, w: -t}))
    return out


def _sym_reference(rd, par, t, piece, height):
    """The Sym-series as a convolution of the explicit geometric factors 1 + t e^w + t^2 e^2w + ..."""
    out = hk.GradedSeries.unit(rd, par, height)
    for w in piece.weights:
        factor, n = {}, 0
        while n * par.height(w) <= height:
            factor[tuple(n * x for x in w)] = as_ratfunc(t) ** n
            n += 1
        out = hk.convolve(out, hk.GradedSeries(rd, par, height, factor))
    return out


def _lambda_ratio_reference(rd, par, height, swap):
    """The Lambda-ratio side as lambda_series(num) * lambda_series(den).invert(), piece by piece."""
    scale = hk.twist_scale(par)
    out = hk.GradedSeries.unit(rd, par, height)
    for piece in charring.u_P_graded_pieces(rd, par):
        num_t, den_t = q_pow(int(scale * (piece.level - 1))), q_pow(int(scale * piece.level))
        if swap:
            num_t, den_t = den_t, num_t
        num = charring.lambda_series(rd, par, num_t, piece, height)
        out = out * (num * charring.lambda_series(rd, par, den_t, piece, height).invert())
    return out


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_character_series_equal_their_references(name):
    rd = load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        for height in range(7):
            for swap in (False, True):
                want = _lambda_ratio_reference(rd, par, height, swap)
                assert hk._lambda_product_side(rd, par, height, swap) == want, (name, J, height, swap)
            for piece in charring.u_P_graded_pieces(rd, par):
                for t in (Q, q_pow(-1), q_pow(3), RatFunc((1,), (2,)), 2, 0, -1):
                    where = (name, J, piece.level, t, height)
                    assert charring.lambda_series(rd, par, t, piece, height) == _lambda_reference(rd, par, t, piece, height), where
                    assert charring.sym_series(rd, par, t, piece, height) == _sym_reference(rd, par, t, piece, height), where
