import random

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
    with pytest.raises(hk.HeckeError, match=r"^mismatched parabolic types: ParabolicType\(A2, J=\[\]\) and ParabolicType\(A2, J=\[0\]\)$"):
        hk.convolve(s1, s2)
    b2 = load_root_datum("B2")  # same rank and J, another datum
    with pytest.raises(hk.HeckeError, match=r"^mismatched parabolic types: ParabolicType\(A2, J=\[\]\) and ParabolicType\(B2, J=\[\]\)$"):
        hk.convolve(s1, hk.GradedSeries.unit(b2, ParabolicType(b2, []), 6))
    rd2 = load_root_datum("A2")  # a second load of the preset is the same datum
    assert hk.convolve(s1, hk.GradedSeries.unit(rd2, ParabolicType(rd2, []), 6)) == s1


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
        for w in rd.subgroup(J):
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


@pytest.mark.parametrize("J", [[], [0]])  # twist_scale 1 and 2
def test_basis_conversion_is_made_once_per_series(J):
    rd = load_root_datum("A2")
    par = ParabolicType(rd, J)
    scale = par.twist_scale
    mu = hk.gk_mu(rd, par, 8)
    converted = mu.to_basis(hk.INDICATOR_BASIS, scale)
    assert mu.to_basis(hk.INDICATOR_BASIS, scale) is converted
    fresh = hk.gk_mu(rd, par, 8).to_basis(hk.INDICATOR_BASIS, scale)
    assert fresh is not converted and fresh == converted
    if scale == 1:  # the scale is part of the key: reading in u = q^{1/2} is another series
        assert mu.to_basis(hk.INDICATOR_BASIS, 2) != converted


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_twist_scale_is_computed_once_per_parabolic(name):
    rd = load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        recomputed = 1 if all(par.height(a) % 2 == 0 for a in par.pos_coroots_unipotent) else 2
        assert "twist_scale" not in vars(par)
        assert par.twist_scale == recomputed, (name, J)
        assert vars(par)["twist_scale"] == recomputed  # kept on the parabolic after the first read


def test_series_compare_their_datum_and_parabolic():
    rd = load_root_datum("A2")
    borel = hk.GradedSeries(rd, ParabolicType(rd, []), 4, {(0, 0): ONE})
    assert borel != hk.GradedSeries(rd, ParabolicType(rd, [0]), 4, {(0, 0): ONE})
    b2 = load_root_datum("B2")
    assert borel != hk.GradedSeries(b2, ParabolicType(b2, []), 4, {(0, 0): ONE})
    rd2 = load_root_datum("A2")  # a second load of the preset: equal by content
    assert borel == hk.GradedSeries(rd2, ParabolicType(rd2, []), 4, {(0, 0): ONE})


def test_series_are_read_only():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 4)
    with pytest.raises(TypeError):
        mu.coeffs[(1,)] = ONE
    with pytest.raises(TypeError):
        del mu.coeffs[(0,)]
    expected = {(0,): ONE, (1,): 1 - q_pow(-1), (2,): 1 - q_pow(-1)}
    assert mu.coeffs == expected and expected == mu.coeffs
    assert hk.GradedSeries(rd, par, 4, expected) == mu


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
    assert hk.in_support_cone(ParabolicType(a2_shaped, []), (1, 0))
    assert not hk.in_support_cone(ParabolicType(gl2_shaped, []), (1, 0))


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


def test_gk_and_nu_take_no_product_or_sum_with_a_zero(monkeypatch):
    zero_operands = []
    for name in ("__mul__", "__add__", "__sub__"):
        original = getattr(RatFunc, name)

        def counted(self, other, original=original, name=name):
            if self.is_zero() or as_ratfunc(other).is_zero():
                zero_operands.append(name)
            return original(self, other)

        monkeypatch.setattr(RatFunc, name, counted)
    for datum in PRESET_NAMES:
        rd = load_root_datum(datum)
        for J in index_subsets(rd.n_simple):
            par = ParabolicType(rd, J)
            for height in (4, 8):
                hk.gk_mu(rd, par, height)
                hk.nu(rd, par, height)
    assert zero_operands == []


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_invert_equals_its_reference_on_character_series(name):
    rd = load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        for piece in charring.u_P_graded_pieces(par):
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
    scale = par.twist_scale
    out = hk.GradedSeries.unit(rd, par, height)
    for piece in charring.u_P_graded_pieces(par):
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
            for piece in charring.u_P_graded_pieces(par):
                for t in (Q, q_pow(-1), q_pow(3), RatFunc((1,), (2,)), 2, 0, -1):
                    where = (name, J, piece.level, t, height)
                    assert charring.lambda_series(rd, par, t, piece, height) == _lambda_reference(rd, par, t, piece, height), where
                    assert charring.sym_series(rd, par, t, piece, height) == _sym_reference(rd, par, t, piece, height), where


# -- fused coefficient sums ---------------------------------------------------------------------


def test_a2_borel_convolve_and_invert_take_no_field_product_or_sum(monkeypatch):
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 8)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__"):
        original = getattr(RatFunc, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(RatFunc, name, counted)
    nu = mu.invert()
    assert hk.convolve(mu, nu) == hk.GradedSeries.unit(rd, par, 8)
    assert calls == []


def _cauchy_reference(s1, s2):
    """The cone-graded Cauchy product, one field product and one field sum per pair of support points."""
    h = min(s1.height, s2.height)
    out = {}
    for a, ca in s1.coeffs.items():
        for b, cb in s2.coeffs.items():
            key = tuple(x + y for x, y in zip(a, b))
            if s1.par.height(key) <= h:
                out[key] = out.get(key, ZERO) + ca * cb
    return hk.GradedSeries(s1.rd, s1.par, h, out, s1.basis)


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_convolve_and_invert_with_non_laurent_coefficients_match_the_cauchy_product(name):
    rd = load_root_datum(name)
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 6)
    unit = hk.GradedSeries.unit(rd, par, 6)
    half = {lam: c * RatFunc((1,), (2,)) if any(lam) else c for lam, c in mu.coeffs.items()}
    over_q_plus_1 = {lam: c / (1 + Q) if par.height(lam) == 2 else c for lam, c in mu.coeffs.items()}
    for coeffs in (half, over_q_plus_1, _skewed(mu).coeffs):
        s = hk.GradedSeries(rd, par, 6, coeffs)
        assert any(c._d != (1,) for c in s.coeffs.values())  # not every coefficient is a Laurent polynomial
        inv = s.invert()
        assert inv == _invert_reference(s)
        assert hk.convolve(s, mu) == _cauchy_reference(s, mu) and hk.convolve(mu, s) == _cauchy_reference(mu, s)
        assert hk.convolve(s, inv) == _cauchy_reference(s, inv) == unit


def test_lambda_series_hands_no_zero_coefficient_to_the_series(monkeypatch):
    rd = load_root_datum("A3")
    par = ParabolicType(rd, [])
    handed = []
    original = hk.GradedSeries._build

    def recording(rd, par, height, coeffs, basis=hk.E_BASIS):
        handed.extend(coeffs.values())
        return original(rd, par, height, coeffs, basis)

    monkeypatch.setattr(hk.GradedSeries, "_build", recording)
    for piece in charring.u_P_graded_pieces(par):
        for t in (ONE, -ONE, q_pow(piece.level), q_pow(-1)):
            s = charring.lambda_series(rd, par, t, piece, 8)
            assert s == _lambda_reference(rd, par, t, piece, 8)
    assert handed and not [c for c in handed if as_ratfunc(c).is_zero()]


def _rank_one_reference(rd, par, height, factors):
    """The product of the factors as a convolution of explicit series (1 - t e^a) and 1 + s e^a + s^2 e^2a + ..."""
    zero = (0,) * rd.rank
    out = hk.GradedSeries.unit(rd, par, height)
    for a, t, s in factors:
        geometric, n = {}, 0
        while n * par.height(a) <= height:
            geometric[tuple(n * x for x in a)] = s**n
            n += 1
        out = hk.convolve(out, hk.GradedSeries(rd, par, height, {zero: ONE, a: -t}))
        out = hk.convolve(out, hk.GradedSeries(rd, par, height, geometric))
    return out


def test_rank_one_product_matches_the_convolution_of_its_factors():
    rng = random.Random(20292)
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    a = par.pos_coroots_unipotent[0]
    # 1 + e^a times 1 - e^a: the coefficient at a cancels at a support point of the first factor
    assert hk.rank_one_product(rd, par, 8, [(a, -ONE, ZERO), (a, ONE, ZERO)]).coeffs == {(0, 0): ONE, tuple(2 * x for x in a): -ONE}
    values = [ZERO, ONE, -ONE, q_pow(-1), Q, RatFunc((1,), (2,))]
    for _ in range(60):
        factors = [(rng.choice(par.pos_coroots_unipotent), rng.choice(values), rng.choice(values)) for _ in range(rng.randint(1, 4))]
        height = rng.randint(0, 8)
        assert hk.rank_one_product(rd, par, height, factors) == _rank_one_reference(rd, par, height, factors), factors


# -- results built without a second check ---------------------------------------------------------


def _assert_checked_rebuild_agrees(s, where):
    """The checked constructor, given the coefficients of a series the algebra built, returns the same series."""
    assert hk.GradedSeries(s.rd, s.par, s.height, dict(s.coeffs), s.basis) == s, where
    assert not [lam for lam, c in s.coeffs.items() if c.is_zero()], where
    for lam in s.coeffs:
        assert all(type(x) is int for x in lam), (where, lam)
        assert s.par.height(lam) <= s.height and hk.in_support_cone(s.par, lam), (where, lam)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_built_series_equal_their_checked_rebuild(name):
    rd = load_root_datum(name)
    for J in index_subsets(rd.n_simple):
        par = ParabolicType(rd, J)
        height = 6
        scale = par.twist_scale
        mu, nu = hk.gk_mu(rd, par, height), hk.nu(rd, par, height)
        built = {"gk_mu": mu, "nu": nu, "invert": mu.invert(), "convolve": hk.convolve(mu, nu)}
        built["indicator"] = mu.to_basis(hk.INDICATOR_BASIS, scale)
        if scale == 1:  # at scale 2 the indicator basis does not convert back
            built["back to e"] = built["indicator"].to_basis(hk.E_BASIS)
        built["bridge"] = hk.satake_character_bridge(rd, par, mu)
        for piece in charring.u_P_graded_pieces(par):
            for t in (q_pow(int(scale * piece.level)), -ONE):
                built["lambda", piece.level, t] = charring.lambda_series(rd, par, t, piece, height)
                built["sym", piece.level, t] = charring.sym_series(rd, par, t, piece, height)
        for what, s in built.items():
            _assert_checked_rebuild_agrees(s, (name, J, what))


def test_rank_one_product_refuses_a_factor_outside_the_support_cone():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    a = (-1, 1)  # alpha_2-check minus alpha_1-check: positive height, but not in pos_U
    assert par.height(a) > 0
    with pytest.raises(hk.HeckeError, match="outside the support cone"):
        hk.rank_one_product(rd, par, 6, [(a, ONE, ZERO)])


def test_a_series_refuses_a_datum_that_is_not_its_parabolics():
    a2, b2 = load_root_datum("A2"), load_root_datum("B2")
    borel = ParabolicType(a2, [])
    with pytest.raises(hk.HeckeError, match=r"^datum B2 is not the datum of ParabolicType\(A2, J=\[\]\)$"):
        hk.GradedSeries(b2, borel, 4, {(0, 0): ONE})
    again = load_root_datum("A2")  # a second load of the preset is the same datum
    assert again is not a2
    assert hk.GradedSeries(again, borel, 4, {(0, 0): ONE, (1, 0): Q}) == hk.GradedSeries(a2, borel, 4, {(0, 0): ONE, (1, 0): Q})


def test_series_guards_name_what_they_refuse():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    with pytest.raises(hk.HeckeError, match=r"^unknown basis 'x'$"):
        hk.GradedSeries(rd, par, 4, {(0, 0): ONE}, "x")
    ind = hk.gk_mu(rd, par, 4).to_basis(hk.INDICATOR_BASIS)
    with pytest.raises(hk.HeckeError, match=r"^only the e-basis converts to the doubled indicator basis$"):
        ind.to_basis(hk.INDICATOR_BASIS, 2)
    with pytest.raises(hk.HeckeError, match=r"^mismatched bases; convert first$"):
        hk.convolve(hk.gk_mu(rd, par, 4), ind)
