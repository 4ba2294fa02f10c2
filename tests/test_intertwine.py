import random

import pytest

from heckelat import cones, hecke as hk, intertwine as iw
from heckelat.qfield import ONE, Q, ZERO, q_pow
from heckelat.rootdata import ParabolicType, load_root_datum, pair


def make_phi(rd, par, values):
    base = sorted(values) or [(0,) * rd.rank]
    window = cones.SupportShape.make(base, cones.neg_pos_U(par.indices))
    return iw.SphericalFunction(rd, par, values, window)


def test_zero_maps_to_zero():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 8)
    phi = make_phi(rd, par, {})
    assert iw.apply_R_K(rd, par, mu, phi).values == {}
    assert iw.apply_R_inverse_K(rd, par, mu.invert(), phi).values == {}


def test_rank_one_values_match_direct_convolution():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 16)
    phi = make_phi(rd, par, {(0,): ONE})
    out = iw.apply_R_K(rd, par, mu, phi)
    mu_ind = mu.to_basis(hk.INDICATOR_BASIS)
    for n in range(1, 6):
        # modulus-inverse prefactor times the measure of the level-n fiber
        assert out.value((-n,)) == q_pow(-2 * n) * mu_ind.coeff((n,))
    assert out.value((0,)) == ONE


def test_matrix_oracle_dense_convolution():
    # independent dense double loop over a window, maximal parabolic of A2
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    height = 15
    mu = hk.gk_mu(rd, par, height)
    scale = hk.twist_scale(par)
    kernel = mu.to_basis(hk.INDICATOR_BASIS, scale).coeffs
    rng = random.Random(23)
    pts = [(a, b) for a in range(-1, 2) for b in range(-1, 2)]
    values = {p: rng.randint(-4, 4) for p in pts}
    phi = make_phi(rd, par, values)
    outer = sorted(values)
    out = iw.apply_R_K(rd, par, mu, phi, out_points=outer)
    for lam in outer:
        dense = ZERO
        for theta, k in kernel.items():
            arg = tuple(a + b for a, b in zip(lam, theta))
            if arg in phi.values:
                dense = dense + k * phi.values[arg]
        twist = q_pow(scale * pair(par.two_rho_check_P, lam))
        assert out.value(lam) == twist * dense


@pytest.mark.parametrize("name,J", [("A1", []), ("A2", []), ("A2", [0]), ("A2", [1])])
def test_round_trip_both_orders(name, J):
    rng = random.Random(77)
    rd = load_root_datum(name)
    par = ParabolicType(rd, J)
    height = 18
    mu = hk.gk_mu(rd, par, height)
    nu_s = mu.invert()
    for _ in range(10):
        pts = {tuple(rng.randint(-1, 2) for _ in range(rd.rank)) for _ in range(4)}
        phi = make_phi(rd, par, {p: rng.randint(-5, 5) for p in pts})
        outer = sorted(phi.values)
        if not outer:
            continue
        need = sorted({tuple(a + b for a, b in zip(p, th)) for p in outer for th in mu.coeffs})
        fwd = iw.apply_R_K(rd, par, mu, phi, out_points=need)
        assert all(
            iw.apply_R_inverse_K(rd, par, nu_s, fwd, out_points=outer).value(p) == phi.value(p)
            for p in outer
        )
        inv = iw.apply_R_inverse_K(rd, par, nu_s, phi, out_points=need)
        assert all(
            iw.apply_R_K(rd, par, mu, inv, out_points=outer).value(p) == phi.value(p)
            for p in outer
        )


def test_truncation_error_is_raised():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 4)
    phi = make_phi(rd, par, {(2,): ONE})
    with pytest.raises(hk.TruncationError):
        iw.apply_R_K(rd, par, mu, phi, out_points=[(-4,)])


def test_window_propagation_class():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 12)
    phi = make_phi(rd, par, {(1, 1): ONE})
    out = iw.apply_R_K(rd, par, mu, phi)
    # output window has the downward cone type: every computed point sits below the base
    assert out.window.cone.tag == "neg_pos_U"
    for lam in out.values:
        assert out.window.contains(rd, lam)


def _asymptotics(rd, par, height):
    """The asymptotics of the basic spherical vector: the inverse series in the indicator basis."""
    return hk.nu(rd, par, height).to_basis(hk.INDICATOR_BASIS, hk.twist_scale(par))


def test_asymptotics_values():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    asymp = _asymptotics(rd, par, 6)
    assert asymp.coeff((0,)) == ONE
    assert asymp.coeff((1,)) == 1 - Q
    assert asymp.coeff((-1,)) == ZERO


def test_asymptotics_constant_value_on_all_presets():
    from heckelat.rootdata import PRESET_NAMES

    for name in PRESET_NAMES:
        rd = load_root_datum(name)
        par = ParabolicType(rd, [])
        assert _asymptotics(rd, par, 0).constant_term() == ONE
