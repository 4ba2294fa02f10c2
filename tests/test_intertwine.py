import itertools
import random
import re

import pytest

from heckelat import cones, hecke as hk, intertwine as iw
from heckelat.qfield import ONE, Q, ZERO, q_pow
from heckelat.rootdata import PRESET_NAMES, ParabolicType, index_subsets, load_root_datum, pair


def make_phi(rd, par, values):
    base = sorted(values) or [(0,) * rd.rank]
    window = cones.SupportShape.make(base, cones.neg_pos_U(par.indices))
    return iw.SphericalFunction(rd, par, values, window)


def checked(out, par):
    """An intertwiner output, after asserting that it lies on the operator's J and that the checked constructor
    accepts its values in its window unchanged."""
    assert out.par.indices == par.indices
    assert not [lam for lam, v in out.values.items() if v.is_zero()]
    assert iw.SphericalFunction(out.rd, out.par, out.values, out.window) == out
    return out


def test_a_support_point_outside_the_declared_window_is_refused():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    window = cones.SupportShape.make([(0, 0)], cones.neg_pos_U(par.indices))
    inside = iw.SphericalFunction(rd, par, {(0, 0): ONE, (-1, -1): Q, (0, -1): ONE}, window)
    assert set(inside.values) == {(0, 0), (-1, -1), (0, -1)}
    # (-1, 0) is minus a Levi coroot, and (1, 1) lies above the base point: neither is in -pos_U
    for outside in ((-1, 0), (1, 1)):
        for values in ({(0, 0): ONE, outside: Q}, {outside: Q}):
            with pytest.raises(iw.IntertwineError, match="outside the declared window"):
                iw.SphericalFunction(rd, par, values, window)
        iw.SphericalFunction(rd, par, {outside: ZERO}, window)  # a zero value is no support point


def test_functions_compare_their_parabolic_and_window():
    rd = load_root_datum("A2")
    borel, p0 = ParabolicType(rd, []), ParabolicType(rd, [0])
    assert make_phi(rd, borel, {(0, 0): ONE}) != make_phi(rd, p0, {(0, 0): ONE})

    def window(*base):
        return cones.SupportShape.make(base, cones.neg_pos_U(p0.indices))

    phi = iw.SphericalFunction(rd, p0, {(0, 0): ONE}, window((0, 0)))
    assert phi != iw.SphericalFunction(rd, p0, {(0, 0): ONE}, window((0, 0), (1, 1)))
    rd2 = load_root_datum("A2")  # a second load of the preset: equal by content
    assert phi == iw.SphericalFunction(rd2, ParabolicType(rd2, [0]), {(0, 0): ONE}, window((0, 0)))


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
    scale = par.twist_scale
    kernel = mu.to_basis(hk.INDICATOR_BASIS, scale).coeffs
    rng = random.Random(23)
    pts = [(a, b) for a in range(-1, 2) for b in range(-1, 2)]
    values = {p: rng.randint(-4, 4) for p in pts}
    phi = make_phi(rd, par, values)
    # all nine points of the window push; three points, one below the window, pull
    for outer in (sorted(values), [(-1, -1), (0, 1), (-2, -1)]):
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
        fwd = checked(iw.apply_R_K(rd, par, mu, phi, out_points=need), par)
        back = checked(iw.apply_R_inverse_K(rd, par, nu_s, fwd, out_points=outer), par)
        assert all(back.value(p) == phi.value(p) for p in outer)
        inv = checked(iw.apply_R_inverse_K(rd, par, nu_s, phi, out_points=need), par)
        back = checked(iw.apply_R_K(rd, par, mu, inv, out_points=outer), par)
        assert all(back.value(p) == phi.value(p) for p in outer)


ROUNDTRIP_CASES = [("A1", []), ("A2", []), ("A2", [0]), ("A2", [1])]
PRESET_CASES = [(name, J) for name in PRESET_NAMES for J in index_subsets(load_root_datum(name).n_simple)]


@pytest.mark.parametrize(
    "name,J,box,extra_height",
    [pytest.param(name, J, (-1, 2), 18, id=f"roundtrip-{name}-J{''.join(map(str, J))}") for name, J in ROUNDTRIP_CASES]
    + [pytest.param(name, J, (-1, 1), 2, id=f"{name}-J{''.join(map(str, J))}") for name, J in PRESET_CASES],
)
def test_pulled_outputs_equal_pushed_outputs(name, J, box, extra_height):
    """A few requested outputs (fewer than the input points: the pull loop) read the same values as
    every certified output (a request that holds each input point: the push loop), for R and R^-1."""
    rng = random.Random(f"{name} {J}")
    rd = load_root_datum(name)
    par = ParabolicType(rd, J)
    grid = list(itertools.product(range(box[0], box[1] + 1), repeat=rd.rank))
    pts = rng.sample(grid, min(5, len(grid)))
    phi = make_phi(rd, par, {p: rng.choice((-3, -2, -1, 1, 2, 3)) for p in pts})
    low = min(phi.values, key=par.height)
    height = phi.max_height() - par.height(low) + extra_height
    for series, apply in ((hk.gk_mu(rd, par, height), iw.apply_R_K), (hk.nu(rd, par, height), iw.apply_R_inverse_K)):
        pushed = checked(apply(rd, par, series, phi), par)
        requested = sorted({low, *rng.sample(sorted(pushed.values), min(2, len(phi.values) - 2))})
        assert len(requested) < len(phi.values)
        pulled = checked(apply(rd, par, series, phi, out_points=requested), par)
        assert set(pulled.values) <= set(requested)
        for lam in requested:
            assert pulled.value(lam) == pushed.value(lam), (name, J, apply.__name__, lam)


def test_truncation_error_is_raised():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 4)
    phi = make_phi(rd, par, {(2,): ONE})
    with pytest.raises(hk.TruncationError):
        iw.apply_R_K(rd, par, mu, phi, out_points=[(-4,)])


def test_a_function_of_another_parabolic_is_refused():
    # phi lives on J = [0]; its heights under the Levi's 2rho_P would certify a Borel height-3 series
    # at (1, -1), where the Borel needs height 6 (certified value 2q^3 - 3q^2 + q + 1, not phi's 1)
    rd = load_root_datum("A2")
    borel, levi = ParabolicType(rd, []), ParabolicType(rd, [0])
    values = {(1, -1): ONE, (1, 1): ONE, (2, 1): ONE}
    mu = hk.gk_mu(rd, borel, 3)
    for apply in (iw.apply_R_K, iw.apply_R_inverse_K):
        with pytest.raises(iw.IntertwineError, match=r"function parabolic ParabolicType\(A2, J=\[0\]\) does not match the operator's ParabolicType\(A2, J=\[\]\)"):
            apply(rd, borel, mu, make_phi(rd, levi, values))
    phi = make_phi(rd, borel, values)
    with pytest.raises(hk.TruncationError, match="needs height 6"):
        iw.apply_R_K(rd, borel, mu, phi, out_points=[(1, -1)])
    certified = iw.apply_R_K(rd, borel, hk.gk_mu(rd, borel, 6), phi, out_points=[(1, -1)])
    assert certified.value((1, -1)) == 2 * Q**3 - 3 * Q**2 + Q + 1


def test_a_series_of_another_parabolic_is_refused():
    rd = load_root_datum("A2")
    borel, levi = ParabolicType(rd, []), ParabolicType(rd, [0])
    b2 = load_root_datum("B2")
    b2_borel = ParabolicType(b2, [])  # the same rank and J on another datum
    phi = make_phi(rd, borel, {(0, 0): ONE})
    for other, series in ((levi, hk.gk_mu), (b2_borel, hk.gk_mu), (b2_borel, hk.nu)):
        for apply in (iw.apply_R_K, iw.apply_R_inverse_K):
            with pytest.raises(iw.IntertwineError, match=rf"^series parabolic {re.escape(repr(other))} does not match the operator's ParabolicType\(A2, J=\[\]\)$"):
                apply(rd, borel, series(other.rd, other, 4), phi)
    rd2 = load_root_datum("A2")  # a second load of the preset is the same datum
    again = ParabolicType(rd2, [])
    out = iw.apply_R_K(rd, borel, hk.gk_mu(rd2, again, 4), make_phi(rd2, again, {(0, 0): ONE}))
    assert out == iw.apply_R_K(rd, borel, hk.gk_mu(rd, borel, 4), phi)


def _borel_and_function(name):
    rd = load_root_datum(name)
    par = ParabolicType(rd, [])
    return par, make_phi(rd, par, {(0, 0): ONE, (1, 0): Q, (1, 1): ONE})


# B2 and A2 share rank 2 and J = [], and these points lie in both Borel cones, so only the datum tells them apart
@pytest.mark.parametrize(
    "apply, operator, series, function",
    [
        (iw.apply_R_K, "B2", hk.gk_mu, "A2"),
        (iw.apply_R_inverse_K, "B2", hk.nu, "A2"),
        (iw.apply_R_K, "A2", hk.gk_mu, "B2"),
        (iw.apply_R_inverse_K, "A2", hk.nu, "B2"),
    ],
    ids=["R-B2-mu-on-A2", "R-inverse-B2-nu-on-A2", "R-A2-mu-on-B2", "R-inverse-A2-nu-on-B2"],
)
def test_a_function_of_another_datum_is_refused(apply, operator, series, function):
    par, _ = _borel_and_function(operator)
    _, phi = _borel_and_function(function)
    with pytest.raises(iw.IntertwineError, match=rf"^function parabolic ParabolicType\({function}, J=\[\]\) does not match"):
        apply(par.rd, par, series(par.rd, par, 6), phi)


# the operators take rd beside par: a B2 datum with the A2 Borel would build a function of both
@pytest.mark.parametrize("apply, series", [(iw.apply_R_K, hk.gk_mu), (iw.apply_R_inverse_K, hk.nu)], ids=["R", "R-inverse"])
def test_a_datum_that_is_not_the_parabolics_is_refused(apply, series):
    par, phi = _borel_and_function("A2")
    kernel = series(par.rd, par, 6)
    with pytest.raises(iw.IntertwineError, match=r"^datum B2 is not the datum of the operator's ParabolicType\(A2, J=\[\]\)$"):
        apply(load_root_datum("B2"), par, kernel, phi)
    again = load_root_datum("A2")  # a second load of the preset is the same datum
    assert again is not par.rd
    assert apply(again, par, kernel, phi) == apply(par.rd, par, kernel, phi)


def test_a_window_of_another_parabolic_is_refused_before_any_point():
    rd = load_root_datum("A2")
    borel, levi = ParabolicType(rd, []), ParabolicType(rd, [0])
    window = cones.SupportShape.make([(0, 0)], cones.neg_pos_U(levi.indices))
    for values in ({}, {(0, 0): ZERO}, {(0, 0): ONE}):
        with pytest.raises(iw.IntertwineError, match=r"^window cone -pos_U of J=\[0\] does not belong to ParabolicType\(A2, J=\[\]\)$"):
            iw.SphericalFunction(rd, borel, values, window)
    assert iw.SphericalFunction(rd, levi, {}, window).values == {}


def test_window_propagation_class():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    mu = hk.gk_mu(rd, par, 12)
    phi = make_phi(rd, par, {(1, 1): ONE})
    out = iw.apply_R_K(rd, par, mu, phi)
    # output window has the downward cone type: every computed point sits below the base
    assert out.window is phi.window
    assert out.window.cone == cones.neg_pos_U(par.indices)
    for lam in out.values:
        assert out.window.contains(par, lam)


def _asymptotics(rd, par, height):
    """The asymptotics of the basic spherical vector: the inverse series in the indicator basis."""
    return hk.nu(rd, par, height).to_basis(hk.INDICATOR_BASIS, par.twist_scale)


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
