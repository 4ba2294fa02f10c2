import random
from fractions import Fraction

import pytest

from heckelat import globalsl2 as gs
from heckelat.qfield import ONE, Q, ZERO


QVS = (Q, Fraction(2), Fraction(3), Fraction(3, 2))


def rand_g(rng, qv, nmax=4, span=4):
    return gs.GFunction.from_dict({n: rng.randint(-span, span) for n in range(0, nmax + 1)}, qv)


def rand_t(rng, qv, lo=-5, hi=3, span=4):
    return gs.TFunction.from_dict({d: rng.randint(-span, span) for d in range(lo, hi + 1)}, qv)


def test_aut_counts_against_bruteforce():
    for q in (2, 3):
        for n in range(0, 3):
            assert gs.aut_count(n, Q).eval(Fraction(q)) == gs.aut_count_bruteforce(n, q)
    assert gs.aut_count(0, Q) == Q * (Q - 1) * (Q + 1)
    assert gs.aut_count(2, Q) == (Q - 1) * Q**5


def test_subbundle_counts_against_bruteforce():
    for q in (2, 3):
        for n in range(0, 3):
            for d in range(-3, n + 2):
                closed = gs.subbundle_count(n, d, Q).eval(Fraction(q))
                assert closed == gs.subbundle_count_bruteforce(n, d, q), (q, n, d)


def test_subbundle_special_values():
    assert gs.subbundle_count(0, 0, Q) == Q + 1
    assert gs.subbundle_count(2, 3, Q) == ZERO
    assert gs.subbundle_count(5, 5, Q) == ONE
    assert gs.subbundle_count(1, 0, Q) == ZERO
    assert gs.subbundle_count(1, -1, Q) == Q**3


def test_degree_series_against_euler_product():
    # order 8 is the benchmark's; the Euler product is an identity over Q[q], so it
    # holds at the formal q and at non-integral q as well as at prime powers
    for qv in (Q, *(Fraction(q) for q in ("2", "3", "5", "7", "4", "1/2", "3/2"))):
        assert [gs.mu_hat(m, qv) for m in range(9)] == gs.gk_degree_series_euler(8, qv), qv
        assert [gs.nu_hat(m, qv) for m in range(9)] == gs.gk_degree_series_euler(8, qv, inverse=True), qv
    # frozen coefficients: forward 1, q^2-1, q^4-q^2, ...; inverse 1, 1-q^2, ...
    assert [gs.mu_hat(m, Q) for m in range(3)] == [ONE, Q**2 - 1, Q**4 - Q**2]
    assert [gs.nu_hat(m, Q) for m in range(3)] == [ONE, 1 - Q**2, 1 - Q**2]
    assert gs.nu_hat(1, Q) == 1 - Q**2
    assert gs.mu_hat(2, Q) == Q**4 - Q**2


def _power_by_products(f, k, order):
    """f^k as k products by _series_mul: the reference for _series_power."""
    out = [f[0] ** 0] + [f[0] - f[0]] * order
    for _ in range(k):
        out = gs._series_mul(out, f, order)
    return out


def _fraction_series(rng, order):
    """A seeded series with constant term 1 and Fraction coefficients."""
    return [Fraction(1)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)]


@pytest.mark.parametrize("k", range(7))
def test_series_power_matches_repeated_products(k):
    rng = random.Random(2500 + k)
    order = 7
    series = [
        [1] + [rng.randint(-5, 5) for _ in range(order)],
        _fraction_series(rng, order),
        _fraction_series(rng, order),
        [1, 0, 0, 3, 0, -2, 0, 0],  # zero coefficients between the nonzero ones
        [Fraction(1), 0, Fraction(-1, 2), 0, 0, 0, Fraction(5, 3), 0],
        [ONE, Q, ZERO, ZERO, 1 - Q**2, ZERO, ZERO, Q**3],
    ]
    for f in series:
        assert gs._series_power(f, k, order) == _power_by_products(f, k, order), (f, k)


def test_series_power_at_fractional_and_formal_exponents():
    rng = random.Random(2507)
    order = 6
    f = _fraction_series(rng, order)
    root = gs._series_power(f, Fraction(1, 2), order)
    assert gs._series_mul(root, root, order) == f
    cube = gs._series_power(f, Fraction(3), order)
    assert gs._series_power(cube, Fraction(2, 3), order) == _power_by_products(f, 2, order)
    # a formal exponent: (1 - t)^q (1 - t)^{-q} = 1, and (1 + t)^q at q = 4 is the fourth power
    line = [ONE, -ONE] + [ZERO] * (order - 1)
    up, down = gs._series_power(line, Q, order), gs._series_power(line, -Q, order)
    assert gs._series_mul(up, down, order) == [ONE] + [ZERO] * order
    binomial = gs._series_power([ONE, ONE] + [ZERO] * (order - 1), Q, order)
    assert [c.eval(Fraction(4)) for c in binomial] == [1, 4, 6, 4, 1, 0, 0]


def test_closed_point_counts():
    assert gs.count_closed_points(1, Fraction(2)) == 3
    assert gs.count_closed_points(2, Fraction(2)) == 1  # one irreducible quadratic over F_2
    assert gs.count_closed_points(3, Fraction(2)) == 2
    assert gs.count_closed_points(1, Q) == Q + 1


def test_bundle_functions_are_torus_functions_on_nonnegative_degrees():
    qv = Q
    f = gs.GFunction.from_dict({0: ZERO, 2: ONE, 3: 2 * ONE}, qv)
    assert isinstance(f, gs.TFunction)
    assert (f.upper, f.lower) == (3, 2)
    assert [f.value(n) for n in range(0, 6)] == [ZERO, ZERO, ONE, 2 * ONE, ZERO, ZERO]
    assert gs.GFunction(lambda n: ONE, qv=qv).lower == 0
    with pytest.raises(gs.GlobalError):
        f.value(-1)
    with pytest.raises(gs.GlobalError):
        gs.GFunction.from_dict({-1: ONE, 0: ONE}, qv)
    with pytest.raises(gs.GlobalError):
        gs.GFunction(lambda n: ONE, upper=2, lower=-1, qv=qv)


def test_eis_examples():
    qv = Q
    phi0 = gs.TFunction.from_dict({0: ONE}, qv)
    e0 = gs.eis_B(phi0, qv)
    assert e0.value(0) == Q + 1
    assert e0.value(1) == ZERO and e0.value(2) == ZERO
    phi1 = gs.TFunction.from_dict({1: ONE}, qv)
    e1 = gs.eis_B(phi1, qv)
    assert e1.value(0) == ZERO
    assert e1.value(1) == ONE
    assert e1.value(3) == ZERO
    zero = gs.eis_B(gs.TFunction.from_dict({}, qv), qv)
    assert zero.value(2) == ZERO


def test_eis_requires_lower_bound():
    qv = Q
    unbounded = gs.TFunction(lambda d: ONE, upper=0, lower=None, qv=qv)
    with pytest.raises(gs.GlobalError):
        gs.eis_B(unbounded, qv)


def test_ct_is_identity_in_nonnegative_degrees():
    qv = Q
    rng = random.Random(1)
    f = rand_g(rng, qv)
    ct = gs.ct_B(f, qv)
    for d in range(0, 7):
        assert ct.value(d) == (f.value(d) if d <= f.upper else ZERO)


def test_adjunction_on_randoms():
    qv = Q
    rng = random.Random(2)
    for _ in range(25):
        f = rand_g(rng, qv)
        phi = gs.TFunction.from_dict({d: rng.randint(-4, 4) for d in range(-4, 4)}, qv)
        assert gs.verify_adjunction(f, phi, qv)


def test_ct_support_bounded_above():
    qv = Q
    rng = random.Random(3)
    for _ in range(20):
        f = rand_g(rng, qv)
        ct = gs.ct_B(f, qv)
        for d in range(f.upper + 1, f.upper + 8):
            assert ct.value(d) == ZERO


def test_functional_equation_symbolic_and_numeric():
    assert gs.verify_functional_equation(Q)
    assert gs.verify_functional_equation(Fraction(2))


def test_intertwiner_round_trips():
    qv = Q
    rng = random.Random(4)
    for _ in range(10):
        psi = gs.TFunction.from_dict({d: rng.randint(-4, 4) for d in range(-4, 3)}, qv)
        fwd = gs.global_R(psi, qv)
        back = gs.global_R_inverse(fwd, qv)
        for d in range(-7, 4):
            assert back.value(d) == psi.value(d)
        inv = gs.global_R_inverse(psi, qv)
        fwd2 = gs.global_R(inv, qv)
        for d in range(-7, 4):
            assert fwd2.value(d) == psi.value(d)


def test_L_roundtrip_symbolic():
    qv = Q
    rng = random.Random(5)
    for _ in range(3):
        f = rand_g(rng, qv, nmax=3)
        g = gs.op_L(f, qv)
        honest_ct = gs.ct_B(g, qv)
        for d in range(g.psc_ct.lower - 4, 5):
            assert honest_ct.value(d) == g.psc_ct.value(d)
        back = gs.op_L_inverse(g, qv)
        for n in range(0, 9):
            assert back.value(n) == f.value(n)


def test_L_roundtrip_numeric():
    rng = random.Random(6)
    for q in (2, 3):
        qv = Fraction(q)
        for _ in range(4):
            f = rand_g(rng, qv, nmax=5)
            g = gs.op_L(f, qv)
            back = gs.op_L_inverse(g, qv)
            for n in range(0, 11):
                assert back.value(n) == f.value(n)
            trunc = gs.GFunction.from_dict({n: back.value(n) for n in range(0, 11)}, qv)
            g2 = gs.op_L(trunc, qv)
            for n in range(0, 11):
                assert g2.value(n) == g.value(n)


def test_L_inverse_requires_certificate():
    qv = Q
    plain = gs.GFunction.from_dict({0: ONE}, qv)
    with pytest.raises(gs.CertificationError):
        gs.op_L_inverse(plain, qv)


def test_L_inverse_rejects_false_certificate():
    qv = Q
    plain = gs.GFunction.from_dict({0: ONE, 1: ONE}, qv)
    false_certificate = gs.TFunction(lambda d: ZERO, upper=None, lower=0, qv=qv)
    f = gs.GFunction(plain.value, upper=plain.upper, qv=qv, psc_ct=false_certificate)
    with pytest.raises(gs.CertificationError):
        gs.op_L_inverse(f, qv)


def test_L_is_identity_plus_eisenstein_term():
    qv = Q
    rng = random.Random(7)
    for _ in range(5):
        f = rand_g(rng, qv, nmax=3)
        lf = gs.op_L(f, qv)
        term = gs.eis_B_minus(gs.global_R_inverse(gs.ct_B(f, qv), qv), qv)
        for n in range(0, 8):
            assert lf.value(n) + term.value(n) == f.value(n)


def test_form_symmetry_and_operator_pairing():
    qv = Q
    rng = random.Random(8)
    for _ in range(10):
        f1 = rand_g(rng, qv, nmax=3, span=3)
        f2 = rand_g(rng, qv, nmax=3, span=3)
        b = gs.form_B(f1, f2, qv)
        assert b == gs.form_B(f2, f1, qv)
        lf1 = gs.op_L(f1, qv)
        rhs = sum(
            (lf1.value(n) * f2.value(n) / gs.aut_count(n, qv) for n in range(0, f2.upper + 1)),
            ZERO,
        )
        assert b == rhs


def test_form_sign_structure():
    # exactly two parabolic classes contribute, with signs (+, -)
    qv = Q
    f = gs.GFunction.from_dict({0: ONE}, qv)
    naive = gs.naive_pairing(f, f, qv)
    assert naive == 1 / (Q * (Q - 1) * (Q + 1))
    correction = naive - gs.form_B(f, f, qv)
    psi = gs.global_R_inverse(gs.ct_B(f, qv), qv)
    ctm = gs.ct_B_minus(f, qv)
    # the opposite-side pairing, with its own weight q^{2d-1}/(q-1), written out
    opposite = sum(
        (Q ** (2 * d - 1) / (Q - 1) * psi.value(d) * ctm.value(d) for d in range(ctm.lower, psi.upper + 1)),
        ZERO,
    )
    assert correction == opposite != ZERO


def test_negate_swaps_and_negates_the_bounds():
    qv = Q
    both = gs.TFunction.from_dict({-2: ONE, 3: 2 * ONE}, qv)
    flipped = gs.negate(both, qv)
    assert (flipped.upper, flipped.lower) == (2, -3)
    assert [flipped.value(d) for d in (-3, 2, 3)] == [2 * ONE, ONE, ZERO]
    above = gs.negate(gs.TFunction(lambda d: ONE, upper=4, lower=None, qv=qv), qv)
    assert (above.upper, above.lower) == (None, -4)
    below = gs.negate(gs.TFunction(lambda d: ONE, upper=None, lower=-1, qv=qv), qv)
    assert (below.upper, below.lower) == (1, None)


def test_naive_pairing_examples():
    qv = Q
    f = gs.GFunction.from_dict({0: ONE}, qv)
    assert gs.naive_pairing(f, f, qv) == 1 / (Q * (Q - 1) * (Q + 1))
    zero = gs.GFunction.from_dict({}, qv)
    assert gs.naive_pairing(f, zero, qv) == ZERO


def test_strange_functional_equation_shadow():
    # L Eis_B = -(Eis_B- R^{-1}) on finitely supported torus inputs
    qv = Q
    rng = random.Random(9)
    for _ in range(5):
        phi = gs.TFunction.from_dict({d: rng.randint(-3, 3) for d in range(-2, 3)}, qv)
        eis_phi = gs.eis_B(phi, qv)
        f = gs.GFunction.from_dict(
            {n: eis_phi.value(n) for n in range(0, eis_phi.upper + 1)}, qv
        )
        lhs = gs.op_L(f, qv)
        rhs = gs.eis_B_minus(gs.global_R_inverse(phi, qv), qv)
        for n in range(0, 8):
            assert lhs.value(n) == -rhs.value(n)


def test_ct_negative_degree_frozen_values():
    qv = Q
    f0 = gs.GFunction.from_dict({0: ONE}, qv)
    ct0 = gs.ct_B(f0, qv)
    assert ct0.value(0) == ONE
    assert ct0.value(-1) == (Q - 1) / Q
    assert ct0.value(-2) == (Q - 1) / Q
    f1 = gs.GFunction.from_dict({1: ONE}, qv)
    ct1 = gs.ct_B(f1, qv)
    assert ct1.value(1) == ONE
    assert ct1.value(0) == ZERO
    assert ct1.value(-1) == Q ** (-1)          # split-extension volume
    assert ct1.value(-2) == (Q**2 - 1) * Q**-3  # deep coefficient, degree independent
    assert ct1.value(-5) == (Q**2 - 1) * Q**-3


def test_ct_kernel_total_measure():
    # columns sum to the full unipotent-class volume: sum_n c(n, d) = 1 for every d
    qv = Q
    for d in range(-5, 3):
        total = sum((gs.ct_kernel(n, d, qv) for n in range(0, abs(d) + 2)), ZERO)
        assert total == ONE, d


# ---------------------------------------------------------------------------
# The operators as whole-window sums over their kernels: O(w^2) reference forms
# of eis_B, ct_B, global_R and global_R_inverse, against which the running-sum
# recurrences are compared.


def ref_eis(phi, qv):
    def fn(n):
        return sum((gs.subbundle_count(n, d, qv) * phi.value(d) for d in range(phi.lower, n + 1)), 0 * qv)

    upper = None if phi.upper is None else max(abs(phi.upper), abs(phi.lower))
    return gs.GFunction(fn, upper=upper, qv=qv)


def ref_ct(f, qv):
    def fn(d):
        if d >= 0:
            return f.value(d)
        return sum((gs.ct_kernel(n, d, qv) * f.value(n) for n in range(0, -d + 1)), 0 * qv)

    return gs.TFunction(fn, upper=f.upper, lower=None, qv=qv)


def ref_R(psi, qv):
    def fn(d):
        acc = sum((gs.mu_hat(m, qv) * psi.value(d + m) for m in range(0, psi.upper - d + 1)), 0 * qv)
        return acc * qv ** (2 * d + 1)

    return gs.TFunction(fn, upper=psi.upper, lower=None, qv=qv)


def ref_R_inverse(phi, qv):
    def fn(d):
        return sum(
            (qv ** (-2 * (d + m) - 1) * gs.nu_hat(m, qv) * phi.value(d + m) for m in range(0, phi.upper - d + 1)),
            0 * qv,
        )

    return gs.TFunction(fn, upper=phi.upper, lower=None, qv=qv)


def ref_L(f, qv):
    psi = ref_R_inverse(ref_ct(f, qv), qv)
    flipped = gs.TFunction(lambda d: psi.value(-d), upper=None, lower=-psi.upper, qv=qv)
    eis = ref_eis(flipped, qv)
    return gs.GFunction(lambda n: f.value(n) - eis.value(n), upper=None, qv=qv)


def assert_same_values(make_new, ref, points, rng):
    """Values of fresh operators read in ascending, descending and shuffled order equal the reference values.

    The running sums fill lazily from either end, so each order runs on its own new operator.
    """
    want = {x: ref.value(x) for x in points}
    shuffled = list(points)
    rng.shuffle(shuffled)
    for order in (sorted(points), sorted(points, reverse=True), shuffled):
        new = make_new()
        assert [new.value(x) for x in order] == [want[x] for x in order], order


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_running_sum_operators_match_whole_window_sums(qv):
    # windows with phi.lower >= 0 leave the Eisenstein prefix sum empty; the torus-side
    # reads start at -40, far below every window
    rng = random.Random(11)
    for lo, hi in ((-5, 3), (-5, 3), (0, 4), (2, 5)):
        phi = rand_t(rng, qv, lo, hi)
        f = rand_g(rng, qv)
        assert_same_values(lambda: gs.eis_B(phi, qv), ref_eis(phi, qv), range(0, phi.upper - min(phi.lower, 0) + 3), rng)
        assert_same_values(lambda: gs.ct_B(f, qv), ref_ct(f, qv), range(-40, f.upper + 3), rng)
        assert_same_values(lambda: gs.global_R(phi, qv), ref_R(phi, qv), range(-40, phi.upper + 3), rng)
        assert_same_values(lambda: gs.global_R_inverse(phi, qv), ref_R_inverse(phi, qv), range(-40, phi.upper + 3), rng)


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_L_and_its_inverse_match_whole_window_sums(qv):
    rng = random.Random(12)
    f = rand_g(rng, qv, nmax=3)
    assert_same_values(lambda: gs.op_L(f, qv), ref_L(f, qv), range(0, 9), rng)
    g = gs.op_L(f, qv)
    bounded_ct = gs.TFunction(ref_ct(g, qv).value, upper=None, lower=g.psc_ct.lower, qv=qv)
    eis = ref_eis(bounded_ct, qv)
    ref_inverse = gs.GFunction(lambda n: g.value(n) - eis.value(n), upper=None, qv=qv)
    assert_same_values(lambda: gs.op_L_inverse(g, qv), ref_inverse, range(0, 9), rng)


@pytest.mark.parametrize("qv", (Fraction(2), Fraction(3, 2)), ids=str)
def test_windowless_constant_term_read_far_below_zero(qv):
    # L f has no upper bound, so the constant term's middle prefix sum runs over every n < -d
    rng = random.Random(13)
    f = rand_g(rng, qv, nmax=3)
    ct, ref = gs.ct_B(gs.op_L(f, qv), qv), ref_ct(gs.op_L(f, qv), qv)
    assert ct.upper is None
    assert ct.value(-40) == ref.value(-40)
    assert [ct.value(d) for d in range(-45, 6)] == [ref.value(d) for d in range(-45, 6)]


# The shapes of the kernels that each running sum relies on; the Euler-product
# and brute-force tests above remain the independent witnesses for the kernels.


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_inverse_kernel_is_constant_after_its_first_term(qv):
    assert all(gs.nu_hat(m, qv) == gs.nu_hat(1, qv) for m in range(1, 10))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_forward_kernel_is_geometric_with_ratio_q_squared_after_its_first_term(qv):
    assert all(gs.mu_hat(m + 1, qv) == qv**2 * gs.mu_hat(m, qv) for m in range(1, 10))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_subbundle_counts_below_minus_n_do_not_depend_on_n(qv):
    for n in range(1, 6):
        assert all(gs.subbundle_count(n, d, qv) == gs.subbundle_count(0, d, qv) for d in range(-n - 8, -n))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_subbundle_counts_vanish_strictly_between_minus_n_and_n(qv):
    for n in range(1, 6):
        assert all(gs.subbundle_count(n, d, qv) == 0 for d in range(-n + 1, n))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_middle_constant_term_kernel_does_not_depend_on_the_degree(qv):
    for d in range(-9, 0):
        assert all(gs.ct_kernel(n, d, qv) == gs.ct_kernel(n, -n - 1, qv) for n in range(1, -d))


# The first weights, ratios and diagonal closed forms the operators and pairings
# use in place of per-term kernel calls.


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_subbundle_counts_below_zero_step_by_q_squared_downward(qv):
    assert all(gs.subbundle_count(0, d - 1, qv) == qv**2 * gs.subbundle_count(0, d, qv) for d in range(-9, 0))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_middle_constant_term_kernel_steps_by_q_to_the_minus_two(qv):
    assert all(gs.ct_kernel(n + 1, -n - 2, qv) == qv**-2 * gs.ct_kernel(n, -n - 1, qv) for n in range(1, 10))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_diagonal_subbundle_counts_and_constant_term_kernel(qv):
    assert gs.subbundle_count(0, 0, qv) == qv + 1
    for n in range(1, 8):
        assert gs.subbundle_count(n, n, qv) == 1
        assert gs.subbundle_count(n, -n, qv) == qv ** (2 * n + 1)
    assert all(gs.ct_kernel(-d, d, qv) == qv ** (2 * d + 1) for d in range(-8, 0))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_intertwiner_kernels_start_at_one(qv):
    assert gs.mu_hat(0, qv) == gs.nu_hat(0, qv) == 1


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_pairing_weights_step_by_q_to_the_minus_two(qv):
    assert all(gs.t_weight(d + 1, qv) == qv**-2 * gs.t_weight(d, qv) for d in range(-8, 8))
    assert all(gs.aut_count(n + 1, qv) == qv**2 * gs.aut_count(n, qv) for n in range(1, 9))
    # the terms naive_pairing writes out before dividing by (q-1) once
    assert gs.aut_count(0, qv) == (qv - 1) * qv * (qv + 1)
    assert gs.aut_count(1, qv) == (qv - 1) * qv**3


def ref_naive(f1, f2, qv):
    upper = min(x for x in (f1.upper, f2.upper) if x is not None)
    return sum((f1.value(n) * f2.value(n) / gs.aut_count(n, qv) for n in range(0, upper + 1)), 0 * qv)


def ref_t_pairing(phi1, phi2, qv):
    lo, hi = max(phi1.lower, phi2.lower), min(phi1.upper, phi2.upper)
    return sum((gs.t_weight(d, qv) / (qv - 1) * phi1.value(d) * phi2.value(d) for d in range(lo, hi + 1)), 0 * qv)


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_pairings_match_per_term_weight_sums(qv):
    rng = random.Random(15)
    unbounded = gs.GFunction(lambda n: qv**n, upper=None, qv=qv)
    for nmax in (0, 0, 1, 3, 5):
        f1, f2 = rand_g(rng, qv, nmax=nmax), rand_g(rng, qv, nmax=rng.randint(0, 5))
        assert gs.naive_pairing(f1, f2, qv) == ref_naive(f1, f2, qv)
        assert gs.naive_pairing(unbounded, f1, qv) == gs.naive_pairing(f1, unbounded, qv) == ref_naive(f1, unbounded, qv)
    assert gs.naive_pairing(gs.GFunction.from_dict({0: 3}, qv), gs.GFunction.from_dict({0: 5}, qv), qv) == 15 / (
        qv * (qv - 1) * (qv + 1)
    )
    for (lo1, hi1), (lo2, hi2) in (((-5, 3), (-2, 6)), ((-4, 0), (-6, 0)), ((0, 0), (-3, 3)), ((-5, -2), (1, 4))):
        phi1, phi2 = rand_t(rng, qv, lo1, hi1), rand_t(rng, qv, lo2, hi2)
        assert gs.t_pairing(phi1, phi2, qv) == ref_t_pairing(phi1, phi2, qv)


def test_operators_read_each_kernel_a_fixed_number_of_times(monkeypatch):
    qv = Fraction(2)
    calls = {"subbundle_count": 0, "ct_kernel": 0}
    for name in calls:
        def counted(*args, _kernel=getattr(gs, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(gs, name, counted)

    def kernel_calls(width):
        calls.update(dict.fromkeys(calls, 0))
        eis = gs.eis_B(gs.TFunction.from_dict({d: 1 for d in range(-width, 1)}, qv), qv)
        ct = gs.ct_B(gs.GFunction.from_dict({n: 1 for n in range(0, width + 1)}, qv), qv)
        for k in range(0, width + 1):
            eis.value(k), ct.value(-k)
        return dict(calls)

    assert kernel_calls(40) == kernel_calls(5) == {"subbundle_count": 1, "ct_kernel": 2}
