import random
from fractions import Fraction

import pytest

from heckelat import globalsl2 as gs
from heckelat import hecke, qfield
from heckelat.qfield import ONE, Q, ZERO
from heckelat.rootdata import ParabolicType, load_root_datum


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


def subbundle_count(n, d, qv):
    """sigma(n, d), the number of degree-d line subbundles of O(n) + O(-n): the closed form, as a per-term reference.

    eis_B uses it only through the difference form, so it lives here, checked
    against the brute-force count of subbundle_count_bruteforce.
    """
    if d > n or -n < d < n:
        return 0 * qv
    if n == 0 and d == 0:
        return qv + 1
    if d == n:
        return qv**0
    if d == -n:
        return qv ** (2 * n + 1)
    return (qv**2 - 1) * qv ** (-2 * d - 1)


def eis_count(n, d, qv):
    """sigma(n, d) as the program computes it: Eis of the indicator delta_d, read at degree n."""
    return gs.eis_B(gs.TFunction.from_dict({d: 1}, qv), qv).value(n)


SUBBUNDLE_SPECIAL_VALUES = {(0, 0): Q + 1, (2, 3): ZERO, (5, 5): ONE, (1, 0): ZERO, (1, -1): Q**3}


def test_subbundle_counts_against_bruteforce():
    # the closed form and the Eisenstein sum of each indicator delta_d both count the subbundles
    for q in (2, 3):
        for d in range(-3, 4):
            eis = gs.eis_B(gs.TFunction.from_dict({d: 1}, Fraction(q)), Fraction(q))
            for n in range(0, 3):
                brute = gs.subbundle_count_bruteforce(n, d, q)
                assert eis.value(n) == brute, (q, n, d)
                assert subbundle_count(n, d, Q).eval(Fraction(q)) == brute, (q, n, d)
    # the special values and the shape of sigma(n, d), each row against the brute-force count;
    # below d = 0 the brute force walks q^(2 - 2d) pairs, so q = 3 stops at d = -3
    for q, low in ((2, -5), (3, -3)):

        def count(n, d):
            brute = gs.subbundle_count_bruteforce(n, d, q)
            assert subbundle_count(n, d, Q).eval(Fraction(q)) == eis_count(n, d, Fraction(q)) == brute, (q, n, d)
            return brute

        for (n, d), value in SUBBUNDLE_SPECIAL_VALUES.items():
            assert count(n, d) == value.eval(Fraction(q)), (q, n, d)
        for n in range(1, 6):
            assert all(count(n, d) == 0 for d in range(-n + 1, n)), (q, n)  # zero strictly between -n and n
            assert all(count(n, d) == count(0, d) for d in range(low, -n)), (q, n)  # below -n, free of n
        assert all(count(0, d - 1) == q**2 * count(0, d) for d in range(low + 1, 0)), q  # q^2 per degree down


def test_subbundle_special_values():
    assert {nd: eis_count(*nd, Q) for nd in SUBBUNDLE_SPECIAL_VALUES} == SUBBUNDLE_SPECIAL_VALUES


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
        return sum((subbundle_count(n, d, qv) * phi.value(d) for d in range(phi.lower, n + 1)), 0 * qv)

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
        assert all(eis_count(n, d, qv) == eis_count(0, d, qv) for d in range(-n - 8, -n))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_subbundle_counts_vanish_strictly_between_minus_n_and_n(qv):
    for n in range(1, 6):
        assert all(eis_count(n, d, qv) == 0 for d in range(-n + 1, n))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_middle_constant_term_kernel_does_not_depend_on_the_degree(qv):
    for d in range(-9, 0):
        assert all(gs.ct_kernel(n, d, qv) == gs.ct_kernel(n, -n - 1, qv) for n in range(1, -d))


# The first weights, ratios and diagonal closed forms the operators and pairings
# use in place of per-term kernel calls.


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_subbundle_counts_below_zero_step_by_q_squared_downward(qv):
    assert all(eis_count(0, d - 1, qv) == qv**2 * eis_count(0, d, qv) for d in range(-9, 0))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_middle_constant_term_kernel_steps_by_q_to_the_minus_two(qv):
    assert all(gs.ct_kernel(n + 1, -n - 2, qv) == qv**-2 * gs.ct_kernel(n, -n - 1, qv) for n in range(1, 10))


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_diagonal_subbundle_counts_and_constant_term_kernel(qv):
    assert subbundle_count(0, 0, qv) == qv + 1
    for n in range(1, 8):
        assert subbundle_count(n, n, qv) == 1
        assert subbundle_count(n, -n, qv) == qv ** (2 * n + 1)
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


def test_reading_more_values_takes_no_more_powers(monkeypatch):
    # every power of q an operator needs is taken when it is built, none per value
    powers = 0
    power = qfield.RatFunc.__pow__

    def counted(self, k):
        nonlocal powers
        powers += 1
        return power(self, k)

    monkeypatch.setattr(qfield.RatFunc, "__pow__", counted)

    def powers_for(width):
        nonlocal powers
        powers = 0
        phi = gs.TFunction.from_dict({d: 1 for d in range(-width, 1)}, Q)
        f = gs.GFunction.from_dict({n: 1 for n in range(0, width + 1)}, Q)
        eis, ct, fwd, inv = gs.eis_B(phi, Q), gs.ct_B(f, Q), gs.global_R(phi, Q), gs.global_R_inverse(phi, Q)
        for k in range(0, width):
            eis.value(k), ct.value(-k), fwd.value(-k), inv.value(-k)
        return powers

    assert powers_for(40) == powers_for(5) > 0


@pytest.mark.parametrize("qv", QVS, ids=str)
def test_difference_form_coefficients(qv):
    # each operator value is its running sum read at two adjacent points, q^2 S(k) - S(k - 1)
    # or S(d) + c S(d + 1); these are the kernel values that difference leaves behind
    assert all(subbundle_count(0, d, qv) == (qv**2 - 1) * qv ** (-2 * d - 1) for d in range(-9, 0))
    assert all(subbundle_count(n, -n, qv) == qv**2 * qv ** (2 * n - 1) for n in range(1, 8))
    assert subbundle_count(0, 0, qv) == qv**2 * qv**-1 + 1
    assert all(gs.ct_kernel(-d, d, qv) == qv**2 * qv ** (2 * d - 1) for d in range(-8, 0))
    assert all(gs.ct_kernel(n, d, qv) == (qv**2 - 1) * qv ** (-2 * n - 1) for d in range(-9, 0) for n in range(1, -d))
    assert gs.mu_hat(1, qv) - qv**2 == -1
    assert gs.nu_hat(1, qv) - 1 == -(qv**2)


# The paper's local-global link: the Euler factor at a closed point of degree m is
# the local Gindikin-Karpelevich series of SL2 at the residue field size q^m, read on
# the degree axis. hecke's local series is tied to the p-adic oracle by criterion 1,
# and the Euler-product oracle builds its factors by hand; these tests join the two.

EULER_ORDER = 8


def _local_factor_in_degrees(m, q, inverse):
    """hecke's local series of A1's Borel (gk_mu, or nu when inverse) at q^m, with e^{k a} sent to (q t)^{m k}."""
    a1 = load_root_datum("A1")
    local = (hecke.nu if inverse else hecke.gk_mu)(a1, ParabolicType(a1, []), 2 * EULER_ORDER)
    out = [Fraction(0)] * (EULER_ORDER + 1)
    for (k,), c in local.coeffs.items():
        if m * k <= EULER_ORDER:
            out[m * k] = c.eval(q**m) * q ** (m * k)
    return out


def _euler_factor(m, q, inverse):
    """The degree-m factor of gk_degree_series_euler: (1 - t^m)/(1 - (q t)^m), or its reciprocal."""
    num = [Fraction(1)] + [Fraction(0)] * EULER_ORDER
    num[m] = -(q**m) if inverse else Fraction(-1)
    den = gs._geom_series(m, Fraction(1) if inverse else q**m, EULER_ORDER, q)
    return gs._series_mul(num, den, EULER_ORDER)


@pytest.mark.parametrize("q", (Fraction(2), Fraction(3), Fraction(1, 2)), ids=str)
@pytest.mark.parametrize("inverse", (False, True), ids=("forward", "inverse"))
def test_euler_factors_are_local_gk_series(q, inverse):
    for m in range(1, 5):
        assert _local_factor_in_degrees(m, q, inverse) == _euler_factor(m, q, inverse), m


@pytest.mark.parametrize("q", (Fraction(2), Fraction(3), Fraction(1, 2)), ids=str)
@pytest.mark.parametrize("inverse", (False, True), ids=("forward", "inverse"))
def test_product_of_local_gk_series_over_closed_points_is_the_global_kernel(q, inverse):
    product = [Fraction(1)] + [Fraction(0)] * EULER_ORDER
    for m in range(1, EULER_ORDER + 1):
        local = gs._series_power(_local_factor_in_degrees(m, q, inverse), gs.count_closed_points(m, q), EULER_ORDER)
        product = gs._series_mul(product, local, EULER_ORDER)
    kernel = gs.nu_hat if inverse else gs.mu_hat
    assert product == [kernel(k, q) for k in range(EULER_ORDER + 1)]



def _unbounded_t(qv):
    return gs.TFunction(lambda d: ONE, upper=None, lower=None, qv=qv)


def _unbounded_g(qv):
    return gs.GFunction(lambda n: ONE, upper=None, qv=qv)


def _finite_g(qv):
    return gs.GFunction.from_dict({0: ONE}, qv)


@pytest.mark.parametrize(
    "operator, inputs, message",
    [
        pytest.param(operator, inputs, message, id=operator.__name__)
        for operator, inputs, message in [
            (gs.eis_B_minus, (_unbounded_t,), "opposite Eisenstein sum needs a support bound above"),
            (gs.global_R, (_unbounded_t,), "forward intertwiner needs a support bound above"),
            (gs.global_R_inverse, (_unbounded_t,), "inverse intertwiner needs a support bound above"),
            (gs.naive_pairing, (_unbounded_g, _unbounded_g), "naive pairing needs one factor of certified finite support"),
            (gs.t_pairing, (_unbounded_t, _unbounded_t), "pairing window is not certified finite"),
            (gs.op_L, (_unbounded_g,), "L needs finitely supported input"),
            (gs.form_B, (_finite_g, _unbounded_g), "the form needs finitely supported inputs"),
        ]
    ],
)
def test_operators_refuse_an_input_without_the_support_bound_they_need(operator, inputs, message):
    qv = Q
    with pytest.raises(gs.GlobalError, match=f"^{message}$"):
        operator(*(make(qv) for make in inputs), qv)


# ---------------------------------------------------------------------------
# Numeric q against the formal one: at an integral q the operators compute in qfield.LaurentNumber (n q^v),
# falling back to Fraction where a value leaves Z[1/q]; every value must be the formal value evaluated at q.

NUMERIC_QS = (Fraction(2), Fraction(3), Fraction(4), Fraction(3, 2))


def _draw(rng, lo, hi, fractions):
    choices = (-3, -1, 1, 2, 5) + ((Fraction(1, 2), Fraction(-3, 4)) if fractions else ())
    return {n: rng.choice(choices) for n in range(lo, hi + 1)}


def _assert_values_at(q, numeric, formal, points):
    for x in points:
        assert numeric.value(x) == qfield.as_ratfunc(formal.value(x)).eval(q), x


@pytest.mark.parametrize("q", NUMERIC_QS, ids=str)
def test_numeric_operators_equal_the_formal_ones_evaluated_at_q(q):
    for n in range(0, 5):
        assert gs.aut_count(n, q) == gs.aut_count(n, Q).eval(q), n
    for n in range(0, 7):
        for d in range(-7, 4):
            assert gs.ct_kernel(n, d, q) == gs.ct_kernel(n, d, Q).eval(q), (n, d)
    for m in range(0, 7):
        assert gs.mu_hat(m, q) == gs.mu_hat(m, Q).eval(q) and gs.nu_hat(m, q) == gs.nu_hat(m, Q).eval(q), m
    rng = random.Random(37)
    for trial in range(5):
        fractions = trial > 0  # the first trial keeps to integer inputs, where an integral q never leaves Z[1/q]
        on = {qv: {} for qv in (q, Q)}
        draws = {"f1": (0, 4), "f2": (0, 3), "phi1": (-4, 2), "phi2": (-2, 3)}
        for name, (lo, hi) in draws.items():
            values = _draw(rng, lo, hi, fractions)
            kind = gs.GFunction if name.startswith("f") else gs.TFunction
            for qv in on:
                on[qv][name] = kind.from_dict(values, qv)
        ops = {  # name: (operator on the inputs at qv, points read)
            "eis_B": (lambda a, qv: gs.eis_B(a["phi1"], qv), range(0, 9)),
            "eis_B_minus": (lambda a, qv: gs.eis_B_minus(a["phi1"], qv), range(0, 9)),
            "ct_B": (lambda a, qv: gs.ct_B(a["f1"], qv), range(-9, 6)),
            "global_R": (lambda a, qv: gs.global_R(a["phi1"], qv), range(-9, 4)),
            "global_R_inverse": (lambda a, qv: gs.global_R_inverse(a["phi1"], qv), range(-9, 4)),
            "op_L": (lambda a, qv: gs.op_L(a["f1"], qv), range(0, 9)),
            "op_L certificate": (lambda a, qv: gs.op_L(a["f1"], qv).psc_ct, range(-12, 4)),
            "op_L_inverse": (lambda a, qv: gs.op_L_inverse(gs.op_L(a["f1"], qv), qv), range(0, 9)),
        }
        for name, (op, points) in ops.items():
            _assert_values_at(q, op(on[q], q), op(on[Q], Q), points)
        for pairing, x, y in ((gs.naive_pairing, "f1", "f2"), (gs.t_pairing, "phi1", "phi2"), (gs.form_B, "f1", "f2")):
            assert pairing(on[q][x], on[q][y], q) == pairing(on[Q][x], on[Q][y], Q).eval(q), (trial, pairing.__name__)


def test_naive_pairing_at_an_integral_q_leaves_z_inverse_q_once(monkeypatch):
    # the sum over n stays in Z[1/q]; only the one division by aut(0) at the end reads a Fraction
    values = {upper: {n: 2 * n + 1 for n in range(upper + 1)} for upper in (3, 9)}
    formal = {upper: gs.GFunction.from_dict(v, Q) for upper, v in values.items()}
    want = {upper: gs.naive_pairing(f, f, Q).eval(Fraction(2)) for upper, f in formal.items()}
    calls = []
    fraction = qfield.LaurentNumber._fraction
    monkeypatch.setattr(qfield.LaurentNumber, "_fraction", lambda self: calls.append(self) or fraction(self))
    counts, got = {}, {}
    for upper, v in values.items():
        f = gs.GFunction.from_dict(v, 2)
        calls.clear()
        got[upper] = gs.naive_pairing(f, f, 2)
        counts[upper] = len(calls)
    monkeypatch.undo()
    assert got == want and counts[9] == counts[3] <= 2, counts


def test_integral_q_stays_in_laurent_numbers_and_the_euler_oracle_on_fractions():
    f = gs.GFunction.from_dict({0: 2, 1: -1, 3: 5}, Fraction(2))
    g = gs.op_L(f, Fraction(2))
    back = gs.op_L_inverse(g, Fraction(2))
    assert all(type(v) is qfield.LaurentNumber for v in [g.value(n) for n in range(6)] + [back.value(n) for n in range(6)])
    one = gs.GFunction.from_dict({0: 1}, 3)  # an int q too; 1/aut(0) = 1/((q - 1) q (q + 1)) leaves Z[1/3]
    assert gs.naive_pairing(one, one, 3) == Fraction(1, 24) and type(gs.naive_pairing(one, one, 3)) is Fraction
    for q in (2, 3, 4):
        series = gs.gk_degree_series_euler(5, Fraction(q)) + gs.gk_degree_series_euler(5, Fraction(q), inverse=True)
        assert all(type(c) is Fraction for c in series), q
