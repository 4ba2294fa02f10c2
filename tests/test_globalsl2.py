import random
from fractions import Fraction

import pytest

from heckelat import globalsl2 as gs
from heckelat.qfield import ONE, Q, ZERO


def rand_g(rng, qv, nmax=4, span=4):
    return gs.GFunction.from_dict({n: rng.randint(-span, span) for n in range(0, nmax + 1)}, qv)


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
    for q in (2, 3):
        qv = Fraction(q)
        assert [gs.mu_hat(m, qv) for m in range(6)] == gs.gk_degree_series_euler(5, qv)
        assert [gs.nu_hat(m, qv) for m in range(6)] == gs.gk_degree_series_euler(5, qv, inverse=True)
    # frozen coefficients: forward 1, q^2-1, q^4-q^2, ...; inverse 1, 1-q^2, ...
    assert [gs.mu_hat(m, Q) for m in range(3)] == [ONE, Q**2 - 1, Q**4 - Q**2]
    assert [gs.nu_hat(m, Q) for m in range(3)] == [ONE, 1 - Q**2, 1 - Q**2]
    assert gs.nu_hat(1, Q) == 1 - Q**2
    assert gs.mu_hat(2, Q) == Q**4 - Q**2


def test_closed_point_counts():
    assert gs.count_closed_points(1, Fraction(2)) == 3
    assert gs.count_closed_points(2, Fraction(2)) == 1  # one irreducible quadratic over F_2
    assert gs.count_closed_points(3, Fraction(2)) == 2
    assert gs.count_closed_points(1, Q) == Q + 1


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
    f = gs.GFunction.from_dict({0: ONE, 1: ONE}, qv)
    f.psc_ct = gs.TFunction(lambda d: ZERO, upper=None, lower=0, qv=qv)
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
    assert correction == gs.t_pairing(psi, ctm, qv, minus=True)


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
