from fractions import Fraction

import pytest

from heckelat import hecke as hk, padic as pd
from heckelat.rootdata import load_root_datum, parabolic


def test_laurent_arithmetic_and_tails():
    q = 3
    a = pd.LaurentElement.make(q, [(-2, 1), (0, 2)], 4)
    b = pd.LaurentElement.make(q, [(-1, 2)], 4)
    s = a.add(b)
    assert dict(s.coeffs) == {-2: 1, -1: 2, 0: 2}
    p = a.mul(b)
    assert p.min_exp() == -3
    assert p.tail == 2  # tail of a (4) plus min exponent of b (-1) caps at 3; b tail 4 + (-2) = 2
    z = pd.LaurentElement.make(q, [], 3)
    assert z.min_exp() is None and z.tail == 3


def test_min_valuation_precision_guard():
    q = 2
    undetermined = pd.LaurentElement.make(q, [], 1)
    exact = pd.LaurentElement.make(q, [(2, 1)], 5)
    with pytest.raises(pd.PrecisionError):
        pd._min_valuation([undetermined, exact])
    ok = pd.LaurentElement.make(q, [(0, 1)], 5)
    assert pd._min_valuation([ok, undetermined]) == 0


def test_iwasawa_examples():
    q, n = 3, 3
    x = pd.LaurentElement.make(q, [(-1, 1)], n)
    assert pd.iwasawa_ord("SL2", pd._unipotent("SL2", q, (x,), n)) == (1,)
    ident = pd._unipotent("SL2", q, (pd.LaurentElement.make(q, [], n),), n)
    assert pd.iwasawa_ord("SL2", ident) == (0,)
    # torus element diag(t, t^{-1}) is the positive-coroot point of the coweight
    one, zero = pd.LaurentElement.make(q, [(0, 1)], n), pd.LaurentElement.make(q, [], n)
    tpos = ((pd.LaurentElement.make(q, [(1, 1)], n), zero), (zero, pd.LaurentElement.make(q, [(-1, 1)], n)))
    assert pd.iwasawa_ord("SL2", tpos) == (1,)
    # SL3 torus element diag(t, 1, t^{-1}) has coweight a1 + a2
    z3 = pd.LaurentElement.make(q, [], n)
    t3 = (
        (pd.LaurentElement.make(q, [(1, 1)], n), z3, z3),
        (z3, one, z3),
        (z3, z3, pd.LaurentElement.make(q, [(-1, 1)], n)),
    )
    assert pd.iwasawa_ord("SL3", t3) == (1, 1)


def test_sl2_oracle_values():
    assert pd.mu_oracle("SL2", (0,), 2, 3) == 1
    assert pd.mu_oracle("SL2", (1,), 2, 3) == 1  # q - 1
    assert pd.mu_oracle("SL2", (2,), 3, 3) == 6  # q^2 - q
    assert pd.mu_oracle("SL2", (-1,), 2, 3) == 0


def test_oracle_rejects_nonprime():
    with pytest.raises(pd.OracleError):
        pd.mu_oracle("SL2", (1,), 4, 3)


def test_sl2_oracle_matches_table_and_is_precision_independent():
    rd = load_root_datum("A1")
    ind = hk.gk_mu(rd, parabolic(rd, []), 14).to_basis(hk.INDICATOR_BASIS)
    for q in (2, 3):
        for n in range(0, 6):
            value = pd.mu_oracle("SL2", (n,), q, 3)
            assert value == ind.coeff((n,)).eval(Fraction(q))
            assert value == pd.mu_oracle("SL2", (n,), q, 4)


def test_sl3_fast_equals_full_enumeration():
    for lam, q, n in [((0, 0), 2, 3), ((1, 0), 2, 3), ((0, 1), 2, 3), ((1, 1), 2, 3), ((0, 0), 3, 2)]:
        assert pd._mu_sl3_fast(lam, q, n) == pd._mu_sl3_full(lam, q, n), (lam, q, n)


def test_sl3_oracle_matches_table():
    rd = load_root_datum("A2")
    ind = hk.gk_mu(rd, parabolic(rd, []), 12).to_basis(hk.INDICATOR_BASIS)
    for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (1, 2)]:
        prec = max(lam) + 2
        assert pd.mu_oracle("SL3", lam, 2, prec) == ind.coeff(lam).eval(Fraction(2)), lam


def test_precision_too_small_raises():
    with pytest.raises(pd.PrecisionError):
        pd.mu_oracle("SL3", (2, 2), 2, 3)


def test_cell_cap_enforced():
    with pytest.raises(pd.OracleError):
        pd.mu_oracle("SL3", (6, 6), 2, 8)


def test_ball_histogram():
    assert pd.ball_histogram("SL2", 3, 2, 2) == {(0,): 1, (1,): 2, (2,): 6}
    assert pd.ball_histogram("SL2", 2, 2, 2) == {(0,): 1, (1,): 1, (2,): 2}
    # (2, 1) leaves the depth-1 ball: only 2 of its fibre's measure 4 lies inside
    assert pd.ball_histogram("SL3", 2, 1, 2) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 3, (2, 1): 2}


def test_sl3_precision_independence():
    for lam in [(1, 0), (1, 1)]:
        assert pd.mu_oracle("SL3", lam, 2, 3) == pd.mu_oracle("SL3", lam, 2, 4)
