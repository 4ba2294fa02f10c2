import random
from fractions import Fraction

import pytest

from heckelat import hecke as hk, padic as pd
from heckelat.rootdata import ParabolicType, load_root_datum


def _el(q, terms, tail):
    """The element with the given {exponent: digit} terms, exact below t^tail, its window starting at its lowest term."""
    low = min(terms, default=tail)
    return pd.LaurentElement(q, low, tuple(terms.get(e, 0) % q for e in range(low, tail)))


def _terms(x):
    return {x.low + i: d for i, d in enumerate(x.digits) if d}


def test_laurent_arithmetic_and_tails():
    q = 3
    a = pd.LaurentElement(q, -2, (1, 0, 2, 0, 0, 0))  # t^-2 + 2, exact below t^4
    b = pd.LaurentElement(q, -1, (2, 0, 0, 0, 0))  # 2 t^-1, exact below t^4
    assert (a.val, a.tail, b.val, b.tail) == (-2, 4, -1, 4)
    s = a.add(b)
    assert _terms(s) == {-2: 1, -1: 2, 0: 2} and s.tail == 4 and s.val == -2
    p = a.mul(b)
    assert _terms(p) == {-3: 2, -1: 1}  # 2 t^-3 + 4 t^-1, 4 = 1 mod 3
    assert p.val == -3
    assert p.tail == 2  # tail of a (4) plus min exponent of b (-1) caps at 3; b tail 4 + (-2) = 2
    assert _terms(a.neg()) == {-2: 2, 0: 1} and a.neg().tail == 4
    z = pd.LaurentElement(q, 3, ())
    assert z.val is None and z.tail == 3
    za = z.mul(a)  # a zero factor stands for its tail: 3 + (-2) = 1 caps the tail
    assert za.val is None and za.tail == 1
    assert _terms(a.add(z)) == {-2: 1, 0: 2} and a.add(z).tail == 3
    # leading zero digits are part of the window, not of the valuation
    w = pd.LaurentElement(q, -3, (0, 0, 1, 2))
    assert (w.val, w.tail) == (-1, 1)


def _schoolbook(q, a, b, op):
    """(terms, tail) of a op b by the definition: a, b as ({exponent: digit}, tail), sums of products mod q."""
    (ta, na), (tb, nb) = a, b
    if op == "add":
        tail = min(na, nb)
        acc = {e: ta.get(e, 0) + tb.get(e, 0) for e in set(ta) | set(tb)}
    else:
        va, vb = min(ta, default=na), min(tb, default=nb)
        tail = min(na + vb, nb + va, na + nb)
        acc = {}
        for e1, c1 in ta.items():
            for e2, c2 in tb.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return {e: c % q for e, c in acc.items() if e < tail and c % q}, tail


def _random_element(rng, q):
    low = rng.randint(-4, 2)
    size = rng.choice([0, 1, 2, 3, 5, 7])
    zero_share = rng.choice([0.3, 0.7, 1.0])  # 1.0: the zero element
    digits = tuple(0 if rng.random() < zero_share else rng.randrange(1, q) for _ in range(size))
    return pd.LaurentElement(q, low, digits)


def test_laurent_arithmetic_against_schoolbook():
    rng = random.Random(20240610)
    for q in (2, 3, 5):
        for _ in range(400):
            x, y, u, v = (_random_element(rng, q) for _ in range(4))
            for e in (x, y, u, v):
                assert e.tail == e.low + len(e.digits) and all(0 <= d < q for d in e.digits)
                assert e.val == min(_terms(e), default=None)
            ref = {id(e): (_terms(e), e.tail) for e in (x, y, u, v)}
            for op in ("add", "mul"):
                got = getattr(x, op)(y)
                want_terms, want_tail = _schoolbook(q, ref[id(x)], ref[id(y)], op)
                assert (_terms(got), got.tail, got.val) == (want_terms, want_tail, min(want_terms, default=None)), (q, op)
                assert all(0 <= d < q for d in got.digits) and got.tail == got.low + len(got.digits)
            neg = x.neg()
            assert _terms(neg) == {e: -c % q for e, c in _terms(x).items()} and neg.tail == x.tail
            # the 2x2 minor x*v - y*u against its schoolbook value
            minor = pd._minor(((x, y), (u, v)), (0, 1), (0, 1))
            xv, yu = _schoolbook(q, ref[id(x)], ref[id(v)], "mul"), _schoolbook(q, ref[id(y)], ref[id(u)], "mul")
            want_terms, want_tail = _schoolbook(q, xv, ({e: -c for e, c in yu[0].items()}, yu[1]), "add")
            assert (_terms(minor), minor.tail, minor.val) == (want_terms, want_tail, min(want_terms, default=None)), q


def test_min_valuation_precision_guard():
    q = 2
    undetermined = _el(q, {}, 1)
    exact = _el(q, {2: 1}, 5)
    with pytest.raises(pd.PrecisionError):
        pd._min_valuation([undetermined, exact])
    ok = _el(q, {0: 1}, 5)
    assert pd._min_valuation([ok, undetermined]) == 0


def test_iwasawa_examples():
    q, n = 3, 3
    sl2 = pd._unipotent("SL2", q, n)
    assert pd.iwasawa_ord("SL2", sl2(_el(q, {-1: 1}, n))) == (1,)
    assert pd.iwasawa_ord("SL2", sl2(_el(q, {}, n))) == (0,)
    # torus element diag(t, t^{-1}) is the positive-coroot point of the coweight
    one, zero = _el(q, {0: 1}, n), _el(q, {}, n)
    tpos = ((_el(q, {1: 1}, n), zero), (zero, _el(q, {-1: 1}, n)))
    assert pd.iwasawa_ord("SL2", tpos) == (1,)
    # SL3 torus element diag(t, 1, t^{-1}) has coweight a1 + a2
    t3 = (
        (_el(q, {1: 1}, n), zero, zero),
        (zero, one, zero),
        (zero, zero, _el(q, {-1: 1}, n)),
    )
    assert pd.iwasawa_ord("SL3", t3) == (1, 1)
    with pytest.raises(pd.OracleError):
        pd.iwasawa_ord("SL3", sl2(zero))


def test_iwasawa_ord_refuses_a_matrix_of_the_wrong_shape():
    q, n = 3, 3
    one, zero = _el(q, {0: 1}, n), _el(q, {}, n)
    ragged = ((one, zero, zero), (zero, one), (zero, zero, one))
    square2 = ((one, zero), (zero, one))
    for group, g in (("SL3", ragged), ("SL2", ragged[:2]), ("SL3", square2)):
        with pytest.raises(pd.OracleError, match="^matrix size does not match the group$"):
            pd.iwasawa_ord(group, g)


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
    ind = hk.gk_mu(rd, ParabolicType(rd, []), 14).to_basis(hk.INDICATOR_BASIS)
    for q in (2, 3):
        for n in range(0, 6):
            value = pd.mu_oracle("SL2", (n,), q, 3)
            assert value == ind.coeff((n,)).eval(Fraction(q))
            assert value == pd.mu_oracle("SL2", (n,), q, 4)


def test_sl2_digit_count_equals_full_enumeration():
    # the digit count against one iwasawa_ord per cell of t^-w O mod t^n, w = target + 1
    for q in (2, 3):
        for target in range(-1, 6):
            for n in range(1, 5):
                w = max(target + 1, 0)
                if q ** (w + n) > 3**9:
                    continue
                full = pd._fibre_measures("SL2", q, (-w,), n).get((target,), Fraction(0))
                assert pd._mu_sl2((target,), q, n) == full, (q, target, n)


def test_sl3_fast_equals_full_enumeration():
    # the last case has a precision above w + 1, so x12 and x23 have digits from t^n2 and t^n1 on below t^n
    for lam, q, n in [((0, 0), 2, 3), ((1, 0), 2, 3), ((0, 1), 2, 3), ((1, 1), 2, 3), ((0, 0), 3, 2), ((0, 1), 2, 4)]:
        assert pd._mu_sl3_fast(lam, q, n) == pd._mu_sl3_full(lam, q, n), (lam, q, n)


def test_sl3_oracle_matches_table():
    rd = load_root_datum("A2")
    ind = hk.gk_mu(rd, ParabolicType(rd, []), 12).to_basis(hk.INDICATOR_BASIS)
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


def test_an_unknown_group_is_refused():
    with pytest.raises(pd.OracleError, match=r"^unknown group 'SL4'$"):
        pd.mu_oracle("SL4", (1, 1, 1), 2, 3)
    with pytest.raises(pd.OracleError, match=r"^unknown group 'SL4'; expected SL2 or SL3$"):
        pd.iwasawa_ord("SL4", ())
    with pytest.raises(pd.OracleError, match=r"^unknown group 'SL4'$"):
        pd.ball_histogram("SL4", 2, 1, 2)


def test_an_sl2_coweight_with_two_coordinates_is_refused():
    with pytest.raises(pd.OracleError, match="^SL2 coweights have one coordinate$"):
        pd.mu_oracle("SL2", (1, 0), 2, 3)


def test_the_sl2_cell_cap_is_checked_before_any_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("cells enumerated")

    monkeypatch.setattr(pd, "_sl2_prefix_hits", no_enumeration)
    with pytest.raises(AssertionError, match="^cells enumerated$"):
        pd.mu_oracle("SL2", (3,), 2, 3)
    with pytest.raises(pd.OracleError, match="^cell count exceeds the cap$"):
        pd.mu_oracle("SL2", (30,), 2, 3)


@pytest.mark.parametrize("lam", [(-1, 0), (0, -1), (-2, 3)])
def test_sl3_oracles_vanish_at_a_negative_coordinate_as_the_gk_table_does(lam):
    rd = load_root_datum("A2")
    table = hk.gk_mu(rd, ParabolicType(rd, []), 8).to_basis(hk.INDICATOR_BASIS)
    assert table.coeff(lam).is_zero()
    assert pd._mu_sl3_fast(lam, 2, 3) == 0
    assert pd._mu_sl3_full(lam, 2, 3) == 0
