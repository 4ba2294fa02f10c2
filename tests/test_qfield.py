import random
from fractions import Fraction
from math import gcd

import pytest

from heckelat.qfield import ONE, Q, QFieldError, RatFunc, ZERO, _content, _padd, _pdiv_exact, _pgcd, _pmul, _pneg, as_ratfunc, q_pow


def test_basic_identities():
    assert (Q**2 - 1) / (Q - 1) == Q + 1
    assert (Q + 1) * (Q - 1) == Q**2 - 1
    assert q_pow(-3) * q_pow(5) == Q**2
    assert q_pow(0) == ONE
    assert (Q / Q) == ONE
    assert Q - Q == ZERO


def test_canonical_form():
    r = RatFunc((2, 2), (4,))
    assert r.num == (1, 1) and r.den == (2,)
    s = RatFunc((0, -1), (0, 0, -1))
    # -q / -q^2 = 1/q
    assert s == q_pow(-1)
    assert s.den[-1] > 0


def test_eval_and_zero_division():
    f = (ONE - q_pow(-1)) * (Q + 1)
    assert f.eval(Fraction(2)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        q_pow(-1).eval(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_double_exponents():
    f = (Q**3 - 2 * Q) / (Q + 1)
    g = f.double_exponents()
    assert g == (Q**6 - 2 * Q**2) / (Q**2 + 1)


def test_half_power_rejected():
    with pytest.raises(QFieldError):
        q_pow(Fraction(3, 2))


def test_pow_and_coerce():
    assert as_ratfunc(Fraction(3, 4)) * 4 == 3
    assert (Q + 1) ** 0 == ONE
    assert (Q**2) ** -1 == q_pow(-2)
    assert 2 - Q == -(Q - 2)


def test_str_is_deterministic():
    f = (Q**2 - Q) / (Q + 1)
    assert str(f) == str((Q**2 - Q) / (Q + 1))
    assert str(Q**2 - Q) == "q^2 - q"


# -- differential checks of the Z[q] gcd and exact division ------------------

def _linear_product(roots):
    out = (1,)
    for r in roots:
        out = _pmul(out, (-r, 1))
    return out


def _rand_poly(rng, max_deg=4, span=6):
    while True:
        c = tuple(rng.randint(-span, span) for _ in range(rng.randint(1, max_deg + 1)))
        if c and c[-1]:
            return c


def _rand_ratfunc(rng):
    num = _rand_poly(rng) if rng.random() > 0.1 else ()
    shared = _linear_product(rng.sample(range(-3, 4), rng.randint(0, 2)))
    return RatFunc(_pmul(num, shared), _pmul(_rand_poly(rng, 3), shared))


def _assert_canonical(r: RatFunc):
    if not r.num:
        assert r.den == (1,)
        return
    assert r.den[-1] > 0
    assert gcd(_content(r.num), _content(r.den)) == 1
    assert _pgcd(r.num, r.den) == (1,)


def test_pgcd_recovers_a_planted_factor():
    rng = random.Random(20161)
    for _ in range(200):
        f = _rand_poly(rng, 4, 9)
        roots = rng.sample(range(-6, 7), rng.randint(0, 5))
        cut = rng.randint(0, len(roots))
        u, v = _linear_product(roots[:cut]), _linear_product(roots[cut:])
        c = rng.choice([-12, -3, -1, 1, 2, 5, 30])
        got = _pgcd(_pmul((c,), _pmul(f, u)), _pmul(f, v))
        expected = tuple(x // _content(f) for x in f)
        if expected[-1] < 0:
            expected = tuple(-x for x in expected)
        assert got == expected, (f, roots, cut, c)


def test_field_operations_commute_with_evaluation():
    rng = random.Random(20162)
    checked = 0
    for _ in range(300):
        a, b = _rand_ratfunc(rng), _rand_ratfunc(rng)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        try:
            ax, bx = a.eval(x), b.eval(x)
        except ZeroDivisionError:
            continue
        results = [(a + b, ax + bx), (a - b, ax - bx), (a * b, ax * bx)]
        if not b.is_zero():
            results.append((a / b, ax / bx if bx else None))
        for r, expected in results:
            _assert_canonical(r)
            if expected is not None:
                assert r.eval(x) == expected, (a, b, x)
        checked += 1
    assert checked > 200


def test_pdiv_exact_rejects_inexact_quotients():
    with pytest.raises(QFieldError):
        _pdiv_exact((1, 0, 1), (1, 1))  # (q^2 + 1) / (q + 1)
    with pytest.raises(QFieldError):
        _pdiv_exact((1, 1), (2,))  # (1 + q) / 2
    a = (3, 0, -2, 5)
    assert _pdiv_exact(a, (1,)) == a
    assert _pdiv_exact(_pmul(a, (1, 1)), (1, 1)) == a


# -- differential check of the Laurent normal form ------------------------------

def _poly_at(a, x):
    return sum((Fraction(c) * x**k for k, c in enumerate(a)), Fraction(0))


def _rand_den(rng):
    """A denominator of the kinds the program builds: an integer, q^k, or (q - 1) q^k, up to a constant."""
    qk = (0,) * rng.randint(0, 3) + (1,)
    shape = rng.choice([(1,), qk, _pmul(qk, (-1, 1))])
    return _pmul(shape, (rng.choice([-4, -1, 1, 2, 3]),))


def _rand_laurent(rng):
    """A random element with such a denominator, times q^k for k in -5..5 (so valuations go negative)."""
    num = _rand_poly(rng) if rng.random() > 0.1 else ()
    return RatFunc(num, _rand_den(rng)) * q_pow(rng.randint(-5, 5))


def _rand_raw_pair(rng):
    """A non-canonical (num, den): a shared factor with powers of q, content and sign on both sides."""
    shared = _pmul((0,) * rng.randint(0, 3) + (1,), _linear_product(rng.sample([-1, 1, 2], rng.randint(0, 2))))
    shared = _pmul(shared, (rng.choice([-6, -2, 1, 3]),))
    num = _pmul((0,) * rng.randint(0, 4) + (1,), _rand_poly(rng, 3)) if rng.random() > 0.1 else ()
    den = _pmul((0,) * rng.randint(0, 4) + (1,), _rand_den(rng))
    return _pmul(num, shared), _pmul(den, shared)


def _assert_same_value(r: RatFunc, s: RatFunc):
    assert r == s and hash(r) == hash(s), (r, s)
    assert (r.num, r.den) == (s.num, s.den)
    assert r.to_str() == s.to_str()


def test_laurent_normal_form_matches_the_coprime_pair():
    rng = random.Random(20163)
    checked = 0
    for _ in range(400):
        a = _rand_laurent(rng) if rng.random() < 0.7 else RatFunc(*_rand_raw_pair(rng))
        b = _rand_laurent(rng) if rng.random() < 0.7 else _rand_ratfunc(rng) * q_pow(rng.randint(-5, 5))
        p = RatFunc(_rand_poly(rng), (1,)) * q_pow(rng.randint(-5, 5))
        raw_num, raw_den = _rand_raw_pair(rng)
        c = RatFunc(raw_num, raw_den)
        _assert_canonical(c)
        sums = [
            (a + b, RatFunc(_padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))),
            (a - b, RatFunc(_padd(_pmul(a.num, b.den), _pneg(_pmul(b.num, a.den))), _pmul(a.den, b.den))),
            (a * b, RatFunc(_pmul(a.num, b.num), _pmul(a.den, b.den))),
            (a * q_pow(3) * q_pow(-3), a),
            (a + (p - a), p),  # p - a keeps the denominator of a, which the sum must cancel
            (a.double_exponents() * b.double_exponents(), (a * b).double_exponents()),
        ]
        if not b.is_zero():
            sums.append((a / b, RatFunc(_pmul(a.num, b.den), _pmul(a.den, b.num))))
        for r, s in sums:
            _assert_canonical(r)
            _assert_same_value(r, s)
        x = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))
        try:
            ax, bx, axx = a.eval(x), b.eval(x), a.eval(x * x)
            cx = _poly_at(raw_num, x) / _poly_at(raw_den, x)
        except ZeroDivisionError:
            continue
        assert c.eval(x) == cx and a.double_exponents().eval(x) == axx
        assert (a + b).eval(x) == ax + bx and (a * b).eval(x) == ax * bx
        if bx:
            assert (a / b).eval(x) == ax / bx
        checked += 1
    assert checked > 250


def test_laurent_elements_print_as_their_coprime_pair():
    assert q_pow(-2) == RatFunc((0, 3), (0, 0, 0, 3)) and q_pow(-2).num == (1,) and q_pow(-2).den == (0, 0, 1)
    f = RatFunc((0, 0, -2, 2), (0, 4))  # (2q^3 - 2q^2) / 4q = (q^2 - q)/2
    assert (f.num, f.den) == ((0, -1, 1), (2,)) and str(f) == "(q^2 - q)/(2)"
    assert str((ONE - q_pow(-1)) * q_pow(-2)) == "(q - 1)/(q^3)"
    assert str(Q - 1 + q_pow(-1)) == "(q^2 - q + 1)/(q)"
    assert ((Q - 1) / Q) / ((Q - 1) / Q**2) == Q
