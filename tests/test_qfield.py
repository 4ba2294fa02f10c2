import random
from fractions import Fraction
from math import gcd

import pytest

from heckelat.qfield import (
    ONE, Q, LaurentNumber, QFieldError, RatFunc, ZERO, _content, _lift, _padd, _pdiv_exact, _pgcd, _pmul, _pneg, as_ratfunc,
    numeric_q, q_pow, sum_of_products,
)


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


# -- differential check of the Laurent fast paths --------------------------------
# One-term products, one-pass sums and differences and monomial powers, each
# against the general route it replaces: the normal form of the (num, den) pair
# built with _padd and _pmul, and powers by repeated multiplication.

def _laurent(coeffs, v):
    """q^v times the polynomial coeffs, brought to normal form by the general constructor."""
    return RatFunc((0,) * v + tuple(coeffs), (1,)) if v >= 0 else RatFunc(tuple(coeffs), (0,) * -v + (1,))


def _rand_laurent_poly(rng):
    return _laurent(_rand_poly(rng), rng.randint(-5, 5))


def _general_sum(a, b, sign):
    return RatFunc(_padd(_pmul(a.num, b.den), _pmul((sign,), _pmul(b.num, a.den))), _pmul(a.den, b.den))


def _general_product(a, b):
    return RatFunc(_pmul(a.num, b.num), _pmul(a.den, b.den))


def _check_sum_and_difference(a, b):
    for r, s in [(a + b, _general_sum(a, b, 1)), (a - b, _general_sum(a, b, -1)),
                 (b + a, _general_sum(b, a, 1)), (b - a, _general_sum(b, a, -1))]:
        _assert_canonical(r)
        _assert_same_value(r, s)


def test_one_term_products_match_the_general_product():
    rng = random.Random(20191)
    for _ in range(300):
        m = _laurent((rng.choice([1, -1, 3]),), rng.randint(-5, 2))
        others = [ONE, ZERO, m, _rand_laurent_poly(rng), _rand_laurent(rng), _rand_ratfunc(rng)]
        for other in others:
            for r, s in [(m * other, _general_product(m, other)), (other * m, _general_product(other, m))]:
                _assert_canonical(r)
                _assert_same_value(r, s)
    p = _rand_laurent_poly(rng)
    assert ONE * p == p * ONE == p and (ZERO * p).is_zero() and (p * ZERO).is_zero()
    assert (-1 * p) == -p and 3 * q_pow(-2) * p == _general_product(_laurent((3,), -2), p)


def test_laurent_sums_match_the_general_sum():
    rng = random.Random(20192)
    for _ in range(300):
        n, v = _rand_poly(rng), rng.randint(-5, 5)
        a = _laurent(n, v)
        j = rng.randint(1, len(n))
        m = list(_rand_poly(rng, 5)) + [1]
        sign = rng.choice([1, -1])
        cases = [
            _rand_laurent_poly(rng),
            ONE, ZERO, -ONE, a, -a,  # a - a and a + (-a) cancel to zero
            # the lowest j terms cancel in a + b (sign 1) or a - b (sign -1), so the valuation moves
            _laurent([-sign * c for c in n[:j]] + m, v),
            # the highest terms cancel: the tops of a and b sit at the same degree
            _laurent(m[:-1] + [-sign * n[-1]], v + len(n) - len(m)),
            # a gap between the supports, on either side
            _laurent(_rand_poly(rng), v + len(n) + rng.randint(1, 4)),
            _laurent(_rand_poly(rng, 2), v - 3 - rng.randint(1, 4)),
        ]
        assert all(b._d == (1,) for b in cases)  # every operand is a Laurent polynomial
        for b in cases:
            _check_sum_and_difference(a, b)
        lowest = a + sign * cases[6]
        assert lowest.is_zero() or lowest._v > v
    p = _rand_laurent_poly(rng)
    assert (p - p).is_zero() and (p + (-p)).is_zero() and (-p - -p).is_zero()
    assert (p - p).den == (1,) and hash(p - p) == hash(ZERO)


def test_monomial_powers_match_repeated_multiplication():
    for v in range(-4, 5):
        for k in range(-5, 6):
            got, expected = q_pow(v) ** k, ONE
            for _ in range(abs(k)):
                expected = RatFunc(_pmul(expected.num, (0,) * max(v, 0) + (1,)), _pmul(expected.den, (0,) * max(-v, 0) + (1,)))
            if k < 0:
                expected = RatFunc(expected.den, expected.num)
            _assert_canonical(got)
            _assert_same_value(got, expected)
            assert got == q_pow(k * v)
    assert (-Q) ** 3 == -(Q**3) and (3 * Q) ** -2 == RatFunc((1,), (0, 0, 9))


def _pairwise_sum_of_products(pairs):
    total = ZERO
    for a, b in pairs:
        total = total + a * b
    return total


def test_sum_of_products_matches_the_pairwise_route():
    rng = random.Random(20291)
    # (q - 1)/q is a Laurent element written as a quotient; 1/(1 - q) and 1/2 are not Laurent
    others = [(Q - 1) / Q, ONE / (1 - Q), as_ratfunc(Fraction(1, 2))]
    assert sum_of_products([]) == ZERO and sum_of_products([(ZERO, Q), (Q, ZERO)]) == ZERO

    def one_term():
        return _laurent((rng.choice([1, -1, 3]),), rng.randint(-5, 2))

    def factor():
        return one_term() if rng.random() < 0.5 else _rand_laurent_poly(rng)

    lowest_moved = 0
    for _ in range(300):
        pairs = [(factor(), factor()) for _ in range(rng.randint(1, 5))]
        a, b = pairs[0]
        x, j, w = _general_product(a, b), rng.randint(1, 3), rng.randint(-2, 2)
        v = x._v
        # q^w * low cancels the lowest j coefficients of a * b
        low = _laurent([-c for c in x._n[:j]] + list(_rand_poly(rng, 3)), v - w)
        cases = [
            pairs,
            pairs + [(ZERO, factor()), (factor(), ZERO)],
            pairs + [(-a, b)],  # the first product cancels
            [(a, b), (a, -b)],  # cancels to zero
            [(a, b), (q_pow(w), low)],
            [(a, b), (low, q_pow(w)), (one_term(), ZERO)],
            pairs + [(rng.choice(others), factor())],
            [(rng.choice(others), rng.choice(others)), (factor(), rng.choice(others))] + pairs,
        ]
        for case in cases:
            got, want = sum_of_products(case), _pairwise_sum_of_products(case)
            _assert_canonical(got)
            _assert_same_value(got, want)
        moved = sum_of_products(cases[4])
        assert moved.is_zero() or moved._v > v
        lowest_moved += not moved.is_zero()
    assert lowest_moved > 250


def test_constants_hash_as_the_numbers_they_equal():
    assert len({ONE, 1}) == 1 and {ONE: "x"}.get(1) == "x" and {1: "x"}.get(ONE) == "x"
    for x in [0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 4)]:
        r = as_ratfunc(x)
        assert r == x and hash(r) == hash(x) and {x: 1}.get(r) == 1
    # constants reached through the general route hash the same way
    assert hash((Q + 1) / (2 * Q + 2)) == hash(Fraction(1, 2)) and hash(Q - Q) == hash(0)
    assert hash(q_pow(-1) * Q) == hash(1)
    assert len({Q, Q * 1, q_pow(1), Q + 0}) == 1


def test_eval_matches_summing_powers():
    rng = random.Random(20193)
    xs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 4), Fraction(5, 7), 3]
    checked = 0
    for _ in range(300):
        r = _rand_laurent(rng) if rng.random() < 0.6 else _rand_ratfunc(rng) * q_pow(rng.randint(-5, 5))
        for x in xs:
            x = Fraction(x)
            den = _poly_at(r.den, x)
            if den == 0:
                with pytest.raises(ZeroDivisionError, match=f"denominator vanishes at q={x}"):
                    r.eval(x)
                continue
            got, expected = r.eval(x), _poly_at(r.num, x) / den
            assert type(got) is Fraction and got == expected and str(got) == str(expected), (r, x)
            checked += 1
    assert checked > 1500


def test_a_zero_denominator_and_a_non_number_are_refused():
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        RatFunc((1,), ())
    with pytest.raises(TypeError, match=r"^cannot interpret 'x' as a rational function$"):
        as_ratfunc("x")


# ---------------------------------------------------------------------------
# LaurentNumber: n q^v at an integral q, which must act as the Fraction it equals


def _in_z_inverse_q(x: Fraction, q: int) -> bool:
    """x lies in Z[1/q]: its denominator divides a power of q."""
    d = x.denominator
    while (g := gcd(d, q)) > 1:
        d //= g
    return d == 1


def _rand_laurent_number(rng, q):
    """(x, the Fraction it equals) for x = c q^k built through the class; c may be divisible by q."""
    c, k = rng.choice([0, 1, -1, 2, 3, -4, 6, 9, q, -2 * q]), rng.randint(-3, 3)
    return c * numeric_q(q) ** k, Fraction(c) * Fraction(q) ** k


def _assert_laurent_number(x, want, q):
    """x is a canonical LaurentNumber at q that compares, hashes and prints as want."""
    assert type(x) is LaurentNumber and x.q == q, (x, want)
    assert (x.n, x.v) == (0, 0) if x.n == 0 else x.n % q != 0, x
    assert x == want and want == x and hash(x) == hash(want) and str(x) == str(want), (x, want)


@pytest.mark.parametrize("q", (2, 3, 4, 6))
def test_laurent_numbers_act_as_the_fractions_they_equal(q):
    rng = random.Random(q)
    for _ in range(300):
        (a, fa), (b, fb) = _rand_laurent_number(rng, q), _rand_laurent_number(rng, q)
        # ints and Fractions over a power of q stay in the class
        k = rng.choice([5, -2, q, Fraction(7), Fraction(-2 * q), Fraction(5, q**2), Fraction(-1, q)])
        _assert_laurent_number(a, fa, q)
        for got, want in [
            (a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (-a, -fa), (a**3, fa**3), (a**0, 1),
            (a + k, fa + k), (k + a, k + fa), (a - k, fa - k), (k - a, k - fa), (a * k, fa * k), (k * a, k * fa),
        ]:
            _assert_laurent_number(got, want, q)
        for x, y, fx, fy in ((a, b, fa, fb), (a, k, fa, k), (k, a, k, fa)):
            if fy:
                got, want = x / y, fx / fy
                assert got == want and hash(got) == hash(want) and str(got) == str(want), (x, y)
                if any(abs(fy) == Fraction(q) ** m for m in range(-8, 9)):  # by a unit times q^m: stays in Z[1/q]
                    _assert_laurent_number(got, want, q)
                if not _in_z_inverse_q(want, q):
                    assert type(got) is Fraction, (x, y)
        r = Fraction(rng.choice([1, -5]), rng.choice([7, 11]))  # a Fraction outside Z[1/q]: the Fraction's arithmetic
        for got, want in ((a + r, fa + r), (r + a, r + fa), (a - r, fa - r), (r - a, r - fa), (a * r, fa * r), (r * a, r * fa)):
            assert type(got) is Fraction and got == want


def test_laurent_number_canonical_form_printing_and_fallbacks():
    q2, q3, q4 = numeric_q(Fraction(2)), numeric_q(3), numeric_q(Fraction(4))
    half = 2 * q4**-1
    assert (half.n, half.v) == (2, -1) and str(half) == "1/2" and half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {Fraction(1, 2): "x"}[half] == "x" and {half: "x"}[Fraction(1, 2)] == "x" and len({half, Fraction(1, 2)}) == 1
    four = q4**0 * 2 * 2  # at q = 4 a product is divisible by q
    assert (four.n, four.v) == (1, 1) and four == 4 and hash(four) == hash(4)
    zero = q3 - q3
    assert (zero.n, zero.v) == (0, 0) and zero == 0 and not zero and str(zero) == "0" and hash(zero) == 0
    assert 1 / q2 == Fraction(1, 2) and type(1 / q2) is LaurentNumber
    assert (5 * q3**2) / -q3 == -15 and type((5 * q3**2) / -q3) is LaurentNumber
    for got, want in ((1 / (q3 - 1), Fraction(1, 2)), (q2 / 3, Fraction(2, 3)), ((3 * q2) ** -1, Fraction(1, 6)), (q2 / (q2 + 1), Fraction(2, 3))):
        assert type(got) is Fraction and got == want
    with pytest.raises(ZeroDivisionError):
        q2 / (q2 - q2)
    assert repr(q2**-3 * 5) == "LaurentNumber(5*2^-3)"
    # a Fraction over a power q^k is lifted as (numerator, -k); one over another divisor of a power of q is not
    for q, x, nv in ((2, Fraction(3, 4), (3, -2)), (4, Fraction(3, 16), (3, -2)), (3, Fraction(-2), (-2, 0))):
        lifted = _lift(q, x)
        assert (lifted.n, lifted.v) == nv and lifted == x and x == lifted and hash(lifted) == hash(x), (q, x)
        _assert_laurent_number(numeric_q(q) + x, q + x, q)
        _assert_laurent_number(x * numeric_q(q), x * q, q)
    assert _lift(4, Fraction(1, 2)) is None and _lift(2, Fraction(1, 6)) is None
    assert type(q4 + Fraction(1, 2)) is Fraction and q4 + Fraction(1, 2) == Fraction(9, 2)
    assert numeric_q(q3) is q3 and numeric_q(Q) is Q
    for other in (Fraction(3, 2), Fraction(1), Fraction(-2), 1):
        assert numeric_q(other) is other
