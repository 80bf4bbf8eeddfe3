"""Certified enclosures checked against mpmath at higher working precision."""
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwise.intervals import (
    Interval,
    exp_interval,
    gamma_interval,
    int_nth_root,
    log_interval,
    loggamma_interval,
    nth_root,
    pi_interval,
    rational_power,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
)


def encloses(iv: Interval, mp_value, digits: int = 30) -> bool:
    lo, hi = iv.decimal_bounds(digits)
    v = Decimal(mpmath.nstr(mp_value, digits + 10, strip_zeros=False))
    return Decimal(lo) <= v <= Decimal(hi)


def test_interval_basics():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    assert iv.contains(Fraction(2, 5))
    assert not iv.contains(Fraction(3, 5))
    assert iv.width == Fraction(1, 6)
    assert iv.midpoint == Fraction(5, 12)
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_decimal_bounds_round_outward():
    iv = Interval(Fraction(1, 3), Fraction(2, 3))
    lo, hi = iv.decimal_bounds(5)
    assert Decimal(lo) == Decimal("0.33333")
    assert Decimal(hi) == Decimal("0.66667")


def test_decimal_bounds_beyond_int_string_limit():
    # integer parts of 5001 digits, beyond the interpreter's default 4300
    big = 10**5000
    iv = Interval(-Fraction(3 * big + 1, 3), Fraction(3 * big + 2, 3))
    lo, hi = iv.decimal_bounds(4)
    assert lo == "-1" + "0" * 5000 + ".3334"
    assert hi == "1" + "0" * 5000 + ".6667"
    assert iv.decimal_bounds(0) == ("-1" + "0" * 4999 + "1", "1" + "0" * 4999 + "1")


def test_division_by_zero_straddling_interval():
    with pytest.raises(ZeroDivisionError):
        Interval.point(1) / Interval(Fraction(-1), Fraction(1))


def test_pow_int_even_power_straddling_zero():
    iv = Interval(Fraction(-2), Fraction(3))
    sq = iv.pow_int(2)
    assert sq.lo == 0 and sq.hi == 9
    assert iv.pow_int(0).contains(1)
    assert iv.pow_int(3).lo == -8


@given(rationals, rationals, rationals, rationals)
def test_arithmetic_containment(a, b, x, y):
    """x in [A], y in [B] implies x op y in [A] op [B]."""
    ia = Interval(min(a, x), max(a, x)).round_out(20)
    ib = Interval(min(b, y), max(b, y)).round_out(20)
    assert (ia + ib).contains(x + y)
    assert (ia - ib).contains(x - y)
    assert (ia * ib).contains(x * y)
    if not ib.contains(0):
        assert (ia / ib).contains(x / y)


@given(st.integers(0, 10**12), st.integers(1, 7))
def test_int_nth_root_floor(n, k):
    r = int_nth_root(n, k)
    assert r**k <= n < (r + 1) ** k


def test_nth_root_exact_collapse():
    assert nth_root(Fraction(27, 8), 3) == Interval.point(Fraction(3, 2))
    assert nth_root(Fraction(0), 5) == Interval.point(0)


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=1000),
    st.integers(2, 6),
)
def test_nth_root_encloses_and_is_tight(x, k):
    iv = nth_root(x, k, prec=80)
    assert iv.width <= Fraction(1, 2**80)
    assert iv.lo**k <= x <= iv.hi**k


def test_pi_against_mpmath():
    with mpmath.workdps(60):
        assert encloses(pi_interval(160), mpmath.pi)
    assert pi_interval(160).width <= Fraction(1, 2**150)


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(2), Fraction(10), Fraction(7, 5)])
def test_log_against_mpmath(x):
    with mpmath.workdps(60):
        assert encloses(log_interval(x, 160), mpmath.log(mpmath.mpf(x.numerator) / x.denominator))


def test_log_of_one_is_zero():
    assert log_interval(Fraction(1), 100).contains(0)


@pytest.mark.parametrize("x", [Fraction(-3), Fraction(0), Fraction(1), Fraction(7, 3)])
def test_exp_against_mpmath(x):
    with mpmath.workdps(60):
        assert encloses(exp_interval(x, 160), mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))


@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(3, 2), Fraction(5), Fraction(7, 2), Fraction(25, 4)]
)
def test_gamma_against_mpmath(x):
    with mpmath.workdps(60):
        xm = mpmath.mpf(x.numerator) / x.denominator
        assert encloses(gamma_interval(x, 160), mpmath.gamma(xm))
        assert encloses(loggamma_interval(x, 160), mpmath.loggamma(xm))


def test_gamma_exact_points():
    assert gamma_interval(Fraction(5), 100).contains(24)
    # Gamma(1/2)^2 = pi
    g = gamma_interval(Fraction(1, 2), 120)
    assert g.pow_int(2).contains(pi_interval(120))


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50), max_denominator=50),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12),
)
def test_rational_power_against_mpmath(x, e):
    iv = rational_power(x, e, prec=96)
    with mpmath.workdps(50):
        xm = mpmath.mpf(x.numerator) / x.denominator
        em = mpmath.mpf(e.numerator) / e.denominator
        assert encloses(iv, xm**em, digits=24)


def test_rational_power_integer_exponent_is_exact():
    assert rational_power(Fraction(3, 2), Fraction(4), 64).contains(Fraction(81, 16))
    assert rational_power(Fraction(5), Fraction(-2), 64).contains(Fraction(1, 25))


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _mp_product(bases, exps):
    out = mpmath.mpf(1)
    for b, f in zip(bases, exps):
        out *= _mp(Fraction(b)) ** _mp(Fraction(f))
    return out


@pytest.mark.parametrize(
    "bases, exps, route",
    [
        # one root: d <= ROOT_MAX_DEGREE and a radicand of at most ROOT_MAX_BITS
        ((Fraction(7, 3),), (Fraction(5, 64),), "root"),
        ((Fraction(10),), (Fraction(-63, 64),), "root"),
        ((Interval(Fraction(5, 4), Fraction(4, 3)), Fraction(3)), (Fraction(2, 7), Fraction(-1, 2)), "root"),
        ((Fraction(2**999 + 1),), (Fraction(65, 2),), "root"),
        # exp/log: d above ROOT_MAX_DEGREE, or a radicand above ROOT_MAX_BITS
        ((Fraction(7, 3),), (Fraction(6, 65),), "log"),
        ((Fraction(10),), (Fraction(-64, 65),), "log"),
        ((Interval(Fraction(5, 4), Fraction(4, 3)), Fraction(3)), (Fraction(2, 67), Fraction(-1, 2)), "log"),
        ((Fraction(2**999 + 1),), (Fraction(67, 2),), "log"),
        ((Fraction(1, 2**999 + 1), Fraction(5)), (Fraction(67, 2), Fraction(-1, 3)), "log"),
    ],
)
def test_rational_power_both_routes_against_mpmath(monkeypatch, bases, exps, route):
    from kwise import intervals

    roots = []
    real_nth_root = intervals.nth_root
    monkeypatch.setattr(intervals, "nth_root", lambda *a: roots.append(a) or real_nth_root(*a))
    prec = 96
    iv = rational_power(bases, exps, prec)
    assert bool(roots) == (route == "root")
    # the product is monotone in each base: its range is spanned by two corners
    low, high = [], []
    for b, f in zip(bases, exps):
        lo, hi = (b.lo, b.hi) if isinstance(b, Interval) else (b, b)
        low.append(lo if f > 0 else hi)
        high.append(hi if f > 0 else lo)
    with mpmath.workdps(400):
        lo, hi = _mp_product(low, exps), _mp_product(high, exps)
        assert _mp(iv.lo) <= lo and hi <= _mp(iv.hi)
        slack = mpmath.mpf(2) ** (8 - prec) * max(1, hi)
        assert _mp(iv.lo) >= lo - slack and _mp(iv.hi) <= hi + slack


def test_rational_power_collapses_rational_products_to_points():
    assert rational_power((Fraction(16), Fraction(9)), (Fraction(1, 4), Fraction(-1, 2))) == \
        Interval.point(Fraction(2, 3))
    assert rational_power(Fraction(27, 8), Fraction(-2, 3)) == Interval.point(Fraction(4, 9))
    assert rational_power(Fraction(0), Fraction(1, 3)) == Interval.point(0)
    assert rational_power(Interval(Fraction(0), Fraction(4)), Fraction(1, 2)) == \
        Interval(Fraction(0), Fraction(2))


@pytest.mark.parametrize(
    "bases, exps",
    [(Fraction(0), Fraction(-1, 2)), (Fraction(0), Fraction(0)), (Fraction(-1), Fraction(1, 3)),
     ((Interval(Fraction(0), Fraction(1)),), (Fraction(-1),))],
)
def test_rational_power_rejects_bases_it_cannot_enclose(bases, exps):
    with pytest.raises(ValueError):
        rational_power(bases, exps)


def test_log_of_a_long_mantissa():
    from math import factorial

    x = Fraction(factorial(3000), factorial(2999) + 1)
    iv = log_interval(x, 160)
    with mpmath.workdps(80):
        want = mpmath.log(factorial(3000)) - mpmath.log(factorial(2999) + 1)
        assert _mp(iv.lo) <= want <= _mp(iv.hi)
    assert iv.width < Fraction(1, 2**150)


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 3), Fraction(7, 23), Fraction(2**200 + 1, 3**130)])
@pytest.mark.parametrize("prec", [64, 300])
def test_atanh_series_encloses_at_its_own_precision(t, prec):
    from kwise.intervals import _atanh_series

    iv = _atanh_series(t, prec)
    with mpmath.workdps(200):
        want = mpmath.atanh(_mp(t))
        assert _mp(iv.lo) <= want <= _mp(iv.hi)
    assert iv.width < Fraction(1, 2 ** (prec + 2))


@pytest.mark.parametrize("t", [Fraction(1, 5), Fraction(1, 239), Fraction(7, 23), Fraction(2**200 + 1, 3**130)])
@pytest.mark.parametrize("prec", [64, 300])
def test_alternating_series_encloses_atan(t, prec):
    from kwise.intervals import _atanh_series

    iv = _atanh_series(t, prec, -1)
    with mpmath.workdps(200):
        want = mpmath.atan(_mp(t))
        assert _mp(iv.lo) <= want <= _mp(iv.hi)
    assert iv.width < Fraction(1, 2 ** (prec + 2))


def _nearest_dyadic_bracket(value, p):
    with mpmath.workprec(2300):
        f = int(mpmath.floor(value() * mpmath.mpf(2) ** p))
    return Interval(Fraction(f, 1 << p), Fraction(f + 1, 1 << p))


def test_pi_and_log2_are_the_nearest_dyadic_brackets():
    from kwise.intervals import _log2_interval

    for p in [*range(1, 301), *range(301, 2201, 13)]:
        assert pi_interval(p) == _nearest_dyadic_bracket(lambda: mpmath.pi, p), p
    for p in [*range(1, 301), *range(301, 1201, 13)]:
        assert _log2_interval(p) == _nearest_dyadic_bracket(lambda: mpmath.log(2), p), p


@pytest.mark.parametrize("exponent", [Fraction(4095, 2), Fraction(4095, 16), Fraction(4095, 64)])
@pytest.mark.parametrize("radicand", [Fraction(9901) ** 4095, Fraction(1, 9999**4095)])
def test_nth_root_brackets_large_radicands(radicand, exponent):
    """The radicands `rational_power` roots for bases near 10^4 and exponents
    of numerator 4095, and their reciprocals."""
    k, prec = exponent.denominator, 128
    iv = nth_root(radicand, k, prec)
    r = iv.lo * (1 << prec)
    assert r.denominator == 1 and iv.width == Fraction(1, 1 << prec)
    a, b = radicand.numerator, radicand.denominator
    target = a << (k * prec)
    assert r.numerator**k * b <= target < (r.numerator + 1) ** k * b


@pytest.mark.parametrize("k", [2, 3, 64, 4095])
def test_int_nth_root_floor_of_long_integers(k):
    import random

    rng = random.Random(k)
    root = rng.getrandbits(65000 // k) | 1 << (65000 // k - 1)
    for n in (rng.getrandbits(rng.randrange(60000, 70001)) | 1 << 59999, root**k, root**k - 1):
        r = int_nth_root(n, k)
        assert r**k <= n < (r + 1) ** k
