"""Closed-form constants: full-independence baseline, sharp pairwise value,
and the even-order interpolation bound."""
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest

from kwise.bounds import haagerup_constant, interpolation_bound, sharp_pairwise_value
from kwise.intervals import Interval, nth_root


def mp_decimal(v, digits=35):
    return Decimal(mpmath.nstr(v, digits, strip_zeros=False))


def test_baseline_is_one_up_to_two():
    assert haagerup_constant(1).contains(1)
    assert haagerup_constant(2) == Interval.point(1)
    assert haagerup_constant(Fraction(3, 2)).contains(1)


def test_baseline_p4_is_fourth_root_of_three():
    iv = haagerup_constant(4)
    root = nth_root(Fraction(3), 4, 200)
    assert iv.contains(root.lo) and iv.contains(root.hi)
    assert iv.width < Fraction(1, 10**25)


@pytest.mark.parametrize("p", [4, 6, 8, 10])
def test_baseline_even_orders_are_double_factorials(p):
    """C(p)^p = (p-1)!! for even p."""
    dfact = 1
    for i in range(p - 1, 0, -2):
        dfact *= i
    assert haagerup_constant(p).pow_int(p).contains(dfact)


@pytest.mark.parametrize(
    "p", [Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(21, 4),
          Fraction(2000), Fraction(2001), Fraction(4001, 2)]
)
def test_baseline_matches_gamma_formula(p):
    """sqrt(2) (Gamma((p+1)/2)/sqrt(pi))^(1/p), checked against mpmath."""
    iv = haagerup_constant(p, 160)
    with mpmath.workdps(60):
        pm = mpmath.mpf(p.numerator) / p.denominator
        want = mpmath.sqrt(2) * (mpmath.gamma((pm + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / pm)
        lo, hi = iv.decimal_bounds(30)
        assert Decimal(lo) <= mp_decimal(want) <= Decimal(hi)


def test_baseline_increases_in_p():
    values = [haagerup_constant(p, 128) for p in (3, 4, 5, 6, 8)]
    for a, b in zip(values, values[1:]):
        assert a.hi < b.lo


def test_baseline_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        haagerup_constant(0)


@pytest.mark.parametrize("n,p", [(2, 3), (4, 4), (6, 5), (8, 6), (10, 4)])
def test_sharp_pairwise_value_closed_form(n, p):
    """The extremal pairwise moment is n^(p-1); the normalized constant is
    then n^(1/2 - 1/p)."""
    iv = sharp_pairwise_value(n, p, 160)
    want = nth_root(Fraction(n) ** (p - 2), 2 * p, 200)
    assert iv.lo <= want.hi and want.lo <= iv.hi
    moment = iv.pow_int(p) * Interval.point(Fraction(n)).pow_int(p).nth_root(2, 200)
    assert moment.contains(Fraction(n) ** (p - 1))


@pytest.mark.parametrize("n,p", [(10, Fraction(2001)), (10, Fraction(4001, 2000)), (16, Fraction(129, 2))])
def test_sharp_pairwise_value_large_orders(n, p):
    iv = sharp_pairwise_value(n, p)
    with mpmath.workdps(60):
        want = mpmath.mpf(n) ** (mpmath.mpf(1) / 2 - mpmath.mpf(p.denominator) / p.numerator)
        lo, hi = iv.decimal_bounds(30)
        assert Decimal(lo) <= mp_decimal(want) <= Decimal(hi)
    assert iv.width < Fraction(1, 2**120)


def test_sharp_pairwise_value_rational_points():
    # n^(1/2 - 1/p) is rational when the exponent clears denominators:
    # 16^(1/2 - 1/4) = 2, and p = 2 kills the exponent for every n
    assert sharp_pairwise_value(16, 4).contains(Fraction(2))
    assert sharp_pairwise_value(16, 4).width < Fraction(1, 2**100)
    assert sharp_pairwise_value(6, 2).contains(Fraction(1))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("p,k", [(4, 4), (6, 4), (6, 6), (8, 4), (2001, 4)])
def test_interpolation_bound_formula(n, p, k):
    """C(k)^(k/p) n^(1/2 - k/(2p)) for even k <= p, against mpmath."""
    iv = interpolation_bound(n, p, k, 160)
    dfact = 1
    for i in range(k - 1, 0, -2):
        dfact *= i
    with mpmath.workdps(60):
        want = mpmath.mpf(dfact) ** (mpmath.mpf(1) / p) * mpmath.mpf(n) ** (
            mpmath.mpf(1) / 2 - mpmath.mpf(k) / (2 * p)
        )
        lo, hi = iv.decimal_bounds(30)
        assert Decimal(lo) <= mp_decimal(want) <= Decimal(hi)


def test_interpolation_bound_beats_baseline_for_small_n():
    # for fixed p the bound grows like sqrt(n): it must eventually exceed the
    # n-free baseline, and undercut it when n is small
    p, k = 8, 4
    small = interpolation_bound(2, p, k, 128)
    large = interpolation_bound(10**6, p, k, 128)
    base = haagerup_constant(p, 128)
    assert small.hi < base.lo
    assert large.lo > base.hi


def test_interpolation_bound_requires_even_k_at_most_p():
    with pytest.raises(ValueError):
        interpolation_bound(8, 6, 3)
    with pytest.raises(ValueError):
        interpolation_bound(8, 4, 6)


def test_interpolation_matches_sharp_at_k2():
    """At k = 2 the interpolation exponent collapses to the sharp pairwise
    constant n^(1/2 - 1/p)."""
    for n, p in ((4, 4), (8, 6)):
        a = interpolation_bound(n, p, 2, 160)
        b = sharp_pairwise_value(n, p, 160)
        assert a.lo <= b.hi and b.lo <= a.hi
