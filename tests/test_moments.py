"""Exact moments of weighted sign sums and the normalized ratio."""
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kwise.moments as moments
from kwise.constructions import partition_space
from kwise.core import SampleSpace, uniform_cube
from kwise.intervals import DEFAULT_PREC, Interval, nth_root, rational_power
from kwise.moments import (
    REL_TOL_BITS,
    Weights,
    even_moment_independent,
    khintchine_ratio,
    pth_moment,
    ratio_from_moment,
)

weight_lists = st.lists(
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12),
    min_size=1,
    max_size=8,
).filter(lambda v: any(v))


def dot_bits(a: Weights, bits: int) -> Fraction:
    """<a, x> in Fractions, straight from the definition, for the sign vector
    x whose bit i is set iff x_i = +1."""
    return sum((w if bits >> i & 1 else -w for i, w in enumerate(a.a)), Fraction(0))


def test_weights_basics():
    a = Weights.from_strings(["1", "-2/3", "5"])
    assert a.n == 3
    assert a.l2sq == 1 + Fraction(4, 9) + 25
    # bits select the +1 coordinates: 0b101 keeps signs (+, -, +)
    assert dot_bits(a, 0b101) == 1 + Fraction(2, 3) + 5


def test_weights_reject_empty_and_zero():
    with pytest.raises(ValueError):
        Weights(())
    with pytest.raises(ValueError):
        Weights.all_ones(0)


def brute_moment(space, a, p):
    return sum(m * abs(dot_bits(a, bits)) ** p for bits, m in space.masses.items())


@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_integer_moment_matches_brute_force(n, p, data):
    vals = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6),
            min_size=n,
            max_size=n,
        ).filter(lambda v: any(v))
    )
    a = Weights(tuple(vals))
    space = uniform_cube(n)
    result = pth_moment(space, a, p)
    assert isinstance(result.value, Fraction)
    assert result.value == brute_moment(space, a, p)


def fraction_moment(space, a, p):
    """The moment summed in Fractions atom by atom: exact for integer p, and
    for other p one root per distinct |<a, x>|, retried at doubled precision
    until the relative width is below 2**-REL_TOL_BITS."""
    if p.denominator == 1:
        return brute_moment(space, a, p.numerator)
    mass = {}
    for bits, m in space.masses.items():
        dot = abs(dot_bits(a, bits))
        mass[dot] = mass.get(dot, Fraction(0)) + m
    work = DEFAULT_PREC
    while True:
        value = Interval.point(0)
        for dot, m in mass.items():
            value = value + m * rational_power(dot, p, work)
        if value.hi == 0 or value.width * (1 << REL_TOL_BITS) <= value.hi:
            return value
        work *= 2


@given(st.integers(1, 6), st.data())
def test_moment_on_rational_laws_is_the_fraction_sum(n, data):
    """Integer numerators over common denominators give the same Fraction,
    and the same Interval, as summing Fractions atom by atom."""
    atoms = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=10, unique=True))
    raw = [Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 12))) for _ in atoms]
    space = SampleSpace(n, [(x, w / sum(raw)) for x, w in zip(atoms, raw)])
    a = Weights(tuple(data.draw(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                 min_size=n, max_size=n).filter(any))))
    p = data.draw(st.sampled_from([Fraction(1), Fraction(3), Fraction(4), Fraction(5, 2), Fraction(7, 3)]))
    assert pth_moment(space, a, p).value == fraction_moment(space, a, p)


def test_second_moment_is_l2_norm_squared():
    for n in (1, 3, 5):
        space = uniform_cube(n)
        a = Weights(tuple(Fraction(i + 1, 2) for i in range(n)))
        assert pth_moment(space, a, 2).value == a.l2sq


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8])
def test_partition_moment_closed_form(n, p):
    """All-ones weights on the partition law: only the unanimous atoms
    contribute, each |sum| = n, so the moment is n^(p-1)."""
    space = partition_space(n)
    a = Weights.all_ones(n)
    assert pth_moment(space, a, p).value == Fraction(n) ** (p - 1)


def test_fractional_moment_encloses_rational_answer():
    space = partition_space(4)
    a = Weights.all_ones(4)
    result = pth_moment(space, a, Fraction(5, 2))
    # |sum| is 0 or 4, so E|sum|^(5/2) = (1/4) * 4^(5/2) = 8
    assert isinstance(result.value, Interval)
    assert result.value.contains(8)
    assert result.value.width <= Fraction(1, 2**40)


def test_fractional_moment_with_irrational_answer():
    space = uniform_cube(2)
    a = Weights((Fraction(1), Fraction(2)))
    result = pth_moment(space, a, Fraction(3, 2))
    # (2 * 1^1.5 + 2 * 3^1.5) / 4
    expected = (Interval.point(1) + nth_root(Fraction(27), 2, 96)) * Fraction(1, 2)
    assert result.value.lo <= expected.hi and expected.lo <= result.value.hi


@pytest.mark.parametrize("law", [uniform_cube, partition_space])
def test_large_integer_order_is_the_weight_class_sum(law):
    """At p = 4095 on 2^16 atoms, each distinct |<a, x>| is powered once;
    the value is the exact sum over the Hamming weight classes."""
    n, p = 16, 4095
    space = law(n)
    cls = {}
    for bits, prob in space.masses.items():
        m = bits.bit_count()
        cls[m] = cls.get(m, 0) + prob
    assert len(cls) == (n + 1 if law is uniform_cube else 3)
    if law is uniform_cube:
        assert all(cls[m] == Fraction(comb(n, m), 1 << n) for m in range(n + 1))
    want = sum((q * abs(2 * m - n) ** p for m, q in cls.items()), Fraction(0))
    assert pth_moment(space, Weights.all_ones(n), p).value == want


def test_fractional_moment_retries_at_doubled_precision(monkeypatch):
    """Weights near 1e-30 at p = 7/2 give a moment near 1e-105, whose first
    enclosure is too wide; the retry doubles the working precision until the
    relative width is below 2**-REL_TOL_BITS."""
    precs = []

    def spy(x, e, prec, _real=rational_power):
        precs.append(prec)
        return _real(x, e, prec)

    monkeypatch.setattr(moments, "rational_power", spy)
    a = Weights.from_strings(["1e-30", "2e-30", "3e-30"])
    p = Fraction(7, 2)
    value = pth_moment(uniform_cube(3), a, p).value
    assert precs[0] == DEFAULT_PREC and max(precs) > DEFAULT_PREC
    assert 0 < value.width * (1 << REL_TOL_BITS) <= value.hi
    with mpmath.workdps(80):
        def mpf(q):
            return mpmath.mpf(q.numerator) / q.denominator

        want = sum(abs(mpf(dot_bits(a, bits))) ** mpf(p) for bits in range(8)) / 8
        assert mpf(value.lo) <= want <= mpf(value.hi)


def test_even_moment_independent_closed_forms():
    for n in (1, 2, 5, 9):
        a = Weights.all_ones(n)
        assert even_moment_independent(a, 2) == n
        # E(sum)^4 = 3n^2 - 2n for unit weights
        assert even_moment_independent(a, 4) == 3 * n * n - 2 * n


@given(weight_lists)
def test_even_moment_independent_matches_enumeration(vals):
    a = Weights(tuple(vals))
    if a.n > 6:
        return
    space = uniform_cube(a.n)
    for p in (2, 4, 6):
        assert even_moment_independent(a, p) == brute_moment(space, a, p)


def test_even_moment_independent_rejects_odd_order():
    with pytest.raises(ValueError):
        even_moment_independent(Weights.all_ones(3), 3)


def test_ratio_from_moment_exact_square():
    # value 64 at p = 4 over l2sq = 4: (64)^(1/4) / 2 = 2^(3/2) / 2 = sqrt(2)
    ratio = ratio_from_moment(Fraction(64), 4, Fraction(4))
    assert ratio.contains(nth_root(Fraction(2), 2, 200))


def test_ratio_normalization_is_scale_invariant():
    space = uniform_cube(3)
    a = Weights((Fraction(1), Fraction(2), Fraction(2)))
    b = Weights((Fraction(3), Fraction(6), Fraction(6)))
    ra = khintchine_ratio(space, a, 4)
    rb = khintchine_ratio(space, b, 4)
    assert ra.lo <= rb.hi and rb.lo <= ra.hi
    assert (ra.width + rb.width) <= Fraction(1, 2**30)


def test_khintchine_ratio_at_p2_is_one():
    space = uniform_cube(4)
    assert khintchine_ratio(space, Weights.all_ones(4), 2).contains(1)


def test_moment_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        pth_moment(uniform_cube(3), Weights.all_ones(2), 2)


def test_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        pth_moment(uniform_cube(2), Weights.all_ones(2), 0)
    with pytest.raises(ValueError):
        pth_moment(uniform_cube(2), Weights.all_ones(2), Fraction(-1, 2))
