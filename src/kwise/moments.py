"""Exact p-th moments of weighted sign sums and their Khintchine ratios."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence, Union

from .core import SampleSpace
from .intervals import DEFAULT_PREC, Interval, rational_power

Value = Union[Fraction, Interval]

# fractional-order moments are retried at doubled precision until their
# relative width is below 2**-REL_TOL_BITS
REL_TOL_BITS = 60


@dataclass(frozen=True, slots=True)
class Weights:
    """Rational weight vector for the sum sum_i a_i x_i; not all zero."""

    a: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.a:
            raise ValueError("weight vector is empty")
        if all(w == 0 for w in self.a):
            raise ValueError("weight vector is identically zero")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def l2sq(self) -> Fraction:
        return sum((w * w for w in self.a), Fraction(0))

    @classmethod
    def all_ones(cls, n: int) -> "Weights":
        return cls((Fraction(1),) * n)

    @classmethod
    def from_strings(cls, parts: Sequence[str]) -> "Weights":
        return cls(tuple(Fraction(s) for s in parts))

    def integer_form(self) -> tuple[int, list[int]]:
        """(den, w) with a_i = w[i] / den: the weights as integer numerators
        over their common denominator."""
        den = lcm(*(v.denominator for v in self.a))
        return den, [v.numerator * (den // v.denominator) for v in self.a]


@dataclass(frozen=True, slots=True)
class MomentResult:
    """p-th absolute moment of a weighted sign sum, with the scale-free ratio
    moment^(1/p) / l2-norm attached as a certified enclosure."""

    p: Fraction
    value: Value
    ratio: Interval


def _check_p(p) -> Fraction:
    p = Fraction(p)
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    return p


def ratio_from_moment(value: Value, p, l2sq: Fraction,
                      prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of value^(1/p) / sqrt(l2sq), one `rational_power` call.

    An exact rational moment is the point interval on it, and the ratio then
    collapses to a point whenever it is rational itself.
    """
    p = _check_p(p)
    if l2sq <= 0:
        raise ValueError("l2sq must be positive")
    return rational_power((value, l2sq), (1 / p, Fraction(-1, 2)), prec)


def pth_moment(space: SampleSpace, weights: Weights, p,
               prec: int = DEFAULT_PREC) -> MomentResult:
    """E|sum_i a_i x_i|^p over the given law.

    Integer p gives an exact rational value; other rational p gives a
    certified enclosure, retried at doubled precision until the relative
    width drops below 2**-REL_TOL_BITS.
    """
    p = _check_p(p)
    if weights.n != space.n:
        raise ValueError(f"weight dimension {weights.n} != space dimension {space.n}")
    wden, w = weights.integer_form()
    # the mass on each distinct |<a, x>| * wden, the weights on the plus signs
    # of x less those on its minus signs, so that each power is taken once
    wsum = sum(w)
    mass: dict[int, int] = {}
    for bits, num in space.numerators.items():
        dot = abs(2 * _plus_sum(w, bits) - wsum)
        mass[dot] = mass.get(dot, 0) + num
    if p.denominator == 1:
        k = p.numerator
        value = Fraction(sum(num * dot**k for dot, num in mass.items()), space.den * wden**k)
        return MomentResult(p, value, ratio_from_moment(value, p, weights.l2sq, prec))
    terms = [(Fraction(num, space.den), Fraction(dot, wden)) for dot, num in mass.items()]
    work = prec
    while True:
        value = Interval.point(0)
        for prob, dot in terms:
            value = value + prob * rational_power(dot, p, work)
        if value.hi == 0 or value.width * (1 << REL_TOL_BITS) <= value.hi:
            break
        work *= 2
    return MomentResult(p, value, ratio_from_moment(value, p, weights.l2sq, prec))


def _plus_sum(w: list[int], bits: int) -> int:
    """Sum of w[i] over the coordinates i set in bits."""
    total = 0
    while bits:
        low = bits & -bits
        total += w[low.bit_length() - 1]
        bits ^= low
    return total


def khintchine_ratio(space: SampleSpace, weights: Weights, p,
                     prec: int = DEFAULT_PREC) -> Interval:
    """(E|sum a_i x_i|^p)^(1/p) / ||a||_2 as a certified enclosure."""
    return pth_moment(space, weights, p, prec).ratio


def even_moment_independent(weights: Weights, p) -> Fraction:
    """E(sum a_i x_i)^p under full independence, for even integer p, by the
    all-even multinomial expansion (no 2^n enumeration)."""
    p = Fraction(p)
    if p.denominator != 1 or p.numerator < 2 or p.numerator % 2:
        raise ValueError(f"needs an even integer order >= 2, got {p}")
    k = p.numerator
    fact = [factorial(j) for j in range(k + 1)]
    # g[e] accumulates sum over even exponent patterns of prod a_i^{j_i}/j_i!
    g = [Fraction(0)] * (k + 1)
    g[0] = Fraction(1)
    for ai in weights.a:
        w = {j: ai**j / fact[j] for j in range(2, k + 1, 2)}
        # descending e keeps the g[e-j] reads on the previous coordinate
        for e in range(k, 1, -2):
            acc = Fraction(0)
            for j in range(2, e + 1, 2):
                if g[e - j]:
                    acc += g[e - j] * w[j]
            g[e] += acc
    return g[k] * fact[k]
