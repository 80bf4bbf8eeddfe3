"""Classical and interpolation bounds for Khintchine-type constants.

All values come back as certified interval enclosures.  Every power goes
through `intervals.rational_power`, so integer orders come out as single
directed roots of exact radicands (for even k the Gaussian moment constant
to the k-th power is the odd double factorial (k-1)!!, an integer); general
rational orders go through the certified gamma/log/exp machinery.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .intervals import (DEFAULT_PREC, Interval, _double_factorial, exp_interval,
                        log_interval, loggamma_interval, pi_interval, rational_power)


def _check_order(p) -> Fraction:
    p = Fraction(p)
    if p <= 0:
        raise ValueError(f"moment order must be positive, got {p}")
    return p


def haagerup_constant(p, prec: int = DEFAULT_PREC) -> Interval:
    """Best constant in the Khintchine upper bound under full independence:
    1 for p <= 2, and the Gaussian p-th moment constant
    sqrt(2) * (Gamma((p+1)/2) / sqrt(pi))^(1/p) beyond."""
    p = _check_order(p)
    if p <= 2:
        return Interval.point(1)
    u, v = p.numerator, p.denominator
    half = Fraction(1, 2)
    if v == 1 and u % 2 == 0:
        return rational_power(_double_factorial(u - 1), 1 / p, prec)
    if v == 1:
        # odd integer order: sqrt(2) * ((p-1)/2)!^(1/p) * pi^(-1/(2p))
        return rational_power((2, factorial((u - 1) // 2), pi_interval(prec + 16)),
                              (half, 1 / p, -half / p), prec)
    t = (loggamma_interval((p + 1) / 2, prec + 16)
         - log_interval(pi_interval(prec + 16), prec + 16) * half) / p \
        + log_interval(Fraction(2), prec + 16) * half
    return exp_interval(t, prec)


def sharp_pairwise_value(n: int, p, prec: int = DEFAULT_PREC) -> Interval:
    """Extremal ratio n^(1/2 - 1/p) attained over pairwise independent laws
    in even dimensions, for p >= 2."""
    if n < 2 or n % 2:
        raise ValueError(f"the closed form holds for even dimensions >= 2, got {n}")
    p = _check_order(p)
    if p < 2:
        raise ValueError(f"needs order >= 2, got {p}")
    return rational_power(n, Fraction(1, 2) - 1 / p, prec)


def interpolation_bound(n: int, p, k: int, prec: int = DEFAULT_PREC) -> Interval:
    """Upper bound ((k-1)!!)^(1/p) * n^((p-k)/(2p)) on the k-wise independent
    Khintchine ratio, valid for even k >= 2 and p >= k."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if k < 2 or k % 2:
        raise ValueError(f"independence level must be even and >= 2, got {k}")
    p = _check_order(p)
    if p < k:
        raise ValueError(f"bound needs p >= k, got p={p} < k={k}")
    return rational_power((_double_factorial(k - 1), n), (1 / p, (1 - k / p) / 2), prec)
