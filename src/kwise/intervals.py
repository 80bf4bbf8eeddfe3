"""Certified interval arithmetic over exact rational endpoints.

Every operation returns an interval that provably contains the true value:
field operations are exact on Fraction endpoints, and the irrational
primitives (integer roots, pi, exp, log, gamma) come from convergent series
with explicit rational remainder bounds, rounded outward onto a dyadic grid.
pi (Machin's formula) and log 2 come from one directed fixed-point series,
atan for the one and atanh for the other.  Floating point only picks the
start of the integer Newton root, whose result does not depend on it.

`rational_power` is the one route for fractional powers and their products
(b1^e1 * b2^e2 * ...): a single directed root of the exact radicand while
the exponents' common denominator and the radicand stay small, so that a
rational result is a point, and exp of a sum of logs beyond that.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import ceil, comb, lcm, log2

DEFAULT_PREC = 128

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _floor_to(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction((x.numerator * scale) // x.denominator, scale)


def _ceil_to(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def point(cls, x) -> "Interval":
        f = Fraction(x)
        return cls(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= Fraction(x) <= self.hi

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = _coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Interval":
        o = _coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = _coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval division by an interval containing 0")
        return self * Interval(1 / o.hi, 1 / o.lo)

    def pow_int(self, k: int) -> "Interval":
        if k < 0:
            return Interval.point(1) / self.pow_int(-k)
        if k == 0:
            return Interval.point(1)
        a, b = self.lo**k, self.hi**k
        if k % 2 == 1:
            return Interval(a, b)
        if self.lo >= 0:
            return Interval(a, b)
        if self.hi <= 0:
            return Interval(b, a)
        return Interval(_ZERO, max(a, b))

    def nth_root(self, k: int, prec: int = DEFAULT_PREC) -> "Interval":
        """Enclosure of the k-th root; requires a nonnegative interval."""
        if self.lo < 0:
            raise ValueError("root of an interval reaching below 0")
        return Interval(nth_root(self.lo, k, prec).lo, nth_root(self.hi, k, prec).hi)

    def round_out(self, bits: int) -> "Interval":
        return Interval(_floor_to(self.lo, bits), _ceil_to(self.hi, bits))

    def decimal_bounds(self, digits: int) -> tuple[str, str]:
        """Decimal strings rounded outward, so the printed pair still encloses."""
        return (_decimal_str(self.lo, digits, down=True),
                _decimal_str(self.hi, digits, down=False))

    def __repr__(self) -> str:
        lo, hi = self.decimal_bounds(12)
        return f"Interval[{lo}, {hi}]"


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def _int_str(v: int) -> str:
    try:
        return str(v)
    except ValueError:
        # more digits than sys.get_int_max_str_digits(); decimal's own
        # conversion has no such limit and prints the same digits
        return str(Decimal(v))


def _decimal_str(f: Fraction, digits: int, down: bool) -> str:
    scale = 10**digits
    num = f.numerator * scale
    q = num // f.denominator if down else -((-num) // f.denominator)
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), scale)
    head = sign + _int_str(whole)
    return f"{head}.{_int_str(frac).zfill(digits)}" if digits else head


# ---------------------------------------------------------------------------
# integer and rational roots

def int_nth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, for n >= 0, k >= 1 (Newton on integers)."""
    if n < 0 or k < 1:
        raise ValueError("int_nth_root needs n >= 0, k >= 1")
    if n == 0 or k == 1:
        return n
    # start just above the root from a float estimate of n^(1/k), raised by
    # a 2**-30 relative margin that covers the float's own error, so that
    # Newton descends from near the root; the fix-ups below hold any start
    lg = log2(n) / k
    e = max(0, int(lg) - 60)
    r = (int(2 ** (lg - e) * (1 + 2**-30)) + 1) << e
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def nth_root(x: Fraction, k: int, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of x**(1/k) for x >= 0 with width at most 2**-prec,
    collapsing to a point when the root is exactly rational."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"even real roots need a nonnegative radicand, got {x}")
    if k < 1:
        raise ValueError(f"root order must be >= 1, got {k}")
    if x == 0:
        return Interval.point(0)
    a, b = x.numerator, x.denominator
    ra, rb = int_nth_root(a, k), int_nth_root(b, k)
    if ra**k == a and rb**k == b:
        return Interval.point(Fraction(ra, rb))
    target = a << (k * prec)
    # r^k <= target // b < (r+1)^k, so r^k * b <= target < (r+1)^k * b
    r = int_nth_root(target // b, k)
    scale = 1 << prec
    return Interval(Fraction(r, scale), Fraction(r + 1, scale))


# Above either size the power goes through exp/log instead of one root: an
# integer k-th root takes a few Newton steps from its 30-bit float start, but
# each is a (k-1)-th power and a division on numbers of k*prec bits or more.
ROOT_MAX_DEGREE = 64
ROOT_MAX_BITS = 1 << 16


def rational_power(x, e, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of x**e, or of the product of b**f over zip(x, e) when x and
    e are sequences.  Bases are rationals or Intervals >= 0, exponents are
    rational, and a base reaching 0 needs a positive exponent.

    This is the one route for fractional powers.  With d the common
    denominator of the exponents, the product is the d-th root of the exact
    rational radicand prod b**(f*d), taken once and rounded outward at
    `prec` bits, so a rational result is a point.  When d exceeds
    ROOT_MAX_DEGREE or the radicand ROOT_MAX_BITS, it is exp(sum f*log b)
    instead.  The product is monotone in each base, so an Interval base
    contributes its lower end to the lower corner and its upper end to the
    upper one (the other way round for a negative exponent)."""
    if isinstance(x, (tuple, list)):
        factors = [(_coerce(b), Fraction(f)) for b, f in zip(x, e, strict=True)]
    else:
        factors = [(_coerce(x), Fraction(e))]
    for b, f in factors:
        if b.lo < 0 or (b.lo == 0 and f <= 0):
            raise ValueError(f"rational_power needs a positive base, got {b} ** {f}")
    low = [(b.lo if f > 0 else b.hi, f) for b, f in factors]
    high = [(b.hi if f > 0 else b.lo, f) for b, f in factors]
    if low == high:
        return _corner_power(low, prec)
    return Interval(_corner_power(low, prec).lo, _corner_power(high, prec).hi)


def _corner_power(factors: list[tuple[Fraction, Fraction]], prec: int) -> Interval:
    """Enclosure of the product of b**f over rational b >= 0 (b = 0 only
    with f > 0)."""
    if any(b == 0 for b, _ in factors):
        return Interval.point(0)
    factors = [(b, f) for b, f in factors if f and b != 1]
    if not factors:
        return Interval.point(1)
    d = lcm(*(f.denominator for _, f in factors))
    if d <= ROOT_MAX_DEGREE:
        powers = [(b, int(f * d)) for b, f in factors]
        size = sum(abs(k) * max(b.numerator.bit_length(), b.denominator.bit_length())
                   for b, k in powers)
        if size <= ROOT_MAX_BITS:
            radicand = _ONE
            for b, k in powers:
                radicand *= b**k
            return nth_root(radicand, d, prec)
    # the exponents scale the logs' widths: that is bought back in working
    # bits, so the result is good to about 2**-prec relative to its size
    w = prec + 32 + ceil(sum(abs(f) for _, f in factors)).bit_length()
    t = sum((f * log_interval(b, w) for b, f in factors), Interval.point(0))
    return exp_interval(t, prec)


# ---------------------------------------------------------------------------
# pi, logarithm and exponential

_LOG2_CACHE: dict[int, Interval] = {}


def _atanh_series(t: Fraction, prec: int, sign: int = 1) -> Interval:
    """Enclosure of atanh(t) = t + t^3/3 + ... for 0 <= t < 1/2, or with
    sign=-1 of atan(t) = t - t^3/3 + ..., summed in fixed point on a grid
    finer than 2**-prec: the lower sum takes every term's lower bound
    (powers and quotients rounded down) and the upper one its upper bound,
    swapped for a negative term, so the integers stay short however long
    t's own numerator and denominator get."""
    a, b = t.numerator, t.denominator
    a2, b2 = a * a, b * b
    bits = prec + 8 + prec.bit_length()  # room for a few ulps per term
    stop = 1 << (bits - prec - 4)  # terms below 2**-(prec+4) are left to the tail
    lo_pow, hi_pow = (a << bits) // b, -((-a << bits) // b)
    lo = hi = 0
    d = 1
    while hi_pow >= stop * d:
        t_lo, t_hi = lo_pow // d, -(-hi_pow // d)
        if sign < 0 and d & 2:  # atan's terms at d = 3, 7, 11, ... are negative
            t_lo, t_hi = -t_hi, -t_lo
        lo += t_lo
        hi += t_hi
        lo_pow = lo_pow * a2 // b2
        hi_pow = -(-hi_pow * a2 // b2)
        d += 2
    # geometric tail: the rest of the series is at most t^d / (d (1 - t^2))
    # in absolute value, with either sign pattern
    tail = -(-hi_pow * b2 // (d * (b2 - a2)))
    if sign < 0:
        lo -= tail
    return Interval(Fraction(lo, 1 << bits), Fraction(hi + tail, 1 << bits))


def pi_interval(prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of pi by Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    w = prec + 16
    iv = 16 * _atanh_series(Fraction(1, 5), w, -1) - 4 * _atanh_series(Fraction(1, 239), w, -1)
    return iv.round_out(prec)


def _log2_interval(prec: int) -> Interval:
    if prec not in _LOG2_CACHE:
        _LOG2_CACHE[prec] = (2 * _atanh_series(Fraction(1, 3), prec + 8)).round_out(prec)
    return _LOG2_CACHE[prec]


def log_interval(x, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of the natural log of a positive rational or interval."""
    if isinstance(x, Interval):
        if x.lo <= 0:
            raise ValueError("log of an interval reaching down to 0")
        return Interval(log_interval(x.lo, prec).lo, log_interval(x.hi, prec).hi)
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"log needs a positive argument, got {x}")
    if x == 1:
        return Interval.point(0)
    if x < 1:
        return (-log_interval(1 / x, prec + 4)).round_out(prec)
    w = prec + 16
    # x = num/den * 2^e with 1 <= num/den < 2, in integers only: x is
    # reduced, so num and den share at most a power of two
    a, b = x.numerator, x.denominator
    e = a.bit_length() - b.bit_length()
    if a << max(0, -e) < b << max(0, e):
        e -= 1
    num, den = (a, b << e) if e >= 0 else (a << -e, b)
    twos = min((num & -num).bit_length(), (den & -den).bit_length()) - 1
    num, den = num >> twos, den >> twos
    if den.bit_length() > w:
        # the series would drag a long mantissa through every term: bracket
        # it by w-bit dyadics and take each end from its own bracket
        q = (num << w) // den
        lo, hi = Fraction(q, 1 << w), Fraction(q + 1, 1 << w)
        series = Interval(_atanh_series((lo - 1) / (lo + 1), w).lo,
                          _atanh_series((hi - 1) / (hi + 1), w).hi)
    else:
        m = Fraction(num, den)
        series = _atanh_series((m - 1) / (m + 1), w)  # argument in [0, 1/3)
    iv = 2 * series + e * _log2_interval(w)
    return iv.round_out(prec)


def exp_interval(x, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of exp over a rational or interval argument."""
    if isinstance(x, Interval):
        return Interval(exp_interval(x.lo, prec).lo, exp_interval(x.hi, prec).hi)
    x = Fraction(x)
    halvings = 0
    y = x
    while abs(y) > Fraction(1, 2):
        y /= 2
        halvings += 1
    w = prec + 24 + 2 * halvings
    # the Taylor series in fixed point on a grid finer than 2**-w: each
    # term y^k/k! is held between two integers, rounded down and up
    bits = w + 8 + w.bit_length()
    a, b = y.numerator, y.denominator
    lo = hi = t_lo = t_hi = 1 << bits
    k = 0
    while max(-t_lo, t_hi) >> (bits - w):  # the last term is 2**-w or more
        k += 1
        p1, p2 = t_lo * a, t_hi * a
        t_lo, t_hi = min(p1, p2) // (b * k), -(-max(p1, p2) // (b * k))
        lo += t_lo
        hi += t_hi
    # |y| <= 1/2: the rest of the series is at most twice the last term
    bound = 2 * max(-t_lo, t_hi)
    iv = Interval(Fraction(max(0, lo - bound), 1 << bits),
                  Fraction(hi + bound, 1 << bits)).round_out(w)
    for _ in range(halvings):
        iv = Interval(iv.lo * iv.lo, iv.hi * iv.hi).round_out(w)
    return iv.round_out(prec)


# ---------------------------------------------------------------------------
# gamma via exact half-integer recursion, Stirling series otherwise

_BERNOULLI: list[Fraction] = [Fraction(1)]


def _bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2 convention)."""
    while len(_BERNOULLI) <= m:
        j = len(_BERNOULLI)
        acc = sum((comb(j + 1, i) * _BERNOULLI[i] for i in range(j)), _ZERO)
        _BERNOULLI.append(-acc / (j + 1))
    return _BERNOULLI[m]


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def loggamma_interval(x: Fraction, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of log(Gamma(x)) for rational x > 0 via the Stirling series.

    The argument is shifted upward until the first omitted Stirling term,
    which bounds the remainder for real positive arguments, drops below the
    target width.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"loggamma needs a positive argument, got {x}")
    w = prec + 32
    shift_to = max(16, w // 8 + 4)
    shift = max(0, shift_to - int(x))
    z = x + shift
    eps = Fraction(1, 1 << w)
    series = _ZERO
    j = 0
    while True:
        j += 1
        nxt = abs(_bernoulli(2 * j + 2)) / ((2 * j + 2) * (2 * j + 1) * z ** (2 * j + 1))
        series += _bernoulli(2 * j) / ((2 * j) * (2 * j - 1) * z ** (2 * j - 1))
        if nxt < eps:
            remainder = nxt
            break
        if j > 8 * w:
            raise RuntimeError("Stirling series failed to converge")  # unreachable
    log_z = log_interval(z, w)
    log_2pi = _log2_interval(w) + log_interval(pi_interval(w), w)
    main = (z - Fraction(1, 2)) * log_z - z + log_2pi / 2
    stirling = main + Interval(series - remainder, series + remainder)
    if shift:
        rising = _ONE
        for i in range(shift):
            rising *= x + i
        stirling = stirling - log_interval(rising, w)
    return stirling.round_out(prec)


def gamma_interval(x: Fraction, prec: int = DEFAULT_PREC) -> Interval:
    """Enclosure of Gamma(x) for rational x > 0.

    Integer and half-integer arguments reduce exactly through
    Gamma(t+1) = t*Gamma(t) down to Gamma(1/2) = sqrt(pi); everything else
    goes through the certified Stirling path.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"gamma needs a positive argument, got {x}")
    if x.denominator == 1:
        out = 1
        for i in range(2, x.numerator):
            out *= i
        return Interval.point(out)
    if x.denominator == 2:
        m = (x.numerator - 1) // 2  # x = m + 1/2 with m >= 0
        factor = Fraction(_double_factorial(2 * m - 1), 1 << m)
        return (factor * rational_power(pi_interval(prec + 8), Fraction(1, 2), prec + 8)).round_out(prec)
    return exp_interval(loggamma_interval(x, prec + 16), prec)
