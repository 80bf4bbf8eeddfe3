"""Independent output checks for the benchmark.

Nothing here imports kwise.  Every reference is rebuilt from its definition:
parity characters from the signs of each atom, moments by enumeration,
exchangeable parity sums by the Krawtchouk three-term recurrence, the
SplitMix64 stream from the published generator, and transcendental constants
from mpmath at high precision.  Each check returns a list of problems; an
empty list means the output passed.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import mpmath

MASK64 = (1 << 64) - 1
MP_PREC = 320  # bits; far beyond the 128-bit enclosures being checked


# -- sign-cube definitions -----------------------------------------------


def sign(bits: int, i: int) -> int:
    """Coordinate i of the sign vector encoded by bits (bit set means +1)."""
    return 1 if (bits >> i) & 1 else -1


def character(bits: int, subset) -> int:
    """Product of the coordinates in subset: the parity row entry."""
    return parity(bits, subset_mask(subset))


def subset_mask(subset) -> int:
    return sum(1 << i for i in subset)


def parity(bits: int, mask: int) -> int:
    """-1 when the coordinates in mask hold an odd number of minus signs."""
    return -1 if (mask & ~bits).bit_count() & 1 else 1


def parity_labels(n: int, k: int) -> list[tuple[int, ...]]:
    """Normalization label () then every subset of size 1..k, by size and
    then lexicographically: the documented row order of the full program."""
    labels: list[tuple[int, ...]] = [()]
    for size in range(1, k + 1):
        labels.extend(combinations(range(n), size))
    return labels


def dot(a, bits: int) -> Fraction:
    return sum((w * sign(bits, i) for i, w in enumerate(a)), Fraction(0))


def all_dots(a) -> list[Fraction]:
    """<a, x> for every sign vector x, indexed by its bits; integer sums
    over a common denominator."""
    den = lcm(*(Fraction(w).denominator for w in a))
    ints = [int(w * den) for w in a]
    return [Fraction(sum(w if (bits >> i) & 1 else -w for i, w in enumerate(ints)), den)
            for bits in range(1 << len(a))]


def rational_root_check(value_lo: Fraction, value_hi: Fraction, base: Fraction,
                        num: int, den: int) -> bool:
    """True when [lo, hi] contains base^(num/den) (lo >= 0), decided exactly
    by raising the endpoints to the power den."""
    target = base**num
    return value_lo**den <= target <= value_hi**den


def partition_law(n: int) -> dict[int, Fraction]:
    """Mass 1/(2n) on each unanimous vector, the rest uniform over the
    vectors with n/2 plus signs."""
    law = {0: Fraction(1, 2 * n), (1 << n) - 1: Fraction(1, 2 * n)}
    share = Fraction(n - 1, n) / comb(n, n // 2)
    for pos in combinations(range(n), n // 2):
        law[sum(1 << i for i in pos)] = share
    return law


def xor_law(m: int) -> dict[int, Fraction]:
    """Uniform over (global sign s, seed signs z_1..z_m); coordinate j of
    2^m is s times the product of z_i over the bits i of j."""
    dim = 1 << m
    share = Fraction(1, 1 << (m + 1))
    law: dict[int, Fraction] = {}
    for s in (1, -1):
        for minus in range(1 << m):  # bit i set: seed i is -1
            bits = 0
            for j in range(dim):
                v = s
                for i in range(m):
                    if (j >> i) & 1 and (minus >> i) & 1:
                        v = -v
                if v > 0:
                    bits |= 1 << j
            law[bits] = law.get(bits, Fraction(0)) + share
    return law


def uniform_law(n: int) -> dict[int, Fraction]:
    share = Fraction(1, 1 << n)
    return {bits: share for bits in range(1 << n)}


def is_xor_vector(bits: int, m: int) -> bool:
    """x_0 * x_j must be a group character of j: x_0 x_{j^l} = x_j x_l."""
    dim = 1 << m
    x = [sign(bits, j) for j in range(dim)]
    return all(
        x[0] * x[j ^ l] == x[j] * x[l] for j in range(dim) for l in range(dim)
    )


def is_partition_vector(bits: int, n: int) -> bool:
    plus = bin(bits).count("1")
    return plus in (0, n) or 2 * plus == n


# -- laws ---------------------------------------------------------------------


def check_law(n: int, k: int, masses: dict[int, Fraction]) -> list[str]:
    """Nonnegative masses on vectors of dimension n, summing to 1, with every
    parity of size 1..k averaging to zero."""
    problems = []
    if any(not 0 <= bits < (1 << n) for bits in masses):
        problems.append("atom outside the sign cube")
    if any(q < 0 for q in masses.values()):
        problems.append("negative mass")
    if sum(masses.values(), Fraction(0)) != 1:
        problems.append("masses do not sum to 1")
    den = lcm(*(q.denominator for q in masses.values()))
    scaled = [(b, int(q * den)) for b, q in masses.items()]
    for subset in parity_labels(n, k)[1:]:
        mask = subset_mask(subset)
        avg = Fraction(sum(q * parity(b, mask) for b, q in scaled), den)
        if avg != 0:
            problems.append(f"parity {subset} averages {avg}, law is not {k}-wise independent")
            break
    return problems


def moment(a, p: int, masses: dict[int, Fraction], dots=None) -> Fraction:
    """E|<a, x>|^p by enumeration, integer p; dots as from all_dots."""
    d = (lambda b: dots[b]) if dots is not None else (lambda b: dot(a, b))
    return sum((q * abs(d(b)) ** p for b, q in masses.items()), Fraction(0))


def moment_mp(a, p: Fraction, masses: dict[int, Fraction]):
    """E|<a, x>|^p by enumeration in mpmath, any rational p (call inside a
    workprec context)."""
    pe = mp(p)
    return mpmath.fsum(mp(q) * mpmath.power(mp(abs(dot(a, b))), pe)
                       for b, q in masses.items())


def dual_slacks(n: int, labels, y, cost) -> list[Fraction]:
    """(A^T y)_x - cost(x) for every atom x, rows rebuilt from the labels."""
    den = lcm(*(Fraction(v).denominator for v in y))
    terms = [(int(Fraction(v) * den), subset_mask(t)) for v, t in zip(y, labels) if v]
    out = []
    for bits in range(1 << n):
        acc = sum(coef * parity(bits, mask) for coef, mask in terms)
        out.append(Fraction(acc, den) - cost(bits))
    return out


def closed_form_problems(n: int, k: int, p: Fraction, a, all_ones: bool,
                         lo: Fraction, hi: Fraction, dots=None) -> list[str]:
    """The paper's closed forms and bounds for the unreduced optimum, given
    an enclosure [lo, hi] of it (lo == hi on the exact path)."""
    problems = []
    u, v = p.numerator, p.denominator
    if all_ones and k in (2, 3) and n % 2 == 0 and p >= 2:
        if not rational_root_check(lo, hi, Fraction(n), u - v, v):
            problems.append(f"optimum excludes n^(p-1) = {n}^({p - 1})")
    if p == 2 and k >= 2:
        l2sq = sum((w * w for w in a), Fraction(0))
        if not lo <= l2sq <= hi:
            problems.append(f"p=2 optimum excludes sum a_i^2 = {l2sq}")
    if k == 1:
        l1 = sum((abs(w) for w in a), Fraction(0))
        if not rational_root_check(lo, hi, l1, u, v):
            problems.append(f"k=1 optimum excludes (sum |a_i|)^p = {l1}^{p}")
    if v == 1 and u % 2 == 0 and u <= k:
        indep = moment(a, u, uniform_law(n), dots)
        if not lo <= indep <= hi:
            problems.append(f"even p <= k optimum excludes the independent moment {indep}")
    if all_ones and k == 4 and p >= 4:
        # 3 n^(p-2) >= value, checked on the lower endpoint: lo^v <= 3^v n^(u-2v)
        if lo**v > Fraction(3) ** v * Fraction(n) ** (u - 2 * v):
            problems.append(f"optimum exceeds the bound 3 n^(p-2) at n={n}")
    return problems


def check_full_solution(n: int, k: int, p: Fraction, a, all_ones: bool,
                        value, masses, dual) -> list[str]:
    """Optimality of an unreduced-program solution from scratch.

    Integer p: the law is feasible, its own moment equals the value, and the
    dual is feasible with b.y equal to the value, which together prove
    optimality.  Fractional p: the law gives a lower bound L, the dual gives
    the weak-duality upper bound U = y_0 + max_x (c_x - (A^T y)_x)^+, and the
    claimed enclosure must meet [L, U], which must itself be tight."""
    problems = check_law(n, k, masses)
    labels = parity_labels(n, k)
    if dual is None or len(dual) != len(labels):
        return problems + ["dual missing or of the wrong length"]
    dots = all_dots(a)
    if p.denominator == 1:
        e = p.numerator
        if not isinstance(value, Fraction):
            return problems + ["integer exponent gave an inexact value"]
        if moment(a, e, masses, dots) != value:
            problems.append("law's own moment differs from the value")
        if dual[0] != value:
            problems.append("b.y differs from the value")
        slack = dual_slacks(n, labels, dual, lambda b: abs(dots[b]) ** e)
        if any(s < 0 for s in slack):
            problems.append("dual is infeasible")
        lo = hi = value
    else:
        lo, hi = value.lo, value.hi
        with mpmath.workprec(MP_PREC):
            pe = mp(p)
            lower = moment_mp(a, p, masses)
            aty = dual_slacks(n, labels, dual, lambda b: 0)
            gap = max(mpmath.power(mp(abs(d)), pe) - mp(s) for d, s in zip(dots, aty))
            upper = mp(dual[0]) + max(gap, 0)
            tol = mpmath.mpf(2) ** -100 * max(1, upper)
            if lower > mp(hi) + tol or mp(lo) > upper + tol:
                problems.append("enclosure misses the law/dual bracket")
            if upper - lower > tol * 2**60:
                problems.append("law and dual are not both near-optimal")
            if mp(hi) - mp(lo) > tol * 2**40:
                problems.append("enclosure is too wide")
    return problems + closed_form_problems(n, k, p, a, all_ones, lo, hi, dots)


def mp(x):
    """A rational as an mpmath number at the working precision."""
    f = Fraction(x)
    return mpmath.mpf(f.numerator) / f.denominator


# -- exchangeable (reduced) solutions --------------------------------------


def krawtchouk_rows(n: int, k: int) -> list[list[int]]:
    """rows[j][m] = K_j(n - m), which is C(n, j) times the average of one
    size-j parity over the sign vectors with m plus signs.  Built by the
    recurrence (j+1) K_{j+1}(x) = (n - 2x) K_j(x) - (n - j + 1) K_{j-1}(x)
    in the count x of minus signs, not by the binomial sum."""
    rows = []
    for m in range(n + 1):
        x = n - m
        col = [1, n - 2 * x]
        for j in range(1, k):
            col.append(((n - 2 * x) * col[j] - (n - j + 1) * col[j - 1]) // (j + 1))
        rows.append(col[: k + 1])
    return [[rows[m][j] for m in range(n + 1)] for j in range(k + 1)]


def check_profile(n: int, k: int, q) -> list[str]:
    """q[m] is the mass of the weight-m class of an exchangeable law."""
    problems = []
    if len(q) != n + 1:
        return [f"profile has {len(q)} classes, expected {n + 1}"]
    if any(v < 0 for v in q):
        problems.append("negative class mass")
    if sum(q, Fraction(0)) != 1:
        problems.append("class masses do not sum to 1")
    rows = krawtchouk_rows(n, k)
    for j in range(1, k + 1):
        if sum((qm * r for qm, r in zip(q, rows[j])), Fraction(0)) != 0:
            problems.append(f"order-{j} parity does not vanish")
            break
    return problems


def profile_moment(n: int, p: int, q) -> Fraction:
    return sum((qm * abs(2 * m - n) ** p for m, qm in enumerate(q)), Fraction(0))


def partition_profile(n: int) -> list[Fraction]:
    q = [Fraction(0)] * (n + 1)
    q[0] = q[n] = Fraction(1, 2 * n)
    q[n // 2] = Fraction(n - 1, n)
    return q


# -- closed-form constants via mpmath ----------------------------------------


def haagerup_mp(p: Fraction):
    if p <= 2:
        return mpmath.mpf(1)
    pe = mpmath.mpf(p.numerator) / p.denominator
    return mpmath.sqrt(2) * (mpmath.gamma((pe + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / pe)


def interpolation_mp(n: int, p: Fraction, k: int):
    pe = mpmath.mpf(p.numerator) / p.denominator
    df = 1
    for j in range(k - 1, 0, -2):
        df *= j
    return mpmath.mpf(df) ** (1 / pe) * mpmath.mpf(n) ** ((pe - k) / (2 * pe))


def decimal_bound_problems(text: str, ref, lower: bool, label: str) -> list[str]:
    """A 40-digit decimal bound must sit on the right side of the reference
    and within 10^-35 (relative) of it."""
    got = mpmath.mpf(text)
    tol = mpmath.mpf(10) ** -35 * max(1, abs(ref))
    slack = mpmath.mpf(10) ** -60 * max(1, abs(ref))
    if lower and not ref - tol <= got <= ref + slack:
        return [f"{label} lower bound {text} vs reference {mpmath.nstr(ref, 45)}"]
    if not lower and not ref - slack <= got <= ref + tol:
        return [f"{label} upper bound {text} vs reference {mpmath.nstr(ref, 45)}"]
    return []


# -- SplitMix64 and Monte Carlo ----------------------------------------------


def splitmix64_words(seed: int, count: int) -> list[int]:
    """Steele, Lea and Flood (2014): add the golden gamma to the state, then
    apply the variant-13 finalizer."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def within_standard_errors(mean: float, std_error: float, exact, count: float = 5.0) -> list[str]:
    if not std_error > 0:
        return [f"standard error {std_error} is not positive"]
    if abs(mean - float(exact)) > count * std_error:
        return [f"mean {mean} is {abs(mean - float(exact)) / std_error:.1f} standard errors from {float(exact)}"]
    return []
