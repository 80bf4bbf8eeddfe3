"""Small k-wise independent sign laws with exact rational masses."""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .core import MAX_DIMENSION, MAX_ENUMERATION, SampleSpace, WeightProfile, expand, uniform_cube


# Each law's shape function runs its builder's input checks and returns the
# law's (dimension, support size) without building it, so that work on the
# law can be bounded first; the builder calls it for those checks.


def partition_shape(n: int) -> tuple[int, int]:
    """The two unanimous vectors and the C(n, n/2) balanced ones."""
    if n < 2 or n % 2:
        raise ValueError(f"partition law needs an even dimension >= 2, got {n}")
    if n > MAX_ENUMERATION:
        raise ValueError(f"dimension capped at {MAX_ENUMERATION}, got {n}")
    return n, comb(n, n // 2) + 2


def partition_space(n: int) -> SampleSpace:
    """Pairwise (in fact 3-wise) independent, exchangeable law on {-1,+1}^n
    for even n: mass 1/(2n) on each unanimous vector and the rest spread
    uniformly over the vectors with exactly n/2 plus signs."""
    partition_shape(n)
    q = [Fraction(0)] * (n + 1)
    q[0] = q[n] = Fraction(1, 2 * n)
    q[n // 2] = Fraction(n - 1, n)
    return expand(WeightProfile(n, tuple(q)))


def xor_sign(n: int, seed_sign: int, seed_mask: int, j: int) -> int:
    """Coordinate j of the parity construction: the global seed sign times the
    product of the base seeds listed in the bit mask j."""
    if not 0 <= j < (1 << n):
        raise ValueError(f"coordinate {j} out of range for 2^{n} coordinates")
    return -seed_sign if (seed_mask & j).bit_count() & 1 else seed_sign


def xor_pattern(n: int, seed_sign: int, seed_mask: int) -> int:
    """All 2^n values of `xor_sign` as one sign bitmask (bit j set means
    coordinate j is +1), built by n doublings: coordinates j and j + 2^i,
    for j < 2^i, differ exactly when bit i of the seed mask is set."""
    even = 1  # coordinates with an even count of listed seeds; 0 lists none
    width = 1
    for i in range(n):
        top = even ^ ((1 << width) - 1) if (seed_mask >> i) & 1 else even
        even |= top << width
        width <<= 1
    return even if seed_sign == 1 else even ^ ((1 << width) - 1)


def xor_shape(n: int) -> tuple[int, int]:
    """2^n coordinates and 2^(n+1) atoms, one per seed pattern."""
    if n < 1:
        raise ValueError(f"need at least one base seed, got n={n}")
    if 1 << n > MAX_DIMENSION:
        raise ValueError(f"2^{n} coordinates exceed the dimension cap {MAX_DIMENSION}")
    return 1 << n, 1 << (n + 1)


def xor_space(n: int) -> SampleSpace:
    """Pairwise independent law on {-1,+1}^(2^n) built from n+1 fair seeds:
    coordinate j carries the product of the seeds in bit mask j, all times a
    shared global sign.  2^(n+1) equiprobable atoms; not exchangeable for
    n >= 3."""
    dim, _ = xor_shape(n)
    share = Fraction(1, 1 << (n + 1))
    atoms = [(xor_pattern(n, 1 - 2 * (seeds & 1), seeds >> 1), share)
             for seeds in range(1 << (n + 1))]
    return SampleSpace(dim, atoms)


def xor_seed_coefficient(n: int, coords) -> Fraction:
    """Average of the product of the listed coordinates over all 2^(n+1) seed
    patterns of the parity construction, computed by full enumeration."""
    coords = list(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate list has repeats")
    dim = 1 << n
    if any(not 0 <= j < dim for j in coords):
        raise ValueError(f"coordinate out of range for 2^{n} coordinates")
    total = 0
    for seeds in range(1 << (n + 1)):
        sign, mask = 1 - 2 * (seeds & 1), seeds >> 1
        prod = 1
        for j in coords:
            prod *= xor_sign(n, sign, mask, j)
        total += prod
    return Fraction(total, 1 << (n + 1))


def xor_pairwise_table(n: int) -> dict[tuple[int, int], Fraction]:
    """All pairwise coordinate correlations of the parity construction over
    the full seed space.  Per-coordinate sign rows are tabulated once across
    every seed mask, then pair sums come from exact bit counts."""
    dim = 1 << n
    masks = 1 << n
    rows = []
    for j in range(dim):
        row = 0
        for mask in range(masks):
            if (mask & j).bit_count() & 1:
                row |= 1 << mask
        rows.append(row)
    # the global sign squares away in every pair, covering both of its values
    out: dict[tuple[int, int], Fraction] = {}
    for j in range(dim):
        for l in range(j + 1, dim):
            disagree = (rows[j] ^ rows[l]).bit_count()
            out[(j, l)] = Fraction(2 * (masks - 2 * disagree), 1 << (n + 1))
    return out


def independent_shape(n: int) -> tuple[int, int]:
    """Every one of the 2^n sign vectors."""
    if not 1 <= n <= MAX_ENUMERATION:
        raise ValueError(f"explicit uniform law needs a dimension in [1, {MAX_ENUMERATION}], got {n}")
    return n, 1 << n


def independent_space(n: int) -> SampleSpace:
    """The fully independent uniform law, as an explicit sample space."""
    independent_shape(n)
    return uniform_cube(n)
