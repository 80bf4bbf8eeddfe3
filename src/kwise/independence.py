"""Exact k-wise independence checks for sign laws.

Two equivalent routes are provided on purpose: the parity route inspects
Fourier coefficients E[prod_{i in T} x_i] directly, the marginal route
compares every small projection against the uniform product law.  Tests hold
them against each other.

The parity route works on integers: a law holds its masses as integer
numerators over one denominator D, each coefficient is a signed sum of those
numerators, and a Fraction is built only for a nonzero coefficient that is
returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .core import SampleSpace, _frac_str, project_marginal, subset_mask


@dataclass(frozen=True, slots=True)
class IndependenceReport:
    """Outcome of a k-wise check.  ``k_verified`` is the largest level at or
    below the requested one at which every parity vanishes; the witness, when
    present, is the first failing coordinate set (size k_verified + 1, scanned
    by size then lexicographically) with its nonzero parity average."""

    k_requested: int
    k_verified: int
    witness: Optional[tuple[tuple[int, ...], Fraction]]

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        if self.witness is None:
            wit = None
        else:
            coords, value = self.witness
            wit = {"T": list(coords), "coefficient": _frac_str(value)}
        return {"k_verified": self.k_verified, "witness": wit}


def _parity_sum(den: int, atoms: Iterable[tuple[int, int]], mask: int) -> int:
    """den * E[prod_{i in mask} x_i] for atoms (bits, numerator) over den.

    An atom's product is -1 when mask holds an odd number of its minus
    signs, that is when |mask| and |mask & bits| differ in parity.  The
    numerators sum to den, so only those with odd |mask & bits| are added
    up."""
    odd = 0
    for bits, num in atoms:
        if (mask & bits).bit_count() & 1:
            odd += num
    total = den - 2 * odd
    return -total if mask.bit_count() & 1 else total


def fourier_coefficient(space: SampleSpace, coords: Iterable[int]) -> Fraction:
    """E[prod_{i in T} x_i] as an exact rational."""
    mask = 0
    for i in coords:
        if not 0 <= i < space.n:
            raise ValueError(f"coordinate {i} out of range for dimension {space.n}")
        if (mask >> i) & 1:
            raise ValueError(f"repeated coordinate {i}")
        mask |= 1 << i
    return Fraction(_parity_sum(space.den, space.numerators.items(), mask), space.den)


def _check_level(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"independence level must be in [1, {n}], got {k}")


def parity_visits(n: int, atoms: int, k: int, cap: int) -> int:
    """The atom visits of `check_kwise` at level k on a law of `atoms` atoms
    in dimension n that passes, or the first partial count over cap: one per
    atom and coordinate set of size 1..k.  A law that fails stops earlier."""
    _check_level(n, k)
    visits = 0
    for size in range(1, k + 1):
        visits += atoms * comb(n, size)
        if visits > cap:
            break
    return visits


def _parity_witness(space: SampleSpace, coords: Iterable[int], k: int
                    ) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """The first set of 1..k of `coords`, by size then lexicographically,
    whose parity average is nonzero, with that average; None if none is."""
    den, atoms = space.den, space.numerators.items()
    for size in range(1, k + 1):
        for sub in combinations(coords, size):
            total = _parity_sum(den, atoms, subset_mask(sub))
            if total:
                return (sub, Fraction(total, den))
    return None


def check_kwise(space: SampleSpace, k: int) -> IndependenceReport:
    """Parity route: every coordinate set of size 1..k must average to 0."""
    _check_level(space.n, k)
    witness = _parity_witness(space, range(space.n), k)
    return IndependenceReport(k, k if witness is None else len(witness[0]) - 1, witness)


def check_kwise_marginal(space: SampleSpace, k: int) -> IndependenceReport:
    """Marginal route: every projection onto 1..k coordinates must be the
    uniform law on the corresponding sign cube."""
    _check_level(space.n, k)
    for size in range(1, k + 1):
        for coords in combinations(range(space.n), size):
            marg = project_marginal(space, coords)
            # 2^size positive numerators summing to den = 2^size are all 1
            if marg.support_size == marg.den == 1 << size:
                continue
            # a non-uniform marginal forces some nonzero parity inside it
            witness = _parity_witness(space, coords, size)
            if witness is None:
                raise AssertionError("non-uniform marginal without a parity witness")
            return IndependenceReport(k, size - 1, witness)
    return IndependenceReport(k, k, None)


def check_exchangeable(space: SampleSpace) -> bool:
    """True iff the law is invariant under coordinate permutations, tested on
    the adjacent transpositions that generate them all."""
    nums = space.numerators
    for i in range(space.n - 1):
        lo, hi = 1 << i, 1 << (i + 1)
        for bits, num in nums.items():
            if bool(bits & lo) != bool(bits & hi):
                if nums.get(bits ^ lo ^ hi) != num:
                    return False
    return True
