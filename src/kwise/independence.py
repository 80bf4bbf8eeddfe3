"""Exact k-wise independence checks for sign laws.

Two equivalent routes are provided on purpose: the parity route inspects
Fourier coefficients E[prod_{i in T} x_i] directly, the marginal route
compares every small projection against the uniform product law.  Tests hold
them against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from .core import SampleSpace, _frac_str, project_marginal


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


def fourier_coefficient(space: SampleSpace, coords: Iterable[int]) -> Fraction:
    """E[prod_{i in T} x_i] as an exact rational."""
    mask = 0
    for i in coords:
        if not 0 <= i < space.n:
            raise ValueError(f"coordinate {i} out of range for dimension {space.n}")
        if (mask >> i) & 1:
            raise ValueError(f"repeated coordinate {i}")
        mask |= 1 << i
    size = mask.bit_count()
    total = Fraction(0)
    for bits, p in space.masses.items():
        minus = size - (mask & bits).bit_count()
        total += -p if minus & 1 else p
    return total


def check_kwise(space: SampleSpace, k: int) -> IndependenceReport:
    """Parity route: every coordinate set of size 1..k must average to 0."""
    if not 1 <= k <= space.n:
        raise ValueError(f"independence level must be in [1, {space.n}], got {k}")
    for size in range(1, k + 1):
        for coords in combinations(range(space.n), size):
            value = fourier_coefficient(space, coords)
            if value != 0:
                return IndependenceReport(k, size - 1, (coords, value))
    return IndependenceReport(k, k, None)


def check_kwise_marginal(space: SampleSpace, k: int) -> IndependenceReport:
    """Marginal route: every projection onto 1..k coordinates must be the
    uniform law on the corresponding sign cube."""
    if not 1 <= k <= space.n:
        raise ValueError(f"independence level must be in [1, {space.n}], got {k}")
    for size in range(1, k + 1):
        share = Fraction(1, 1 << size)
        for coords in combinations(range(space.n), size):
            marg = project_marginal(space, coords)
            if marg.support_size == 1 << size and all(
                p == share for p in marg.masses.values()
            ):
                continue
            witness = _marginal_witness(space, coords)
            return IndependenceReport(k, size - 1, witness)
    return IndependenceReport(k, k, None)


def _marginal_witness(space, coords):
    # a non-uniform marginal forces some nonzero parity inside it
    for size in range(1, len(coords) + 1):
        for sub in combinations(coords, size):
            value = fourier_coefficient(space, sub)
            if value != 0:
                return (sub, value)
    raise AssertionError("non-uniform marginal without a parity witness")


def check_exchangeable(space: SampleSpace) -> bool:
    """True iff the law is invariant under coordinate permutations, tested on
    the adjacent transpositions that generate them all."""
    masses = space.masses
    for i in range(space.n - 1):
        lo, hi = 1 << i, 1 << (i + 1)
        for bits, p in masses.items():
            if bool(bits & lo) != bool(bits & hi):
                if masses.get(bits ^ lo ^ hi) != p:
                    return False
    return True
