"""Exact finitely supported probability laws on the sign cube {-1,+1}^n.

Sign vectors are stored as bit masks (bit i set means coordinate i equals +1),
probabilities are exact rationals, and atoms are kept in canonical bit-mask
order so that serialization and equality are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .intervals import Interval, _int_str

# Sign vectors live in a machine word; explicit-support expansion is capped
# separately because 2^n atoms get large much sooner than n does: the
# uniform law at n = 20 peaks at about 175 MB, its JSON rendering at 0.5 GB.
MAX_DIMENSION = 63
MAX_ENUMERATION = 20

# decimal places of every printed interval endpoint
DIGITS = 40

# binary digits to sign characters, for sign_string
_SIGN_CHARS = str.maketrans("01", "-+")


def sign_string(n: int, bits: int) -> str:
    """The n sign characters of bits, coordinate 0 (the lowest bit) first."""
    return format(bits, f"0{n}b")[::-1].translate(_SIGN_CHARS)


def subset_mask(coords: Iterable[int]) -> int:
    """The bit mask of a set of coordinates: bit i set for each i listed."""
    mask = 0
    for i in coords:
        mask |= 1 << i
    return mask


def walsh_hadamard(f: Sequence[int]) -> list[int]:
    """g[x] = sum over t of f[t] * (-1)^|t & x|, for 2^n integers f, in
    n * 2^n additions: each round adds and subtracts the pairs that differ in
    bit 0 and moves that bit to the top, so n rounds put every bit back."""
    g = list(f)
    if not g or len(g) & (len(g) - 1):
        raise ValueError(f"length must be a power of two, got {len(g)}")
    for _ in range(len(g).bit_length() - 1):
        even, odd = g[0::2], g[1::2]
        g = [u + v for u, v in zip(even, odd)] + [u - v for u, v in zip(even, odd)]
    return g


@dataclass(frozen=True, slots=True)
class SignVector:
    """One point of {-1,+1}^n. Bit i of ``bits`` is set iff coordinate i is +1."""

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bit mask {self.bits:#x} does not fit dimension {self.n}")

    def sign(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate index {i} out of range for dimension {self.n}")
        return 1 if (self.bits >> i) & 1 else -1

    @property
    def weight(self) -> int:
        """Number of +1 coordinates."""
        return self.bits.bit_count()

    def signs(self) -> tuple[int, ...]:
        return tuple(1 if (self.bits >> i) & 1 else -1 for i in range(self.n))

    def __str__(self) -> str:
        return sign_string(self.n, self.bits)

    @classmethod
    def from_signs(cls, signs: Sequence[int]) -> "SignVector":
        bits = 0
        for i, s in enumerate(signs):
            if s == 1:
                bits |= 1 << i
            elif s != -1:
                raise ValueError(f"signs must be +-1, got {s!r}")
        return cls(len(signs), bits)

    @classmethod
    def from_string(cls, text: str) -> "SignVector":
        bits = 0
        for i, ch in enumerate(text):
            if ch == "+":
                bits |= 1 << i
            elif ch not in ("-", "−"):
                raise ValueError(f"sign strings use '+'/'-', got {ch!r}")
        return cls(len(text), bits)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"expected an exact rational, got {type(x).__name__}")


class SampleSpace:
    """A finitely supported law on {-1,+1}^n with exact rational masses.

    ``numerators`` maps bit masks, in bit-mask order, to positive integers
    that sum to exactly ``den``, the masses' least common denominator: an
    atom's mass is its numerator / den.  ``masses`` gives them as Fractions.
    """

    __slots__ = ("n", "den", "numerators")

    def __init__(self, n: int, atoms: Mapping | Iterable):
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        table: dict[int, Fraction] = {}
        for key, prob in items:
            if isinstance(key, SignVector):
                if key.n != n:
                    raise ValueError(f"atom dimension {key.n} != space dimension {n}")
                bits = key.bits
            else:
                bits = int(key)
                if bits < 0 or bits >> n:
                    raise ValueError(f"bit mask {bits:#x} does not fit dimension {n}")
            p = _as_fraction(prob)
            if p.numerator <= 0:
                raise ValueError(f"atom probabilities must be positive, got {p}")
            if bits in table:
                raise ValueError(f"duplicate atom {bits:#x}")
            table[bits] = p
        den = lcm(*{p.denominator for p in table.values()})
        # sorting the keys, not the items, makes no tuple per atom
        numerators = {bits: table[bits].numerator * (den // table[bits].denominator)
                      for bits in sorted(table)}
        if sum(numerators.values()) != den:
            raise ValueError("atom probabilities must sum to exactly 1")
        self.n, self.den, self.numerators = n, den, numerators

    @property
    def masses(self) -> dict[int, Fraction]:
        """Bit mask to probability, in bit-mask order, built when read."""
        return {bits: Fraction(num, self.den) for bits, num in self.numerators.items()}

    def probability(self, atom) -> Fraction:
        bits = atom.bits if isinstance(atom, SignVector) else int(atom)
        return Fraction(self.numerators.get(bits, 0), self.den)

    def items(self) -> Iterator[tuple[SignVector, Fraction]]:
        for bits, num in self.numerators.items():
            yield SignVector(self.n, bits), Fraction(num, self.den)

    @property
    def support_size(self) -> int:
        return len(self.numerators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleSpace):
            return NotImplemented
        return (self.n, self.den, self.numerators) == (other.n, other.den, other.numerators)

    def __hash__(self):
        return hash((self.n, self.den, tuple(self.numerators.items())))

    def __repr__(self) -> str:
        return f"SampleSpace(n={self.n}, atoms={self.support_size})"

    def to_json(self) -> dict:
        # one string per distinct mass: a uniform law has 2^n atoms, one mass
        probs = {num: _frac_str(Fraction(num, self.den)) for num in set(self.numerators.values())}
        atoms = [
            {"signs": sign_string(self.n, bits), "prob": probs[num]}
            for bits, num in self.numerators.items()
        ]
        return {"n": self.n, "atoms": atoms}

    @classmethod
    def from_json(cls, data: dict) -> "SampleSpace":
        n = data["n"]
        atoms = [
            (SignVector.from_string(a["signs"]).bits, Fraction(a["prob"]))
            for a in data["atoms"]
        ]
        return cls(n, atoms)


@dataclass(frozen=True, slots=True)
class WeightProfile:
    """Law of the +1-coordinate count of an exchangeable sign vector.

    ``q[m]`` is the probability of seeing exactly m coordinates equal to +1;
    the entries are nonnegative rationals summing to exactly 1.
    """

    n: int
    q: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if len(self.q) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} weight-class masses, got {len(self.q)}")
        if any(p < 0 for p in self.q):
            raise ValueError("weight-class masses must be nonnegative")
        if sum(self.q, Fraction(0)) != 1:
            raise ValueError("weight-class masses must sum to exactly 1")

    def to_json(self) -> dict:
        return {"n": self.n, "q": [_frac_str(p) for p in self.q]}

    @classmethod
    def from_json(cls, data: dict) -> "WeightProfile":
        return cls(data["n"], tuple(Fraction(s) for s in data["q"]))


def _frac_str(f: Fraction) -> str:
    return f"{_int_str(f.numerator)}/{_int_str(f.denominator)}"


def _value_json(value: Union[Fraction, Interval], bits: int):
    """An exact value as "num/den"; an enclosure as its endpoints rounded
    outward to DIGITS places, with the precision it was computed at."""
    if isinstance(value, Interval):
        lo, hi = value.decimal_bounds(DIGITS)
        return {"lo": lo, "hi": hi, "bits": bits}
    return _frac_str(value)


def expand(profile: WeightProfile) -> SampleSpace:
    """Exchangeable law with the given weight-class masses, spread uniformly
    inside each class.  Support may reach 2^n, hence the enumeration cap."""
    n = profile.n
    if n > MAX_ENUMERATION:
        raise ValueError(f"expansion is capped at dimension {MAX_ENUMERATION}, got {n}")
    atoms: list[tuple[int, Fraction]] = []
    for m, qm in enumerate(profile.q):
        if qm == 0:
            continue
        share = qm / comb(n, m)
        for pos in combinations(range(n), m):
            atoms.append((subset_mask(pos), share))
    return SampleSpace(n, atoms)


def symmetrize(space: SampleSpace) -> WeightProfile:
    """Collapse a law to its weight-class masses (the orbit sums under
    coordinate permutations)."""
    q = [0] * (space.n + 1)
    for bits, num in space.numerators.items():
        q[bits.bit_count()] += num
    return WeightProfile(space.n, tuple(Fraction(v, space.den) for v in q))


def project_marginal(space: SampleSpace, coords: Sequence[int]) -> SampleSpace:
    """Pushforward of the law onto the listed coordinates (given in increasing
    order, without repeats)."""
    coords = tuple(coords)
    if not coords:
        raise ValueError("marginal needs at least one coordinate")
    if any(not 0 <= i < space.n for i in coords):
        raise ValueError(f"coordinate out of range for dimension {space.n}: {coords}")
    if any(a >= b for a, b in zip(coords, coords[1:])):
        raise ValueError(f"coordinates must be strictly increasing: {coords}")
    table: dict[int, int] = {}
    for bits, num in space.numerators.items():
        sub = 0
        for idx, i in enumerate(coords):
            if (bits >> i) & 1:
                sub |= 1 << idx
        table[sub] = table.get(sub, 0) + num
    return SampleSpace(len(coords), ((sub, Fraction(num, space.den)) for sub, num in table.items()))


def uniform_cube(n: int) -> SampleSpace:
    """The uniform (fully independent) law on {-1,+1}^n."""
    if n > MAX_ENUMERATION:
        raise ValueError(f"explicit uniform law is capped at dimension {MAX_ENUMERATION}")
    share = Fraction(1, 1 << n)
    return SampleSpace(n, ((bits, share) for bits in range(1 << n)))
