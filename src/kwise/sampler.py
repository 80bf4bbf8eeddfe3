"""Streaming draws from the supported sign laws and Monte Carlo moments.

The pseudorandom source is SplitMix64 (Steele, Lea, Flood 2014), chosen for
cross-platform reproducibility: identical (kind, n, seed) always yields the
identical sample sequence.  Bounded draws use threshold rejection, so every
range is exactly uniform.  Estimates accumulate in IEEE doubles; at the
bounded magnitudes involved the rounding error is far below the Monte Carlo
noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterator, Optional

from .core import MAX_DIMENSION, SignVector
from .constructions import xor_pattern, xor_sign
from .moments import Weights

_MASK64 = (1 << 64) - 1
MAX_XOR_EXPONENT = 30

KINDS = ("partition", "xor", "independent")


class SplitMix64:
    """64-bit SplitMix generator: state advances by the golden-gamma constant
    0x9E3779B97F4A7C15 and each output is the murmur-style finalizer of the
    new state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection below the largest
        multiple of bound that fits in 64 bits."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = ((1 << 64) // bound) * bound
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


@dataclass(frozen=True, slots=True)
class StreamSpec:
    """Replayable description of a sign-vector stream."""

    kind: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "xor":
            if not 1 <= self.n <= MAX_XOR_EXPONENT:
                raise ValueError(
                    f"xor seed exponent must be in [1, {MAX_XOR_EXPONENT}], got {self.n}"
                )
        else:
            if not 1 <= self.n <= MAX_DIMENSION:
                raise ValueError(
                    f"dimension must be in [1, {MAX_DIMENSION}], got {self.n}"
                )
            if self.kind == "partition" and self.n % 2:
                raise ValueError(f"partition law needs even dimension, got {self.n}")

    @property
    def dimension(self) -> int:
        return (1 << self.n) if self.kind == "xor" else self.n

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n, "seed": self.seed}


@dataclass(frozen=True, slots=True)
class XorDraw:
    """One draw of the xor law with coordinates evaluated on demand, for
    dimensions 2^n too large to materialize."""

    n: int
    seed_sign: int
    seed_mask: int

    def sign(self, j: int) -> int:
        if not 0 <= j < (1 << self.n):
            raise ValueError(f"coordinate {j} out of range for dimension {1 << self.n}")
        return xor_sign(self.n, self.seed_sign, self.seed_mask, j)


class Stream:
    """Stateful sampler for one StreamSpec; see the module docstring for the
    determinism guarantee.  Not safe to share across threads."""

    def __init__(self, spec: StreamSpec):
        self.spec = spec
        self._rng = SplitMix64(spec.seed)

    def draw_bits(self) -> int:
        """One draw as a sign bitmask (bit i set means coordinate i is +1).
        For the xor kind this materializes all 2^n coordinates and therefore
        requires the dimension to fit a bitmask."""
        kind = self.spec.kind
        n = self.spec.n
        rng = self._rng
        if kind == "independent":
            return rng.next_u64() & ((1 << n) - 1)
        if kind == "partition":
            u = rng.below(2 * n)
            if u == 0:
                return (1 << n) - 1
            if u == 1:
                return 0
            # uniform balanced vector: partial shuffle of a half-and-half
            # template, the first n/2 slots become the +1 coordinates
            arr = list(range(n))
            for i in range(n // 2):
                j = i + rng.below(n - i)
                arr[i], arr[j] = arr[j], arr[i]
            bits = 0
            for i in range(n // 2):
                bits |= 1 << arr[i]
            return bits
        draw = self.draw_lazy()
        dim = 1 << n
        if dim > MAX_DIMENSION:
            raise ValueError(
                f"xor dimension 2^{n} = {dim} exceeds {MAX_DIMENSION}; "
                "use draw_lazy for coordinate access"
            )
        return xor_pattern(n, draw.seed_sign, draw.seed_mask)

    def draw(self) -> SignVector:
        return SignVector(self.spec.dimension, self.draw_bits())

    def draw_lazy(self) -> XorDraw:
        if self.spec.kind != "xor":
            raise ValueError("lazy draws are only defined for the xor kind")
        rng = self._rng
        seed_sign = 1 if rng.next_u64() & 1 else -1
        seed_mask = rng.below(1 << self.spec.n)
        return XorDraw(self.spec.n, seed_sign, seed_mask)

    def __iter__(self) -> Iterator[SignVector]:
        while True:
            yield self.draw()


def sample(spec: StreamSpec) -> SignVector:
    """First draw of the stream described by spec (deterministic)."""
    return Stream(spec).draw()


@dataclass(frozen=True, slots=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int

    def to_json(self) -> dict:
        return {
            "mean": repr(self.mean),
            "std_error": repr(self.std_error),
            "samples": self.samples,
        }


def estimate_moment(
    spec: StreamSpec, a: Optional[Weights], p, samples: int
) -> McEstimate:
    """Monte Carlo mean of |<a, x>|^p over the stream, with standard error.

    Accumulation is Welford's one-pass algorithm in doubles.  a = None means
    all-ones weights."""
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    pf = Fraction(p)
    if pf < 1:
        raise ValueError(f"exponent must be at least 1, got {p}")
    dim = spec.dimension
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension {dim} exceeds {MAX_DIMENSION}")
    if a is not None and a.n != dim:
        raise ValueError(f"weights have dimension {a.n}, expected {dim}")
    stream = Stream(spec)
    draw_bits = stream.draw_bits
    pe = float(pf)
    mean = 0.0
    m2 = 0.0
    if a is None:
        for i in range(1, samples + 1):
            bits = draw_bits()
            t = float(abs(2 * bits.bit_count() - dim)) ** pe
            delta = t - mean
            mean += delta / i
            m2 += delta * (t - mean)
    else:
        coeffs = [float(v) for v in a.a]
        for i in range(1, samples + 1):
            bits = draw_bits()
            dot = 0.0
            for j, cj in enumerate(coeffs):
                dot += cj if (bits >> j) & 1 else -cj
            t = abs(dot) ** pe
            delta = t - mean
            mean += delta / i
            m2 += delta * (t - mean)
    variance = m2 / (samples - 1)
    return McEstimate(mean, sqrt(variance / samples), samples)
