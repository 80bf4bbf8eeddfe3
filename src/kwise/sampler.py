"""Streaming draws from the supported sign laws and Monte Carlo moments.

The pseudorandom source is SplitMix64 (Steele, Lea, Flood 2014), chosen for
cross-platform reproducibility: identical (kind, n, seed) always yields the
identical sample sequence.  Words are made _BLOCK at a time by _blocks: the
block's states are packed into 128-bit lanes of one Python int, and the
finalizer's two xorshift-multiply rounds and last xorshift run on all lanes
at once.  Each shift is masked back to the low 64 bits of every lane, and a
64-bit lane times a 64-bit constant fits in its 128 bits, so no carry
crosses a lane and every lane follows the one-word recurrence exactly.  The
next block's states are this block's plus _BLOCK*gamma in every lane: one
lane-wise addition, whose carry out of bit 63 the mask drops.  A stream's
words are the blocks chained into one iterator, which every draw and
next_u64 read in turn.  Bounded draws use threshold rejection, so every
range is exactly uniform.  Each kind's draws are one endless iterator of
sign bitmasks over those words, and every reader of a stream consumes it.

An unweighted partition estimate needs only each draw's Hamming weight, so
_partition_weights reads it from the class word alone and skips a balanced
draw's shuffle words unread.  That is exact while every buffered word is
below each threshold the draw could test, which it checks once per block;
from the first block where that fails it hands the words to the exact
_partition draw, a case of probability below 2n*_BLOCK/2^64 per block.
Estimates accumulate in IEEE doubles; at the bounded magnitudes involved the
rounding error is far below the Monte Carlo noise.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, repeat
from math import log2, sqrt
from typing import Iterator, Optional

from .core import MAX_DIMENSION, SignVector
from .constructions import xor_pattern, xor_sign
from .moments import Weights

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
MAX_XOR_EXPONENT = 30

KINDS = ("partition", "xor", "independent")

_BLOCK = 256  # words per block, one 128-bit lane each
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK, "little")
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")
_STEPS = int.from_bytes(
    b"".join((i * _GAMMA & _MASK64).to_bytes(16, "little") for i in range(1, _BLOCK + 1)),
    "little",
)
_STRIDE = int.from_bytes((_BLOCK * _GAMMA & _MASK64).to_bytes(16, "little") * _BLOCK, "little")
_UNPACK = struct.Struct("<" + "Q8x" * _BLOCK).unpack


def _limit(bound: int) -> int:
    """Largest multiple of bound that fits in 64 bits: words at or above it
    are rejected."""
    return ((1 << 64) // bound) * bound


def _blocks(seed: int) -> Iterator[tuple[int, ...]]:
    """The finalized words after the state seed mod 2^64, as tuples of
    _BLOCK."""
    lanes = ((seed & _MASK64) * _ONES + _STEPS) & _LOW
    while True:
        z = lanes
        lanes = (lanes + _STRIDE) & _LOW
        z = ((z ^ ((z >> 30) & _LOW)) * 0xBF58476D1CE4E5B9) & _LOW
        z = ((z ^ ((z >> 27) & _LOW)) * 0x94D049BB133111EB) & _LOW
        z ^= (z >> 31) & _LOW
        yield _UNPACK(z.to_bytes(16 * _BLOCK, "little"))


class SplitMix64:
    """64-bit SplitMix generator: state advances by the golden-gamma constant
    0x9E3779B97F4A7C15 and each output is the murmur-style finalizer of the
    new state.  words is the endless iterator of outputs, and next_u64()
    returns its next word."""

    __slots__ = ("words", "next_u64")

    def __init__(self, seed: int):
        self.words = chain.from_iterable(_blocks(seed))
        self.next_u64 = self.words.__next__

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection below the largest
        multiple of bound that fits in 64 bits; bound is at most 2^64."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound > 1 << 64:
            raise ValueError(f"bound must be at most 2^64, got {bound}")
        limit = _limit(bound)
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
        return xor_sign(self.n, self.seed_sign, self.seed_mask, j)


class Stream:
    """Stateful sampler for one StreamSpec; see the module docstring for the
    determinism guarantee.  Not safe to share across threads.

    draws is the stream's one endless iterator of sign bitmasks (bit i set
    means coordinate i is +1), and draw_bits() returns its next draw;
    draw(), iteration and draw_lazy() read the same words in turn.  For the
    xor kind a draw materializes all 2^n coordinates and therefore requires
    the dimension to fit a bitmask."""

    def __init__(self, spec: StreamSpec):
        self.spec = spec
        self._rng = SplitMix64(spec.seed)
        self.draws = _DRAWS[spec.kind](spec.n, self._rng.words)
        self.draw_bits = self.draws.__next__

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
        return map(partial(SignVector, self.spec.dimension), self.draws)


def _independent(n: int, words: Iterator[int]) -> Iterator[int]:
    return map(((1 << n) - 1).__and__, words)


def _partition(n: int, words: Iterator[int]) -> Iterator[int]:
    """Unanimous with probability 1/n, else a uniform balanced vector: a
    partial shuffle of the coordinates' bits, whose first n/2 slots become
    the +1 coordinates."""
    word = words.__next__
    bound = 2 * n
    limit = _limit(bound)
    full = (1 << n) - 1
    half = n // 2
    coords = [1 << i for i in range(n)]
    steps = [(i, n - i, _limit(n - i)) for i in range(half)]
    while True:
        u = word()
        while u >= limit:
            u = word()
        u %= bound
        if u == 0:
            yield full
        elif u == 1:
            yield 0
        else:
            arr = coords[:]
            for i, b, lim in steps:
                u = word()
                while u >= lim:
                    u = word()
                j = i + u % b
                arr[i], arr[j] = arr[j], arr[i]
            yield sum(arr[:half])


def _partition_weights(n: int, blocks: Iterator[tuple[int, ...]]) -> Iterator[int]:
    """Hamming weights of the _partition draws made from the chained blocks.

    The class word u = w mod 2n gives weight n at u = 0, 0 at u = 1 and n/2
    otherwise.  A word below safe passes every rejection test of a draw, so
    while a block holds no word at or above safe, a draw takes one word, or
    1 + n/2 when balanced, and the shuffle words need not be read.  From the
    first block that holds such a word, the remaining words go to
    _partition."""
    bound = 2 * n
    half = n // 2
    skip = half + 1
    safe = min([_limit(bound)] + [_limit(n - i) for i in range(half)])
    buf = []
    for block in blocks:
        buf += block
        if max(buf) >= safe:
            break
        # a balanced draw starting before end has its shuffle words in buf
        end = len(buf) - half
        i = 0
        while i < end:
            u = buf[i] % bound
            if u > 1:
                yield half
                i += skip
            else:
                yield n if u == 0 else 0
                i += 1
        del buf[:i]
    yield from map(int.bit_count, _partition(n, chain(buf, chain.from_iterable(blocks))))


def _too_wide(n: int):
    raise ValueError(
        f"xor dimension 2^{n} = {1 << n} exceeds {MAX_DIMENSION}; "
        "use draw_lazy for coordinate access"
    )


def _xor(n: int, words: Iterator[int]) -> Iterator[int]:
    dim = 1 << n
    if dim > MAX_DIMENSION:
        return map(_too_wide, repeat(n))  # raises at every draw, reads no word
    # map takes one sign word, then the seed mask, from words in turn:
    # below(2^n) never rejects, because 2^n divides 2^64, so the mask is the
    # word's low n bits
    plus = [xor_pattern(n, 1, mask) for mask in range(dim)]
    full = (1 << dim) - 1
    patterns = ([v ^ full for v in plus], plus)
    low = dim - 1
    return map(lambda sign, mask: patterns[sign & 1][mask & low], words, words)


_DRAWS = {"independent": _independent, "partition": _partition, "xor": _xor}


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
    all-ones weights, where a draw counts only through its Hamming weight:
    the partition kind then reads the weights from _partition_weights,
    which skips the shuffle words, and the result is the same double.
    Welford's squared deviations reach samples * M^(2p), M = max |<a, x>|
    <= sum |a_i| (the dimension for a = None), so an exponent for which
    that bound passes the largest double is refused before any draw."""
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
    pe = float(pf)
    top = dim if a is None else sum(map(abs, a.a))
    if log2(samples) + 2 * pe * (log2(top.numerator) - log2(top.denominator)) >= 1024:
        raise ValueError(f"exponent {pf} too large: {samples} * ({top})^(2p) overflows a double")
    draws = Stream(spec).draws
    if a is None:
        table = [float(abs(2 * m - dim)) ** pe for m in range(dim + 1)]
        if spec.kind == "partition":
            weights = _partition_weights(spec.n, _blocks(spec.seed))
        else:
            weights = map(int.bit_count, draws)
        values = map(table.__getitem__, weights)
    else:
        coeffs = [float(v) for v in a.a]

        def value(bits):
            dot = 0.0
            for j, cj in enumerate(coeffs):
                dot += cj if (bits >> j) & 1 else -cj
            return abs(dot) ** pe

        # xor has at most 2^(n+1) distinct draws; other kinds keep nothing
        # per draw, because their draws need not repeat
        values = map(cache(value) if spec.kind == "xor" else value, draws)
    mean = 0.0
    m2 = 0.0
    for i, t in zip(range(1, samples + 1), values):
        delta = t - mean
        mean += delta / i
        m2 += delta * (t - mean)
    variance = m2 / (samples - 1)
    return McEstimate(mean, sqrt(variance / samples), samples)
