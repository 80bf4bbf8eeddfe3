"""Streaming draws and Monte Carlo moment estimates."""
import hashlib
from fractions import Fraction
from itertools import chain, islice

import pytest

from kwise.constructions import partition_space, xor_space
from kwise.moments import Weights, pth_moment
from kwise.sampler import (
    McEstimate,
    SplitMix64,
    Stream,
    StreamSpec,
    _blocks,
    _limit,
    _partition,
    _partition_weights,
    estimate_moment,
    sample,
)


class TestSplitMix64:
    def test_published_reference_sequence(self):
        # first outputs for seed 0 of the Steele-Lea-Flood generator, as
        # listed with the xoshiro reference implementations
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_below_stays_in_range_and_hits_everything(self):
        g = SplitMix64(42)
        counts = [0] * 6
        for _ in range(60_000):
            v = g.below(6)
            counts[v] += 1
        assert min(counts) > 0.9 * 10_000
        assert max(counts) < 1.1 * 10_000

    def test_below_validates(self):
        with pytest.raises(ValueError, match="positive"):
            SplitMix64(0).below(0)

    def test_below_refuses_bounds_above_2_64(self):
        # no 64-bit word is below the rejection limit of such a bound, so
        # below would draw forever; it raises before reading any word
        g = SplitMix64(1)
        with pytest.raises(ValueError, match="2\\^64"):
            g.below((1 << 64) + 1)
        assert g.below(1 << 64) == SplitMix64(1).next_u64()  # the raw word


class TestStreamSpec:
    def test_dimension(self):
        assert StreamSpec("partition", 8).dimension == 8
        assert StreamSpec("independent", 5).dimension == 5
        assert StreamSpec("xor", 4).dimension == 16

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            StreamSpec("uniform", 4)
        with pytest.raises(ValueError, match="even"):
            StreamSpec("partition", 5)
        with pytest.raises(ValueError, match="exponent"):
            StreamSpec("xor", 31)
        with pytest.raises(ValueError):
            StreamSpec("independent", 0)

    def test_json(self):
        assert StreamSpec("xor", 3, seed=9).to_json() == {
            "kind": "xor",
            "n": 3,
            "seed": 9,
        }


class TestStreamDeterminism:
    @pytest.mark.parametrize("kind,n", [("partition", 6), ("independent", 7), ("xor", 3)])
    def test_same_spec_same_draws(self, kind, n):
        spec = StreamSpec(kind, n, seed=2024)
        first = [Stream(spec).draw_bits() for _ in range(1)]
        a = Stream(spec)
        b = Stream(spec)
        seq_a = [a.draw_bits() for _ in range(50)]
        seq_b = [b.draw_bits() for _ in range(50)]
        assert seq_a == seq_b
        assert seq_a[0] == first[0]

    def test_different_seed_different_sequence(self):
        x = [Stream(StreamSpec("independent", 8, seed=1)).draw_bits() for _ in range(20)]
        y = [Stream(StreamSpec("independent", 8, seed=2)).draw_bits() for _ in range(20)]
        assert x != y

    def test_sample_is_first_draw(self):
        spec = StreamSpec("partition", 4, seed=77)
        assert sample(spec).bits == Stream(spec).draw_bits()

    @pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
    @pytest.mark.parametrize("kind,n", [("partition", 2), ("partition", 8), ("partition", 62),
                                        ("xor", 1), ("xor", 3), ("xor", 5),
                                        ("independent", 1), ("independent", 62)])
    def test_every_reader_consumes_one_iterator(self, kind, n, seed):
        spec = StreamSpec(kind, n, seed)
        count = 600
        expected = list(islice(Stream(spec).draws, count))
        s = Stream(spec)
        assert [s.draw_bits() for _ in range(count)] == expected
        vectors = list(islice(iter(Stream(spec)), count))
        assert {v.n for v in vectors} == {spec.dimension}
        assert [v.bits for v in vectors] == expected
        s = Stream(spec)
        assert [s.draw().bits for _ in range(count)] == expected
        s = Stream(spec)
        assert [next(s.draws) if i % 2 else s.draw_bits() for i in range(count)] == expected
        assert sample(spec).bits == expected[0]


class TestPartitionStream:
    def test_draws_live_on_the_partition_support(self):
        n = 6
        s = Stream(StreamSpec("partition", n, seed=5))
        for _ in range(2_000):
            w = s.draw_bits().bit_count()
            assert w in (0, n // 2, n)

    def test_class_frequencies(self):
        # unanimous mass is 1/n split over the two unanimous vectors; the
        # seed is fixed, so the draw counts are reproducible, not flaky
        n = 6
        s = Stream(StreamSpec("partition", n, seed=5))
        draws = 30_000
        unanimous = 0
        balanced_patterns = set()
        for _ in range(draws):
            bits = s.draw_bits()
            w = bits.bit_count()
            if w in (0, n):
                unanimous += 1
            else:
                balanced_patterns.add(bits)
        assert abs(unanimous / draws - 1 / n) < 0.01
        assert len(balanced_patterns) == 20  # every C(6,3) pattern occurs

    def test_pairwise_empirical_means_vanish(self):
        n = 8
        s = Stream(StreamSpec("partition", n, seed=11))
        draws = 20_000
        sums = [0] * n
        pair = 0
        for _ in range(draws):
            bits = s.draw_bits()
            for i in range(n):
                sums[i] += 1 if (bits >> i) & 1 else -1
            pair += (1 if bits & 1 else -1) * (1 if (bits >> 1) & 1 else -1)
        # 4 sigma with sigma = sqrt(draws)
        bound = 4 * draws**0.5
        assert all(abs(v) < bound for v in sums)
        assert abs(pair) < bound


def _weights_from_partition(n, words, count):
    return [bits.bit_count() for bits in islice(_partition(n, words), count)]


class TestPartitionWeights:
    @pytest.mark.parametrize("n", [2, 4, 8, 62])
    @pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) - 1])
    def test_matches_stream_draws(self, n, seed):
        count = 3 * 256  # every draw reads a word, so this crosses three blocks
        s = Stream(StreamSpec("partition", n, seed))
        expected = [s.draw_bits().bit_count() for _ in range(count)]
        assert list(islice(_partition_weights(n, _blocks(seed)), count)) == expected

    @pytest.mark.parametrize("n", [4, 6, 10, 62])
    def test_words_near_the_rejection_limits(self, n):
        # for each limit a draw tests, words at, just below and just above
        # it, each repeated n + 2 times inside the second block, so that
        # some draw tests every word against every limit: each limit below
        # 2^64 forces the hand-over to _partition; words just below the
        # least limit do not, and the skip passes over them
        limits = sorted({_limit(2 * n)} | {_limit(n - i) for i in range(n // 2)})
        cases = [[t + d for d in (-1, 0, 1) if t + d < 1 << 64] for t in limits]
        cases.append([limits[0] - 2, limits[0] - 1])
        clean = list(islice(_blocks(n), 3))
        count = 3 * 256
        for near in cases:
            run = [w for w in near for _ in range(n + 2)]
            crafted = list(clean[1])
            crafted[40:40 + len(run)] = run
            blocks = [clean[0], tuple(crafted), clean[2]]
            expected = _weights_from_partition(
                n, chain.from_iterable(chain(blocks, _blocks(7))), count)
            assert list(islice(_partition_weights(n, chain(blocks, _blocks(7))), count)) \
                == expected, near

    @pytest.mark.parametrize("n", [4, 62])
    def test_limit_word_in_the_first_block(self, n):
        # the hand-over can come before any draw has been parsed
        word = _limit(2 * n) if n == 62 else _limit(n - 1)
        first = (word,) + next(_blocks(3))[1:]
        count = 400
        expected = _weights_from_partition(n, chain(first, chain.from_iterable(_blocks(5))), count)
        assert list(islice(_partition_weights(n, chain([first], _blocks(5))), count)) == expected


class TestXorStream:
    def test_lazy_and_eager_draws_share_one_word_stream(self):
        # interleaved lazy and eager draws of one stream read its words in
        # turn; this sequence was recorded before the words were read from
        # a block iterator
        s = Stream(StreamSpec("xor", 3, 2024))
        out = []
        for i in range(40):
            if i % 3 == 1:
                d = s.draw_lazy()
                out.append(("lazy", d.seed_sign, d.seed_mask))
            else:
                out.append(("bits", s.draw_bits()))
        assert out[:6] == [("bits", 51), ("lazy", 1, 1), ("bits", 102), ("bits", 51),
                           ("lazy", -1, 1), ("bits", 153)]
        assert _digest(out) == "a373cb1726439f4b"

    def test_lazy_matches_eager(self):
        spec = StreamSpec("xor", 3, seed=13)
        eager = Stream(spec)
        lazy = Stream(spec)
        for _ in range(10):
            bits = eager.draw_bits()
            draw = lazy.draw_lazy()
            for j in range(8):
                assert draw.sign(j) == (1 if (bits >> j) & 1 else -1)

    def test_lazy_only_for_xor(self):
        with pytest.raises(ValueError, match="xor"):
            Stream(StreamSpec("partition", 4)).draw_lazy()

    def test_wide_xor_needs_lazy_access(self):
        s = Stream(StreamSpec("xor", 7, seed=1))  # dimension 128
        with pytest.raises(ValueError, match="draw_lazy"):
            s.draw_bits()
        draw = s.draw_lazy()
        assert draw.sign(127) in (-1, 1)
        with pytest.raises(ValueError, match="out of range"):
            draw.sign(128)

    def test_too_wide_draws_keep_raising_and_read_no_word(self):
        s = Stream(StreamSpec("xor", 7, seed=11))
        for _ in range(2):
            with pytest.raises(ValueError, match="draw_lazy"):
                s.draw_bits()
        assert s.draw_lazy() == Stream(StreamSpec("xor", 7, seed=11)).draw_lazy()

    def test_draws_are_xor_atoms(self):
        space = xor_space(3)
        s = Stream(StreamSpec("xor", 3, seed=3))
        support = set(space.masses)
        for _ in range(200):
            assert s.draw_bits() in support


class TestEstimateMoment:
    def test_deterministic(self):
        spec = StreamSpec("partition", 8, seed=99)
        e1 = estimate_moment(spec, None, 4, 5_000)
        e2 = estimate_moment(spec, None, 4, 5_000)
        assert e1 == e2

    def test_partition_fourth_moment(self):
        n = 6
        est = estimate_moment(StreamSpec("partition", n, seed=1), None, 4, 50_000)
        exact = n ** 3
        assert est.std_error > 0
        assert abs(est.mean - exact) < 4 * est.std_error

    def test_independent_second_moment(self):
        est = estimate_moment(StreamSpec("independent", 5, seed=2), None, 2, 30_000)
        assert abs(est.mean - 5) < 4 * est.std_error

    def test_xor_weighted_against_enumeration(self):
        a = Weights((1, 2, 1, 1, 2, 1, 1, 1))
        exact = pth_moment(xor_space(3), a, 4).value
        est = estimate_moment(StreamSpec("xor", 3, seed=7), a, 4, 40_000)
        assert abs(est.mean - float(exact)) < 4 * est.std_error

    def test_constant_summand_has_zero_error(self):
        est = estimate_moment(StreamSpec("independent", 1, seed=4), None, 3, 1_000)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_fractional_exponent(self):
        spec = StreamSpec("partition", 4, seed=6)
        exact = pth_moment(partition_space(4), Weights.all_ones(4), Fraction(5, 2)).value
        mid = float(exact.lo + exact.hi) / 2
        est = estimate_moment(spec, None, Fraction(5, 2), 30_000)
        assert abs(est.mean - mid) < 4 * est.std_error

    def test_validation(self):
        spec = StreamSpec("independent", 4)
        with pytest.raises(ValueError, match="100"):
            estimate_moment(spec, None, 4, 99)
        with pytest.raises(ValueError, match="at least 1"):
            estimate_moment(spec, None, Fraction(1, 2), 1_000)
        with pytest.raises(ValueError, match="dimension"):
            estimate_moment(spec, Weights((1, 1)), 4, 1_000)
        with pytest.raises(ValueError, match="exceeds"):
            estimate_moment(StreamSpec("xor", 8), None, 4, 1_000)

    def test_exponent_whose_squares_overflow_a_double(self):
        # samples * M^(2p) against 2^1024: at M = 62 and 100 samples the last
        # admitted exponent is 85 (6.6 + 170 * 5.95 bits), for weights
        # M = sum |a_i|, and a Fraction M counts its denominator
        spec = StreamSpec("independent", 62)
        est = estimate_moment(spec, None, 85, 100)
        assert est.std_error < float("inf")
        for a, p in ((None, 86), (None, 172), (Weights((Fraction(62),) + (Fraction(0),) * 61), 86)):
            with pytest.raises(ValueError, match=f"exponent {p} too large"):
                estimate_moment(spec, a, p, 100)
        small = Weights((Fraction(1, 2**40),) * 62)
        assert estimate_moment(spec, small, 4095, 100).mean == 0.0
        with pytest.raises(ValueError, match="exponent 5/2 too large"):
            estimate_moment(spec, Weights((Fraction(2**300),) + (Fraction(1),) * 61), Fraction(5, 2), 100)

    def test_json_roundtrip_precision(self):
        est = McEstimate(216.03125, 1.25, 1_000)
        data = est.to_json()
        assert float(data["mean"]) == est.mean
        assert float(data["std_error"]) == est.std_error
        assert data["samples"] == 1_000


# -- golden stream ------------------------------------------------------------
# Every word, draw and estimate below is part of the determinism contract:
# the same (kind, n, seed) gives the same sequence in every release.  The
# pinned values were recorded from the one-word-at-a-time generator; a faster
# generator must reproduce them bit for bit.


def _splitmix64_reference(seed, count):
    """Steele, Lea and Flood (2014), one word at a time."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def _digest(values):
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


_FRACTIONAL_WEIGHTS = [Fraction(i % 5 + 1, i % 3 + 1) for i in range(63)]


class TestGoldenStream:
    @pytest.mark.parametrize("seed", [0, 1, 1 << 63, (1 << 64) - 1, 1 << 64])
    def test_words_follow_the_scalar_recurrence(self, seed):
        count = 3 * 256 + 8  # crosses several blocks of buffered words
        g = SplitMix64(seed)
        assert [g.next_u64() for _ in range(count)] == _splitmix64_reference(seed, count)

    @pytest.mark.parametrize("kind,n,seed,head,digest", [
        ("partition", 2, 0, [0x1, 0x1, 0x1], "2a1cccaf6c4be2af"),
        ("partition", 2, 12345, [0x3, 0x0, 0x0], "8111094120fc499a"),
        ("partition", 6, 0, [0x25, 0x15, 0x15], "f9d642749079aa63"),
        ("partition", 6, 12345, [0x1A, 0x16, 0x1A], "153b127a81f73623"),
        ("partition", 62, 0,
         [0x7A67C5D7CE5024C, 0x3B23126AAD87CD15, 0x299BA21D332ABA27], "e67e9e232f25073d"),
        ("partition", 62, 12345,
         [0x172F313703F5B0D0, 0x14A96DBCE5268792, 0x1E4D7EFF41045F00], "b878b5b8fe1e67b9"),
        ("independent", 1, 0, [0x1, 0x0, 0x1], "81c968fd896a2bcc"),
        ("independent", 1, 12345, [0x0, 0x1, 0x1], "f2ca8ca12e3b2cd1"),
        ("independent", 7, 0, [0x2F, 0x74, 0x4F], "ed00632376e3c350"),
        ("independent", 7, 12345, [0x20, 0x6D, 0x1D], "10d075aec6b6efdc"),
        ("independent", 63, 0,
         [0x6220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x6C45D188009454F], "769907080a4a8ff2"),
        ("independent", 63, 12345,
         [0x22118258A9D111A0, 0x346EDCE5F713F8ED, 0x1E9A57BC80E6721D], "8e745f923775c162"),
        ("xor", 1, 0, [0x3, 0x3, 0x3], "3652e768c12e2364"),
        ("xor", 1, 12345, [0x2, 0x3, 0x3], "19bb938ec64803ad"),
        ("xor", 3, 0, [0xF, 0xF, 0x33], "05bc23117b794eb8"),
        ("xor", 3, 12345, [0x5A, 0x33, 0xC3], "323298c26dae1f75"),
        ("xor", 5, 0, [0xF0F00F0F, 0xF00FF00F, 0xCC33CC33], "e318fdbdf5f6f97d"),
        ("xor", 5, 12345, [0xA55AA55A, 0xCC33CC33, 0x3CC33CC3], "615a6bb930a571f2"),
    ])
    def test_draws(self, kind, n, seed, head, digest):
        s = Stream(StreamSpec(kind, n, seed))
        draws = [s.draw_bits() for _ in range(600)]
        assert draws[:3] == head
        assert _digest(draws) == digest

    def test_lazy_xor_draws(self):
        s = Stream(StreamSpec("xor", 7, 99))
        draws = [(d.seed_sign, d.seed_mask) for d in (s.draw_lazy() for _ in range(300))]
        assert draws[:4] == [(1, 36), (1, 87), (-1, 115), (1, 67)]
        assert _digest(draws) == "df7c01189f7a8a0d"

    def test_below(self):
        g = SplitMix64(2024)
        values = [g.below(bound) for bound in range(1, 3001)]
        assert values[:6] == [0, 0, 0, 1, 3, 1]
        assert _digest(values) == "c86e650186a8ab24"
        # bounds where rejection is frequent (up to half the words)
        g = SplitMix64(7)
        bounds = ((1 << 63) + 1, (1 << 64) - 1, 3 << 62, 1 << 64)
        assert _digest(g.below(b) for b in bounds for _ in range(50)) == "01c53faa98a3aad7"

    @pytest.mark.parametrize("kind,n,weighted,p,mean,std_error", [
        ("partition", 6, False, 4, "202.17599999999942", "8.587174556489536"),
        ("partition", 6, False, Fraction(5, 2), "13.756334395470352", "0.5842832221002718"),
        ("partition", 6, True, 4, "1662.9105493827149", "60.57760214943792"),
        ("partition", 6, True, Fraction(5, 2), "66.93512016944074", "1.9045308032874906"),
        ("xor", 3, False, 4, "562.5173333333345", "25.744306919988354"),
        ("xor", 3, False, Fraction(5, 2), "24.85998880843582", "1.1377483750044706"),
        ("xor", 3, True, 4, "4554.7347037037025", "197.17568965590706"),
        ("xor", 3, True, Fraction(5, 2), "109.10554439489871", "3.9613930816310314"),
        ("independent", 9, False, 4, "222.73866666666711", "10.839995857139506"),
        ("independent", 9, False, Fraction(5, 2), "19.02288631083219", "0.5629328032958328"),
        ("independent", 9, True, 4, "2769.763547325101", "110.61590000575784"),
        ("independent", 9, True, Fraction(5, 2), "96.92817173277177", "2.547495774945951"),
        ("partition", 62, False, 3, "3654.362666666674", "534.7487058735278"),
        ("independent", 63, True, 3, "8504.657234567934", "324.98674780869686"),
        ("xor", 5, False, Fraction(7, 3), "113.78490740508012", "10.910032945470682"),
    ])
    def test_estimates(self, kind, n, weighted, p, mean, std_error):
        spec = StreamSpec(kind, n, 31)
        a = Weights(tuple(_FRACTIONAL_WEIGHTS[:spec.dimension])) if weighted else None
        est = estimate_moment(spec, a, p, 3000)
        assert (repr(est.mean), repr(est.std_error), est.samples) == (mean, std_error, 3000)
