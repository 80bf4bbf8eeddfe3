"""Acceptance gate: the headline guarantees, one test and one printed
PASS/FAIL line each, with the stated time budgets enforced."""
from contextlib import contextmanager
from fractions import Fraction
from random import Random
from time import perf_counter

from kwise.bounds import haagerup_constant, interpolation_bound
from kwise.constructions import (
    independent_space,
    partition_space,
    xor_pairwise_table,
    xor_seed_coefficient,
    xor_space,
)
from kwise.extremal import (
    equality_support_check,
    parity_class_coefficient,
    solve_full,
    solve_reduced,
)
from kwise.independence import (
    check_exchangeable,
    check_kwise,
    check_kwise_marginal,
)
from kwise.moments import Weights, khintchine_ratio, pth_moment, ratio_from_moment
from kwise.sampler import StreamSpec, estimate_moment

from test_extremal import brute_class_average


@contextmanager
def criterion(capsys, num, label):
    detail = {}
    t0 = perf_counter()
    try:
        yield detail
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num:02d}] FAIL  {label}  ({perf_counter() - t0:.2f}s)")
        raise
    note = f"  [{detail['note']}]" if "note" in detail else ""
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] PASS  {label}  ({perf_counter() - t0:.2f}s){note}")


def test_criterion_01_pairwise_closed_form(capsys):
    with criterion(capsys, 1, "reduced pairwise optimum is n^(p-1), under 1s") as d:
        t0 = perf_counter()
        for n in (2, 4, 6, 8, 10):
            for p in (3, 4, 5, 6):
                sol = solve_reduced(n, p, 2)
                assert sol.optimal_value == Fraction(n) ** (p - 1), (n, p)
        elapsed = perf_counter() - t0
        d["note"] = f"{elapsed:.3f}s for 20 programs"
        assert elapsed < 1.0


def test_criterion_02_partition_independence(capsys):
    with criterion(capsys, 2, "partition law: 3-wise yes, 4-wise no, under 5s") as d:
        t0 = perf_counter()
        for n in (2, 4, 6, 8, 10, 12):
            space = partition_space(n)
            assert check_kwise(space, 2).passed, n
            if n >= 3:
                assert check_kwise(space, 3).passed, n
            assert check_kwise_marginal(space, 2).passed, n
            assert check_exchangeable(space), n
            if n >= 4:
                report = check_kwise(space, 4)
                assert not report.passed, n
                assert report.k_verified == 3, n
        elapsed = perf_counter() - t0
        d["note"] = f"{elapsed:.3f}s up to dimension 12"
        assert elapsed < 5.0


def test_criterion_03_partition_moments(capsys):
    with criterion(capsys, 3, "partition moments equal n^(p-1) exactly") as d:
        for n in (2, 4, 6, 8, 10, 12):
            a = Weights.all_ones(n)
            space = partition_space(n)
            for p in range(2, 9):
                got = pth_moment(space, a, p).value
                assert got == Fraction(n) ** (p - 1), (n, p)


def test_criterion_04_threewise_adds_nothing(capsys):
    with criterion(capsys, 4, "3-wise optimum equals pairwise optimum (even n)") as d:
        for n in (4, 6, 8, 10):
            for p in (4, 6):
                v3 = solve_reduced(n, p, 3).optimal_value
                v2 = solve_reduced(n, p, 2).optimal_value
                assert v3 == v2 == Fraction(n) ** (p - 1), (n, p)


def test_criterion_05_unique_optimizer(capsys):
    with criterion(capsys, 5, "pairwise p=4 optimizer is the partition profile, uniquely") as d:
        for n in (6, 8, 10):
            sol = solve_reduced(n, 4, 2, check_unique=True)
            assert sol.unique is True, n
            q = sol.optimizer.q
            assert q[0] == q[n] == Fraction(1, 2 * n), n
            assert q[n // 2] == Fraction(n - 1, n), n
            for m in range(1, n):
                if m != n // 2:
                    assert q[m] == 0, (n, m)


def test_criterion_06_xor_construction(capsys):
    with criterion(capsys, 6, "xor law pairwise-exact over the seed space, under 60s") as d:
        t0 = perf_counter()
        for n in (1, 2, 3, 4):
            assert check_kwise(xor_space(n), 2).passed, n
        for n in range(1, 9):
            dim = 1 << n
            for j in range(dim):
                assert xor_seed_coefficient(n, (j,)) == 0, (n, j)
            table = xor_pairwise_table(n)
            assert len(table) == dim * (dim - 1) // 2
            assert all(v == 0 for v in table.values()), n
        # a 4-subset of coordinates whose indices xor to zero has parity
        # product +1 on every seed, so its coefficient is exactly 1
        assert xor_seed_coefficient(8, (0, 1, 2, 3)) == 1
        elapsed = perf_counter() - t0
        d["note"] = f"{elapsed:.2f}s including the 2^8-coordinate table"
        assert elapsed < 60.0


def test_criterion_07_haagerup_enclosure(capsys):
    with criterion(capsys, 7, "independent sums stay below the p=4 constant") as d:
        c4 = haagerup_constant(4)
        three_fourth = Fraction(3)
        assert c4.lo ** 4 <= three_fourth <= c4.hi ** 4
        assert c4.hi - c4.lo < Fraction(1, 10**20)
        rng = Random(20260819)
        for _ in range(100):
            n = rng.randint(1, 10)
            a = Weights(
                tuple(
                    Fraction(rng.choice([v for v in range(-5, 6) if v]), rng.randint(1, 5))
                    for _ in range(n)
                )
            )
            ratio = khintchine_ratio(independent_space(n), a, 4)
            assert ratio.hi <= c4.hi, (n, a)


def test_criterion_08_fourwise_beats_interpolation(capsys):
    with criterion(capsys, 8, "4-wise optimum sits strictly below the interpolation bound") as d:
        gaps = []
        for n in (6, 8, 10):
            for p in (6, 8):
                value = solve_reduced(n, p, 4).optimal_value
                ratio = ratio_from_moment(value, p, Fraction(n))
                bound = interpolation_bound(n, p, 4)
                gap = bound.lo - ratio.hi
                assert gap > 0, (n, p)
                gaps.append(float(gap))
        d["note"] = f"gap range {min(gaps):.4f}..{max(gaps):.4f}"


def test_criterion_09_full_program_agrees(capsys):
    with criterion(capsys, 9, "unreduced program reproduces every reduced optimum, under 5min") as d:
        t0 = perf_counter()
        for n in range(1, 11):
            for k in range(1, min(4, n) + 1):
                for p in (4, 6, 2):
                    full = solve_full(n, p, k)
                    red = solve_reduced(n, p, k)
                    assert full.optimal_value == red.optimal_value, (n, p, k)
                    assert full.certificate_ok is True, (n, p, k)
                    assert red.certificate_ok is True, (n, p, k)
        elapsed = perf_counter() - t0
        d["note"] = f"{elapsed:.1f}s for the whole grid"
        assert elapsed < 300.0


def test_criterion_10_monte_carlo(capsys):
    with criterion(capsys, 10, "10^6 streamed draws reproduce the exact moment, under 10s") as d:
        spec = StreamSpec("partition", 8, seed=8128)
        t0 = perf_counter()
        est = estimate_moment(spec, None, 4, 10**6)
        elapsed = perf_counter() - t0
        assert abs(est.mean - 512.0) < 4 * est.std_error
        assert est.std_error > 0
        again = estimate_moment(spec, None, 4, 10**6)
        assert est == again
        d["note"] = f"mean {est.mean:.3f}, stderr {est.std_error:.3f}, {elapsed:.2f}s"
        assert elapsed < 10.0


def test_criterion_11_class_coefficients(capsys):
    with criterion(capsys, 11, "parity class averages match brute-force enumeration") as d:
        for n in range(1, 11):
            for j in range(0, min(4, n) + 1):
                for m in range(n + 1):
                    assert parity_class_coefficient(n, j, m) == brute_class_average(
                        n, j, m
                    ), (n, j, m)


def test_criterion_12_equality_not_unique(capsys):
    with criterion(capsys, 12, "pairwise equality law not unique; unique among exchangeable ones") as d:
        n, p, k = 8, 4, 2
        a = Weights.all_ones(n)
        optimum = solve_full(n, p, k).optimal_value
        assert optimum == Fraction(n) ** (p - 1)
        xor, partition = xor_space(3), partition_space(n)
        assert (xor.n, partition.n) == (n, n)
        assert xor.masses != partition.masses
        assert (len(xor.masses), len(partition.masses)) == (16, 72)
        assert not check_exchangeable(xor)
        assert check_exchangeable(partition)
        for space in (xor, partition):
            assert check_kwise(space, k).passed
            assert equality_support_check(space, a, p)
            assert pth_moment(space, a, p).value == optimum
        assert solve_reduced(n, p, k, check_unique=True).unique is True
        d["note"] = f"two laws at {optimum} over all pairwise laws, one exchangeable optimizer"
