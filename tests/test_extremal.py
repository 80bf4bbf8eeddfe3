"""Extremal moment programs: class coefficients, both LP routes, uniqueness
probing, and the sharp-support test."""
import dataclasses
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwise import extremal
from kwise.constructions import independent_space, partition_space
from kwise.core import SampleSpace, WeightProfile, expand
from kwise.extremal import (
    LpSolution,
    equality_support_check,
    full_constraint_labels,
    parity_class_coefficient,
    parity_class_sum,
    reduced_lp,
    solve_full,
    solve_reduced,
    uniqueness_check,
)
from kwise.intervals import Interval, rational_power
from kwise.moments import Weights, pth_moment
from kwise.simplex import ExactSimplex, reduced_costs


def dot_bits(a: Weights, bits: int) -> Fraction:
    """<a, x> in Fractions, straight from the definition, for the sign vector
    x whose bit i is set iff x_i = +1."""
    return sum((w if bits >> i & 1 else -w for i, w in enumerate(a.a)), Fraction(0))


def character(subset, bits: int) -> int:
    """The product of the coordinates in subset at the sign vector x whose
    bit i is set iff x_i = +1."""
    prod = 1
    for i in subset:
        prod *= 1 if bits >> i & 1 else -1
    return prod


def brute_class_average(n: int, j: int, m: int) -> Fraction:
    """Average of the product over the first j coordinates, taken over all
    sign vectors with exactly m entries equal to +1."""
    total = 0
    count = 0
    for plus in combinations(range(n), m):
        plus = set(plus)
        prod = 1
        for i in range(j):
            prod *= 1 if i in plus else -1
        total += prod
        count += 1
    return Fraction(total, count)


class TestClassCoefficients:
    def test_matches_brute_force_everywhere(self):
        for n in range(1, 11):
            for j in range(0, min(4, n) + 1):
                for m in range(n + 1):
                    assert parity_class_coefficient(n, j, m) == brute_class_average(
                        n, j, m
                    ), (n, j, m)

    def test_row_sum_normalization(self):
        # the numerator convention: coefficient = class sum / C(n, j)
        from math import comb

        for n in (3, 6, 9):
            for j in range(1, 4):
                for m in range(n + 1):
                    assert parity_class_coefficient(n, j, m) == Fraction(
                        parity_class_sum(n, j, m), comb(n, j)
                    )

    def test_order_zero_is_one(self):
        for n in (1, 5, 8):
            for m in range(n + 1):
                assert parity_class_coefficient(n, 0, m) == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            parity_class_coefficient(4, 5, 2)
        with pytest.raises(ValueError):
            parity_class_coefficient(4, 2, 5)


class TestReducedProgram:
    def test_shapes_and_data(self):
        prog = reduced_lp(6, 4, 3)
        assert len(prog.rows) == 4  # normalization + orders 1..3
        assert prog.rows[0] == tuple([1] * 7)
        assert prog.rhs == (1, 0, 0, 0)
        assert prog.objective == tuple(abs(2 * m - 6) ** 4 for m in range(7))

    def test_fractional_exponent_gives_intervals(self):
        prog = reduced_lp(4, Fraction(5, 2), 2)
        assert all(isinstance(v, Interval) for v in prog.objective)
        assert prog.objective[0].lo == prog.objective[0].hi == 4 ** Fraction(5, 2)

    def test_one_power_per_distinct_base(self, monkeypatch):
        # |2m - n| takes n // 2 + 1 values over the n + 1 weight classes
        p = Fraction(5, 2)
        for n in (7, 8, 64):
            want = [rational_power(Fraction(abs(2 * m - n)), p, 128) for m in range(n + 1)]
            bases = []

            def counted(x, e, prec, _real=rational_power):
                bases.append(x)
                return _real(x, e, prec)

            monkeypatch.setattr(extremal, "rational_power", counted)
            prog = reduced_lp(n, p, 2)
            monkeypatch.undo()
            assert len(bases) == len(set(bases)) == n // 2 + 1, n
            assert [(v.lo, v.hi) for v in prog.objective] == [(v.lo, v.hi) for v in want]

    def test_validation(self):
        with pytest.raises(ValueError):
            reduced_lp(0, 4, 1)
        with pytest.raises(ValueError):
            reduced_lp(4, 4, 5)
        with pytest.raises(ValueError):
            reduced_lp(4, 4, 0)
        with pytest.raises(ValueError):
            reduced_lp(4, Fraction(1, 2), 2)
        with pytest.raises(TypeError):
            reduced_lp(4.0, 4, 2)


# every pinned value below comes with a checked certificate, so the test also
# carries an exact optimality proof for the pin, not just a regression check
def reduced_value(n, p, k):
    sol = solve_reduced(n, p, k)
    assert sol.certificate_ok is True
    return sol.optimal_value


class TestReducedValues:
    def test_pairwise_closed_form_even(self):
        for n in (2, 4, 6, 8, 10):
            for p in (3, 4, 5, 6):
                assert reduced_value(n, p, 2) == Fraction(n) ** (p - 1)

    def test_threewise_adds_nothing_even(self):
        # n = 2 is out: independence order above the dimension is undefined
        for n in (4, 6, 8, 10):
            for p in (4, 6):
                assert reduced_value(n, p, 3) == Fraction(n) ** (p - 1)

    def test_fourwise_pins(self):
        assert reduced_value(6, 4, 4) == 96
        assert [reduced_value(8, p, 4) for p in (2, 4, 6)] == [8, 176, 8128]

    def test_value_decreasing_in_k(self):
        vals = [reduced_value(8, 6, k) for k in range(1, 7)]
        assert vals == [262144, 32768, 32768, 8128, 8128, 5888]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_order_one_concentrates_everything(self):
        # only the coordinate means are pinned, so all mass can sit on the
        # two unanimous vectors and the moment is n^p
        for n in (3, 6):
            for p in (3, 4):
                assert reduced_value(n, p, 1) == Fraction(n) ** p

    def test_odd_dimension_pins(self):
        assert [reduced_value(5, p, 2) for p in (2, 4, 6)] == [5, 105, 2605]
        assert [reduced_value(7, p, 2) for p in (2, 4, 6)] == [7, 301, 14707]
        assert [reduced_value(7, p, 3) for p in (2, 4, 6)] == [7, 301, 14707]
        assert [reduced_value(7, p, 4) for p in (2, 4, 6)] == [7, 133, 4795]
        assert [reduced_value(9, p, 2) for p in (2, 4, 6)] == [9, 657, 53145]
        assert [reduced_value(9, p, 3) for p in (2, 4, 6)] == [9, 657, 53145]
        assert [reduced_value(9, p, 4) for p in (2, 4, 6)] == [9, 225, 13833]

    def test_odd_dimension_below_closed_form(self):
        # the even-dimension value n^(p-1) is not attained off parity
        for n in (5, 7, 9):
            for p in (4, 6):
                assert reduced_value(n, p, 2) < Fraction(n) ** (p - 1)
        sol = solve_reduced(5, 4, 2)
        assert sol.note is not None
        assert solve_reduced(6, 4, 2).note is None

    def test_second_moment_is_dimension(self):
        for n in range(2, 11):
            for k in range(2, min(n, 4) + 1):
                assert reduced_value(n, 2, k) == n

    def test_fractional_exponent_enclosure(self):
        sol = solve_reduced(4, Fraction(5, 2), 2)
        iv = sol.optimal_value
        assert isinstance(iv, Interval)
        assert iv.lo <= 8 <= iv.hi
        assert iv.hi - iv.lo <= Fraction(1, 2**40)
        assert sol.certificate_ok is True


class TestOptimizer:
    def test_pairwise_optimizer_is_partition_profile(self):
        for n in (6, 8, 10):
            sol = solve_reduced(n, 4, 2, check_unique=True)
            q = sol.optimizer.q
            assert q[0] == q[n] == Fraction(1, 2 * n)
            assert q[n // 2] == Fraction(n - 1, n)
            assert sol.unique is True

    def test_no_uniqueness_at_flat_objective(self):
        # at p = 2 every feasible profile reaches the same value
        sol = solve_reduced(6, 2, 2, check_unique=True)
        assert sol.unique is False

    def test_moment_of_optimizer_matches_value(self):
        for n, p, k in ((4, 4, 2), (6, 4, 4), (7, 6, 3)):
            sol = solve_reduced(n, p, k)
            space = expand(sol.optimizer)
            got = pth_moment(space, Weights.all_ones(n), p).value
            assert got == sol.optimal_value

    def test_uniqueness_requires_reduced_exact(self):
        full = solve_full(4, 4, 2)
        with pytest.raises(ValueError, match="reduced"):
            uniqueness_check(full)
        frac = solve_reduced(4, Fraction(5, 2), 2)
        with pytest.raises(ValueError, match="exact"):
            uniqueness_check(frac)
        good = solve_reduced(6, 4, 2)
        with pytest.raises(ValueError):
            uniqueness_check(dataclasses.replace(good, k=3))  # dual length mismatch

    def test_solution_is_frozen(self):
        sol = solve_reduced(6, 4, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.unique = True
        assert sol.unique is None



def range_uniqueness(solution: LpSolution, n: int, p, k: int) -> bool:
    """Reference decision: maximize and minimize each coordinate over the
    optimal face (the columns with zero reduced cost); the optimum is unique
    exactly when every range collapses to the optimizer's coordinate."""
    program = reduced_lp(n, p, k)
    slack, _ = reduced_costs(program.rows, solution.dual, program.objective)
    face = [j for j, s in enumerate(slack) if s == 0]
    solver = ExactSimplex([[row[j] for j in face] for row in program.rows], program.rhs)
    q = solution.optimizer.q
    for t, j in enumerate(face):
        for sign in (1, -1):
            unit = [0] * len(face)
            unit[t] = sign
            if sign * solver.maximize(unit).value != q[j]:
                return False
    return True


class TestUniquenessCheck:
    GRID_N = tuple(range(1, 25)) + (30, 41, 64, 100, 200)

    def test_agrees_with_per_coordinate_ranges(self, monkeypatch):
        calls = []
        real = ExactSimplex.maximize
        monkeypatch.setattr(ExactSimplex, "maximize", lambda self, c: calls.append(c) or real(self, c))
        decisions = []
        for n in self.GRID_N:
            for k in range(1, min(6, n) + 1):
                for p in range(1, 9):
                    sol = solve_reduced(n, p, k, check_unique=True)
                    assert sol.certificate_ok is True
                    calls.clear()
                    got = uniqueness_check(sol)
                    assert len(calls) <= 1, (n, p, k)
                    assert got == range_uniqueness(sol, n, p, k), (n, p, k)
                    assert sol.unique is got, (n, p, k)
                    decisions.append(got)
        assert (len(decisions), sum(decisions)) == (1272, 763)

    def test_solve_builds_its_objective_once(self, monkeypatch):
        calls = []
        real = extremal._powers
        monkeypatch.setattr(extremal, "_powers", lambda *args: calls.append(args) or real(*args))
        sol = solve_reduced(12, 6, 4, check_unique=True)
        assert len(calls) == 1
        rows = []
        real_rows = extremal._krawtchouk_rows
        monkeypatch.setattr(extremal, "_krawtchouk_rows", lambda *args: rows.append(args) or real_rows(*args))
        calls.clear()
        assert sol.unique is uniqueness_check(sol)
        assert (len(calls), len(rows)) == (1, 1)
        assert sol.unique is uniqueness_check(solve_reduced(12, 6, 4))

    def test_no_route_reads_the_binomial_sums(self, monkeypatch):
        # solver rows, check rows, certificate and face LP all come from the
        # two recurrences; (211, 9) is a program no other test builds
        def no_sums(*args):
            raise AssertionError("parity_class_sum is the reference, not a builder")

        monkeypatch.setattr(extremal, "parity_class_sum", no_sums)
        sol = solve_reduced(211, 6, 9, check_unique=True)
        assert sol.certificate_ok is True
        assert uniqueness_check(sol) is sol.unique

    def test_uncertified_solve_is_refused(self, monkeypatch):
        monkeypatch.setattr(extremal, "verify_certificate", lambda *args: False)
        with pytest.raises(ValueError, match="certified"):
            solve_reduced(6, 4, 2, check_unique=True)

    def test_non_vertex_optimum_is_not_unique(self):
        # at p = 2 every pairwise independent profile is optimal; the midpoint
        # of two distinct vertices is optimal but not a vertex
        n, p, k = 6, 2, 2
        program = reduced_lp(n, p, k)
        solver = ExactSimplex(program.rows, program.rhs)
        ends = [solver.maximize([1 if m == j else 0 for m in range(n + 1)]).x for j in (0, n // 2)]
        assert ends[0] != ends[1]
        mid = tuple((u + v) / 2 for u, v in zip(*ends))
        sol = solve_reduced(n, p, k)
        mixed = LpSolution("reduced", n, Fraction(p), k, sol.optimal_value,
                           WeightProfile(n, mid), sol.dual, True)
        assert uniqueness_check(mixed) is False
        assert range_uniqueness(mixed, n, p, k) is False

    def test_mass_on_positive_reduced_cost_is_rejected(self):
        # the binomial profile of the independent law is feasible at every
        # order, but not optimal at p = 4: it weighs columns the dual prices
        # above the objective
        n, p, k = 6, 4, 2
        sol = solve_reduced(n, p, k)
        program = reduced_lp(n, p, k)
        slack, _ = reduced_costs(program.rows, sol.dual, program.objective)
        assert any(slack)
        binomial = tuple(Fraction(comb(n, m), 2**n) for m in range(n + 1))
        bad = LpSolution("reduced", n, Fraction(p), k, sol.optimal_value,
                         WeightProfile(n, binomial), sol.dual, True)
        with pytest.raises(ValueError, match="certified"):
            uniqueness_check(bad)


class TestHistory:
    """What an earlier solve in the same process may change."""

    def test_reduced_route_has_no_history(self):
        # a non-unique optimum: at n = 12, k = 4, p = 6 the mirror images
        # m -> n - m of an optimizer are optimal too
        def fingerprint():
            sol = solve_reduced(12, 6, 4, check_unique=True)
            return sol.optimal_value, sol.optimizer, sol.dual, sol.unique

        first = fingerprint()
        for p in (3, 4, 7, 2, 9):
            solve_reduced(12, p, 4)
        assert fingerprint() == first

    def test_full_route_keeps_value_and_certificate(self):
        # the flip solver is shared by k and k + 1 for even k; every solve on
        # it starts from the same phase-1 basis, so the whole solution,
        # optimizer and dual included, is the fresh one
        cases = ((7, 4, 3, ((5, 4), (4, 5))), (7, 4, 4, ((3, 4), (6, 5))),
                 (8, 2, 3, ((4, 2), (5, 3), (6, 2))), (8, 2, 6, ((3, 3), (4, 2))))
        for n, k, p, others in cases:
            extremal._flip_solver.cache_clear()
            fresh = solve_full(n, p, k)
            for q, k2 in others:
                solve_full(n, q, k2)
            again = solve_full(n, p, k)
            assert again.to_json() == fresh.to_json(), (n, k, p)
            assert fresh.certificate_ok is True

    def test_seeded_histories_keep_the_whole_solution(self):
        # weighted and all-ones cells in seeded order, each history on the
        # target's dimension, so that it runs on the target's flip solvers
        base = ("1", "2", "1", "1", "3", "1", "1/2", "1")

        def cell(rng, n):
            a = Weights.from_strings(base[:n]) if rng.random() < 0.5 else None
            return rng.randint(2, 6), rng.randint(2, 4), a

        for seed in range(12):
            rng = random.Random(seed)
            n = rng.randint(5, 8)
            p, k, a = cell(rng, n)
            extremal._flip_solver.cache_clear()
            fresh = solve_full(n, p, k, a).to_json()
            for _ in range(3):
                solve_full(n, *cell(rng, n))
            assert solve_full(n, p, k, a).to_json() == fresh, seed


class TestWorkBounds:
    """Both programs are bounded by their size before any row is built."""

    @pytest.mark.parametrize("n,k,full", [(10000, 6, False), (2000, 10, False), (64, 4, False),
                                          (10, 4, True), (12, 3, True), (9, 9, True)])
    def test_cells_in_use_are_admitted(self, n, k, full):
        assert extremal._validate(n, 8, k, full) == 8

    def test_cost_counts_the_objective_bits(self):
        # |2m - n|^p with n = 6817 (13 bits): p = 3028 is the largest admitted
        assert extremal.program_cost(6817, 3027, 10) == (11, 6818, 6818 * 39351)
        assert extremal._validate(6817, 3028, 10, False) == 3028
        with pytest.raises(ValueError, match="program too large: objective"):
            extremal._validate(6817, 3029, 10, False)
        # weights 1 and 2/3 are 3 and 2 over 3: a sum of 3 bits and a
        # denominator of 2 bits make bases of 4 bits, 14 at p = 7/2
        a = Weights((1, Fraction(2, 3)))
        assert extremal.program_cost(2, Fraction(7, 2), 2, full=True, a=a) == (2, 2, 2 * 14)
        assert extremal.program_cost(12, 1024, 2, full=True)[2] <= extremal.MAX_FULL_BITS

    @pytest.mark.parametrize("n,k,full", [(10000, 7, False), (20, 11, False), (1000, 30, False),
                                          (200, 100, False), (11, 4, True), (12, 4, True),
                                          (10, 6, True)])
    def test_larger_programs_are_rejected(self, n, k, full):
        with pytest.raises(ValueError, match="program too large"):
            extremal._validate(n, 4, k, full)


class TestFullProgram:
    def test_constraint_labels(self):
        labels = full_constraint_labels(4, 2)
        assert labels[0] == ()
        assert labels[1:5] == ((0,), (1,), (2,), (3,))
        assert len(labels) == 1 + 4 + 6

    def test_agrees_with_reduced_exactly(self):
        for n in (2, 3, 4, 5):
            for p in (2, 3, 4):
                for k in range(1, min(n, 3) + 1):
                    f = solve_full(n, p, k)
                    r = solve_reduced(n, p, k)
                    assert f.optimal_value == r.optimal_value, (n, p, k)
                    assert f.certificate_ok is True

    def test_full_optimizer_is_kwise_space(self):
        from kwise.independence import check_kwise

        sol = solve_full(5, 4, 3)
        assert check_kwise(sol.optimizer, 3).passed
        a = Weights.all_ones(5)
        assert pth_moment(sol.optimizer, a, 4).value == sol.optimal_value

    def test_custom_weights(self):
        a = Weights((1, 2, 2))
        f = solve_full(3, 4, 2, a=a)
        # any pairwise independent law fixes the second moment exactly
        s2 = solve_full(3, 2, 2, a=a)
        assert s2.optimal_value == a.l2sq
        assert f.optimal_value > a.l2sq**2 / 2

    def test_weight_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            solve_full(4, 4, 2, a=Weights((1, 1)))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="too large"):
            solve_full(13, 4, 2)

    def test_fractional_exponent_full(self):
        sol = solve_full(3, Fraction(7, 3), 2)
        iv = sol.optimal_value
        lo, hi = iv.decimal_bounds(20)
        assert lo == "3.99506153319166886022"
        assert hi == "3.99506153319166886023"


class TestFlipSymmetry:
    CASES = ((4, 4, 2), (5, 3, 3), (6, 6, 4), (5, Fraction(7, 2), 2))

    def test_optimizer_is_flip_symmetric(self):
        a = Weights((1, 2, 3, Fraction(1, 2), Fraction(3, 2)))
        sols = [solve_full(n, p, k) for n, p, k in self.CASES]
        sols.append(solve_full(5, 5, 3, a=a))
        for sol in sols:
            flip = (1 << sol.n) - 1
            masses = sol.optimizer.masses
            assert masses
            for x, q in masses.items():
                assert masses.get(x ^ flip) == q, (sol.n, sol.k, x)

    def test_threewise_equals_pairwise_on_full_route(self):
        # criterion 04 on the unreduced program: the k = 3 rows reduce to
        # the k = 2 rows, so the optima coincide for even n
        for n in (4, 6, 8):
            for p in (4, 6):
                v3 = solve_full(n, p, 3).optimal_value
                v2 = solve_full(n, p, 2).optimal_value
                assert v3 == v2 == Fraction(n) ** (p - 1), (n, p)

    def test_dual_is_full_length_with_zero_odd_entries(self):
        for n, p, k in self.CASES + ((3, 4, 1),):
            sol = solve_full(n, p, k)
            labels = full_constraint_labels(n, k)
            assert len(sol.dual) == len(labels)
            for label, y in zip(labels, sol.dual):
                if len(label) % 2:
                    assert y == 0, (n, k, label)
            assert sol.certificate_ok is True

    def test_same_answer_with_scipy_blocked(self):
        import json
        import subprocess
        import sys
        from pathlib import Path

        from kwise import extremal

        src = str(Path(extremal.__file__).resolve().parents[1])
        script = (
            "import sys, json\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "from kwise.extremal import solve_full\n"
            "print(json.dumps(solve_full(6, 5, 3).to_json()))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        here = solve_full(6, 5, 3).to_json()
        assert json.loads(out) == here

    @staticmethod
    def code_start_applies(n, k):
        """The even-weight code is a phase-1 basis of the flip program."""
        kk = k - k % 2
        return n % 2 == 0 and kk <= n - 2 and n <= 2 * kk + 2

    def test_code_start_exactly_where_it_is_a_basis(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                start = extremal._flip_program((1,) * n, k - k % 2)[2]
                if self.code_start_applies(n, k):
                    half = 1 << (n - 1)
                    assert len(start) == 1 << (n - 2), (n, k)
                    assert all((x + half).bit_count() % 2 == 0 for x in start), (n, k)
                else:
                    assert start == [], (n, k)

    @staticmethod
    def singleton_solve(n, p, k):
        """The all-ones objective on the all-singleton flip program, which
        starts from the code where it applies: its value, and whether
        `_certify_full` proves the law and dual spread over the atoms."""
        half, flip = 1 << (n - 1), (1 << n) - 1
        pair = [(x if x >= half else x ^ flip) - half for x in range(1 << n)]
        c = [Fraction(abs(2 * x.bit_count() - n) ** p) for x in range(half, 1 << n)]
        res = extremal._flip_solver((1,) * n, k - k % 2).maximize(c)
        labels = full_constraint_labels(n, k)
        ys = iter(res.y)
        dual = [next(ys) if len(t) % 2 == 0 else Fraction(0) for t in labels]
        law = [res.x[j] / 2 for j in pair]
        return res.value, extremal._certify_full(n, labels, [c[j] for j in pair], law, dual)

    def test_code_start_cells_agree_with_reduced(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                if not self.code_start_applies(n, k):
                    continue
                for p in (2, 3, 4, 5):
                    value, certified = self.singleton_solve(n, p, k)
                    red = solve_reduced(n, p, k)
                    assert value == red.optimal_value == solve_full(n, p, k).optimal_value, (n, p, k)
                    assert certified is True and red.certificate_ok is True

    def test_code_start_phase1_pivot_counts(self, monkeypatch):
        # the 2^(n-2) code columns are the whole of phase 1: Dantzig's loop
        # finds the prefix feasible and makes no further pivot
        from kwise import simplex

        real = simplex._pivot
        pivots = []

        def counted(*args):
            pivots.append(args[2:])
            real(*args)

        monkeypatch.setattr(simplex, "_pivot", counted)
        for n, k, want in ((8, 4, 64), (6, 2, 16)):
            pivots.clear()
            ExactSimplex(*extremal._flip_program((1,) * n, k)).prepare()
            assert len(pivots) == want, (n, k)

    def test_perturbed_mass_fails_the_full_certificate(self, monkeypatch):
        # moving mass from x to ~x keeps every row of the flip-symmetric
        # program; only the unreduced odd-size rows can catch it
        from kwise import extremal

        real = extremal._certify_full
        seen = []

        def perturbed(n, labels, c, x, y):
            seen.append((len(labels), len(x), len(y)))
            x = list(x)
            atom = next(b for b, q in enumerate(x) if q)
            x[atom] -= x[atom] / 2
            x[atom ^ 0b11111] += x[atom]
            return real(n, labels, c, x, y)

        assert solve_full(5, 4, 3).certificate_ok is True
        monkeypatch.setattr(extremal, "_certify_full", perturbed)
        assert solve_full(5, 4, 3).certificate_ok is False
        width = len(full_constraint_labels(5, 3))
        assert seen == [(width, 32, width)]


class TestClassProgram:
    """`solve_full` runs on the flip class program of the weights' classes:
    coordinates of equal signed weight, in first-occurrence order."""

    def test_all_singleton_rows_are_the_even_characters(self):
        for n in range(1, 9):
            for k in range(0, n + 1, 2):
                rows, rhs, _ = extremal._flip_program((1,) * n, k)
                even = [t for t in full_constraint_labels(n, k) if len(t) % 2 == 0]
                atoms = range(1 << (n - 1), 1 << n)
                assert rows == [[character(t, x) for x in atoms] for t in even], (n, k)
                assert rhs == [1] + [0] * (len(even) - 1), (n, k)

    @pytest.mark.parametrize("n,p,k,a", [
        (5, 4, 2, ("1", "-1", "0", "1", "-1")),
        (6, 3, 3, ("2", "2", "-1", "0", "2", "-1")),
        (6, 6, 4, ("1", "0", "1", "0", "1", "0")),
        (6, Fraction(5, 2), 2, ("1", "1", "1", "0", "-2", "1")),
        (4, Fraction(7, 2), 3, ("1/2", "-1/2", "1/2", "0")),
    ])
    def test_repeated_weights_match_the_unreduced_program(self, n, p, k, a):
        w = Weights.from_strings(a)
        labels = full_constraint_labels(n, k)
        solver = ExactSimplex([[character(t, x) for x in range(1 << n)] for t in labels],
                              [1] + [0] * (len(labels) - 1))
        sol = solve_full(n, p, k, a=w)
        assert sol.certificate_ok is True
        if isinstance(sol.optimal_value, Fraction):
            obj = [abs(dot_bits(w, x)) ** p for x in range(1 << n)]
            assert sol.optimal_value == solver.maximize(obj).value
        else:
            obj = [rational_power(abs(dot_bits(w, x)), p) for x in range(1 << n)]
            lo = solver.maximize([v.lo for v in obj]).value
            hi = solver.maximize([v.hi for v in obj]).value
            assert sol.optimal_value.lo <= lo <= hi <= sol.optimal_value.hi
        # the law is exchangeable within each class of equal weights
        masses = sol.optimizer.masses
        by_profile = {}
        for x in range(1 << n):
            profile = tuple(sum(x >> i & 1 for i in range(n) if w.a[i] == v) for v in set(w.a))
            by_profile.setdefault(profile, set()).add(masses.get(x, 0))
        assert all(len(seen) == 1 for seen in by_profile.values())

    def test_pairwise_quartic_optimum_is_the_partition_law(self):
        # all-ones weights are one class, so the optimizer is exchangeable,
        # and the partition law is the one exchangeable law attaining n^3
        assert solve_full(8, 4, 2).optimizer.masses == partition_space(8).masses


class TestFullCertificate:
    """`_certify_full` checks a law and a dual on every atom with two
    Walsh-Hadamard transforms, apart from the rows the solver pivots on."""

    @staticmethod
    def lifted(sol):
        """A reduced optimum spread over the atoms: q_m / C(n, m) on each atom
        of weight m, objective |2m - n|^p there, and y_T = y_|T|."""
        n = sol.n
        weights = [x.bit_count() for x in range(1 << n)]
        share = [q / comb(n, m) for m, q in enumerate(sol.optimizer.q)]
        power = [abs(2 * m - n) ** int(sol.p) for m in range(n + 1)]
        labels = full_constraint_labels(n, sol.k)
        return (labels, [power[m] for m in weights], [share[m] for m in weights],
                [sol.dual[len(t)] for t in labels])

    @pytest.mark.parametrize("n,k,p", [(n, k, p) for n in (10, 12, 14) for k in (2, 4)
                                       for p in (4, 6)] + [(16, 4, 4)])
    def test_lifted_reduced_optimum_is_certified(self, n, k, p):
        labels, c, law, dual = self.lifted(solve_reduced(n, p, k))
        assert extremal._certify_full(n, labels, c, law, dual)
        raised = list(dual)
        raised[len(labels) // 2] += 1
        assert not extremal._certify_full(n, labels, c, law, raised)

    def test_reversed_flip_rows_fail_a_weighted_certificate(self, monkeypatch):
        # reading the coordinates in reverse permutes the flip program's
        # rows, so the solver still finds an optimum but returns its dual
        # on the wrong labels; the transforms do not share the defect
        real = extremal._flip_program

        def reversed_program(sizes, k):
            # every weight differs, so every class is a singleton
            rows, rhs, start = real(sizes, k)
            n = len(sizes)
            half, flip = 1 << (n - 1), (1 << n) - 1
            perm = []
            for j in range(half):
                x = int(format(j + half, f"0{n}b")[::-1], 2)
                perm.append((x if x >= half else x ^ flip) - half)
            return [[row[j] for j in perm] for row in rows], rhs, start

        a = Weights((1, 2, 3, Fraction(1, 2), Fraction(3, 2)))
        assert solve_full(5, 4, 2, a=a).certificate_ok is True
        extremal._flip_solver.cache_clear()
        monkeypatch.setattr(extremal, "_flip_program", reversed_program)
        try:
            assert solve_full(5, 4, 2, a=a).certificate_ok is False
        finally:
            extremal._flip_solver.cache_clear()


class TestIntervalEnclosure:
    """Fractional exponents: one midpoint solve, enclosed by weak duality."""

    A7 = Weights((1, 2, 3, Fraction(1, 2), Fraction(3, 2), 1, Fraction(2, 3)))

    def endpoint_optima(self, rows, rhs, objective):
        """OPT of the rounded-down and rounded-up objectives, solved apart."""
        solver = ExactSimplex([list(r) for r in rows], list(rhs))
        lo = solver.maximize([v.lo for v in objective]).value
        hi = solver.maximize([v.hi for v in objective]).value
        return lo, hi

    def assert_encloses(self, sol, lo, hi):
        iv = sol.optimal_value
        assert isinstance(iv, Interval)
        assert iv.lo <= lo <= hi <= iv.hi
        assert iv.width < iv.lo / 2**100
        assert sol.certificate_ok is True

    def test_reduced_enclosure_contains_endpoint_optima(self):
        prog = reduced_lp(64, Fraction(7, 2), 2)
        lo, hi = self.endpoint_optima(prog.rows, prog.rhs, prog.objective)
        self.assert_encloses(solve_reduced(64, Fraction(7, 2), 2), lo, hi)

    def test_full_enclosure_contains_endpoint_optima(self):
        # the endpoint optima come from the unreduced program, all 2^n atoms
        for n, p, k, a in ((6, Fraction(5, 2), 2, None), (7, Fraction(7, 2), 3, self.A7)):
            labels = full_constraint_labels(n, k)
            rows = [[character(t, x) for x in range(1 << n)] for t in labels]
            rhs = [1] + [0] * (len(rows) - 1)
            w = a or Weights.all_ones(n)
            obj = [rational_power(abs(dot_bits(w, x)), p) for x in range(1 << n)]
            lo, hi = self.endpoint_optima(rows, rhs, obj)
            self.assert_encloses(solve_full(n, p, k, a=a), lo, hi)

    def test_one_pass_and_one_check(self, monkeypatch):
        # the reduced route checks with verify_certificate, the full route
        # with _certify_full, each once
        calls = {}
        maximize = ExactSimplex.maximize
        verify = extremal.verify_certificate
        certify_full = extremal._certify_full

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(ExactSimplex, "maximize", counted("solves", maximize))
        monkeypatch.setattr(extremal, "verify_certificate", counted("verify", verify))
        monkeypatch.setattr(extremal, "_certify_full", counted("certify_full", certify_full))
        for solve, want in ((lambda: solve_reduced(10, Fraction(7, 2), 3), (1, 1, 0)),
                            (lambda: solve_full(5, Fraction(5, 2), 3), (1, 0, 1))):
            calls.update(solves=0, verify=0, certify_full=0)
            assert solve().certificate_ok is True
            assert (calls["solves"], calls["verify"], calls["certify_full"]) == want


class TestCheckData:
    """Certificates and enclosures read data of their own, never the rows the
    solver pivots on."""

    def test_krawtchouk_rows_match_the_binomial_sums(self):
        # the solver's recurrence in m and the check's recurrence in j, each
        # held to the closed form
        start = time.perf_counter()
        for n in range(1, 40):
            sums = tuple(tuple(parity_class_sum(n, j, m) for m in range(n + 1)) for j in range(min(n, 10) + 1))
            for k in range(1, min(n, 10) + 1):
                assert extremal._reduced_rows(n, k) == (sums[:k + 1], (1,) + (0,) * k), (n, k)
                assert extremal._krawtchouk_rows(n, k) == sums[:k + 1], (n, k)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n,k", [(6817, 10), (9999, 7), (10000, 6)])
    def test_solver_rows_at_the_caps(self, n, k):
        # the recurrence in m divides by n - m at every step: exact up to m = n
        rows, _ = extremal._reduced_rows(n, k)
        for j in range(k + 1):
            for m in (0, 1, 2, n // 2, n - 1, n):
                assert rows[j][m] == parity_class_sum(n, j, m), (n, j, m)

    @pytest.mark.parametrize("n,p,k", [(10, 4, 2), (9, 5, 3), (64, 4, 2)])
    def test_corrupted_solver_rows_fail_the_certificate(self, monkeypatch, n, p, k):
        # one class coefficient off by 2: the solver finds the optimum of the
        # wrong program (640 instead of 1000 at (10, 4, 2)) and its dual
        # checks on those rows, but not on the recurrence rows
        real = extremal._reduced_rows

        def corrupted(n, k):
            rows, rhs = real(n, k)
            rows = [list(r) for r in rows]
            rows[2][n // 2] += 2
            return tuple(map(tuple, rows)), rhs

        monkeypatch.setattr(extremal, "_reduced_rows", corrupted)
        start = time.perf_counter()
        assert solve_reduced(n, p, k).certificate_ok is False
        assert time.perf_counter() - start < 1

    def test_enclosure_ignores_the_solver_rows(self, monkeypatch):
        cells = ((solve_reduced, 10, Fraction(7, 2), 3), (solve_full, 5, Fraction(5, 2), 3))
        fresh = [solve(n, p, k).optimal_value for solve, n, p, k in cells]
        maximize = ExactSimplex.maximize

        def corrupting(self, c):
            # after the solve, every stored row and right-hand side is off
            res = maximize(self, c)
            monkeypatch.setattr(self, "rows", [[v + 1 for v in row] for row in self.rows])
            monkeypatch.setattr(self, "rhs", [b + 1 for b in self.rhs])
            return res

        monkeypatch.setattr(ExactSimplex, "maximize", corrupting)
        start = time.perf_counter()
        assert [solve(n, p, k).optimal_value for solve, n, p, k in cells] == fresh
        assert time.perf_counter() - start < 1


class TestEqualitySupport:
    def test_partition_achieves_equality(self):
        for n in (2, 4, 6, 8):
            report = equality_support_check(partition_space(n), Weights.all_ones(n), 4)
            assert report
            assert report.reason == "ok"
            assert report.witness is None

    def test_uniform_cube_has_mixed_atoms(self):
        report = equality_support_check(independent_space(4), Weights.all_ones(4), 4)
        assert not report
        assert report.reason == "mixed_support_atom"
        agree = 4 - report.witness.bits.bit_count()
        assert agree not in (0, 2, 4)

    def test_unequal_magnitudes(self):
        report = equality_support_check(partition_space(4), Weights((1, 2, 1, 1)), 4)
        assert report.reason == "unequal_magnitudes"

    def test_not_pairwise_independent(self):
        biased = SampleSpace(2, {0b11: Fraction(1, 2), 0b00: Fraction(1, 2)})
        report = equality_support_check(biased, Weights.all_ones(2), 4)
        assert report.reason == "not_pairwise_independent"

    def test_unanimous_mass_mismatch(self):
        lopsided = SampleSpace(1, {0b1: Fraction(1, 3), 0b0: Fraction(2, 3)})
        report = equality_support_check(lopsided, Weights.all_ones(1), 4)
        assert report.reason == "unanimous_mass_mismatch"

    def test_exponent_must_exceed_two(self):
        with pytest.raises(ValueError, match="exceed 2"):
            equality_support_check(partition_space(4), Weights.all_ones(4), 2)

    def test_json_shape(self):
        report = equality_support_check(partition_space(4), Weights.all_ones(4), 4)
        data = report.to_json()
        assert data == {"achieves_equality": True, "reason": "ok", "witness": None}

    @given(st.integers(min_value=1, max_value=3))
    def test_sign_flips_preserve_equality(self, flips):
        # the sharp law for weights with mixed signs is the partition law
        # with the matching coordinates flipped
        n = 4
        mask = (1 << flips) - 1
        base = partition_space(n)
        flipped = SampleSpace(
            n, {bits ^ mask: q for bits, q in base.masses.items()}
        )
        a = Weights(tuple(-1 if i < flips else 1 for i in range(n)))
        assert equality_support_check(flipped, a, 4).reason == "ok"


class TestSolutionJson:
    def test_reduced_json(self):
        sol = solve_reduced(6, 4, 2, check_unique=True)
        data = sol.to_json()
        assert data["kind"] == "reduced"
        assert data["value"] == "216/1"
        assert data["unique"] is True
        assert data["certificate_ok"] is True
        assert len(data["dual"]) == 3
        assert "note" not in data

    def test_full_json_odd_note(self):
        sol = solve_full(3, 4, 2)
        data = sol.to_json()
        assert data["kind"] == "full"
        assert "note" in data

    def test_interval_value_json(self):
        sol = solve_reduced(4, Fraction(5, 2), 2)
        data = sol.to_json()
        assert set(data["value"]) == {"lo", "hi", "bits"}
        assert data["value"]["bits"] == 128
        # the label is the precision the solve used, not the default
        assert solve_reduced(8, Fraction(7, 2), 2, prec=40).to_json()["value"]["bits"] == 40
        assert solve_full(4, Fraction(5, 2), 2, prec=64).to_json()["value"]["bits"] == 64

    def test_optimizer_is_a_dict(self):
        assert solve_reduced(4, 4, 2).to_json()["optimizer"] == {
            "n": 4, "q": ["1/8", "0/1", "3/4", "0/1", "1/8"]}
        optimizer = solve_full(3, 4, 2).to_json()["optimizer"]
        assert isinstance(optimizer, dict)
        assert SampleSpace.from_json(optimizer) == solve_full(3, 4, 2).optimizer
