"""The benchmark's checkers must accept correct outputs and reject wrong ones.

Run with `PYTHONPATH=src python -m pytest bench/test_checks.py`.
"""
import json
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from kwise.extremal import solve_full
from kwise.intervals import Interval
from kwise.moments import Weights
from kwise.sampler import McEstimate

ONES4 = (Fraction(1),) * 4


def full_problems(sol, n, k, p, a=None):
    weights = a or (Fraction(1),) * n
    return checks.check_full_solution(n, k, Fraction(p), weights, a is None,
                                      sol.optimal_value, sol.optimizer.masses, sol.dual)


@pytest.fixture(scope="module")
def exact_sol():
    return solve_full(4, 4, 2)


def test_exact_solution_passes(exact_sol):
    assert full_problems(exact_sol, 4, 2, 4) == []


def test_perturbed_law_rejected(exact_sol):
    masses = dict(exact_sol.optimizer.masses)
    first, second = sorted(masses)[:2]
    shift = masses[first] / 2
    masses[first] -= shift
    masses[second] += shift
    problems = checks.check_full_solution(4, 2, Fraction(4), ONES4, True,
                                          exact_sol.optimal_value, masses, exact_sol.dual)
    assert any("independent" in p or "moment" in p for p in problems)


def test_perturbed_dual_rejected(exact_sol):
    dual = list(exact_sol.dual)
    dual[1] -= 1
    problems = checks.check_full_solution(4, 2, Fraction(4), ONES4, True,
                                          exact_sol.optimal_value, exact_sol.optimizer.masses,
                                          tuple(dual))
    assert "dual is infeasible" in problems


def test_wrong_value_rejected(exact_sol):
    problems = checks.check_full_solution(4, 2, Fraction(4), ONES4, True,
                                          exact_sol.optimal_value + 1,
                                          exact_sol.optimizer.masses, exact_sol.dual)
    assert "b.y differs from the value" in problems
    assert any("n^(p-1)" in p for p in problems)


def test_weighted_and_k1_closed_forms():
    a = (Fraction(1), Fraction(2), Fraction(1, 2))
    sol = solve_full(3, 3, 1, a=Weights(a))
    assert full_problems(sol, 3, 1, 3, a) == []
    assert sol.optimal_value == sum(a) ** 3


def test_fractional_enclosure_checked():
    sol = solve_full(4, Fraction(5, 2), 2)
    assert full_problems(sol, 4, 2, Fraction(5, 2)) == []
    shifted = replace(sol, optimal_value=Interval(sol.optimal_value.lo + 1,
                                                  sol.optimal_value.hi + 1))
    problems = full_problems(shifted, 4, 2, Fraction(5, 2))
    assert "enclosure misses the law/dual bracket" in problems
    assert any("n^(p-1)" in p for p in problems)


def test_independence_levels():
    assert checks.check_law(6, 3, checks.partition_law(6)) == []
    assert checks.check_law(6, 4, checks.partition_law(6)) != []
    assert checks.check_law(8, 3, checks.xor_law(3)) == []
    assert checks.check_law(8, 4, checks.xor_law(3)) != []
    assert checks.check_law(5, 5, checks.uniform_law(5)) == []


def test_krawtchouk_recurrence_matches_binomial_sum():
    n, k = 9, 5
    rows = checks.krawtchouk_rows(n, k)
    for j in range(k + 1):
        for m in range(n + 1):
            x = n - m
            direct = sum((-1) ** t * comb(x, t) * comb(n - x, j - t) for t in range(j + 1))
            assert rows[j][m] == direct


def test_profile_checks():
    q = checks.partition_profile(8)
    assert checks.check_profile(8, 3, q) == []
    assert checks.check_profile(8, 4, q) != []
    bad = list(q)
    bad[3], bad[4] = Fraction(1, 16), bad[4] - Fraction(1, 16)
    assert checks.check_profile(8, 2, bad) != []
    assert checks.profile_moment(8, 4, q) == 8**3


def test_rational_root_check():
    assert checks.rational_root_check(Fraction(8), Fraction(8), Fraction(4), 3, 2)
    assert not checks.rational_root_check(Fraction(7), Fraction(79, 10), Fraction(4), 3, 2)


def decimal(ref, down: bool, shift: int = 0) -> str:
    """40-digit decimal of ref rounded down or up, moved by shift units."""
    scaled = ref * 10**40
    q = int(checks.mpmath.floor(scaled) if down else checks.mpmath.ceil(scaled)) + shift
    return f"{q // 10**40}.{q % 10**40:040d}"


def test_decimal_bounds_against_mpmath():
    with checks.mpmath.workprec(checks.MP_PREC):
        ref = checks.haagerup_mp(Fraction(4))  # 3^(1/4)
        assert checks.decimal_bound_problems(decimal(ref, True), ref, True, "h") == []
        assert checks.decimal_bound_problems(decimal(ref, False), ref, False, "h") == []
        assert checks.decimal_bound_problems(decimal(ref, True, -10**6), ref, True, "h") != []
        assert checks.decimal_bound_problems(decimal(ref, True), ref, False, "h") != []


def test_wrong_table_row_rejected():
    ns, ps, ks = (4,), (Fraction(4),), (2,)
    with checks.mpmath.workprec(checks.MP_PREC):
        root2, haagerup = checks.mpmath.sqrt(2), checks.haagerup_mp(Fraction(4))
        row = {"n": 4, "p": "4/1", "k": 2, "value": "64/1", "ratio_lo": "1.41", "ratio_hi": "1.42",
               "sharp": decimal(root2, False), "interpolation": decimal(root2, False),
               "haagerup": decimal(haagerup, True)}
    assert workloads._check_table(ns, ps, ks, [row]) == []
    assert workloads._check_table(ns, ps, ks, [{**row, "value": "65/1"}]) != []
    assert workloads._check_table(ns, ps, ks, [{**row, "haagerup": "1.32"}]) != []


def test_off_target_monte_carlo_rejected():
    exact = 8**3
    assert checks.within_standard_errors(512.5, 1.0, exact) == []
    assert checks.within_standard_errors(520.0, 1.0, exact) != []
    est = McEstimate(600.0, 2.0, 1000)
    assert workloads._check_mc("partition", 8, Fraction(4), None, 1000, est) != []
    assert workloads._check_mc("partition", 8, Fraction(4), None, 1000,
                               McEstimate(511.0, 2.0, 1000)) == []


def test_splitmix64_reference_output():
    # first output of the published generator from state 0
    assert checks.splitmix64_words(0, 1) == [0xE220A8397B1DCDAF]
    assert workloads._check_words(0, checks.splitmix64_words(0, 4)) == []
    assert workloads._check_words(1, checks.splitmix64_words(0, 4)) != []


def test_cli_partition_constant_check():
    data = {"value": "512/1", "optimizer": {"n": 8, "q": [f"{v.numerator}/{v.denominator}"
                                                         for v in checks.partition_profile(8)]},
            "unique": True, "certificate_ok": True}
    assert workloads._check_constant(8, Fraction(4), 2, None, data) == []
    assert workloads._check_constant(8, Fraction(4), 2, None, {**data, "unique": False}) != []


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    produced = set(spans.layer_metrics(spans.Tracer(), {})) | {"trace.overhead_pct", "host.loop_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    for m in spec["per_layer"]:
        assert m["unit"] == ("%" if m["name"] == "trace.overhead_pct" else run.unit_of(m["name"]))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
