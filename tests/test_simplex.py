"""The exact solver against closed forms, a brute-force oracle, and its own
certificate checker."""
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from kwise import extremal, simplex
from kwise.simplex import ExactSimplex, reduced_costs, verify_certificate


def test_probability_simplex_picks_best_coefficient():
    solver = ExactSimplex([[1, 1, 1, 1]], [1])
    c = [Fraction(3), Fraction(7), Fraction(2), Fraction(7)]
    res = solver.maximize(c)
    assert res.value == 7
    assert sum(res.x) == 1 and min(res.x) >= 0
    # a minimum of c.x is the maximum of -c.x, certified with its own dual
    neg_c = [-v for v in c]
    low = solver.maximize(neg_c)
    assert low.value == -2
    assert verify_certificate(solver.rows, solver.rhs, neg_c, low.x, low.y)


def test_two_constraint_exact_solution():
    # x + 2y = 4, x + y = 3 has the unique solution (2, 1)
    solver = ExactSimplex([[1, 2], [1, 1]], [4, 3])
    res = solver.maximize([Fraction(5), Fraction(-1)])
    assert res.value == 9
    assert res.x == (Fraction(2), Fraction(1))


def test_beale_degenerate_example_terminates():
    """Beale's classical cycling instance; the lexicographic ratio test must
    terminate at value 1/20."""
    rows = [
        [25, -6000, -4, 900, 100, 0, 0],
        [50, -9000, -2, 300, 0, 100, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    rhs = [0, 0, 1]
    c = [Fraction(3, 4), Fraction(-150), Fraction(1, 50), Fraction(-6), 0, 0, 0]
    res = ExactSimplex(rows, rhs).maximize(c)
    assert res.value == Fraction(1, 20)
    assert verify_certificate(rows, rhs, c, res.x, res.y)


def test_consistent_dependent_rows_are_accepted():
    rows = [[1, 1], [2, 2]]
    solver = ExactSimplex(rows, [1, 2])
    res = solver.maximize([Fraction(2), Fraction(1)])
    assert res.value == 2
    assert res.x == (1, 0)
    assert verify_certificate(rows, [1, 2], [Fraction(2), Fraction(1)], res.x, res.y)


def test_inconsistent_dependent_rows_are_infeasible():
    solver = ExactSimplex([[1, 1], [2, 2]], [1, 3])
    with pytest.raises(RuntimeError, match="infeasible"):
        solver.maximize([Fraction(1), Fraction(0)])


def test_negative_rhs_is_handled_by_row_flip():
    solver = ExactSimplex([[-1, -1]], [-5])
    res = solver.maximize([Fraction(1), Fraction(3)])
    assert res.value == 15


def test_empty_feasible_set_detected():
    solver = ExactSimplex([[1, 1]], [-1])
    with pytest.raises(RuntimeError, match="infeasible"):
        solver.maximize([Fraction(1), Fraction(1)])


def test_unbounded_detected():
    solver = ExactSimplex([[1, -1]], [0])
    with pytest.raises(RuntimeError, match="unbounded"):
        solver.maximize([Fraction(1), Fraction(0)])


def test_input_validation():
    with pytest.raises(ValueError):
        ExactSimplex([], [])
    with pytest.raises(ValueError):
        ExactSimplex([[1, 2], [1]], [0, 0])
    with pytest.raises(ValueError):
        ExactSimplex([[1, 2]], [0, 0])
    with pytest.raises(ValueError):
        ExactSimplex([[Fraction(1, 2), 1]], [1])


def test_warm_restart_across_objectives():
    rows = [[2, 1, 0, 1], [1, 0, 1, 3]]
    rhs = [4, 5]
    solver = ExactSimplex(rows, rhs)
    objectives = [
        [Fraction(1), Fraction(2), Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
    ]
    for _ in range(3):
        for c in objectives:
            warm = solver.maximize(c)
            cold = ExactSimplex(rows, rhs).maximize(c)
            assert warm.value == cold.value
            assert verify_certificate(rows, rhs, c, warm.x, warm.y)


def row_reduce(rows, rhs):
    """Exact RREF of [rows | rhs]; returns (independent rows, rhs) or None
    when the system is inconsistent."""
    n = len(rows[0])
    A = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(A)) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = [v / A[r][col] for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        r += 1
    for row in A[r:]:
        if row[n] != 0:
            return None
    return [row[:n] for row in A[:r]], [row[n] for row in A[:r]]


def brute_force_optimum(rows, rhs, c):
    """Enumerate all bases of an independent row subset, solve each exactly,
    keep the best feasible one."""
    reduced = row_reduce(rows, rhs)
    if reduced is None:
        return None
    rows, rhs = reduced
    m, n = len(rows), len(rows[0])
    best = None
    for cols in combinations(range(n), m):
        # Gaussian elimination on the chosen square system
        A = [[Fraction(rows[i][j]) for j in cols] + [Fraction(rhs[i])] for i in range(m)]
        ok = True
        for r in range(m):
            piv = next((i for i in range(r, m) if A[i][r] != 0), None)
            if piv is None:
                ok = False
                break
            A[r], A[piv] = A[piv], A[r]
            A[r] = [v / A[r][r] for v in A[r]]
            for i in range(m):
                if i != r and A[i][r] != 0:
                    f = A[i][r]
                    A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        if not ok:
            continue
        xb = [A[i][m] for i in range(m)]
        if any(v < 0 for v in xb):
            continue
        x = [Fraction(0)] * n
        for j, v in zip(cols, xb):
            x[j] = v
        value = sum(ci * xi for ci, xi in zip(c, x))
        if best is None or value > best[0]:
            best = (value, x)
    return best


def test_random_instances_match_basis_enumeration():
    rng = random.Random(20240817)
    solved = 0
    for trial in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m - 1)]
        rows.append([1] * n)  # bounding row keeps every instance finite
        rhs = [rng.randint(-3, 3) for _ in range(m - 1)] + [rng.randint(1, 4)]
        c = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        best = brute_force_optimum(rows, rhs, c)
        solver = ExactSimplex(rows, rhs)
        if best is None:
            with pytest.raises(RuntimeError, match="infeasible"):
                solver.maximize(c)
            continue
        res = solver.maximize(c)
        solved += 1
        assert res.value == best[0]
        assert sum(ci * xi for ci, xi in zip(c, res.x)) == res.value
        assert all(v >= 0 for v in res.x)
        for row, b in zip(rows, rhs):
            assert sum(a * xi for a, xi in zip(row, res.x)) == b
        assert verify_certificate(rows, rhs, c, res.x, res.y)
    assert solved >= 30  # the family must not degenerate into all-infeasible


def test_certificate_rejects_wrong_claims():
    rows = [[1, 1, 1]]
    rhs = [1]
    c = [Fraction(1), Fraction(4), Fraction(2)]
    res = ExactSimplex(rows, rhs).maximize(c)
    assert verify_certificate(rows, rhs, c, res.x, res.y)
    # suboptimal primal point
    bad_x = (Fraction(1), Fraction(0), Fraction(0))
    assert not verify_certificate(rows, rhs, c, bad_x, res.y)
    # infeasible primal point
    neg_x = (Fraction(-1), Fraction(2), Fraction(0))
    assert not verify_certificate(rows, rhs, c, neg_x, res.y)
    # dual claim that is not dominating
    bad_y = (Fraction(3),)
    assert not verify_certificate(rows, rhs, c, res.x, bad_y)


def test_certificate_rejects_infeasible_nonnegative_point():
    # every reduced cost is zero and c.x equals b.y, so only the row check
    # can see that (1, 0) breaks the second constraint
    rows = [[1, 1], [1, -1]]
    rhs = [1, 0]
    c = [Fraction(1), Fraction(1)]
    res = ExactSimplex(rows, rhs).maximize(c)
    assert res.x == (Fraction(1, 2), Fraction(1, 2)) and res.y == (1, 0)
    assert verify_certificate(rows, rhs, c, res.x, res.y)
    assert not verify_certificate(rows, rhs, c, (Fraction(1), Fraction(0)), res.y)


def test_reduced_costs_match_fraction_arithmetic():
    rows = [[1, 1, 1, 1], [3, -2, 0, 5], [-1, 4, 2, 0]]
    y = (Fraction(7, 6), Fraction(-2, 9), 3)
    c = (Fraction(1, 4), 2, Fraction(-5, 3), Fraction(9, 10))
    num, den = reduced_costs(rows, y, c)
    assert den > 0
    want = [sum(Fraction(yi) * row[j] for yi, row in zip(y, rows)) - c[j] for j in range(4)]
    assert [Fraction(v, den) for v in num] == want
    assert all(isinstance(v, int) for v in num)


def test_results_are_fractions():
    solver = ExactSimplex([[3, 5]], [7])
    res = solver.maximize([Fraction(1), Fraction(1)])
    assert isinstance(res.value, Fraction)
    assert all(isinstance(v, Fraction) for v in res.x)
    assert res.value == Fraction(7, 3)


def test_prepare_runs_phase1_once():
    solver = ExactSimplex([[1, 1]], [1])
    assert solver._tableau is None
    solver.prepare()
    start = solver._tableau
    assert start is not None
    solver.prepare()  # second call is a no-op
    assert solver._tableau is start
    assert solver.maximize([Fraction(1), Fraction(0)]).value == 1
    res = solver.maximize([Fraction(0), Fraction(1)])
    assert res.value == 1
    # maximize never reassigns the start tableau
    assert solver._tableau is start


def test_maximize_does_not_depend_on_earlier_objectives():
    # c ties x0 with x1, so which of the two comes back depends only on the
    # start basis; a solver that resumed from its last basis would return
    # x1 after the second objective
    rows, rhs = [[1, 1, 1, 1], [1, 1, 2, 0]], [2, 2]
    c = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    others = ([0, 1, 0, 0], [0, 0, 0, 1], [-1, 2, 1, 0], [0, 0, 1, 0])
    solver = ExactSimplex(rows, rhs)
    first = solver.maximize(c)
    snapshot = [row[:] for row in solver._tableau[0]], list(solver._tableau[2])
    for other in others:
        solver.maximize([Fraction(v) for v in other])
        assert solver.maximize(c) == first
    assert ([row[:] for row in solver._tableau[0]], list(solver._tableau[2])) == snapshot
    assert first == ExactSimplex(rows, rhs).maximize(c)


def test_start_columns_give_the_same_certified_optimum():
    rows = [[2, 1, 0, 1], [1, 0, 1, 3]]
    rhs = [4, 5]
    c = [Fraction(1), Fraction(2), Fraction(0), Fraction(1)]
    cold = ExactSimplex(rows, rhs).maximize(c)
    # columns 1 and 2 alone meet both rows: x = (0, 4, 5, 0)
    solver = ExactSimplex(rows, rhs, start=[1, 2])
    solver.prepare()
    assert solver._tableau[2] == [1, 2]
    warm = solver.maximize(c)
    assert warm.value == cold.value
    assert verify_certificate(rows, rhs, c, warm.x, warm.y)


def test_dependent_start_columns_are_rejected():
    # column 2 is twice column 0 on both rows
    solver = ExactSimplex([[1, 1, 2], [1, 0, 2]], [2, 1], start=[0, 2])
    with pytest.raises(ValueError, match="depends"):
        solver.prepare()
    # a repeated column is dependent too
    with pytest.raises(ValueError, match="depends"):
        ExactSimplex([[1, 1], [1, -1]], [1, 0], start=[0, 0]).prepare()


def test_infeasible_start_basis_is_rejected():
    # the program is feasible at (0, 0, 1), but the basis {0, 1} solves to
    # x0 = 2, x1 = -1
    rows, rhs = [[1, 1, 1], [1, 2, 0]], [1, 0]
    assert ExactSimplex(rows, rhs).maximize([0, 0, 1]).value == 1
    solver = ExactSimplex(rows, rhs, start=[0, 1])
    with pytest.raises(ValueError, match="feasible basis"):
        solver.prepare()
    with pytest.raises(ValueError, match="out of range"):
        ExactSimplex([[1, 1]], [1], start=[2])


def _random_programs(count=200, seed=20261021):
    """Seeded small integer programs, each with the objectives to maximize
    on it: (rows, rhs, start, objectives).  A bounding row of ones keeps
    every one finite.  Every fourth program has a repeated row (its
    artificial can stay basic at zero), every fourth a right-hand side
    that admits its `start` columns, and random rows give negative
    right-hand sides throughout."""
    rng = random.Random(seed)
    for trial in range(count):
        m = rng.randint(1, 4)
        n = rng.randint(m + 1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m - 1)] + [[1] * n]
        rhs = [rng.randint(-4, 4) for _ in range(m - 1)] + [rng.randint(1, 5)]
        start = ()
        if trial % 4 == 1:
            # rhs from a point on the chosen columns, so they can start
            support = rng.sample(range(n), rng.randint(1, m))
            x = [rng.randint(1, 3) if j in support else 0 for j in range(n)]
            rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
            start = tuple(support)
        if trial % 4 == 2 or trial % 8 == 1:
            i = rng.randrange(m)
            scale = rng.choice((1, -1, 2))
            rows.append([scale * v for v in rows[i]])
            rhs.append(scale * rhs[i])
        objectives = [[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(n)]
                      for _ in range(3)]
        yield rows, rhs, start, objectives


# sha256 over every maximize of _random_programs: its value, x and y as
# strings, or the error a program raises
RANDOM_DIGEST = "234412a1f6819bb2d74956db2e20a6f3a3c81952eb7a06d8a8830c74259388a4"


def test_random_programs_keep_value_primal_and_dual():
    h = hashlib.sha256()
    solved = negative = repeated = started = 0
    for rows, rhs, start, objectives in _random_programs():
        solver = ExactSimplex(rows, rhs, start=start)
        for c in objectives:
            try:
                res = solver.maximize(c)
            except (RuntimeError, ValueError) as exc:
                h.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            solved += 1
            negative += any(b < 0 for b in rhs)
            # an artificial still basic at zero in the start basis
            repeated += any(j >= len(c) for j in solver._tableau[2])
            started += bool(start)
            assert verify_certificate(rows, rhs, c, res.x, res.y)
            h.update(json.dumps([str(res.value), [str(v) for v in res.x],
                                 [str(v) for v in res.y]]).encode() + b"\n")
    assert min(negative, repeated, started) >= 60 and solved >= 400, (
        solved, negative, repeated, started)
    assert h.hexdigest() == RANDOM_DIGEST


def test_runs_after_phase1_pivot_on_live_slots_only(monkeypatch):
    # phase 1 pivots on all n structural and m artificial variables' slots;
    # after it each row keeps the structural nonbasic slots and the
    # right-hand side, and every maximize pivots on those
    widths = []
    real = simplex._pivot

    def recorded(M, divs, r, s):
        widths.append(len(M[r]))
        real(M, divs, r, s)

    monkeypatch.setattr(simplex, "_pivot", recorded)
    for n, k, width in ((8, 4, 65), (7, 4, 8), (8, 2, 100)):
        widths.clear()
        solver = ExactSimplex(*extremal._flip_program((1,) * n, k))
        solver.prepare()
        assert set(widths) == {solver.n + 1}, (n, k)
        M, _, basis, nonbasic = solver._tableau
        assert all(j < solver.n for j in nonbasic), (n, k)
        structural = sum(j < solver.n for j in basis)
        assert {len(row) for row in M} == {solver.n - structural + 1} == {width}, (n, k)
    solver = extremal._flip_solver((1,) * 8, 4)
    assert {len(row) for row in solver._tableau[0]} == {65}
    widths.clear()
    solver.maximize([abs(2 * x.bit_count() - 8) ** 5 for x in range(128, 256)])
    assert len(widths) == 70 and set(widths) == {65}
