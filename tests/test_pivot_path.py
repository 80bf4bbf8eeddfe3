"""Golden pins on the exact simplex's path through the flip-symmetric
programs: the pivot count of each phase on the all-singleton programs and a
digest of a sequence of `solve_full` results.  Any change to the tableau's
layout must leave both unchanged, since the entering and leaving rules read
only true values."""
import hashlib
import json
from fractions import Fraction

from kwise import extremal, simplex
from kwise.extremal import solve_full
from kwise.moments import Weights
from kwise.simplex import ExactSimplex

# (n, k) of the all-singleton flip program, phase-1 pivots, then (p, pivots)
# for the all-ones objective maximized from the phase-1 basis
PIVOT_PATH = (
    (8, 4, 64, ((4, 35), (5, 70))),
    (8, 2, 38, ((3, 48),)),
    (7, 4, 57, ((5, 13),)),
)

# a sequence over several solvers: all-ones and weighted, integer and
# fractional p, several objectives on each solver
WARM_SEQUENCE = (
    (6, 4, 2, None),
    (6, 5, 3, None),
    (6, Fraction(7, 2), 2, None),
    (7, 4, 4, ("1", "2", "2", "1", "3", "1", "1")),
    (7, 5, 4, None),
    (8, 4, 4, None),
    (8, 5, 4, None),
    (8, Fraction(5, 2), 4, None),
    (8, 3, 2, ("1", "1", "2", "2", "1", "1/2", "1", "1")),
    (8, 6, 2, None),
)
WARM_DIGEST = "acc9ccce19a664c278b01bcd97c9bdd88c8dbe0278cdf648abf4320f19d6cd0a"


def ones_objective(n: int, p: int) -> list[int]:
    """|sum of signs|^p on the columns of the all-singleton flip program, the
    atoms x >= 2^(n-1)."""
    return [abs(2 * x.bit_count() - n) ** p for x in range(1 << (n - 1), 1 << n)]


def count_pivots(monkeypatch) -> list[int]:
    """Count every `simplex._pivot` call in the returned one-item list."""
    real = simplex._pivot
    count = [0]

    def counted(*args):
        count[0] += 1
        real(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    return count


def test_pivot_counts_per_phase(monkeypatch):
    count = count_pivots(monkeypatch)
    for n, k, phase1, solves in PIVOT_PATH:
        extremal._flip_solver.cache_clear()
        count[0] = 0
        solver = extremal._flip_solver((1,) * n, k)
        assert count[0] == phase1, (n, k)
        for p, want in solves:
            count[0] = 0
            solver.maximize(ones_objective(n, p))
            assert count[0] == want, (n, k, p)


def test_cached_solver_solves_as_a_fresh_one(monkeypatch):
    # building the cached solver makes only phase 1's pivots, and maximize
    # never changes its start basis; most of these objectives have more
    # than one optimal x or y, so a start from another basis can return
    # another one
    count = count_pivots(monkeypatch)
    for sizes, k in (((1,) * 8, 2), ((2, 2, 3), 2)):
        extremal._flip_solver.cache_clear()
        count[0] = 0
        ExactSimplex(*extremal._flip_program(sizes, k)).prepare()
        phase1 = count[0]
        count[0] = 0
        cached = extremal._flip_solver(sizes, k)
        assert count[0] == phase1, sizes
        for w in ([1] * len(sizes), list(range(1, len(sizes) + 1))):
            for p in (3, 5, 6):
                c = [abs(v) ** p for v in extremal._profile_sums(sizes, w)]
                fresh = ExactSimplex(*extremal._flip_program(sizes, k)).maximize(c)
                assert cached.maximize(c) == fresh, (sizes, w, p)


def test_warm_solve_full_sequence_digest():
    extremal._flip_solver.cache_clear()
    h = hashlib.sha256()
    for n, p, k, a in WARM_SEQUENCE:
        w = None if a is None else Weights.from_strings(a)
        sol = solve_full(n, p, k, a=w)
        assert sol.certificate_ok is True, (n, p, k)
        h.update(json.dumps(sol.to_json()).encode())
    assert h.hexdigest() == WARM_DIGEST


def test_pivot_path_ignores_row_scaling(monkeypatch):
    # Dantzig's rule compares entries of one row, the ratio test
    # cross-multiplies within rows, the contact rule tests for zeros, and x
    # and y come back as normalized Fractions: so rows kept with only a
    # positive divisor, never divided by their content, take the same path
    def sign_only(M, divs, i):
        if divs[i] < 0:
            M[i] = [-v for v in M[i]]
            divs[i] = -divs[i]

    monkeypatch.setattr(simplex, "_reduce_row", sign_only)
    try:
        test_pivot_counts_per_phase(monkeypatch)
        test_warm_solve_full_sequence_digest()
    finally:
        extremal._flip_solver.cache_clear()  # its tableaux were built unreduced
