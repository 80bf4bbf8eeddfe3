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

# (n, k) of the all-singleton flip program, phase-1 pivots, the home solve's
# pivots on top of them when the flip solver is built, then (p, pivots) for
# the all-ones objective maximized from the home basis
PIVOT_PATH = (
    (8, 4, 64, 35, ((4, 0), (5, 51))),
    (8, 2, 38, 49, ((3, 2),)),
    (7, 4, 57, 0, ((5, 13),)),
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


def test_pivot_counts_per_phase(monkeypatch):
    real = simplex._pivot
    count = [0]

    def counted(*args):
        count[0] += 1
        real(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    for n, k, phase1, home, solves in PIVOT_PATH:
        extremal._flip_solver.cache_clear()
        count[0] = 0
        ExactSimplex(*extremal._flip_program((1,) * n, k)).prepare()
        assert count[0] == phase1, (n, k)
        count[0] = 0
        solver = extremal._flip_solver((1,) * n, k)
        assert count[0] == phase1 + home, (n, k)
        for p, want in solves:
            count[0] = 0
            solver.maximize(ones_objective(n, p))
            assert count[0] == want, (n, k, p)


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
