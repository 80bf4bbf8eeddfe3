"""Largest p-th moments over k-wise independent sign laws, as exact LPs.

Two routes to the same optimum: `solve_full` works on all 2^n sign patterns
with one parity constraint per coordinate subset of size at most k (solved
on the flip class program, one column per pair of profiles {m, ~m} that
count the plus signs in each class of equal weights, and certified on every
atom by Walsh-Hadamard transforms), while `solve_reduced` optimizes over
Hamming weight profiles with k + 1 constraint rows (certified by `simplex`
on rows of its own, from the Krawtchouk recurrence).
Both return exact rational values for integer exponents and certified
enclosures otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, product
from math import ceil, comb, lcm
from typing import Optional, Union

from .core import (SampleSpace, SignVector, WeightProfile, _frac_str, _value_json, subset_mask,
                   walsh_hadamard)
from .independence import check_kwise
from .intervals import DEFAULT_PREC, Interval, rational_power
from .moments import Value, Weights
from .simplex import ExactSimplex, reduced_costs, verify_certificate

MAX_REDUCED_DIMENSION = 10_000
MAX_FULL_DIMENSION = 12
# Work bounds, checked before any row is built.  Solve time follows the row
# count far more than n.  On a 2-core host (Python 3.11, p = 4) the reduced
# program with its uniqueness check takes 20 s at (n, k) = (6817, 10), the
# largest n admitted at k = 10, but 25 s at (500, 24) with a sixth of the
# entries.  The full bounds count the all-singleton flip program, which
# solve_full runs when the weights all differ and which is the largest
# class program of its (n, k), so they bound every program solve_full runs.
# With weights that all differ it took 17 s at (10, 4) with p = 6, its
# slowest objective there, and 21-24 s at (12, 2) with p = 4 and 6, each in
# a fresh process; the (11, 4) program, which the bound refuses, took 223 s
# with p = 4 (58 MB peak).  All-ones weights, one class, take 0.2 s at
# (10, 4) with p = 6.
# Its rows never outnumber its columns, so its entry bound bounds its rows
# too.
MAX_REDUCED_ROWS = 11
MAX_REDUCED_ENTRIES = 75_000
MAX_FULL_ENTRIES = 140_000
# The objective's bits, as `program_cost` counts them, are bounded apart.
# At (6817, 10) the reduced solve keeps its 178 pivots at every large p, but
# its time grows with the bits, faster at odd p: 15 s at p = 3500 and 37 s
# at p = 3501 (3.1e8 bits), 42 s at p = 4095 (3.6e8).  The bound admits p
# up to 3028 there; p = 3027 took 28-39 s.  The all-singleton flip
# program's time follows its pivots more than its bits (31.5 s at (10, 4)
# and 35 s at (12, 2) at p = 4095 with the all-ones objective), but weights
# of 61 bits made 3.4e7 bits take 43-48 s; at its bound, (12, 2) with
# weights 1..12 at p = 585 took 40 s.
MAX_REDUCED_BITS = 1 << 28
MAX_FULL_BITS = 1 << 23

ODD_DIMENSION_NOTE = (
    "odd dimension: value is the exact program optimum; "
    "the n**(p-1) closed form holds only for even n"
)


def parity_class_sum(n: int, j: int, m: int) -> int:
    """Sum of the size-j parity over all sign vectors of Hamming weight m,
    divided by the class size C(n, m): numerator over C(n, j).

    Choosing t of the j parity coordinates to land on +1 entries contributes
    C(m, t)*C(n-m, j-t) arrangements with sign (-1)^(j-t).
    """
    return sum(
        (-1) ** (j - t) * comb(m, t) * comb(n - m, j - t)
        for t in range(max(0, j - (n - m)), min(j, m) + 1)
    )


def parity_class_coefficient(n: int, j: int, m: int) -> Fraction:
    """Average of a fixed size-j parity over the weight-m class."""
    if not 0 <= j <= n:
        raise ValueError(f"subset size {j} out of range for dimension {n}")
    if not 0 <= m <= n:
        raise ValueError(f"weight {m} out of range for dimension {n}")
    return Fraction(parity_class_sum(n, j, m), comb(n, j))


def _reduced_rows(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The solver's rows K_j(m) = parity_class_sum(n, j, m), j = 0..k, and the
    right-hand side e_0, in O(nk) integer steps: K_j(0) = (-1)^j C(n, j),
    K_j(1) = (-1)^j (C(n-1, j) - C(n-1, j-1)), then the exact recurrence in m
    (n - m) K_j(m+1) = (n - 2j) K_j(m) - m K_j(m-1)."""
    rows = [(1,) * (n + 1)]
    for j in range(1, k + 1):
        row = [(-1) ** j * comb(n, j), (-1) ** j * (comb(n - 1, j) - comb(n - 1, j - 1))]
        for m in range(1, n):
            row.append(((n - 2 * j) * row[m] - m * row[m - 1]) // (n - m))
        rows.append(tuple(row))
    return tuple(rows), (1,) + (0,) * k


def _krawtchouk_rows(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The same rows for the certificates, built apart from `_reduced_rows`
    by the three-term recurrence in j: K_0 = 1, K_1 = 2m - n and
    (j + 1) K_{j+1} = (2m - n) K_j - (n - j + 1) K_{j-1}, whose division is
    exact."""
    d = [2 * m - n for m in range(n + 1)]
    rows = [[1] * (n + 1), d]
    for j in range(1, k):
        rows.append([(x * u - (n - j + 1) * v) // (j + 1) for x, u, v in zip(d, rows[j], rows[j - 1])])
    return tuple(map(tuple, rows[:k + 1]))


@dataclass(frozen=True, slots=True)
class ReducedLp:
    """Weight-profile program: maximize sum(objective[m] * q[m]) subject to
    the rows (normalization first, then one parity row per order 1..k),
    q >= 0.  The solver pivots on `rows`; certificates, enclosures and the
    uniqueness face LP read `check`, the same rows from `_krawtchouk_rows`."""

    n: int
    k: int
    objective: tuple
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    check: tuple[tuple[int, ...], ...]


def reduced_lp(n: int, p, k: int, prec: int = DEFAULT_PREC) -> ReducedLp:
    """Build the weight-profile program for exponent p, once `_validate` admits it.

    Integer p gives exact integer objective coefficients |2m - n|^p; other
    rational p gives certified Interval coefficients at precision `prec`.
    """
    pf = _validate(n, p, k, full=False)
    objective = _powers([2 * m - n for m in range(n + 1)], 1, pf, prec)
    rows, rhs = _reduced_rows(n, k)
    return ReducedLp(n, k, tuple(objective), rows, rhs, _krawtchouk_rows(n, k))


def _powers(nums: list[int], den: int, p: Fraction, prec: int) -> list:
    """|b / den|**p for each integer b, once per distinct |b|: exact for
    integer p (an int when den is 1), otherwise a `rational_power` enclosure."""
    if p.denominator == 1:
        power = lambda b: b ** p.numerator if den == 1 else Fraction(b, den) ** p.numerator
    else:
        power = lambda b: rational_power(Fraction(b, den), p, prec)
    memo = {b: power(b) for b in dict.fromkeys(map(abs, nums))}
    return [memo[abs(b)] for b in nums]


def program_cost(n: int, p, k: int, full: bool = False,
                 a: Optional[Weights] = None) -> tuple[int, int, int]:
    """(rows, columns, objective bits) of the program of n, p and k on its
    route, counted without building it: k + 1 rows by n + 1 columns for the
    reduced program, the even-size parity rows by 2^(n-1) columns for the
    full one (the all-singleton flip program, the largest flip class
    program of n and k, whatever the weights' classes), and per column |p|
    times the bits of the largest base.  That base is |<a, x>| <= sum |a_i|
    over the weights' common denominator, n for all-ones weights.  A
    fractional p adds about `prec` bits per column, the width of its
    enclosures, which is not counted."""
    if full:
        rows, cols = sum(comb(n, j) for j in range(0, k + 1, 2)), 1 << (n - 1)
    else:
        rows, cols = k + 1, n + 1
    if a is None:
        base = n.bit_length()
    else:
        den, w = a.integer_form()
        base = sum(map(abs, w)).bit_length() + den.bit_length() - 1
    return rows, cols, cols * ceil(abs(Fraction(p)) * base)


def _validate(n, p, k, full: bool, a: Optional[Weights] = None) -> Fraction:
    """The exponent as a Fraction, once n, p and k are checked and the
    program's `program_cost` is within its route's bounds."""
    if not isinstance(n, int) or not isinstance(k, int):
        raise TypeError("dimension and independence order must be integers")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    n_cap = MAX_FULL_DIMENSION if full else MAX_REDUCED_DIMENSION
    if n > n_cap:
        raise ValueError(f"dimension too large: {n} > {n_cap}")
    if not 1 <= k <= n:
        raise ValueError(f"independence order must be in [1, {n}], got {k}")
    pf = Fraction(p)
    rows, cols, bits = program_cost(n, pf, k, full, a)
    cap, bit_cap = (MAX_FULL_ENTRIES, MAX_FULL_BITS) if full else (MAX_REDUCED_ENTRIES, MAX_REDUCED_BITS)
    if not full and rows > MAX_REDUCED_ROWS:
        raise ValueError(f"program too large: {rows} rows > {MAX_REDUCED_ROWS}")
    if rows * cols > cap:
        raise ValueError(f"program too large: {rows} rows x {cols} columns > {cap} entries")
    if pf < 1:
        raise ValueError(f"exponent must be at least 1, got {p}")
    if bits > bit_cap:
        raise ValueError(f"program too large: objective of {bits} bits > {bit_cap}")
    return pf


@dataclass(frozen=True, slots=True)
class LpSolution:
    """Outcome of one extremal program.

    `optimal_value` is a Fraction on the exact path and an Interval when the
    exponent is not an integer: one solve at the midpoint coefficients, whose
    optimizer and dual carry no exactness claim, enclosed by weak duality
    (see `_solve`) at `prec` bits.  Every solution is certified: `dual`
    proves the optimizer optimal via `verify_certificate` (reduced route) or
    `_certify_full` (unreduced), and `certificate_ok` records the outcome.  On
    the unreduced route the dual is aligned with `full_constraint_labels`, is
    0 on every odd-size label and equal on labels of one class type, and the
    optimizer is exchangeable within each class of equal weights, as the
    solve runs on the flip class program.
    Both routes are history-free: the same arguments give the same solution
    whatever the process solved before.
    """

    kind: str
    n: int
    p: Fraction
    k: int
    optimal_value: Value
    optimizer: Union[WeightProfile, SampleSpace]
    dual: tuple[Fraction, ...]
    certificate_ok: bool
    unique: Optional[bool] = None
    note: Optional[str] = None
    prec: int = DEFAULT_PREC

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "n": self.n,
            "p": _frac_str(self.p),
            "k": self.k,
            "value": _value_json(self.optimal_value, self.prec),
            "optimizer": self.optimizer.to_json(),
            "dual": [_frac_str(v) for v in self.dual],
            "unique": self.unique,
            "certificate_ok": self.certificate_ok,
        }
        if self.note:
            out["note"] = self.note
        return out


def _solve(solver: ExactSimplex, objective, slack):
    """One solver pass.  Returns (c, result, value): the coefficients c
    actually solved, the solver's result for them, and the value, which the
    caller certifies by checking result.x and result.y against c.

    Interval coefficients are solved once, at their midpoints.  With x and y
    the midpoint optimizer and dual, the value is the weak-duality enclosure
    [c_lo.x, b.y + max(0, max_j (c_hi - A^T y)_j)].  Invariant: row 0 of
    every program solved here is the all-ones normalization row, and the
    right-hand side is e_0, so b.y = y_0 and raising y_0 by the shift makes
    any y dual-feasible for c_hi.  A^T y - c comes from `slack(y, c)`, the
    route's own check data, never from the solver's rows.  The result
    depends only on the solver's program and start basis and on the
    objective, not on earlier passes."""
    exact = not isinstance(objective[0], Interval)
    c = [Fraction(v) for v in objective] if exact else [v.midpoint for v in objective]
    res = solver.maximize(c)
    if exact:
        return c, res, res.value
    lo = sum((v.lo * xj for v, xj in zip(objective, res.x) if xj), Fraction(0))
    num, den = slack(res.y, [v.hi for v in objective])
    return c, res, Interval(lo, res.y[0] + Fraction(max(0, -min(num)), den))


def solve_reduced(
    n: int,
    p,
    k: int,
    prec: int = DEFAULT_PREC,
    check_unique: bool = False,
) -> LpSolution:
    """Maximize E|sum of signs|^p over exchangeable k-wise independent laws.

    All-ones weights; the optimum over weight profiles q_0..q_n.  Exact for
    integer p.  With `check_unique` the face of the certified optimum is
    probed on the same program and `unique` filled in (integer p only).  Each
    call builds and solves a fresh program of k+1 rows, so the optimizer,
    dual and `unique` do not depend on anything the process solved before."""
    program = reduced_lp(n, p, k, prec)
    c, res, value = _solve(ExactSimplex(program.rows, program.rhs), program.objective,
                           partial(reduced_costs, program.check))
    sol = LpSolution(
        kind="reduced",
        n=n,
        p=Fraction(p),
        k=k,
        optimal_value=value,
        optimizer=WeightProfile(n, res.x),
        dual=res.y,
        certificate_ok=verify_certificate(program.check, program.rhs, c, res.x, res.y),
        note=ODD_DIMENSION_NOTE if n % 2 else None,
        prec=prec,
    )
    if check_unique and isinstance(value, Fraction):
        sol = replace(sol, unique=_face_lp(program, res.x, res.y, sol.certificate_ok))
    return sol


def full_constraint_labels(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Subset labels aligned with the dual vector of a full solution: (), the
    normalization row, then every subset of size 1..k, size-then-lex."""
    return ((),) + tuple(chain.from_iterable(combinations(range(n), size) for size in range(1, k + 1)))


def _class_types(sizes: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """The row types of the flip class program of `sizes` for even k: every
    (j_1..j_r) with 0 <= j_i <= n_i and even sum at most k, by size and then
    in descending lex order.  With all-singleton sizes a type is the
    indicator of a label, so this is the even-size part of
    `full_constraint_labels`, in order."""
    types = (j for j in product(*(range(min(size, k) + 1) for size in sizes))
             if sum(j) % 2 == 0 and sum(j) <= k)
    return sorted(types, key=lambda j: (sum(j), [-v for v in j]))


def _flip_program(sizes: tuple[int, ...], k: int) -> tuple[list[list[int]], list[int], list[int]]:
    """(rows, rhs, start) of the flip-symmetric class program for even k.

    The coordinates fall into classes of the given sizes n_1..n_r, and a
    profile (m_1..m_r) counts the plus signs in each class; its mixed-radix
    index has class 1 least significant.  Flipping every sign maps m_i to
    n_i - m_i and an index t to N - 1 - t, N = prod(n_i + 1), so the pair
    is one column, kept at its larger index: column t - N // 2 for each
    t >= N // 2.  Row (j_1..j_r), from `_class_types`, is
    prod K_{j_i}(m_i; n_i): the sum of the characters of every label with
    j_i coordinates in class i, the same at every atom of the pair, as the
    sum of the j_i is even.  All-singleton sizes give one column per pair
    {x, ~x}, indexed by x - 2^(n-1) for the member x with the top bit set,
    and one row per even-size label T: -1 where |T & x| is odd.

    Phase 1 of an all-singleton program starts from the uniform law on the
    even-weight code (the sign vectors with an even number of minus signs)
    when n is even, k <= n - 2 and n <= 2k + 2.  That law is (n-1)-wise
    independent, so it meets every row while k < n; k = n fails because the
    row T = [n] is constant 1 on the code.  Its 2^(n-2) pairs, the columns
    x - 2^(n-1) for x >= 2^(n-1) of even popcount, form a basis exactly when
    every even-size character appears among the rows up to complement (on
    the code, T and its complement give the same row): every even size t
    has min(t, n - t) <= k, which for even k is n <= 2k + 2.  Other programs
    start phase 1 from the all-artificial basis."""
    tables = [_reduced_rows(size, size)[0] for size in sizes]
    rows = []
    for j in _class_types(sizes, k):
        row = [1]
        for table, ji in zip(tables, j):
            row = [u * v for u in table[ji] for v in row]
        rows.append(row[len(row) // 2:])
    n = len(sizes)
    start = []
    if sum(sizes) == n and n % 2 == 0 and k <= n - 2 and n <= 2 * k + 2:
        half = 1 << (n - 1)
        start = [x - half for x in range(half, 1 << n) if x.bit_count() % 2 == 0]
    return rows, [1] + [0] * (len(rows) - 1), start


def _profile_sums(sizes: tuple[int, ...], w) -> list[int]:
    """sum_i w_i (2 m_i - n_i) at each column of the flip class program of
    `sizes`, for integer class weights w."""
    sums = [0]
    for size, v in zip(sizes, w):
        sums = [v * (2 * m - size) + s for m in range(size + 1) for s in sums]
    return sums[len(sums) // 2:]


# The one program cache, keyed by class sizes and even k, and bounded: more
# than twice the class programs that criterion 09 (26) or one benchmark
# workload (24) uses, so none of those rebuilds one.
@lru_cache(maxsize=64)
def _flip_solver(sizes: tuple[int, ...], k: int) -> ExactSimplex:
    """The solver of `_flip_program(sizes, k)`, prepared: every objective
    is maximized from its phase-1 basis."""
    solver = ExactSimplex(*_flip_program(sizes, k))
    solver.prepare()
    return solver


def _atom_slack(n: int, labels, dual, c) -> tuple[list[int], int]:
    """A^T y - c at each of the 2^n atoms, with `dual` aligned with labels:
    (num, den) with den > 0, as `reduced_costs` returns it.  A^T y at every
    atom is the transform of the signed dual (-1)^|T| * y_T at the masks."""
    den = lcm(*(v.denominator for v in dual), *{v.denominator for v in c})
    f = [0] * (1 << n)
    for t, y in zip(labels, dual):
        f[subset_mask(t)] = (-1) ** len(t) * y.numerator * (den // y.denominator)
    return [u - v.numerator * (den // v.denominator) for u, v in zip(walsh_hadamard(f), c)], den


def _certify_full(n: int, labels, c, law, dual) -> bool:
    """Exact certificate that `law` maximizes c.law on the 2^n atoms subject
    to E chi_T = 0 at every label after (), with `dual` aligned with labels.
    It reads no constraint row.  The masses' numerators over den transform to
    den * (-1)^|T| * E chi_T: den at (), 0 at every other label.  The signed
    dual (-1)^|T| * y_T at the masks transforms to A^T y at every atom: at
    least c, equal to c on the support, and c.law = b.y = y_()."""
    if len(c) != 1 << n or len(law) != 1 << n or len(dual) != len(labels) or min(law) < 0:
        return False
    support = [x for x, v in enumerate(law) if v]
    masks = [subset_mask(t) for t in labels]
    den = lcm(*(law[x].denominator for x in support))
    moments = walsh_hadamard([v.numerator * (den // v.denominator) for v in law])
    if moments[0] != den or any(moments[m] for m in masks[1:]):
        return False
    slack, _ = _atom_slack(n, labels, dual, c)
    if min(slack) < 0 or any(slack[x] for x in support):
        return False
    return sum((c[x] * law[x] for x in support), Fraction(0)) == dual[0]


def solve_full(
    n: int,
    p,
    k: int,
    a: Optional[Weights] = None,
    prec: int = DEFAULT_PREC,
) -> LpSolution:
    """Maximize E|<a, signs>|^p over all k-wise independent laws on sign
    vectors of dimension n, one variable per atom.

    The parity row of a subset T is (+1 on atoms where T holds an even
    number of minus signs, -1 otherwise); constraining all of them to zero
    for 1 <= |T| <= k is exactly k-wise independence.

    Permuting coordinates of equal weight, or flipping every sign, keeps
    |<a, x>|^p and maps the rows onto rows (a flip negates the odd-size
    ones), so averaging an optimal law over those maps keeps it feasible
    and optimal (Gatermann and Parrilo, J. Pure Appl. Algebra 192, 2004).
    The solve therefore runs on the flip class program of the weights'
    classes, the coordinates grouped by equal signed weight in
    first-occurrence order (see `_flip_program`; k = 2j + 1 shares the
    k = 2j solver), and spreads each column's mass evenly over the atoms
    of its profile and of the flipped one.  A class program has
    prod(n_i + 1) / 2 columns at most, 2^(n-1) when every weight differs.
    The dual y_T is the class program's dual of T's type on even-size
    labels and 0 on odd-size ones, and `_certify_full` checks every
    unreduced row on all 2^n atoms.  The programs share their optimum, so
    the weak-duality end of a fractional-p enclosure is taken over the
    atoms with that dual."""
    pf = _validate(n, p, k, full=True, a=a)
    if a is None:
        a = Weights.all_ones(n)
    if a.n != n:
        raise ValueError(f"weight vector has dimension {a.n}, expected {n}")
    den, w = a.integer_form()
    cls: dict[int, int] = {}  # weight numerator -> class, in first-occurrence order
    of = [cls.setdefault(v, len(cls)) for v in w]
    sizes = tuple(map(of.count, range(len(cls))))
    kk = k - k % 2
    objective = _powers(_profile_sums(sizes, list(cls)), den, pf, prec)
    # each atom's profile index, with class i's digit worth place[i]
    place = [1]
    for size in sizes:
        place.append(place[-1] * (size + 1))
    total, half = place[-1], place[-1] // 2
    index = [0]
    for i in of:
        index += [v + place[i] for v in index]
    cols = [max(v, total - 1 - v) - half for v in index]
    # a column's mass is spread evenly over the atoms of its two profiles
    share = [0] * (total - half)
    for j in cols:
        share[j] += 1
    # each label's row in the class program, None for an odd-size label
    labels = full_constraint_labels(n, k)
    type_row = {j: t for t, j in enumerate(_class_types(sizes, kk))}
    rows = []
    for t in labels:
        j = [0] * len(sizes)
        for i in t:
            j[of[i]] += 1
        rows.append(None if len(t) % 2 else type_row[tuple(j)])

    def lift(y):
        # the dual on the unreduced rows: zero on every odd-size label
        return tuple(Fraction(0) if t is None else y[t] for t in rows)

    c, res, value = _solve(_flip_solver(sizes, kk), objective,
                           lambda y, chi: _atom_slack(n, labels, lift(y), [chi[j] for j in cols]))
    mass = [q / s for q, s in zip(res.x, share)]
    law = [mass[j] for j in cols]
    dual = lift(res.y)
    return LpSolution(
        kind="full",
        n=n,
        p=pf,
        k=k,
        optimal_value=value,
        optimizer=SampleSpace(n, {x: v for x, v in enumerate(law) if v}),
        dual=dual,
        certificate_ok=_certify_full(n, labels, [c[j] for j in cols], law, dual),
        note=ODD_DIMENSION_NOTE if n % 2 else None,
        prec=prec,
    )


def uniqueness_check(solution: LpSolution) -> bool:
    """Decide with one LP whether a reduced solution's optimizer x* is the only
    optimum of the program of its n, p and k, which `reduced_lp` builds once
    and on which x* is re-certified (Mangasarian, "Uniqueness of solution in
    linear programming", Linear Algebra Appl. 25, 1979).  The optimal face is
    the feasible set on the columns Z of zero reduced cost.  x* is its only
    point exactly when its support columns are independent (as start columns
    they raise otherwise) and no face point has mass on Z off it."""
    if solution.kind != "reduced":
        raise ValueError("uniqueness is only decided for reduced solutions")
    if not isinstance(solution.optimal_value, Fraction):
        raise ValueError("uniqueness needs the exact path (integer exponent)")
    program = reduced_lp(solution.n, solution.p, solution.k)
    q, y = solution.optimizer.q, solution.dual
    return _face_lp(program, q, y, verify_certificate(program.check, program.rhs, program.objective, q, y))


def _face_lp(program: ReducedLp, q, dual, certified: bool) -> bool:
    """The face LP of `uniqueness_check` on the check rows of `program`, at
    an optimizer q that `dual` has `certified`."""
    if not certified:
        raise ValueError("solution is not a certified optimum of the stated program")
    slack, _ = reduced_costs(program.check, dual, program.objective)
    face = [j for j, s in enumerate(slack) if s == 0]
    solver = ExactSimplex([[row[j] for j in face] for row in program.check], program.rhs,
                          start=[t for t, j in enumerate(face) if q[j]])
    try:
        # certified, so x* is feasible on the face: only dependence can raise
        solver.prepare()
    except ValueError:
        return False
    return solver.maximize([0 if q[j] else 1 for j in face]).value == 0


@dataclass(frozen=True, slots=True)
class EqualityReport:
    """Outcome of the sharp-bound support test; falsy when any condition
    fails, with `reason` one of ok / not_pairwise_independent /
    unequal_magnitudes / mixed_support_atom / unanimous_mass_mismatch."""

    achieves_equality: bool
    reason: str
    witness: Optional[SignVector] = None

    def __bool__(self) -> bool:
        return self.achieves_equality

    def to_json(self) -> dict:
        return {
            "achieves_equality": self.achieves_equality,
            "reason": self.reason,
            "witness": str(self.witness) if self.witness is not None else None,
        }


def equality_support_check(space: SampleSpace, a: Weights, p) -> EqualityReport:
    """Test whether a pairwise independent law attains the largest possible
    p-th moment for its weights (p > 2).

    Writing c for the common weight magnitude and s for the sign pattern of
    a, the law must put mass exactly 1/(2n) on each of s and -s and spread
    the rest over atoms agreeing with s on exactly half the coordinates."""
    if a.n != space.n:
        raise ValueError(f"weights have dimension {a.n}, expected {space.n}")
    if Fraction(p) <= 2:
        raise ValueError(f"exponent must exceed 2, got {p}")
    n = space.n
    if n >= 2 and not check_kwise(space, 2).passed:
        return EqualityReport(False, "not_pairwise_independent")
    if len({abs(v) for v in a.a}) != 1:
        return EqualityReport(False, "unequal_magnitudes")
    smask = subset_mask(i for i, v in enumerate(a.a) if v > 0)
    for bits in space.numerators:
        agree = n - (bits ^ smask).bit_count()
        if agree != n and agree != 0 and 2 * agree != n:
            return EqualityReport(False, "mixed_support_atom", SignVector(n, bits))
    if any(2 * n * space.numerators.get(x, 0) != space.den for x in (smask, smask ^ ((1 << n) - 1))):
        return EqualityReport(False, "unanimous_mass_mismatch")
    return EqualityReport(True, "ok")
