"""Exact two-phase primal simplex for equality-form programs.

The tableau is condensed, in dictionary form (Chvátal, *Linear Programming*,
1983, ch. 7): it stores B^-1 N and B^-1 b, one entry per nonbasic variable
and then the right-hand side, and no column for a basic variable.  The
variables are the n structural columns and one artificial per row; a
`nonbasic` list beside `basis` says which variable each slot holds.  A
basic variable's column is implicit: its row's divisor on its own row and 0
on every other row.  A pivot exchanges slots: the entering variable's slot
is recomputed as the leaving variable's column, so no pivot recomputes the
zeros of an identity block.  In phase 1 each row has n + 1 entries however
many artificials are still basic; after it the nonbasic artificials' slots
are dropped (see below), and a row keeps the structural nonbasic slots and
the right-hand side: 65 entries instead of 129 on the all-singleton flip
program of `extremal` at n = 8, k = 4, 257 instead of 513 at n = 10, k = 4.

Every `maximize` pivots on a copy of one start tableau, phase 1's, begun
from the constructor's `start` columns, so no result depends on earlier
calls.

Each row is kept fraction-free: an integer vector together with one
positive integer divisor, instead of one divisor shared by the whole tableau
in the style of Bareiss.  `_reduce_row` is the only code that normalizes a
row: after every update it divides the row and its divisor by their
content, signed so that the divisor comes out positive.  In phase 1 that
content is the one a full tableau B^-1 [A | I | b] would take, since the
basic columns only add zeros and the row's own divisor, so every stored
entry and divisor equals the full tableau's entry for the same variable.
After phase 1 a row is reduced over its live entries only, so its stored
integers may be smaller than the full tableau's; its true values are the
same.  How far rows are reduced decides only their size: the pivot rules
read true values alone (Dantzig's rule compares entries of one row, the
ratio test cross-multiplies within rows, so the divisors cancel, and the
contact rule tests for zeros), and x and y come back as normalized
Fractions.  True tableau entries are ratios of basis minors, and how large
the reduced rows get depends on the path of bases.  On the n = 8, k = 4
all-singleton flip program the largest entry has 20 bits after Dantzig's
phase 1 from the all-artificial basis and 7 bits from the even-weight-code
start; at n = 10, k = 4 it has 112 bits after Dantzig's phase 1 and 9 bits
from the code start, and 21 bits after the all-ones p = 6 solve from
either (23 bits in the full-width rows).

Entering columns follow Dantzig's largest-violation rule, ties to the lowest
variable index; leaving rows use the lexicographic ratio test anchored on
the variables basic at the start of the run, whose columns then form a
scaled identity, so all rows start lexicographically positive and no basis
can repeat.  That matters here: the moment programs are so degenerate that
Bland's rule, while equally exact, stalls for thousands of pivots on the
optimal face.

Artificial variables left basic at level zero after phase 1 are not driven
out eagerly (for these programs that would cost hundreds of pivots);
instead any such row blocks an entering column at ratio zero and is pivoted
out on contact, whatever the sign of its entry.  Such a pivot keeps every
true value unchanged, and the lexicographic anchor is re-established after
it, so each stretch between artificial removals terminates and there are at
most m removals in total.  An artificial basic at zero at the end is
harmless: its constraint holds, its dual weight comes out zero, and
consistent dependent constraint rows are accepted instead of rejected.

A nonbasic artificial never enters again, so once phase 1 ends its slot is
dropped from every row: no later pivot prices it, anchors on it (anchors
are basic when a run starts) or tests it for contact.  The dual comes from
the phase-1 basis B1 instead, whose inverse is those dropped slots: with
d_j the reduced cost of variable j at the end of a run, y A_j = c_j + d_j
for every column, so y = z B1^-1 with z_t = c_j + d_j for the variable j
basic on row t after phase 1 (Chvátal, ch. 7).  Each such j is basic at
the end (d_j = 0) or left the basis into a live slot, where d_j sits on
the objective row; an artificial has c_j = 0.

`verify_certificate` re-checks any claimed optimum from scratch in exact
arithmetic; it shares no state or code with the pivot loop.  Its dual half,
`reduced_costs`, also serves the callers that need A^T y - c themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


@dataclass(frozen=True, slots=True)
class SimplexResult:
    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


class ExactSimplex:
    """max of c.x subject to rows.x = rhs, x >= 0, over exact rationals.

    Constraint data must be integer.  Every `maximize` starts from phase
    1's feasible basis, so its result depends only on the constructor's
    arguments and c.

    Phase 1 first pivots in the `start` columns, each on the first row whose
    artificial is still basic and where the column has a nonzero entry, and
    then runs the Dantzig loop, which stops at once when those columns make
    a feasible basis.  Columns that are dependent, or whose basis has a
    negative value, raise ValueError.

    Variable j < n is structural column j; variable n + i is the artificial
    of row i.  A row with negative right-hand side is negated, so that its
    artificial starts basic at a nonnegative level.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        rhs: Sequence[int],
        start: Sequence[int] = (),
    ):
        if not rows:
            raise ValueError("no constraint rows")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged constraint matrix")
        if len(rhs) != len(rows):
            raise ValueError("rhs length does not match row count")
        if any(not isinstance(v, int) for r in rows for v in r) or any(
            not isinstance(v, int) for v in rhs
        ):
            raise ValueError("constraint data must be integer")
        self.start = tuple(start)
        if any(not 0 <= j < n for j in self.start):
            raise ValueError("start column out of range")
        self.n = n
        self.m = len(rows)
        self.rows = [list(r) for r in rows]
        self.rhs = list(rhs)
        # the feasible tableau every maximize starts from, as (rows,
        # divisors, basis, nonbasic); built once, by prepare
        self._tableau: tuple[list[list[int]], list[int], list[int], list[int]] | None = None
        # the phase-1 basis, the rows of its inverse over one denominator,
        # and that denominator; built with the tableau
        self._inverse: tuple[list[int], list[list[int]], int] | None = None

    def prepare(self) -> None:
        """Build the start tableau, once: phase 1, then its live slots.  The
        first `maximize` calls it."""
        if self._tableau is None:
            self._tableau = self._narrow(*self._phase1())

    # -- phase 1 -----------------------------------------------------------

    def _phase1(self):
        n, m = self.n, self.m
        M: list[list[int]] = []
        for row, b in zip(self.rows, self.rhs):
            flip = -1 if b < 0 else 1
            M.append([flip * v for v in row] + [flip * b])
        divs = [1] * m
        basis = [n + i for i in range(m)]
        nonbasic = list(range(n))
        # objective row for maximizing -(sum of artificials)
        M.append([-sum(col) for col in zip(*M)])
        divs.append(1)
        for col in self.start:
            # a structural column keeps its own slot until it enters
            row = None
            if nonbasic[col] == col:
                row = next((i for i in range(m) if basis[i] >= n and M[i][col]), None)
            if row is None:
                raise ValueError(f"start column {col} depends on the ones before it")
            _pivot(M, divs, row, col)
            basis[row], nonbasic[col] = col, basis[row]
        if any(M[i][n] < 0 for i in range(m)):
            raise ValueError("start columns do not give a feasible basis")
        self._optimize(M, divs, basis, nonbasic, stop_at_zero=True)
        if M[m][n] != 0:
            raise RuntimeError("program is infeasible")
        M.pop()
        divs.pop()
        return M, divs, basis, nonbasic

    def _narrow(self, M, divs, basis, nonbasic):
        """Keep the phase-1 basis and the rows of its inverse, then drop the
        nonbasic artificials' slots from the tableau, which no later pivot
        reads.  Row t of the inverse is row t's entries under the
        artificials' columns: a nonbasic one's slot, or the row's divisor
        where the row's own artificial is basic.  The rows are stored over
        one common denominator, with the column of a negated row negated,
        so that `maximize` gets the dual y = z B1^-1 as one integer sum."""
        n, m = self.n, self.m
        col = [None] * m
        for s, j in enumerate(nonbasic):
            if j >= n:
                col[j - n] = s
        den = lcm(*divs)
        sign = [-1 if b < 0 else 1 for b in self.rhs]
        inv = []
        for t, row in enumerate(M):
            f = den // divs[t]
            inv.append([sign[i] * (row[s] * f if s is not None else den if basis[t] == n + i else 0)
                        for i, s in enumerate(col)])
        self._inverse = (basis[:], inv, den)
        live = [s for s, j in enumerate(nonbasic) if j < n] + [n]
        for t in range(m):
            row = M[t]
            M[t] = [row[s] for s in live]
            _reduce_row(M, divs, t)
        return M, divs, basis, [nonbasic[s] for s in live[:-1]]

    # -- core loop ----------------------------------------------------------

    def _optimize(self, M, divs, basis, nonbasic, stop_at_zero=False) -> None:
        """Pivot until the objective row (last row of M) is optimal.
        `stop_at_zero` ends as soon as the objective cell reaches zero
        (phase 1 stops at feasibility).  No artificial enters."""
        m, n = self.m, self.n
        rhs = len(nonbasic)  # one slot per nonbasic variable, then the rhs
        anchors = tuple(basis)
        while True:
            obj = M[m]  # _pivot rebinds rows, so re-read each pass
            if stop_at_zero and obj[rhs] == 0:
                break
            slot, worst, var = None, 0, n
            for s in range(rhs):
                v = obj[s]
                if v <= worst and v < 0:
                    j = nonbasic[s]
                    if j < n and (v < worst or j < var):
                        slot, worst, var = s, v, j
            if slot is None:
                break
            # a zero-level artificial blocks: it is pivoted out on contact
            row = next((i for i in range(m)
                        if basis[i] >= n and M[i][rhs] == 0 and M[i][slot]), None)
            contact = row is not None
            if not contact:
                row = self._lex_ratio_row(M, divs, slot, basis, nonbasic, anchors)
                if row is None:
                    raise RuntimeError("objective is unbounded on the feasible set")
            _pivot(M, divs, row, slot)
            basis[row], nonbasic[slot] = var, basis[row]
            if contact:
                anchors = tuple(basis)

    def _lex_ratio_row(self, M, divs, slot, basis, nonbasic, anchors) -> int | None:
        """Leaving row: lexicographic minimum of row/pivot-entry over the
        right-hand side followed by the anchor variables' columns.  The
        anchor block is nonsingular in every basis, so the minimum is
        unique.  An anchor that is still basic has its implicit column, the
        row divisor on its own row and 0 elsewhere.  Row divisors cancel
        inside each ratio, so entries are compared directly."""
        rhs = len(nonbasic)
        cands = [i for i in range(self.m) if M[i][slot] > 0]
        if not cands:
            return None
        for v in (None, *anchors):
            if len(cands) == 1:
                return cands[0]
            if v is None:
                key = {i: M[i][rhs] for i in cands}
            elif v in basis:
                r = basis.index(v)
                key = {i: divs[i] if i == r else 0 for i in cands}
            else:
                s = nonbasic.index(v)
                key = {i: M[i][s] for i in cands}
            best = cands[0]
            keep = [best]
            for i in cands[1:]:
                lhs = key[i] * M[best][slot]
                rhs_v = key[best] * M[i][slot]
                if lhs == rhs_v:
                    keep.append(i)
                elif lhs < rhs_v:
                    best = i
                    keep = [i]
            cands = keep
        return cands[0]

    # -- optimization -------------------------------------------------------

    def maximize(self, c: Sequence) -> SimplexResult:
        """Maximize c.x from the start basis (see `prepare`).  The dual is
        y = z B1^-1 through the phase-1 basis inverse that `prepare` kept,
        with z read off the objective row (see the module docstring); it
        equals c_B B^-1 for the final basis B, the objective row's entries
        under the artificials' columns."""
        if self._tableau is None:
            self.prepare()
        cf = [v if type(v) is Fraction else Fraction(v) for v in c]
        if len(cf) != self.n:
            raise ValueError(f"objective length {len(cf)} != {self.n} columns")
        n, m = self.n, self.m
        # pivot on a copy, so that the start tableau is never changed
        M, divs, basis, nonbasic = self._tableau
        M, divs, basis, nonbasic = [row[:] for row in M], divs[:], basis[:], nonbasic[:]
        # objective row holds true reduced costs over one divisor: start from
        # -c and add back the basic rows' contributions on one common scale
        Lc = L = lcm(*(v.denominator for v in cf))
        for i in range(m):
            if basis[i] < n and cf[basis[i]]:
                L = lcm(L, divs[i] * cf[basis[i]].denominator)
        obj = [-cf[j].numerator * (L // cf[j].denominator) if j < n else 0 for j in nonbasic] + [0]
        for i in range(m):
            if basis[i] < n:
                coef = cf[basis[i]]
                if coef:
                    w = L * coef.numerator // (coef.denominator * divs[i])
                    obj = [o + w * v for o, v in zip(obj, M[i])]
        M.append(obj)
        divs.append(L)
        _reduce_row(M, divs, m)
        self._optimize(M, divs, basis, nonbasic)
        x = [Fraction(0)] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = Fraction(M[i][-1], divs[i])
        obj = M.pop()
        dob = divs.pop()
        # y B1 = z for the phase-1 basis B1, where z_t = c_j + d_j for the
        # variable j basic on row t after phase 1: its reduced cost d_j is
        # on the objective row, or 0 while j is basic, and c_j = 0 for an
        # artificial.  z is summed over the common denominator zd.
        basis1, inv, den = self._inverse
        zd = lcm(dob, Lc)
        f = zd // dob
        slot = {j: s for s, j in enumerate(nonbasic)}
        acc = [0] * m
        for j, row in zip(basis1, inv):
            w = cf[j].numerator * (zd // cf[j].denominator) if j < n else 0
            if j in slot:
                w += obj[slot[j]] * f
            if w:
                acc = [a + w * v for a, v in zip(acc, row)]
        zd *= den
        y = tuple(Fraction(v, zd) for v in acc)
        value = Fraction(obj[-1], dob)
        return SimplexResult(value, tuple(x), y)


def _pivot(M: list[list[int]], divs: list[int], r: int, s: int) -> None:
    """Pivot on row r and slot s of the condensed tableau.  For the row
    operation, slot s holds the leaving variable's column, divs[r] on row r
    and 0 on every other row, in place of the entering column; after it, the
    entering variable is basic on row r with divisor equal to its entry."""
    prow = M[r]
    piv = prow[s]
    prow[s] = divs[r]
    for i, row in enumerate(M):
        if i == r:
            continue
        f = row[s]
        if f == 0:
            continue
        row[s] = 0  # the row is rebuilt below; its old list is dropped
        # dividing out gcd(piv, f) up front keeps the products small
        g0 = gcd(piv, f)
        p2 = piv // g0
        f2 = f // g0
        if p2 == 1:
            if f2 == 1:
                new = [x - y for x, y in zip(row, prow)]
            elif f2 == -1:
                new = [x + y for x, y in zip(row, prow)]
            else:
                new = [x - f2 * y for x, y in zip(row, prow)]
        elif f2 == 1:
            new = [p2 * x - y for x, y in zip(row, prow)]
        elif f2 == -1:
            new = [p2 * x + y for x, y in zip(row, prow)]
        else:
            new = [p2 * x - f2 * y for x, y in zip(row, prow)]
        M[i] = new
        divs[i] *= p2
        _reduce_row(M, divs, i)
    # the pivot row's true values are divided by the pivot entry, so its old
    # divisor cancels and the entry itself becomes the divisor
    divs[r] = piv
    _reduce_row(M, divs, r)


def _reduce_row(M: list[list[int]], divs: list[int], i: int) -> None:
    """Divide row i and its divisor by their content, signed so that the
    divisor comes out positive.  The only normalization of a row."""
    d = divs[i]
    g = gcd(d, *M[i])
    if d < 0:
        g = -g
    if g != 1:
        M[i] = [v // g for v in M[i]]
        divs[i] = d // g


def reduced_costs(rows, y, c) -> tuple[list[int], int]:
    """A^T y - c for integer constraint rows, accumulated in plain ints over
    one common denominator: returns (num, den) with den > 0 and
    (A^T y - c)_j = num[j] / den."""
    den = lcm(*(v.denominator for v in y), *(v.denominator for v in c))
    num = [-v.numerator * (den // v.denominator) for v in c]
    for yi, row in zip(y, rows):
        if yi:
            w = yi.numerator * (den // yi.denominator)
            num = [a + w * v for a, v in zip(num, row)]
    return num, den


def verify_certificate(rows, rhs, c, x, y) -> bool:
    """Exact certificate that x maximizes c.x subject to rows.x = rhs, x >= 0:
    primal feasibility, dual feasibility, complementary slackness, and
    matching objective values.  Both halves work on integer data over one
    common denominator.  A minimum of c.x is certified as the maximum of
    -c.x with the dual -y."""
    m, n = len(rows), len(c)
    if len(x) != n or len(y) != m or len(rhs) != m:
        return False
    if any(v < 0 for v in x):
        return False
    support = [j for j, v in enumerate(x) if v]
    xden = lcm(*(x[j].denominator for j in support))
    xnum = [(j, x[j].numerator * (xden // x[j].denominator)) for j in support]
    for row, b in zip(rows, rhs):
        if sum(row[j] * v for j, v in xnum) != b * xden:
            return False
    slack, _ = reduced_costs(rows, y, c)
    if any(s < 0 for s in slack):
        return False
    if any(slack[j] for j in support):
        return False
    primal = sum((c[j] * x[j] for j in support), Fraction(0))
    dual = sum((yi * b for yi, b in zip(y, rhs) if yi), Fraction(0))
    return primal == dual
