"""Exact linear programming over rationals.

A simplex method used where floating-point drift is unacceptable: optimal
values feed equality assertions and the row multipliers (duals) are turned
into inequality derivations, so both must be exact.

Every solve is a maximization of c*x over variables constrained to be
nonnegative.  Constraints are rows (coefficients, sense, rhs) with senses
"<=" and ">=", where the coefficients are sparse (column, value) pairs:
columns are indices into c, each at most once, and absent columns are zero.
The solver returns the optimal value, a primal point, and one dual
multiplier per input row, normalized so that  value == sum(dual_i * rhs_i).
Every optimal solve checks primal feasibility, dual feasibility and strong
duality of what it returns on scaled integers (`_check`), every walk its
Farkas certificate (`_check_farkas`), and any failure raises LpError.

The tableau is kept fraction-free and sparse.  Each row is pre-scaled to
integers and holds only its nonzeros, as {column: int} with the right side
under the key ncols; only the objective row is dense.  Every pivot applies
the two-by-two minor update  (p*a - f*b) / d  with the previous pivot as
divisor, to nonzeros only.  The divisions are exact (tableau entries stay
subdeterminants of the integer input), Python's big integers absorb the
growth, and one comparison, `_least_ratios`, serves all four ratio tests
(phase 2's leaving row, `_entering`, `_steepest` and the walk's breakpoint):
it compares cross products and returns every tie in order for the caller's
own tie-break, so no Fraction arithmetic happens in the inner loops.  The
Shannon programs stay sparse while solved, and `_pivot` takes two branches
on what that leaves to do.  Over one pass of each of the benchmark's LP
workloads (530 pivots), 4.7% of the rows' cells were nonzero at a pivot and
18% of the other rows had a nonzero in the entering column.  94% of the
pivots had p == d: then p*a/d is a, so only those rows change, and only on
the pivot row's columns.  The other 6% scale every row by p/d.

The slack basis.  Each row is scaled into a "<=" row, a ">=" row by a
negative scale, and row i's slack sits at column nvars + i, basic at the
start.  The scale is kept signed, so each dual is mapped back to the
original row and certified against it.  A cold solve starts from that basis,
which must be primal feasible (every scaled right side >= 0) or dual
feasible (every cost <= 0); any other program raises ValueError.  The
analysis solves cold only each rule's joint program at logS = 0, primal
feasible since its bounds are N^a with a >= 0, and warm-starts the rest.

Warm start: an optimal result carries its final tableau, and `resolve_lp`
solves its program again at other right sides, given one per row.  Every
copy of a tableau shares the program it was built from (the scaled
coefficients, the senses and the signed row scales); only the right sides,
the tableau, the basis and the objective row are its own.  The reduced
costs do not depend on the right sides, so the start's basis stays dual
feasible.  The new right sides go through the signed row scales, times one
positive integer that clears their denominators.  Whatever the pivots since,
each row's slack column holds the tableau's multiple of that row, so the
right-side column moves by the slack columns of the rows whose right side
changed, weighted by the change (`_weigh_slacks`).  A request probe moves
only its theta rows: over the same pass the 21 warm starts weighed 2.4
changed rows each, where a right side from scratch would weigh the 21 rows
with a nonzero right side.  A second right-side column (key ncols + 1),
the direction column, holds d over dscale (zeros and 1 when cold); a tie
direction `toward`, one entry per row, re-aims it the same way for the tie
phase, and the result's tableau keeps it.

Cold and warm solves share one finish.  First the dual phase: dual simplex
pivots (Lemke, 1954) restore primal feasibility.  A row with a negative
right side leaves, negated so that the pivot element is positive, and the
entering column keeps every reduced cost nonnegative.  The leaving row is
priced by dual steepest edge (Forrest & Goldfarb, 1992): of the rows with a
negative right side, the one with the largest rhs^2 / |row|^2, the norm
taken over the row's structural and slack columns (`_steepest`).  On the
benchmark's degenerate programs the most negative right side picks long,
dense rows: reach_tradeoffs took 652 pivots a pass with it and 568 with
steepest edge, and the work inside the pivots (rows touched times pivot-row
length) fell from 321k to 177k.  The program is infeasible when a leaving
row has no negative entry.  A warm solve then runs the tie phase, the
lexicographic rule of Dantzig, Orden & Wolfe (1955): a row whose right side
is 0 and whose `toward` entry is negative leaves, priced by steepest edge on
that column, until the basis is optimal at rhs + t*toward for all small
t > 0 too (or no such t is feasible), so its duals give the exact slope of
the value along `toward`.  Then phase 2, primal simplex from the feasible
basis to the optimum or to "unbounded": a cold start that was primal
feasible does its pivots here, and a dual feasible basis leaves it nothing
to pivot on.  Entering variable: largest reduced-cost improvement.  Leaving
variable: minimum ratio with smallest-basis-index tie-break.  Every phase
switches to Bland's smallest-index rule after STALL_LIMIT stalled pivots,
ones that move neither right-side entry of the objective row, so cycling
cannot occur.  A solve may take PIVOT_LIMIT pivots, all phases together; one
that needs more raises PivotLimitError with the phase it stopped in, its
pivot count and the program's size, instead of running on for minutes.

The right-side walk.  `walk_rhs` follows an optimal basis while the right
sides move to b + t*d, from t = 0 up (right-side ranging: Gass & Saaty,
1955).  A copy of the tableau re-aims its direction column at d, as a warm
start moves its right sides, so each basis gives its exact line, value =
intercept + slope*t, off the objective row's two right-side entries, and
row i's basic value moves as rhs_i + t*dir_i (over the scales).  The basis
stays optimal up to the least ratio rhs_i / -dir_i over the rows with
dir_i < 0; there such a row leaves by a dual simplex pivot, its entering
column chosen by `_entering`, the ratio test the dual phase uses, so every
reduced cost stays nonnegative.  The walk ends where a leaving row has no
negative entry: beyond it the program is infeasible.  Tied leaving rows go by
dual steepest edge (the largest dir_i^2 / |row|^2, priced as in the dual
phase) while the walk is still at t = 0, and by the smallest basis index at
every later breakpoint, which is Bland's rule for the pivots at that t, so a
degenerate breakpoint cannot cycle.  Steepest edge could; the walk keeps the
bases it meets at 0, and should one come round again it takes the smallest
index from there.  The tie rule picks the basis each piece starts from, and
so each term's certificate and request probe.  On the tier-1 fixtures' 17
terms and hierarchical's 3 rules, steepest edge at every tie gave proofs of
261 steps against 243 for this mix, and steepest edge that yields to
smallest index after STALL_LIMIT degenerate pivots left a request probe of
hierarchical rule 1 13 730 dual pivots, against 3.  The tie phase keeps the
stall rule and the walk its own, as each is load-bearing for a pinned
output: the walk's rule in the tie phase took hierarchical's proofs from 418
to 439 steps, and a stall rule in the walk took the corpus's pruned rules'
proofs from 1 002 to 1 030 steps or more.  A walk may take PIVOT_LIMIT
pivots and raises PivotLimitError naming "the right-side walk".
The last leaving row's slack columns weigh the rows into the dual simplex's
proof of infeasibility (Lemke, 1954), and the walk returns these Farkas
multipliers, so a caller can price where its program ends.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

log = logging.getLogger(__name__)

ZERO = Fraction(0)

# pivots that move no right-side entry of the objective row before Bland's rule
STALL_LIMIT = 30
# pivots one solve may take, all phases together, before PivotLimitError
PIVOT_LIMIT = 20_000


class LpError(RuntimeError):
    """The solver reached an inconsistent state (a bug, not bad input)."""


class PivotLimitError(LpError):
    """A solve needed more than PIVOT_LIMIT pivots."""


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list[Fraction]
    duals: list[Fraction]
    # the final tableau of an optimal solve, for `resolve_lp` and `walk_rhs`
    _tableau: _Simplex | None = field(default=None, repr=False, compare=False)


@dataclass
class RhsPiece:
    """One piece of a right-side walk: the optimum is intercept + slope*t on [lo, hi].

    `hi` is None when the program stays feasible for every larger t.  The
    piece keeps its first basis, direction column included, so `resolve_lp`
    can start from it as from an optimal result, re-aiming that column.
    """

    lo: Fraction
    hi: Fraction | None
    intercept: Fraction
    slope: Fraction
    _tableau: _Simplex = field(repr=False, compare=False)


Row = tuple[Iterable[tuple[int, object]], str, object]  # ((column, value) pairs, sense, rhs)


def solve_lp_guided(c: Sequence, rows: Sequence[Row]) -> LpResult:
    """solve_lp under the name `shannon` calls (and perfbench traces)."""
    return solve_lp(c, rows)


def solve_lp(c: Sequence, rows: Sequence[Row]) -> LpResult:
    """Maximize c*x over x >= 0 subject to the given sparse rows.

    The solve begins at the slack basis, which must be primal or dual
    feasible (see the module docstring); a program that is neither raises
    ValueError.  `resolve_lp` solves it at other right sides.
    """
    return _Simplex([_rational(v) for v in c], rows).solve()


def resolve_lp(start: LpResult | RhsPiece, rhs: Sequence, toward: Sequence) -> LpResult:
    """The start's program with right sides `rhs`, one per row, by dual simplex.

    `start` is an optimal result or a piece of a walk; its program (c, the
    coefficients and the senses) is solved again with row i's right side
    rhs[i], continuing from the start's basis, to a basis optimal at rhs
    and, where feasible, at rhs + t*toward for all small t > 0.  The start's
    right-side column moves by the rows where rhs differs from the start's
    own right sides alone (`_Simplex._weigh_slacks`), its direction column
    likewise to `toward`.  A start that is not optimal, or an entry per row
    too many or too few in `rhs` or `toward`, raises ValueError.
    """
    if start._tableau is None:
        raise ValueError(f"a warm start needs an optimal result, not {start.status!r}")
    rows = len(start._tableau.rscale)
    if len(rhs) != rows:
        raise ValueError(f"the right sides have {len(rhs)} entries for {rows} rows")
    if len(toward) != rows:
        raise ValueError(f"the tie direction has {len(toward)} entries for {rows} rows")
    # new right sides may come out negative in the start's basis: the dual phase mends them
    warm = start._tableau._with_direction(toward)
    warm.b, warm.bscale = warm._weigh_slacks(warm.ncols, rhs, warm.b, warm.bscale)
    return warm._finish(warm.obj, warm=True)


def walk_rhs(start: LpResult, direction: Sequence) -> tuple[list[RhsPiece], list | None]:
    """The optimum of `start`'s program as its right sides move along `direction`.

    Row i's right side becomes b_i + t * direction[i] for t >= 0, where b is
    the start's.  The pieces run in order from t = 0 and cover every t at
    which the program is feasible; the last one ends where it turns
    infeasible, or has hi None.  No piece is empty, and two neighbours
    never share a line.  Each piece keeps its first basis, from which
    `resolve_lp` solves the program at other right sides.  With the pieces
    come checked Farkas multipliers, one per row and signed like duals, that
    prove the program infeasible past the end (None if it never ends).
    """
    if start._tableau is None:
        raise ValueError(f"a walk needs an optimal result, not {start.status!r}")
    rows = len(start._tableau.rscale)
    if len(direction) != rows:
        raise ValueError(f"the direction has {len(direction)} entries for {rows} rows")
    walk = start._tableau._with_direction(direction)
    pieces, farkas = walk._walk(walk.obj)
    if farkas is not None:
        walk._check_farkas(farkas, direction, pieces[-1].hi if pieces else ZERO)
    return pieces, farkas


def _rational(v):
    """v as an exact rational: ints and Fractions as they are, others via Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _least_ratios(candidates: Iterable[tuple]) -> tuple[list, Fraction | None]:
    """Of (key, num, den) triples, den > 0, the keys tied for the least num/den, in order.

    With them comes that ratio, None when there are no candidates."""
    ties: list = []
    num, den = 0, 1  # the least ratio so far
    for key, n, d in candidates:
        if not ties or n * den < num * d:
            ties, num, den = [key], n, d
        elif n * den == num * d:
            ties.append(key)
    return ties, Fraction(num, den) if ties else None


def _parse_coeffs(i: int, coeffs: tuple, nvars: int) -> list[tuple[int, Fraction | int]]:
    """Row i's nonzero (column, rational) pairs, each column checked once."""
    seen, nonzero = set(), []
    for j, v in coeffs:
        if j in seen or not 0 <= j < nvars:
            problem = "repeats" if j in seen else f"is outside 0..{nvars - 1}"
            raise ValueError(f"row {i}: column {j} {problem}")
        seen.add(j)
        if v:
            nonzero.append((j, _rational(v)))
    return nonzero


class _Simplex:
    def __init__(self, c: list[Fraction], rows: Sequence[Row]):
        """The slack basis of the program: scaled rows, slack i basic in row i.

        The program (costs, scaled rows and their scales) is shared by every
        copy `_fork` makes; the right sides, tableau, basis and objective row
        are each copy's own.
        """
        self.nvars = len(c)
        self.cscale = lcm(*(v.denominator for v in c), 1)
        self.cost = [v.numerator * (self.cscale // v.denominator) for v in c]
        self.rows_in = []  # (scaled nonzero coefficients {column: int}, sense)
        self.rscale = []  # signed: scaled row i == rscale[i] * original row i
        # b and the right-side column are bscale times the scaled rows' right sides
        self.b = []
        self.bscale = 1
        for i, (coeffs, sense, rhs) in enumerate(rows):
            if sense not in ("<=", ">="):
                raise ValueError(f"unknown sense {sense!r}")
            nonzero = _parse_coeffs(i, coeffs, self.nvars)
            rhs = _rational(rhs)
            s = lcm(*(v.denominator for _, v in nonzero), rhs.denominator)
            if sense == ">=":
                s = -s  # every scaled row reads <=
            self.rows_in.append(({j: v.numerator * s // v.denominator for j, v in nonzero}, sense))
            self.b.append(rhs.numerator * s // rhs.denominator)
            self.rscale.append(s)
        self.ncols = self.nvars + len(self.rows_in)
        self.d, self.dscale = [0] * len(self.rows_in), 1  # the direction column (ncols + 1), as b
        self.basis = list(range(self.nvars, self.ncols))
        self.tab = []  # sparse rows {column: int}, right side under key ncols
        for (coeffs, _), b, slack in zip(self.rows_in, self.b, self.basis):
            row = dict(coeffs)
            row[slack] = 1
            if b:
                row[self.ncols] = b
            self.tab.append(row)
        self.div = 1  # real tableau value of any cell is entry / div
        self.pivots = 0

    # ── pivoting ────────────────────────────────────────────────────────

    def _pivot(self, obj: list[int], r: int, col: int):
        """Pivot on row r, column col: every row a -> (p*a - f*b) / d.

        p is the pivot, d the divisor, f a row's entry in col and b the
        pivot row's entry in a's column.  When p == d, p*a/d is a, so only
        the rows with a nonzero in col change, and only on the pivot row's
        columns.  Otherwise every row is rebuilt.
        """
        tab = self.tab
        prow = tab[r]
        p = prow[col]
        d = self.div
        items = list(prow.items())
        if p == d:
            for row in [row for row in tab if col in row and row is not prow]:
                f, get = row[col], row.get
                for j, b in items:
                    v = get(j, 0) - f * b // d
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        else:
            for i, row in enumerate(tab):
                if row is prow:
                    continue
                f = row.get(col)
                if f:
                    new = {j: p * a // d for j, a in row.items() if j not in prow}
                    get = row.get
                    for j, b in items:
                        v = (p * get(j, 0) - f * b) // d
                        if v:
                            new[j] = v
                    tab[i] = new
                else:
                    tab[i] = {j: p * a // d for j, a in row.items()}
        f = obj[col]
        if p == d:
            if f:
                for j, b in items:
                    obj[j] -= f * b // d
        else:
            scaled = [p * a for a in obj]
            for j, b in items:
                scaled[j] -= f * b
            obj[:] = [a // d for a in scaled]
        self.div = p
        self.basis[r] = col
        self.pivots += 1

    def _iterate(self, obj: list[int], choose, phase: str) -> str:
        """Pivot on choose(obj, bland) until it returns a status string.

        After STALL_LIMIT pivots in a row that move no right-side entry of
        the objective row, `bland` asks for the smallest-index choice.  A
        pivot past the solve's PIVOT_LIMIT raises PivotLimitError naming
        `phase`.
        """
        stall = 0
        bland = False
        while True:
            step = choose(obj, bland)
            if isinstance(step, str):
                return step
            self._budget(phase)
            vals, d = obj[self.ncols :], self.div
            self._pivot(obj, *step)
            if all(a * d == v * self.div for a, v in zip(obj[self.ncols :], vals)):
                stall += 1
                if stall > STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    def _primal_step(self, obj: list[int], bland: bool):
        """Largest improving reduced cost enters; minimum ratio leaves.

        Ties go to the smallest index, on both sides.
        """
        costs = obj[: self.ncols]
        if bland:
            entering = next((j for j, v in enumerate(costs) if v < 0), -1)
        else:
            best = min(costs, default=0)
            entering = costs.index(best) if best < 0 else -1
        if entering < 0:
            return "optimal"
        ties, _ = _least_ratios((i, row.get(self.ncols, 0), row[entering])
                                for i, row in enumerate(self.tab) if row.get(entering, 0) > 0)
        if not ties:
            return "unbounded"
        return min(ties, key=self.basis.__getitem__), entering

    def _dual_step(self, obj: list[int], bland: bool, key: int):
        """A row negative under `key` leaves, by `_steepest` on that column.

        `key` is the right side in the dual phase, and `toward` (ncols + 1)
        on rows whose right side is 0 in the tie phase.  Under Bland the
        smallest basis index leaves instead.  The entering column is
        `_entering`'s.  The leaving row is negated to make the pivot positive.
        """
        rhs = self.ncols
        low = [i for i, row in enumerate(self.tab)
               if row.get(key, 0) < 0 and (key == rhs or rhs not in row)]
        if not low:
            return "optimal"
        leaving = min(low, key=self.basis.__getitem__) if bland else self._steepest(low, key)
        entering = self._entering(obj, self.tab[leaving])
        if entering < 0:
            return "infeasible"
        self._negate(leaving)
        return leaving, entering

    def _steepest(self, rows: list[int], key: int) -> int:
        """Dual steepest edge: of `rows`, the one with the largest entry^2 / |row|^2.

        The entry is the row's under `key`, a right-side column; the norm
        runs over the row's structural and slack columns, so right-side
        columns (keys from ncols on) are left out.  The largest is the least
        -entry^2 / |row|^2, the first row on ties.  A candidate's norm
        is summed at C speed when it is needed: keeping every norm current
        in `_pivot` would redo each row a pivot touches, five times as many
        sums on the benchmark's reach programs.
        """
        rhs, dcol = self.ncols, self.ncols + 1

        def priced(i):
            row = self.tab[i]
            vals = row.values()
            v, b, w = row[key], row.get(rhs, 0), row.get(dcol, 0)
            return i, -v * v, sum(map(mul, vals, vals)) - b * b - w * w

        return _least_ratios(map(priced, rows))[0][0]

    def _entering(self, obj: list[int], row: dict) -> int:
        """The dual ratio test on a leaving row, or -1 when nothing can enter.

        The entering column has a negative entry in the row and the least
        ratio obj[j] / -entry, smallest index on ties, so every reduced cost
        stays nonnegative.  Right-side columns (keys from ncols on) never enter.
        """
        ties, _ = _least_ratios((j, obj[j], -a) for j, a in row.items() if a < 0 and j < self.ncols)
        return min(ties, default=-1)

    def _negate(self, r: int):
        self.tab[r] = {j: -a for j, a in self.tab[r].items()}

    def _budget(self, phase: str):
        """Raise PivotLimitError when the next pivot would pass PIVOT_LIMIT."""
        if self.pivots >= PIVOT_LIMIT:
            raise PivotLimitError(
                f"exact simplex passed its budget of {PIVOT_LIMIT} pivots in {phase}: "
                f"{self.pivots} pivots on {len(self.tab)} rows x {self.nvars} columns"
            )

    # ── solving ─────────────────────────────────────────────────────────

    def solve(self) -> LpResult:
        """Solve from the slack basis, which must be primal or dual feasible."""
        rhs = self.ncols
        low = next((i for i, row in enumerate(self.tab) if row.get(rhs, 0) < 0), None)
        if low is not None:
            pos = next((j for j, v in enumerate(self.cost) if v > 0), None)
            if pos is not None:
                raise ValueError(
                    "a cold solve needs a primal feasible slack basis (every right side "
                    "on the feasible side of its row) or a dual feasible one (every cost "
                    f"<= 0): row {low} has {self.rows_in[low][1]} "
                    f"{Fraction(self.b[low], self.rscale[low])} "
                    f"and c[{pos}] = {Fraction(self.cost[pos], self.cscale)}"
                )
        # every basic slack costs 0, so the reduced costs are the negated costs
        obj = [-v for v in self.cost] + [0] * (rhs + 2 - self.nvars)
        return self._finish(obj)

    def _finish(self, obj: list[int], warm: bool = False) -> LpResult:
        """The dual phase, the tie phase along the direction column if `warm`, then phase 2."""
        rhs, tie = self.ncols, self.ncols + 1
        status = self._iterate(obj, partial(self._dual_step, key=rhs), "the dual phase")
        if status == "infeasible":
            return LpResult("infeasible", None, [], [])
        dual = self.pivots
        if warm:  # "infeasible" here leaves a basis optimal at rhs alone
            self._iterate(obj, partial(self._dual_step, key=tie), "the tie phase")
        ties = self.pivots - dual
        status = self._iterate(obj, self._primal_step, "phase 2")
        if status == "unbounded":
            return LpResult("unbounded", None, [], [])
        res = self._optimal(obj)
        log.debug("%s: %d rows, %d columns, %d dual + %s%d primal pivots",
                  "warm optimal" if warm else "optimal", len(self.tab), self.nvars, dual,
                  f"{ties} tie + " if warm else "", self.pivots - dual - ties)
        return res

    def _optimal(self, obj: list[int]) -> LpResult:
        """Read off and check the optimum; keep the tableau for warm starts."""
        den = self.div * self.bscale
        x = [ZERO] * self.nvars
        for i, b in enumerate(self.basis):
            if b < self.nvars:
                x[b] = Fraction(self.tab[i].get(self.ncols, 0), den)
        duals = self._read_slacks(obj[self.nvars : self.ncols], self.div * self.cscale)
        value = Fraction(obj[self.ncols], den * self.cscale)
        self._check(x, duals, value)
        self.obj = obj
        return LpResult("optimal", value, x, duals, self)

    # ── warm start ──────────────────────────────────────────────────────

    def _fork(self, obj: list[int]) -> _Simplex:
        """A copy of this tableau with its own rows, basis and objective row `obj`.

        The program (costs, scaled rows, row scales) stays shared.
        """
        fork = copy.copy(self)
        fork.tab = [dict(row) for row in self.tab]
        fork.basis = list(self.basis)
        fork.obj = obj
        fork.pivots = 0
        return fork

    def _weigh_slacks(
        self, key: int, values: Sequence, was: Iterable[int], was_scale: int
    ) -> tuple[list[int], int]:
        """Move the column under `key` from the integers `was` to `values`, one per row.

        The values go through the signed row scales, times the least
        positive integer that clears their denominators; both are returned,
        as the integers `ints` and their `scale`.  Row i's slack column
        started as e_i, so whatever the pivots since, the tableau holds
        div * (the inverse basis times e_i) there, and the slack columns
        weighted by the scaled values are the column they would have become.
        The column under `key` is already that sum for `was` over
        `was_scale` (zeros and 1 on a cold direction column), so only the slack
        columns of the rows whose value changed are weighed in:
        scale * column + sum_i (was_scale * ints_i - scale * was_i) * slack_i,
        over was_scale, an exact division.  A request probe from a walk piece
        changes only its theta rows, where a full sum would weigh every row
        with a nonzero right side.  The column's entry in the objective row
        is priced by the basic costs.
        """
        rscale = self.rscale
        nums, dens = {}, {}
        for i, v in enumerate(values):
            if v:
                v = _rational(v)
                num, den = v.numerator * rscale[i], v.denominator
                g = gcd(num, den)
                nums[i], dens[i] = num // g, den // g
        scale = lcm(*dens.values())
        ints = [0] * len(rscale)
        for i, num in nums.items():
            ints[i] = num * (scale // dens[i])
        nvars = self.nvars
        delta = {
            nvars + i: num * was_scale - old * scale
            for i, (num, old) in enumerate(zip(ints, was))
            if num * was_scale != old * scale
        }
        cols, weights = list(delta), list(delta.values())
        obj, cost, basis = self.obj, self.cost, self.basis
        obj[key] = 0
        for i, row in enumerate(self.tab):
            v = sum(map(mul, map(row.get, cols, repeat(0)), weights))
            if key in row:
                v += scale * row[key]
            v //= was_scale
            if v:
                row[key] = v
            else:
                row.pop(key, None)
            if basis[i] < nvars:
                obj[key] += cost[basis[i]] * v
        return ints, scale

    def _with_direction(self, direction: Sequence) -> _Simplex:
        """A copy of this optimal tableau whose direction column is aimed at `direction`.

        The column (key ncols + 1), read by the tie phase and the walk, moves
        from this tableau's own d over dscale by `_weigh_slacks`; `_pivot`
        keeps it current like any other column.
        """
        fork = self._fork(list(self.obj))
        fork.d, fork.dscale = fork._weigh_slacks(self.ncols + 1, direction, self.d, self.dscale)
        return fork

    # ── the right-side walk ─────────────────────────────────────────────

    def _walk(self, obj: list[int]) -> tuple[list[RhsPiece], list | None]:
        """Raise t through every basis change until no column can enter.

        In tableau units u = t * bscale / dscale, row i's basic value is
        (rhs_i + u * dir_i) / div, so a row with dir_i < 0 stays feasible up
        to u = rhs_i / -dir_i and the least such ratio is the next breakpoint.
        Every basis is optimal on its stretch of t, and its line is read off
        the objective row's two right-side entries.  Consecutive bases with
        the same line make one piece, which keeps its first basis.  The row
        that stops the walk comes back too, read by `_read_slacks`.
        """
        rhs, dcol = self.ncols, self.ncols + 1
        t_per_u = Fraction(self.dscale, self.bscale)
        pieces: list[RhsPiece] = []
        at = ZERO  # the walk's u
        at_zero = 0
        seen: set[tuple[int, ...]] | None = set()  # bases met at 0, None once one repeats
        while True:
            ties, end = _least_ratios((i, row.get(rhs, 0), -row[dcol])
                                      for i, row in enumerate(self.tab) if row.get(dcol, 0) < 0)
            if end is None or end > at:
                scale = self.div * self.cscale
                line = (
                    Fraction(obj[rhs], scale * self.bscale),
                    Fraction(obj[dcol], scale * self.dscale),
                )
                hi = None if end is None else end * t_per_u
                if pieces and (pieces[-1].intercept, pieces[-1].slope) == line:
                    pieces[-1].hi = hi
                else:
                    pieces.append(RhsPiece(at * t_per_u, hi, *line, self._fork(list(obj))))
                if end is None:
                    break
                at = end
            if at == 0 and seen is not None and tuple(self.basis) not in seen:
                seen.add(tuple(self.basis))
                leaving = self._steepest(ties, dcol)
            else:  # past 0, or a basis met at 0 came round: steepest edge would cycle
                seen = None
                leaving = min(ties, key=self.basis.__getitem__)
            entering = self._entering(obj, self.tab[leaving])
            if entering < 0:
                break
            self._budget("the right-side walk")
            self._negate(leaving)
            self._pivot(obj, leaving, entering)
            at_zero += at == 0
        log.debug(
            "walk: %d rows, %d columns, %d pivots (%d at 0), %d pieces, end %s",
            len(self.tab), self.nvars, self.pivots, at_zero, len(pieces),
            at * t_per_u if end is not None else None,
        )
        if end is None:
            return pieces, None
        row = self.tab[leaving]
        return pieces, self._read_slacks([row.get(j, 0) for j in range(self.nvars, rhs)], self.div)

    def _read_slacks(self, values: list[int], den: int) -> list[Fraction]:
        """Multipliers for the original rows from a row's entries under the slack columns.

        Slack i's input column was e_i, so whatever the pivots since, the
        objective row holds scaled row i's dual there and a tableau row its
        weight on scaled row i; times the signed row scale, either is the
        original row's multiplier.
        """
        return [Fraction(y * s, den) if y else ZERO for y, s in zip(values, self.rscale)]

    def _check(self, x, duals, value):
        """Check the reported optimum exactly, on scaled integers.

        Primal feasibility: the point is scaled by the lcm L of its
        denominators and bscale (div*bscale for a point read off this
        tableau), and every scaled row, a <= row whatever the original
        sense, must hold at it.  The duals are weighed by `_weigh_rows` over
        div*cscale, the denominator of every dual read off this tableau.
        Dual feasibility then compares sum_i Y_i * a_ij with div * C_j, where
        c_j = C_j / cscale, and strong duality compares sum_i Y_i * b_i over
        div*cscale*bscale with the value by cross-multiplication.
        """
        big = lcm(self.bscale, *(v.denominator for v in x))
        xs = [v.numerator * (big // v.denominator) for v in x]
        rhs_scale = big // self.bscale
        for (coeffs, sense), b in zip(self.rows_in, self.b):
            if sum(map(mul, coeffs.values(), map(xs.__getitem__, coeffs))) > b * rhs_scale:
                raise LpError(f"optimal point violates a {sense} row")
        den = self.div * self.cscale
        reduced, dual_value = self._weigh_rows(duals, den)
        if any(r < cj * self.div for r, cj in zip(reduced, self.cost)):
            raise LpError("dual infeasibility detected")
        if dual_value * value.denominator != value.numerator * den * self.bscale:
            raise LpError("strong duality gap; simplex state is corrupt")

    def _check_farkas(self, farkas: Sequence, direction: Sequence, end) -> None:
        """Check exactly that `farkas` proves this program infeasible at every t > end.

        Weighed by `_weigh_rows`, the multipliers must price every column
        >= 0, so for x >= 0 the rows add up to 0 <= sum_i farkas[i] * (b_i +
        t*direction[i]), whose right side must be 0 at t = end and fall.
        """
        den = lcm(*((Fraction(f) / s).denominator for f, s in zip(farkas, self.rscale) if f), 1)
        priced, at_zero = self._weigh_rows(farkas, den)
        if min(priced, default=0) < 0:
            raise LpError("Farkas multipliers price a column below 0")
        slope = sum(f * d for f, d in zip(farkas, direction) if f)
        if slope >= 0 or Fraction(at_zero, den * self.bscale) + end * slope:
            raise LpError(f"Farkas multipliers do not price the right sides to 0 at t = {end}")

    def _weigh_rows(self, mults: Sequence, den: int) -> tuple[list[int], int]:
        """The structural columns and the right side that `mults` price, on integers.

        mults[i] multiplies original row i, signed like a dual, so scaled
        row i weighs Y_i = mults[i] * den / rscale[i], which must be an
        integer >= 0.  Column j is priced sum_i Y_i * a_ij, the right side
        sum_i Y_i * b_i, both over den (and b's over bscale).
        """
        priced, total = [0] * self.nvars, 0
        for (coeffs, sense), m, s, b in zip(self.rows_in, mults, self.rscale, self.b):
            y, rest = divmod(m.numerator * den, m.denominator * s)
            if y < 0:
                raise LpError(f"{'negative' if s > 0 else 'positive'} multiplier on a {sense} row")
            if rest:
                raise LpError("multiplier is not on the tableau's denominator")
            for j, a in coeffs.items() if y else ():
                priced[j] += y * a
            total += y * b
        return priced, total
