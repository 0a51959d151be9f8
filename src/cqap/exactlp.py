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
duality of what it returns, and raises LpError if any fail.  The checks run
on scaled integers over a few shared denominators: the point over the lcm
of its denominators (div*bscale for a point read off the tableau), each
scaled row's multiplier over div*cscale, where it must be an integer, and
the costs over cscale; the value is compared by cross-multiplication.

The tableau is kept fraction-free and sparse.  Each row is pre-scaled to
integers and holds only its nonzeros, as {column: int} with the right side
under the key ncols; only the objective row is dense.  Every pivot applies
the two-by-two minor update  (p*a - f*b) / d  with the previous pivot as
divisor, to nonzeros only.  The divisions are exact (tableau entries stay
subdeterminants of the integer input), Python's big integers absorb the
growth, and ratio tests compare cross products, so no Fraction arithmetic
happens in the inner loops.  The Shannon programs stay sparse while solved:
over one pass of each of the benchmark's LP workloads, 4.7% of the rows'
cells were nonzero at a pivot, 20% of the rows had a nonzero in the entering
column, and 93% of the pivots had p == d, which leaves every row without
such a nonzero as it is.

The slack basis.  Each row is scaled into a "<=" row, a ">=" row by a
negative scale, and row i's slack sits at column nvars + i, basic at the
start.  The scale is kept signed, so each dual is mapped back to the
original row and certified against it.  A cold solve starts from that basis,
which must be primal feasible (every scaled right side >= 0) or dual
feasible (every cost <= 0); any other program raises ValueError.  Every
program the analysis poses cold is of one of the two kinds: its bounds are
N^a with a >= 0 and its storage rows read logS = 0, or its costs are all -1.
A program that is neither is solved at right sides that make it feasible
and warm-started from there.

Warm start: an optimal result carries its final tableau, and `resolve_lp`
solves its program again at other right sides, given one per row.  Every
copy of a tableau shares the program it was built from (the scaled
coefficients, the senses and the signed row scales); only the right sides,
the tableau, the basis and the objective row are its own.  The reduced
costs do not depend on the right sides, so the start's basis stays dual
feasible.  The new right sides go through the signed row scales, times one
positive integer that clears their denominators.  Whatever the pivots since,
each row's slack column holds the tableau's multiple of that row, so the new
right-side column is the sum of the slack columns weighted by the new right
sides (`_weigh_slacks`).

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
row has no negative entry.  Then phase 2, primal simplex from the feasible
basis to the optimum or to "unbounded": a cold start that was primal
feasible does its pivots here, and a dual feasible basis leaves it nothing
to pivot on.  Entering variable: largest reduced-cost improvement.  Leaving
variable: minimum ratio with smallest-basis-index tie-break.  Both phases
switch to Bland's smallest-index rule after STALL_LIMIT degenerate pivots,
so cycling cannot occur.  A solve may take PIVOT_LIMIT pivots, both phases
together; one that needs more raises PivotLimitError with the phase it
stopped in, its pivot count and the program's size, instead of running on
for minutes.

The right-side walk.  `walk_rhs` follows an optimal basis while the right
sides move to b + t*d, from t = 0 up (right-side ranging: Gass & Saaty,
1955).  A copy of the tableau carries d as a second integer right-side
column, built from the slack columns as a warm start builds its right sides,
so each basis gives its exact line, value = intercept + slope*t, off the
objective row's two right-side entries, and row i's basic value moves as
rhs_i + t*dir_i (over the scales).  The basis stays optimal up to the least
ratio rhs_i / -dir_i over the rows with dir_i < 0, an exact cross-multiplied
ratio test; there such a row leaves by a dual simplex pivot, its entering
column chosen by `_entering`, the ratio test the dual phase uses, so every
reduced cost stays nonnegative.  The walk ends where a leaving row has no
negative entry: beyond it the program is infeasible.  Tied leaving rows go by
dual steepest edge (the largest dir_i^2 / |row|^2, priced as in the dual
phase) while the walk is still at t = 0, and by the smallest basis index at
every later breakpoint, which is Bland's rule for the pivots at that t, so a
degenerate breakpoint cannot cycle.  Steepest edge could; the walk keeps the
bases it meets at 0, and should one come round again it takes the smallest
index from there.  The tie rule picks the basis each piece starts from, and
so the certificate each term of a tradeoff gets and the pivots its request
probe takes.  Measured on the tier-1 fixtures' 17 terms and hierarchical's 3
rules: steepest edge at every tie gave proofs of 261 steps against 243 for
smallest index at every tie and for this mix; steepest edge at 0 that yields
to smallest index after STALL_LIMIT degenerate pivots kept 243 steps, but a
request probe of hierarchical rule 1 then took 13 730 dual pivots from its
piece's basis, against 3 with this mix.  A walk may take PIVOT_LIMIT pivots
and raises PivotLimitError naming "the right-side walk".
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul
from typing import Iterable, Sequence

log = logging.getLogger(__name__)

ZERO = Fraction(0)

# pivots without objective progress before falling back to Bland's rule
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
    piece keeps its first basis, so `resolve_lp` can start from it as from an
    optimal result.
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


def resolve_lp(start: LpResult | RhsPiece, rhs: Sequence) -> LpResult:
    """The start's program with right sides `rhs`, one per row, by dual simplex.

    `start` is an optimal result or a piece of a walk; its program (c, the
    coefficients and the senses) is solved again with row i's right side
    rhs[i], continuing from the start's basis.  A start that is not optimal
    or a right side per row too many or too few raises ValueError.
    """
    if start._tableau is None:
        raise ValueError(f"a warm start needs an optimal result, not {start.status!r}")
    rows = len(start._tableau.rscale)
    if len(rhs) != rows:
        raise ValueError(f"the right sides have {len(rhs)} entries for {rows} rows")
    return start._tableau.resolve(rhs)


def walk_rhs(start: LpResult, direction: Sequence) -> list[RhsPiece]:
    """The optimum of `start`'s program as its right sides move along `direction`.

    Row i's right side becomes b_i + t * direction[i] for t >= 0, where b is
    the start's.  The pieces run in order from t = 0 and cover every t at
    which the program is feasible; the last one ends where it turns
    infeasible, or has hi None.  No piece is empty, and two neighbours
    never share a line.  Each piece keeps its first basis, from which
    `resolve_lp` solves the program at other right sides.  See "The
    right-side walk" in the module docstring.
    """
    if start._tableau is None:
        raise ValueError(f"a walk needs an optimal result, not {start.status!r}")
    rows = len(start._tableau.rscale)
    if len(direction) != rows:
        raise ValueError(f"the direction has {len(direction)} entries for {rows} rows")
    return start._tableau.walk(direction)


def _rational(v):
    """v as an exact rational: ints and Fractions as they are, others via Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


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
        tab = self.tab
        prow = tab[r]
        p = prow[col]
        d = self.div
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row.get(col)
            if p == d:  # p*a//d is a, so only the pivot row's columns change
                if f:
                    for j, b in prow.items():
                        v = row.get(j, 0) - f * b // d
                        if v:
                            row[j] = v
                        else:
                            del row[j]
            elif f:
                new = {j: p * a // d for j, a in row.items() if j not in prow}
                for j, b in prow.items():
                    v = (p * row.get(j, 0) - f * b) // d
                    if v:
                        new[j] = v
                tab[i] = new
            else:
                tab[i] = {j: p * a // d for j, a in row.items()}
        f = obj[col]
        if p == d:
            for j, b in prow.items():
                obj[j] -= f * b // d
        else:
            scaled = [p * a for a in obj]
            for j, b in prow.items():
                scaled[j] -= f * b
            obj[:] = [a // d for a in scaled]
        self.div = p
        self.basis[r] = col
        self.pivots += 1

    def _iterate(self, obj: list[int], choose, phase: str) -> str:
        """Pivot on choose(obj, bland) until it returns a status string.

        After STALL_LIMIT pivots in a row that leave the objective value
        where it was, `bland` asks for the smallest-index choice.  A pivot
        past the solve's PIVOT_LIMIT raises PivotLimitError naming `phase`.
        """
        stall = 0
        bland = False
        while True:
            step = choose(obj, bland)
            if isinstance(step, str):
                return step
            self._budget(phase)
            val, d = obj[self.ncols], self.div
            self._pivot(obj, *step)
            if obj[self.ncols] * d == val * self.div:
                stall += 1
                if stall > STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    def _primal_step(self, obj: list[int], bland: bool):
        """Largest improving reduced cost enters; minimum ratio leaves."""
        entering = -1
        best = 0
        for j in range(self.ncols):
            if obj[j] < 0:
                if bland:
                    entering = j
                    break
                if obj[j] < best:
                    best = obj[j]
                    entering = j
        if entering < 0:
            return "optimal"
        leaving = -1
        num = den = 0  # best ratio so far as num/den with den > 0
        for i, row in enumerate(self.tab):
            rd = row.get(entering, 0)
            if rd <= 0:
                continue
            rn = row.get(self.ncols, 0)
            if (
                leaving < 0
                or rn * den < num * rd
                or (rn * den == num * rd and self.basis[i] < self.basis[leaving])
            ):
                num, den = rn, rd
                leaving = i
        if leaving < 0:
            return "unbounded"
        return leaving, entering

    def _dual_step(self, obj: list[int], bland: bool):
        """A row with a negative right side leaves, by `_steepest`.

        Under Bland the smallest basis index leaves instead.  The entering
        column is `_entering`'s.  The leaving row is negated before the
        pivot to make the pivot element positive.
        """
        rhs = self.ncols
        low = [i for i, row in enumerate(self.tab) if row.get(rhs, 0) < 0]
        if not low:
            return "optimal"
        leaving = min(low, key=self.basis.__getitem__) if bland else self._steepest(low, rhs)
        entering = self._entering(obj, self.tab[leaving])
        if entering < 0:
            return "infeasible"
        self._negate(leaving)
        return leaving, entering

    def _steepest(self, rows: list[int], key: int) -> int:
        """Dual steepest edge: of `rows`, the one with the largest entry^2 / |row|^2.

        The entry is the row's under `key`, a right-side column; the norm
        runs over the row's structural and slack columns, so right-side
        columns (keys from ncols on) are left out.  Candidates are compared
        by cross-multiplication, the first row on ties.  A candidate's norm
        is summed at C speed when it is needed: keeping every norm current
        in `_pivot` would redo each row a pivot touches, five times as many
        sums on the benchmark's reach programs.
        """
        other = self.ncols + 1 if key == self.ncols else self.ncols  # the other right side
        best = -1
        top = bottom = 0  # best entry^2 / norm so far as top/bottom
        for i in rows:
            row = self.tab[i]
            vals = row.values()
            v, w = row[key], row.get(other, 0)
            norm = sum(map(mul, vals, vals)) - v * v - w * w
            if best < 0 or v * v * bottom > top * norm:
                top, bottom, best = v * v, norm, i
        return best

    def _entering(self, obj: list[int], row: dict) -> int:
        """The dual ratio test on a leaving row, or -1 when nothing can enter.

        The entering column has a negative entry in the row and the least
        ratio obj[j] / -entry, smallest index on ties, so every reduced cost
        stays nonnegative.  Right-side columns (keys from ncols on) never enter.
        """
        rhs = self.ncols
        entering = -1
        num = den = 0  # best ratio so far as num/den with den > 0
        for j, a in row.items():
            if a >= 0 or j >= rhs:
                continue
            if (
                entering < 0
                or obj[j] * den < num * -a
                or (obj[j] * den == num * -a and j < entering)
            ):
                num, den = obj[j], -a
                entering = j
        return entering

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
        obj = [-v for v in self.cost] + [0] * (rhs + 1 - self.nvars)
        return self._finish(obj, "optimal")

    def _finish(self, obj: list[int], label: str) -> LpResult:
        """The dual phase to primal feasibility, then phase 2 to the optimum."""
        status = self._iterate(obj, self._dual_step, "the dual phase")
        if status == "infeasible":
            return LpResult("infeasible", None, [], [])
        dual = self.pivots
        status = self._iterate(obj, self._primal_step, "phase 2")
        if status == "unbounded":
            return LpResult("unbounded", None, [], [])
        res = self._optimal(obj)
        log.debug("%s: %d rows, %d columns, %d dual + %d primal pivots",
                  label, len(self.tab), self.nvars, dual, self.pivots - dual)
        return res

    def _optimal(self, obj: list[int]) -> LpResult:
        """Read off and check the optimum; keep the tableau for warm starts."""
        den = self.div * self.bscale
        x = [ZERO] * self.nvars
        for i, b in enumerate(self.basis):
            if b < self.nvars:
                x[b] = Fraction(self.tab[i].get(self.ncols, 0), den)
        duals = self._read_duals(obj)
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

    def _weigh_slacks(self, key: int, values: Sequence) -> tuple[list[int], int]:
        """Put the column that `values`, one per row, become under `key`.

        The values go through the signed row scales, times the least
        positive integer that clears their denominators; both are returned.
        Row i's slack column started as e_i, so whatever the pivots since,
        the tableau holds div * (the inverse basis times e_i) there, and the
        slack columns weighted by the scaled values are the column they
        would have become.  Its entry in the objective row is priced by the
        basic costs.
        """
        scaled = {i: _rational(v) * self.rscale[i] for i, v in enumerate(values) if v}
        scale = lcm(*(v.denominator for v in scaled.values()), 1)
        ints = [0] * len(self.rscale)
        for i, v in scaled.items():
            ints[i] = v.numerator * (scale // v.denominator)
        weight = {self.nvars + i: ints[i] for i in scaled}
        obj = self.obj
        obj[key] = 0
        for i, row in enumerate(self.tab):
            v = sum(map(mul, map(row.get, weight, repeat(0)), weight.values()))
            if v:
                row[key] = v
            else:
                row.pop(key, None)
            if self.basis[i] < self.nvars:
                obj[key] += self.cost[self.basis[i]] * v
        return ints, scale

    def resolve(self, rhs: Sequence) -> LpResult:
        """This optimal tableau's program at right sides `rhs`, from its basis.

        The new right sides may come out negative in the start's basis;
        the dual phase of `_finish` deals with that.
        """
        warm = self._fork(list(self.obj))
        warm.b, warm.bscale = warm._weigh_slacks(self.ncols, rhs)
        return warm._finish(warm.obj, "warm optimal")

    # ── the right-side walk ─────────────────────────────────────────────

    def walk(self, direction: Sequence) -> list[RhsPiece]:
        """The pieces of this optimal tableau's program along b + t*direction.

        A copy of the tableau gets the direction as a second right-side
        column, under key ncols + 1 and built by `_weigh_slacks` as `resolve`
        builds the first; `_pivot` keeps it current like any other column.
        """
        walk = self._fork(self.obj + [0])
        _, dscale = walk._weigh_slacks(self.ncols + 1, direction)
        return walk._walk(walk.obj, dscale)

    def _walk(self, obj: list[int], dscale: int) -> list[RhsPiece]:
        """Raise t through every basis change until no column can enter.

        In tableau units u = t * bscale / dscale, row i's basic value is
        (rhs_i + u * dir_i) / div, so a row with dir_i < 0 stays feasible up
        to u = rhs_i / -dir_i and the least such ratio is the next breakpoint.
        Every basis is optimal on its stretch of t, and its line is read off
        the objective row's two right-side entries.  Consecutive bases with
        the same line make one piece, which keeps its first basis.
        """
        rhs, dcol = self.ncols, self.ncols + 1
        t_per_u = Fraction(dscale, self.bscale)
        pieces: list[RhsPiece] = []
        at = ZERO  # the walk's u
        at_zero = 0
        seen: set[tuple[int, ...]] | None = set()  # bases met at 0, None once one repeats
        while True:
            num = den = 0  # least ratio so far as num/den with den > 0
            ties: list[int] = []
            for i, row in enumerate(self.tab):
                dv = row.get(dcol, 0)
                if dv >= 0:
                    continue
                bv = row.get(rhs, 0)
                if not ties or bv * den < num * -dv:
                    num, den, ties = bv, -dv, [i]
                elif bv * den == num * -dv:
                    ties.append(i)
            end = Fraction(num, den) if ties else None
            if end is None or end > at:
                scale = self.div * self.cscale
                line = (
                    Fraction(obj[rhs], scale * self.bscale),
                    Fraction(obj[dcol], scale * dscale),
                )
                hi = None if end is None else end * t_per_u
                if pieces and (pieces[-1].intercept, pieces[-1].slope) == line:
                    pieces[-1].hi = hi
                else:
                    pieces.append(RhsPiece(at * t_per_u, hi, *line, self._snapshot(obj)))
                if end is None:
                    break
                at = end
            if at == 0 and seen is not None:
                basis = tuple(self.basis)
                if basis in seen:  # steepest edge would cycle from here
                    seen = None
                else:
                    seen.add(basis)
            if at == 0 and seen is not None:
                leaving = self._steepest(ties, dcol)
            else:
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
        return pieces

    def _snapshot(self, obj: list[int]) -> _Simplex:
        """This walk's basis without its direction column, for warm starts."""
        dcol = self.ncols + 1
        snap = self._fork(obj[:dcol])
        for row in snap.tab:
            row.pop(dcol, None)
        return snap

    def _read_duals(self, obj: list[int]) -> list[Fraction]:
        """Multipliers for the original rows, via the slack columns.

        The reduced cost at a column whose input vector was e_i equals y_i
        whatever pivots happened since, so row i's slack column yields the
        scaled-system dual; multiplying by the signed row scale converts it
        to a multiplier for the original row.
        """
        den = self.div * self.cscale
        return [
            Fraction(y * s, den) if y else ZERO
            for y, s in zip(obj[self.nvars : self.ncols], self.rscale)
        ]

    def _check(self, x, duals, value):
        """Check the reported optimum exactly, on scaled integers.

        Primal feasibility: the point is scaled by the lcm L of its
        denominators and bscale (div*bscale for a point read off this
        tableau), so each scaled row's L * (lhs - rhs) is an integer whose
        sign, times the row scale's, is the original row's.  The multiplier
        of scaled row i is duals[i] / rscale[i]; it must be Y_i / (div*cscale)
        for an integer Y_i, as every dual read off this tableau is.  Dual
        feasibility then compares sum_i Y_i * a_ij with div * C_j, where
        c_j = C_j / cscale, and strong duality compares sum_i Y_i * b_i over
        div*cscale*bscale with the value by cross-multiplication.
        """
        big = lcm(self.bscale, *(v.denominator for v in x))
        xs = [v.numerator * (big // v.denominator) for v in x]
        rhs_scale = big // self.bscale
        den = self.div * self.cscale
        reduced = [0] * self.nvars
        dual_value = 0
        for i, ((coeffs, sense), b) in enumerate(zip(self.rows_in, self.b)):
            s = self.rscale[i]
            gap = sum(map(mul, coeffs.values(), map(xs.__getitem__, coeffs))) - b * rhs_scale
            if s < 0:
                gap = -gap  # the sign of the original lhs - rhs
            ok = gap <= 0 if sense == "<=" else gap >= 0
            if not ok:
                raise LpError(f"optimal point violates a {sense} row")
            y = duals[i].numerator
            if sense == "<=" and y < 0:
                raise LpError("negative multiplier on a <= row")
            if sense == ">=" and y > 0:
                raise LpError("positive multiplier on a >= row")
            if y:
                y, rest = divmod(y * den, duals[i].denominator * s)
                if rest:
                    raise LpError("multiplier is not on the tableau's denominator")
                for j, a in coeffs.items():
                    reduced[j] += y * a
                dual_value += y * b
        div = self.div
        if any(r < cj * div for r, cj in zip(reduced, self.cost)):
            raise LpError("dual infeasibility detected")
        if dual_value * value.denominator != value.numerator * den * self.bscale:
            raise LpError("strong duality gap; simplex state is corrupt")
