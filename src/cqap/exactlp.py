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

Warm start: an optimal result carries its final tableau, and `solve_lp` can
start from it to solve the same program (same c, coefficients and senses) at
other right sides.  The reduced costs do not depend on the right sides, so
the start's basis stays dual feasible.  The new right sides go through the
start's signed row scales, times one positive integer that clears their
denominators.  Whatever the pivots since, each row's slack column holds the
tableau's multiple of that row, so the new right-side column is the sum of
the slack columns weighted by the new right sides.

Cold and warm solves share one finish.  First the dual phase: dual simplex
pivots (Lemke, 1954) restore primal feasibility.  A row with a negative
right side leaves, negated so that the pivot element is positive, and the
entering column keeps every reduced cost nonnegative.  The leaving row is
priced by dual steepest edge (Forrest & Goldfarb, 1992): of the rows with a
negative right side, the one with the largest rhs^2 / |row|^2, the norm
taken over the row's stored coefficients.  On the benchmark's degenerate
programs the most negative right side picks long, dense rows:
reach_tradeoffs took 652 pivots a pass with it and 568 with steepest edge,
and the work inside the pivots (rows touched times pivot-row length) fell
from 321k to 177k.  The program is infeasible when a leaving row has no
negative entry.  Then phase 2, primal simplex from the feasible basis to the
optimum or to "unbounded": a cold start that was primal feasible does its
pivots here, and a dual feasible basis leaves it nothing to pivot on.
Entering variable: largest reduced-cost improvement.  Leaving variable:
minimum ratio with smallest-basis-index tie-break.  Both phases switch to
Bland's smallest-index rule after STALL_LIMIT degenerate pivots, so cycling
cannot occur.  A solve may take PIVOT_LIMIT pivots, both phases together;
one that needs more raises PivotLimitError with the phase it stopped in, its
pivot count and the program's size, instead of running on for minutes.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
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
    # the final tableau of an optimal solve, for a warm start of the same program
    _tableau: _Simplex | None = field(default=None, repr=False, compare=False)


Row = tuple[Iterable[tuple[int, object]], str, object]  # ((column, value) pairs, sense, rhs)


def solve_lp_guided(
    c: Sequence, rows: Sequence[Row], start: LpResult | None = None
) -> LpResult:
    """solve_lp under the name `shannon` calls (and perfbench traces)."""
    return solve_lp(c, rows, start=start)


def solve_lp(
    c: Sequence, rows: Sequence[Row], start: LpResult | None = None
) -> LpResult:
    """Maximize c*x over x >= 0 subject to the given sparse rows.

    Without `start` the solve begins at the slack basis, which must be
    primal or dual feasible (see the module docstring); a program that is
    neither raises ValueError.  `start` is an earlier optimal result of the
    same program, which may differ only in its right sides; the solve then
    continues from its final tableau by dual simplex.  A start from another
    program raises ValueError.
    """
    c = [_rational(v) for v in c]
    if start is None:
        return _Simplex(c, rows).solve()
    if start._tableau is None:
        raise ValueError(f"a warm start needs an optimal result, not {start.status!r}")
    return start._tableau.restart(c, rows).resolve()


def _rational(v):
    """v as an exact rational: ints and Fractions as they are, others via Fraction."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _check_sense(sense: str):
    if sense not in ("<=", ">="):
        raise ValueError(f"unknown sense {sense!r}")


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
        """The slack basis of the program: scaled rows, slack i basic in row i."""
        self.nvars = len(c)
        self.c = c
        self.cscale = lcm(*(v.denominator for v in c), 1)
        self.cost = [v.numerator * (self.cscale // v.denominator) for v in c]
        # the right sides in rows_in and the right-side column are bscale
        # times the scaled rows' right sides
        self.bscale = 1
        self.rows_in = []  # (scaled nonzero coefficients {column: int}, sense, scaled rhs)
        self.rscale = []  # signed: scaled row i == rscale[i] * original row i
        self.coeffs_in = []  # each row's (column, value) pairs as given
        for i, (coeffs, sense, rhs) in enumerate(rows):
            _check_sense(sense)
            coeffs = tuple(coeffs)
            nonzero = _parse_coeffs(i, coeffs, self.nvars)
            rhs = _rational(rhs)
            s = lcm(*(v.denominator for _, v in nonzero), rhs.denominator)
            if sense == ">=":
                s = -s  # every scaled row reads <=
            scaled = {j: v.numerator * s // v.denominator for j, v in nonzero}
            self.rows_in.append((scaled, sense, rhs.numerator * s // rhs.denominator))
            self.rscale.append(s)
            self.coeffs_in.append(coeffs)
        self.ncols = self.nvars + len(self.rows_in)
        self.basis = list(range(self.nvars, self.ncols))
        self.tab = []  # sparse rows {column: int}, right side under key ncols
        for (coeffs, _, b), slack in zip(self.rows_in, self.basis):
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
            if self.pivots >= PIVOT_LIMIT:
                raise PivotLimitError(
                    f"exact simplex passed its budget of {PIVOT_LIMIT} pivots in {phase}: "
                    f"{self.pivots} pivots on {len(self.tab)} rows x {self.nvars} columns"
                )
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
        """Dual steepest edge: the leaving row has the largest rhs^2 / |row|^2.

        The candidates are the rows with a negative right side, compared by
        cross-multiplication, the smaller row index on ties; under Bland the
        smallest basis index leaves.  A candidate's squared norm (right side
        left out) is summed at C speed when it is needed: keeping every norm
        current in `_pivot` would redo each row a pivot touches, five times
        as many sums on the benchmark's reach programs.

        The entering column has a negative entry in the leaving row and the
        least ratio obj[j] / -entry, smallest index on ties, so every reduced
        cost stays nonnegative.  The leaving row is negated before the pivot
        to make the pivot element positive.
        """
        rhs = self.ncols
        leaving = -1
        top = bottom = 0  # best rhs^2 / norm so far as top/bottom
        for i, row in enumerate(self.tab):
            v = row.get(rhs, 0)
            if v >= 0:
                continue
            if bland:
                if leaving < 0 or self.basis[i] < self.basis[leaving]:
                    leaving = i
                continue
            vals = row.values()
            norm = sum(map(mul, vals, vals)) - v * v
            if leaving < 0 or v * v * bottom > top * norm:
                top, bottom, leaving = v * v, norm, i
        if leaving < 0:
            return "optimal"
        row = self.tab[leaving]
        entering = -1
        num = den = 0  # best ratio so far as num/den with den > 0
        for j, a in row.items():
            if a >= 0 or j == rhs:
                continue
            if (
                entering < 0
                or obj[j] * den < num * -a
                or (obj[j] * den == num * -a and j < entering)
            ):
                num, den = obj[j], -a
                entering = j
        if entering < 0:
            return "infeasible"
        self.tab[leaving] = {j: -a for j, a in row.items()}
        return leaving, entering

    # ── solving ─────────────────────────────────────────────────────────

    def solve(self) -> LpResult:
        """Solve from the slack basis, which must be primal or dual feasible."""
        rhs = self.ncols
        low = next((i for i, row in enumerate(self.tab) if row.get(rhs, 0) < 0), None)
        if low is not None:
            pos = next((j for j, v in enumerate(self.cost) if v > 0), None)
            if pos is not None:
                _, sense, b = self.rows_in[low]
                raise ValueError(
                    "a cold solve needs a primal feasible slack basis (every right side "
                    "on the feasible side of its row) or a dual feasible one (every cost "
                    f"<= 0): row {low} has {sense} {Fraction(b, self.rscale[low])} "
                    f"and c[{pos}] = {self.c[pos]}"
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

    def restart(self, c: list[Fraction], rows: Sequence[Row]) -> _Simplex:
        """A copy of this optimal tableau for the same program at new right sides.

        The program is the same when c, every sense and every row's
        coefficients match the ones this tableau was built from.  Each row's
        (column, value) pairs are compared as given first, which is an
        identity hit when the caller passes the same tuples again; only a row
        whose pairs differ is parsed and scaled, to compare its nonzeros and
        name the column that differs.  The new right sides go through the
        rows' signed scales, times one positive integer bscale that clears
        their denominators, so they may come out negative; `resolve` deals
        with that.
        """
        if c != self.c:
            raise ValueError("the start solved another program: c differs")
        if len(rows) != len(self.rows_in):
            raise ValueError(
                f"the start solved another program: {len(self.rows_in)} rows, not {len(rows)}"
            )
        scaled_rhs = []  # each scaled right side as a reduced (numerator, denominator)
        for i, (coeffs, sense, rhs) in enumerate(rows):
            _check_sense(sense)
            scaled, sense0, _ = self.rows_in[i]
            if sense != sense0:
                raise ValueError(
                    f"the start solved another program: row {i} has sense {sense0!r}, not {sense!r}"
                )
            s = self.rscale[i]
            coeffs = tuple(coeffs)
            if coeffs != self.coeffs_in[i]:
                new = {j: v * s for j, v in _parse_coeffs(i, coeffs, self.nvars)}
                if new != scaled:
                    j = min(j for j in new.keys() | scaled.keys() if new.get(j) != scaled.get(j))
                    raise ValueError(
                        f"the start solved another program: row {i}, column {j} coefficient differs"
                    )
            rhs = _rational(rhs)
            num, den = rhs.numerator * s, rhs.denominator
            g = gcd(num, den)
            scaled_rhs.append((num // g, den // g))
        warm = copy.copy(self)
        warm.bscale = lcm(*(den for _, den in scaled_rhs), 1)
        warm.rows_in = [
            (scaled, sense, num * (warm.bscale // den))
            for (scaled, sense, _), (num, den) in zip(self.rows_in, scaled_rhs)
        ]
        warm.tab = [dict(row) for row in self.tab]
        warm.basis = list(self.basis)
        warm.obj = list(self.obj)
        warm.pivots = 0
        return warm

    def resolve(self) -> LpResult:
        """Rebuild the right-side column, then finish as a cold solve does."""
        rhs = self.ncols
        # row i's slack column started as e_i, so the tableau holds
        # div * (the inverse basis times e_i) there
        weight = {self.nvars + i: b for i, (_, _, b) in enumerate(self.rows_in) if b}
        obj = self.obj
        cost = self.cost
        obj[rhs] = 0
        for i, row in enumerate(self.tab):
            v = sum(map(mul, map(row.get, weight, repeat(0)), weight.values()))
            if v:
                row[rhs] = v
            else:
                row.pop(rhs, None)
            if self.basis[i] < self.nvars:
                obj[rhs] += cost[self.basis[i]] * v
        return self._finish(obj, "warm optimal")

    # ── duals and self-checks ───────────────────────────────────────────

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
        for i, (coeffs, sense, b) in enumerate(self.rows_in):
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
