"""Exact linear programming over rationals.

A two-phase simplex used where floating-point drift is unacceptable: optimal
values feed equality assertions and the row multipliers (duals) are turned
into inequality derivations, so both must be exact.

Every solve is a maximization of c*x over variables constrained to be
nonnegative.  Constraints are rows (coefficients, sense, rhs) with senses
"<=", ">=", "==", where the coefficients are sparse (column, value) pairs:
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
over one pass of each of the benchmark's LP workloads, 4.7% of the live
rows' cells were nonzero at a pivot, 20% of the live rows had a nonzero in
the entering column, and 93% of the pivots had p == d, which leaves every
row without such a nonzero as it is.

Entering variable: largest reduced-cost improvement, switching to Bland's
smallest-index rule after a stretch of degenerate pivots so cycling cannot
occur.  Leaving variable: minimum ratio with smallest-basis-index tie-break.
A solve may take PIVOT_LIMIT pivots, all phases together; one that needs
more raises PivotLimitError with the phase it stopped in, its pivot count
and the program's size, instead of running on for minutes.

Each row is scaled so that its right side is nonnegative, flipping its sense
where the scale is negative.  A row that ends up as "<=" starts with its slack
basic; every other row gets an artificial column that phase 1 drives out.  A
">=" row with right side 0 could go either way, so it takes a negative scale:
a*x >= 0 becomes the equivalent -a*x <= 0, whose slack starts basic at value
0, a feasible start with no artificial.  The scale is kept signed, so each
dual is mapped back to the original row and certified against it.  The
elemental submodularity and monotonicity rows of the Shannon programs are
all of this kind, which leaves phase 1 only the data and budget rows.

Warm start: an optimal result carries its final tableau, and `solve_lp` can
start from it to solve the same program (same c, coefficients and senses) at
other right sides.  The reduced costs do not depend on the right sides, so
the start's basis stays dual feasible and no phase 1 is needed.  The new
right sides go through the start's signed row scales, times one positive
integer that clears their denominators.  Whatever the pivots since, each
row's starting unit column holds the tableau's multiple of that row, so the
new right-side column is the sum of those columns weighted by the new right
sides.  Dual simplex pivots (Lemke, 1954) then restore primal feasibility: a
row with a negative right side leaves, negated so that the pivot element is
positive as in `_expel_artificials`, and the entering column keeps every
reduced cost nonnegative.  The leaving row is priced by dual steepest edge
(Forrest & Goldfarb, 1992): of the rows with a negative right side, the one
with the largest rhs^2 / |row|^2, the norm taken over the row's stored
coefficients.  On the benchmark's degenerate programs the most negative
right side picks long, dense rows: reach_tradeoffs took 652 pivots a pass
with it and 568 with steepest edge, and the work inside the pivots (rows
touched times pivot-row length) fell from 321k to 177k.  Artificial columns
never enter, and Bland's rule takes over after STALL_LIMIT degenerate
pivots.  The program is infeasible when a retired row gets a nonzero right
side or a leaving row has no negative entry.  The dual reading and the
exact check are a cold solve's.
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

    `start` is an earlier optimal result of the same program, which may
    differ only in its right sides; the solve then continues from its final
    tableau by dual simplex.  A start from another program raises ValueError.
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
    if sense not in ("<=", ">=", "=="):
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
            # a negative scale flips the sense: a >= row with rhs 0 starts on its slack
            if rhs < 0 or (rhs == 0 and sense == ">="):
                s = -s
            scaled = {j: v.numerator * s // v.denominator for j, v in nonzero}
            self.rows_in.append((scaled, sense, rhs.numerator * s // rhs.denominator))
            self.rscale.append(s)
            self.coeffs_in.append(coeffs)

    # ── tableau construction ────────────────────────────────────────────

    def _build(self):
        m = len(self.rows_in)
        self.slack_col: list[int | None] = [None] * m
        self.slack_sign = [0] * m
        self.art_col: list[int | None] = [None] * m
        ncols = self.nvars
        # the scaled sense flips wherever the row scale is negative
        eff_le: list[bool | None] = []
        for i, (_, sense, _) in enumerate(self.rows_in):
            if sense == "==":
                eff_le.append(None)
            else:
                eff_le.append((sense == "<=") == (self.rscale[i] > 0))
                self.slack_col[i] = ncols
                self.slack_sign[i] = 1 if eff_le[i] else -1
                ncols += 1
        self.first_art = ncols
        for i in range(m):
            if not eff_le[i]:
                self.art_col[i] = ncols
                ncols += 1
        self.ncols = ncols
        self.basis = [-1] * m
        self.tab = []  # sparse rows {column: int}, right side under key ncols
        for i, (coeffs, _, b) in enumerate(self.rows_in):
            row = dict(coeffs)
            if self.slack_col[i] is not None:
                row[self.slack_col[i]] = self.slack_sign[i]
            if self.art_col[i] is not None:
                row[self.art_col[i]] = 1
            if b:
                row[ncols] = b
            self.basis[i] = self.slack_col[i] if eff_le[i] else self.art_col[i]
            self.tab.append(row)
        self.live = [True] * m
        self.div = 1  # real tableau value of any cell is entry / div
        self.pivots = 0

    # ── pivoting ────────────────────────────────────────────────────────

    def _objective_row(self, cost: list[int]) -> list[int]:
        """Reduced costs (z_j - c_j) of integer costs, times div, value cell last.

        Relies on every basic column holding div at its own row, the
        canonical form the pivot rule maintains.
        """
        num = cost + [0] * (self.ncols - len(cost))
        obj = [-self.div * v for v in num] + [0]
        for i, row in enumerate(self.tab):
            if not self.live[i]:
                continue
            if row.get(self.basis[i]) != self.div:
                raise LpError("basis column lost canonical form")
            cb = num[self.basis[i]]
            if cb:
                for j, v in row.items():
                    obj[j] += cb * v
        return obj

    def _pivot(self, obj: list[int], r: int, col: int):
        tab = self.tab
        prow = tab[r]
        p = prow[col]
        d = self.div
        for i, row in enumerate(tab):
            if i == r or not self.live[i]:
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

    def _primal_step(self, obj: list[int], bland: bool, allow_art: bool):
        """Largest improving reduced cost enters; minimum ratio leaves."""
        entering = -1
        best = 0
        for j in range(self.ncols):
            if not allow_art and j >= self.first_art:
                break
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
            if rd <= 0 or not self.live[i]:
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

        The candidates are the live rows with a negative right side,
        compared by cross-multiplication, the smaller row index on ties;
        under Bland the smallest basis index leaves.  A candidate's squared
        norm (right side left out) is summed at C speed when it is needed:
        keeping every norm current in `_pivot` would redo each row a pivot
        touches, five times as many sums on the benchmark's reach programs.

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
            if v >= 0 or not self.live[i]:
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
            if a >= 0 or j >= self.first_art:
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

    # ── the two phases ──────────────────────────────────────────────────

    def solve(self) -> LpResult:
        self._build()
        if self.first_art < self.ncols:
            phase1 = [0] * self.first_art + [-1] * (self.ncols - self.first_art)
            obj = self._objective_row(phase1)
            status = self._iterate(obj, lambda o, b: self._primal_step(o, b, True), "phase 1")
            if status != "optimal":  # pragma: no cover - phase 1 is bounded
                raise LpError("phase 1 terminated abnormally")
            if obj[self.ncols] != 0:
                return LpResult("infeasible", None, [], [])
            self._expel_artificials()
        obj = self._objective_row(self.cost)
        phase1 = self.pivots
        status = self._iterate(obj, lambda o, b: self._primal_step(o, b, False), "phase 2")
        if status == "unbounded":
            return LpResult("unbounded", None, [], [])
        res = self._optimal(obj)
        log.debug("optimal: %d rows, %d columns, %d + %d pivots, %d rows retired",
                  len(self.tab), self.nvars, phase1, self.pivots - phase1, self.live.count(False))
        return res

    def _optimal(self, obj: list[int]) -> LpResult:
        """Read off and check the optimum; keep the tableau for warm starts."""
        den = self.div * self.bscale
        x = [ZERO] * self.nvars
        for i, b in enumerate(self.basis):
            if self.live[i] and b < self.nvars:
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
        warm.live = list(self.live)
        warm.obj = list(self.obj)
        warm.pivots = 0
        return warm

    def resolve(self) -> LpResult:
        """Rebuild the right-side column, then pivot back to feasibility."""
        rhs = self.ncols
        # row i's unit column started as sign * e_i, so the tableau holds
        # div * sign * (the inverse basis times e_i) there
        weight = {}
        for i, (_, _, b) in enumerate(self.rows_in):
            if b:
                col, sign = self._unit(i)
                weight[col] = sign * b
        obj = self.obj
        cost = self.cost
        obj[rhs] = 0
        for i, row in enumerate(self.tab):
            v = sum(map(mul, map(row.get, weight, repeat(0)), weight.values()))
            if v:
                row[rhs] = v
            else:
                row.pop(rhs, None)
            if not self.live[i]:
                if v:  # the rows it combines ask 0 == v
                    return LpResult("infeasible", None, [], [])
            elif self.basis[i] < self.nvars:
                obj[rhs] += cost[self.basis[i]] * v
        status = self._iterate(obj, self._dual_step, "the dual phase")
        if status == "infeasible":
            return LpResult("infeasible", None, [], [])
        dual = self.pivots
        # a primal pass confirms the optimum; the dual ratio test keeps every
        # reduced cost nonnegative, so it finds nothing to pivot on
        status = self._iterate(obj, lambda o, b: self._primal_step(o, b, False), "phase 2")
        if status != "optimal":  # pragma: no cover - a dual feasible basis bounds it
            raise LpError(f"warm start ended {status}")
        res = self._optimal(obj)
        log.debug("warm optimal: %d rows, %d columns, %d dual + %d primal pivots, %d rows retired",
                  len(self.tab), self.nvars, dual, self.pivots - dual, self.live.count(False))
        return res

    def _expel_artificials(self):
        """Pivot basic artificials out, or retire their (redundant) rows.

        An artificial still basic after phase 1 sits at value zero, so its
        row may be negated freely to keep the pivot element positive; with no
        structural pivot available the row is a dependent combination of the
        others and is dropped instead.
        """
        dummy = [0] * (self.ncols + 1)
        for i in range(len(self.tab)):
            if not self.live[i] or self.basis[i] < self.first_art:
                continue
            row = self.tab[i]
            col = min((j for j in row if j < self.first_art), default=None)
            if col is None:
                self.live[i] = False
                log.debug("retiring dependent tableau row %d", i)
                continue
            if row[col] < 0:
                for j, a in row.items():
                    row[j] = -a
            self._pivot(dummy, i, col)

    # ── duals and self-checks ───────────────────────────────────────────

    def _read_duals(self, obj: list[int]) -> list[Fraction]:
        """Multipliers for the original rows, via the unit starting columns.

        The reduced cost at a column whose input vector was ±e_i equals
        ±y_i whatever pivots happened since, so the artificial (or slack)
        column of each row yields the scaled-system dual; multiplying by the
        signed row scale converts it to a multiplier for the original row.
        That holds for every row, retired or not: a retired tableau row
        keeps an artificial basic (reduced cost 0), but not necessarily the
        artificial of the input row at its own index.
        """
        duals = []
        den = self.div * self.cscale
        for i in range(len(self.rows_in)):
            col, sign = self._unit(i)
            y = obj[col]
            duals.append(Fraction(y * sign * self.rscale[i], den) if y else ZERO)
        return duals

    def _unit(self, i: int) -> tuple[int, int]:
        """Row i's starting unit column, and the sign of its entry there."""
        if self.art_col[i] is not None:
            return self.art_col[i], 1
        return self.slack_col[i], self.slack_sign[i]

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
            ok = gap <= 0 if sense == "<=" else gap >= 0 if sense == ">=" else gap == 0
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
