"""Exact linear programming over rationals.

A two-phase simplex used where floating-point drift is unacceptable: optimal
values feed equality assertions and the row multipliers (duals) are turned
into inequality derivations, so both must be exact.

Constraints are rows (coefficients, sense, rhs) with senses "<=", ">=", "==",
over variables constrained to be nonnegative.  The solver returns the optimal
value, a primal point, and one dual multiplier per input row, normalized so
that  value == sum(dual_i * rhs_i)  for both maximization and minimization.
Every optimal solve re-checks primal feasibility, dual feasibility and strong
duality exactly and raises LpError if any fail.

The tableau is kept fraction-free: each row is pre-scaled to integers and
every pivot applies the two-by-two minor update  (p*a - f*b) / d  with the
previous pivot as divisor.  The divisions are exact (tableau entries stay
subdeterminants of the integer input), Python's big integers absorb the
growth, and ratio tests compare cross products, so no Fraction arithmetic
happens in the inner loops.  That is roughly an order of magnitude faster
than a Fraction tableau on the degenerate programs seen here.

Entering variable: largest reduced-cost improvement, switching to Bland's
smallest-index rule after a stretch of degenerate pivots so cycling cannot
occur.  Leaving variable: minimum ratio with smallest-basis-index tie-break.

Each row is scaled so that its right side is nonnegative, flipping its sense
where the scale is negative.  A row that ends up as "<=" starts with its slack
basic; every other row gets an artificial column that phase 1 drives out.  A
">=" row with right side 0 could go either way, so it takes a negative scale:
a*x >= 0 becomes the equivalent -a*x <= 0, whose slack starts basic at value
0, a feasible start with no artificial.  The scale is kept signed, so each
dual is mapped back to the original row and certified against it.  The
elemental submodularity and monotonicity rows of the Shannon programs are
all of this kind, which leaves phase 1 only the data and budget rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

log = logging.getLogger(__name__)

ZERO = Fraction(0)
ONE = Fraction(1)

# pivots without objective progress before falling back to Bland's rule
STALL_LIMIT = 30


class LpError(RuntimeError):
    """The solver reached an inconsistent state (a bug, not bad input)."""


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    x: list[Fraction]
    duals: list[Fraction]


Row = tuple[Sequence, str, object]  # (coefficients, sense, rhs)


def solve_lp_guided(c: Sequence, rows: Sequence[Row], maximize: bool = True) -> LpResult:
    """solve_lp under the name `shannon` calls (and perfbench traces)."""
    return solve_lp(c, rows, maximize)


def solve_lp(c: Sequence, rows: Sequence[Row], maximize: bool = True) -> LpResult:
    """Optimize c*x over x >= 0 subject to the given rows."""
    c = [Fraction(v) for v in c]
    if not maximize:
        flipped = solve_lp([-v for v in c], rows, maximize=True)
        if flipped.status != "optimal":
            return flipped
        return LpResult(
            "optimal", -flipped.value, flipped.x, [-d for d in flipped.duals]
        )
    return _Simplex(c, rows).solve()


class _Simplex:
    def __init__(self, c: list[Fraction], rows: Sequence[Row]):
        self.nvars = len(c)
        self.c = c
        self.cscale = lcm(*(v.denominator for v in c), 1)
        self.rows_in = []
        self.rscale = []  # signed: scaled row i == rscale[i] * original row i
        for coeffs, sense, rhs in rows:
            coeffs = [Fraction(v) for v in coeffs]
            if len(coeffs) != self.nvars:
                raise ValueError("constraint width does not match objective")
            if sense not in ("<=", ">=", "=="):
                raise ValueError(f"unknown sense {sense!r}")
            rhs = Fraction(rhs)
            s = lcm(*(v.denominator for v in coeffs), rhs.denominator)
            # a negative scale flips the sense: a >= row with rhs 0 starts on its slack
            if rhs < 0 or (rhs == 0 and sense == ">="):
                s = -s
            self.rows_in.append((coeffs, sense, rhs))
            self.rscale.append(s)

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
        body = []
        rhs = []
        self.basis = [-1] * m
        art_rows = []
        for i, (coeffs, sense, b) in enumerate(self.rows_in):
            s = self.rscale[i]
            row = [int(v * s) for v in coeffs] + [0] * (ncols - self.nvars)
            if self.slack_col[i] is not None:
                row[self.slack_col[i]] = self.slack_sign[i]
            body.append(row)
            rhs.append(int(b * s))
            if eff_le[i]:
                self.basis[i] = self.slack_col[i]
            else:
                art_rows.append(i)
        self.first_art = ncols
        for i in art_rows:
            self.art_col[i] = ncols
            self.basis[i] = ncols
            for j, row in enumerate(body):
                row.append(1 if j == i else 0)
            ncols += 1
        self.ncols = ncols
        self.tab = [row + [rhs[i]] for i, row in enumerate(body)]
        self.live = [True] * m
        self.div = 1  # real tableau value of any cell is entry / div

    # ── pivoting ────────────────────────────────────────────────────────

    def _objective_row(self, cost: list, scale: int) -> list[int]:
        """Reduced costs (z_j - c_j) scaled by div*scale, value cell last.

        Relies on every basic column holding div at its own row, the
        canonical form the pivot rule maintains.
        """
        num = [int(v * scale) for v in cost] + [0] * (self.ncols - len(cost))
        obj = [-self.div * v for v in num] + [0]
        for i, row in enumerate(self.tab):
            if not self.live[i]:
                continue
            if row[self.basis[i]] != self.div:
                raise LpError("basis column lost canonical form")
            cb = num[self.basis[i]]
            if cb:
                for j in range(self.ncols + 1):
                    if row[j]:
                        obj[j] += cb * row[j]
        return obj

    def _pivot(self, obj: list[int], r: int, col: int):
        tab = self.tab
        prow = tab[r]
        p = prow[col]
        d = self.div
        width = self.ncols + 1
        for i, row in enumerate(tab):
            if i == r or not self.live[i]:
                continue
            f = row[col]
            if f:
                for j in range(width):
                    row[j] = (p * row[j] - f * prow[j]) // d
            elif p != d:
                for j in range(width):
                    if row[j]:
                        row[j] = p * row[j] // d
        f = obj[col]
        if f:
            for j in range(width):
                obj[j] = (p * obj[j] - f * prow[j]) // d
        elif p != d:
            for j in range(width):
                if obj[j]:
                    obj[j] = p * obj[j] // d
        self.div = p
        self.basis[r] = col

    def _iterate(self, obj: list[int], allow_art: bool) -> str:
        stall = 0
        bland = False
        while True:
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
                if not self.live[i] or row[entering] <= 0:
                    continue
                rn, rd = row[self.ncols], row[entering]
                if (
                    leaving < 0
                    or rn * den < num * rd
                    or (rn * den == num * rd and self.basis[i] < self.basis[leaving])
                ):
                    num, den = rn, rd
                    leaving = i
            if leaving < 0:
                return "unbounded"
            val, d = obj[self.ncols], self.div
            self._pivot(obj, leaving, entering)
            if obj[self.ncols] * d == val * self.div:
                stall += 1
                if stall > STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    # ── the two phases ──────────────────────────────────────────────────

    def solve(self) -> LpResult:
        self._build()
        if self.first_art < self.ncols:
            phase1 = [ZERO] * self.first_art + [-ONE] * (
                self.ncols - self.first_art
            )
            obj = self._objective_row(phase1, 1)
            status = self._iterate(obj, allow_art=True)
            if status != "optimal":  # pragma: no cover - phase 1 is bounded
                raise LpError("phase 1 terminated abnormally")
            if obj[self.ncols] != 0:
                return LpResult("infeasible", None, [], [])
            self._expel_artificials()
        obj = self._objective_row(self.c, self.cscale)
        status = self._iterate(obj, allow_art=False)
        if status == "unbounded":
            return LpResult("unbounded", None, [], [])
        x = [ZERO] * self.nvars
        for i, b in enumerate(self.basis):
            if self.live[i] and b < self.nvars:
                x[b] = Fraction(self.tab[i][self.ncols], self.div)
        duals = self._read_duals(obj)
        value = Fraction(obj[self.ncols], self.div * self.cscale)
        self._check(x, duals, value)
        return LpResult("optimal", value, x, duals)

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
            col = next((j for j in range(self.first_art) if row[j]), None)
            if col is None:
                self.live[i] = False
                log.debug("retiring dependent tableau row %d", i)
                continue
            if row[col] < 0:
                for j in range(self.ncols + 1):
                    row[j] = -row[j]
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
            if self.art_col[i] is not None:
                duals.append(Fraction(obj[self.art_col[i]] * self.rscale[i], den))
            else:
                v = obj[self.slack_col[i]] * self.slack_sign[i]
                duals.append(Fraction(v * self.rscale[i], den))
        return duals

    def _check(self, x, duals, value):
        for coeffs, sense, b in self.rows_in:
            lhs = sum(a * v for a, v in zip(coeffs, x) if a)
            ok = (
                lhs <= b
                if sense == "<="
                else lhs >= b if sense == ">=" else lhs == b
            )
            if not ok:
                raise LpError(f"optimal point violates a {sense} row")
        for i, (_, sense, _) in enumerate(self.rows_in):
            if sense == "<=" and duals[i] < 0:
                raise LpError("negative multiplier on a <= row")
            if sense == ">=" and duals[i] > 0:
                raise LpError("positive multiplier on a >= row")
        for j in range(self.nvars):
            reduced = sum(
                duals[i] * coeffs[j]
                for i, (coeffs, _, _) in enumerate(self.rows_in)
                if coeffs[j]
            )
            if reduced < self.c[j]:
                raise LpError("dual infeasibility detected")
        dual_value = sum(
            duals[i] * rhs for i, (_, _, rhs) in enumerate(self.rows_in) if duals[i]
        )
        if dual_value != value:
            raise LpError("strong duality gap; simplex state is corrupt")
