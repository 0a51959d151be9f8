"""The joint entropy program behind a two-phase rule.

For a rule with T-targets {B} and S-targets {B'}, the online cost exponent is

    OBJ(S) = max over polymatroid pairs (h_S, h_T) of  min_B h_T(B)

where h_S ranges over what preprocessing could have stored within the budget
(h_S(B') >= logS for every S-target) and both sides are tied to the data by
degree rows and by split couplings that charge a stored projection plus a
residual traversal to one cardinality.  This module assembles that program
over exact rationals, solves it, and reports one multiplier per row family so
callers can reassemble the certifying inequality and the symbolic cost line.

Row families (multiplier names match their downstream use):

    lam      t <= h_T(B)                     one per T-target
    theta    h_S(B') >= logS                 one per S-target
    mono     h([n]) >= h([n] - i)            elemental, both sides
    sub      h(X+i) + h(X+j) >= h(X+ij) + h(X)   elemental, both sides
    dc       h(y | x) <= bound               declared degree rows, both sides
    ac       h_T(A) <= logQ                  request row, T side only
    gp       h_S(x) + h_T(y | x) <= bound    split coupling
    gm       h_S(y | x) + h_T(x) <= bound    split coupling, mirrored
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exactlp import LpError, LpResult, solve_lp_guided
from .polymatroids import SetFunction, check_polymatroid
from .queries import Cqap, LogBound, LogConstraint, SplitConstraint
from .relalg import VarSet, submasks
from .rules import TwoPhaseRule

log = logging.getLogger(__name__)

ZERO = Fraction(0)
ONE = Fraction(1)
NO_BOUND = LogBound()


@dataclass(frozen=True)
class LpRow:
    """One constraint row: sparse coefficients, sense, symbolic right side.

    `coeffs` are (column, value) pairs, each column once, and go to
    `solve_lp` as they are.  The numeric right side at a probe is
    bound.at(logN, logQ) + s_mult*logS.
    """

    coeffs: tuple[tuple[int, Fraction], ...]
    sense: str
    bound: LogBound
    s_mult: Fraction
    tag: tuple


# ═══════════════════════════════════════════════════════════════════════════
# Row assembly
# ═══════════════════════════════════════════════════════════════════════════


class JointSystem:
    """Column layout and query-level rows, shared by every rule solve.

    Columns: h_S(Z) at Z-1 for nonempty Z, then h_T(Z) at m+Z-1, then the
    maximin variable t at 2m, where m = 2^n - 1.
    """

    def __init__(self, q: Cqap):
        self.q = q
        self.n = q.n
        self.full: VarSet = (1 << q.n) - 1
        self.m = (1 << q.n) - 1
        self.dc: list[LogConstraint] = q.analysis_constraints()
        self.ac: LogConstraint = q.access_constraint()
        self.sc: list[SplitConstraint] = q.split_constraints()
        self._base: list[LpRow] | None = None
        self._caps: dict[tuple, Fraction | None] = {}

    def col(self, side: str, z: VarSet) -> int:
        return z - 1 if side == "S" else self.m + z - 1

    @property
    def col_obj(self) -> int:
        return 2 * self.m

    @property
    def ncols(self) -> int:
        return 2 * self.m + 1

    # -- row families ---------------------------------------------------------

    def _polymatroid_rows(self, side: str) -> list[LpRow]:
        rows = []
        for i in range(self.n):
            rest = self.full & ~(1 << i)
            coeffs = [(self.col(side, self.full), ONE)]
            if rest:
                coeffs.append((self.col(side, rest), -ONE))
            rows.append(LpRow(tuple(coeffs), ">=", NO_BOUND, ZERO, ("mono", side, i)))
        for i, j in combinations(range(self.n), 2):
            pair = (1 << i) | (1 << j)
            for x in submasks(self.full & ~pair):
                acc: dict[int, Fraction] = {}
                for z, w in (
                    (x | (1 << i), ONE),
                    (x | (1 << j), ONE),
                    (x | pair, -ONE),
                    (x, -ONE),
                ):
                    if z:
                        col = self.col(side, z)
                        acc[col] = acc.get(col, ZERO) + w
                coeffs = tuple(sorted(acc.items()))
                rows.append(LpRow(coeffs, ">=", NO_BOUND, ZERO, ("sub", side, i, j, x)))
        return rows

    def _degree_rows(self) -> list[LpRow]:
        rows = []
        for side in ("S", "T"):
            for k, c in enumerate(self.dc):
                coeffs = [(self.col(side, c.y), ONE)]
                if c.x:
                    coeffs.append((self.col(side, c.x), -ONE))
                rows.append(
                    LpRow(tuple(sorted(coeffs)), "<=", c.log, ZERO, ("dc", side, k))
                )
        if self.ac.y:
            rows.append(
                LpRow(((self.col("T", self.ac.y), ONE),), "<=", self.ac.log, ZERO, ("ac",))
            )
        return rows

    def _split_rows(self) -> list[LpRow]:
        rows = []
        for k, c in enumerate(self.sc):
            gp = {self.col("S", c.x): ONE, self.col("T", c.y): ONE}
            gp[self.col("T", c.x)] = gp.get(self.col("T", c.x), ZERO) - ONE
            rows.append(
                LpRow(tuple(sorted(gp.items())), "<=", c.log, ZERO, ("gp", k))
            )
            gm = {self.col("S", c.y): ONE, self.col("T", c.x): ONE}
            gm[self.col("S", c.x)] = gm.get(self.col("S", c.x), ZERO) - ONE
            rows.append(
                LpRow(tuple(sorted(gm.items())), "<=", c.log, ZERO, ("gm", k))
            )
        return rows

    def base_rows(self) -> list[LpRow]:
        if self._base is None:
            self._base = (
                self._polymatroid_rows("S")
                + self._polymatroid_rows("T")
                + self._degree_rows()
                + self._split_rows()
            )
        return self._base

    def rule_rows(self, rule: TwoPhaseRule) -> list[LpRow]:
        rows = []
        for b in sorted(rule.t_targets):
            coeffs = ((self.col("T", b), -ONE), (self.col_obj, ONE))
            rows.append(LpRow(coeffs, "<=", NO_BOUND, ZERO, ("lam", b)))
        for b in sorted(rule.s_targets):
            coeffs = ((self.col("S", b), ONE),)
            rows.append(LpRow(coeffs, ">=", NO_BOUND, ONE, ("theta", b)))
        return rows + self.base_rows()

    # -- one-sided storage cap --------------------------------------------------

    def log_size_bound(
        self, targets: frozenset[VarSet] | set[VarSet],
        *, log_n: Fraction = ONE, log_q: Fraction = ZERO,
    ) -> Fraction | None:
        """max over h_S of min_B h_S(B), under the S side's degree rows.

        This is the largest log-size any strategy could need for the given
        S-targets; once logS reaches it the whole S side fits in the budget.
        The program takes the S side's polymatroid and degree rows as they
        stand, with t in column m; T columns are never used.  Returns None
        when the program is unbounded (no target is tied to the data, which
        well-formed queries never produce).
        """
        side_s = [
            r for r in self.base_rows() if r.tag[0] in ("mono", "sub", "dc") and r.tag[1] == "S"
        ]
        dc = [(r.coeffs, r.sense, r.bound.at(log_n, log_q)) for r in side_s if r.tag[0] == "dc"]
        # the program depends on the probe only through these right sides
        key = (tuple(sorted(targets)), tuple(rhs for _, _, rhs in dc))
        if key in self._caps:
            return self._caps[key]
        tcol = self.m
        rows = [(r.coeffs, r.sense, ZERO) for r in side_s if r.tag[0] != "dc"] + dc
        rows += [(((b - 1, -ONE), (tcol, ONE)), "<=", ZERO) for b in sorted(targets)]
        c_obj = [ZERO] * (tcol + 1)
        c_obj[tcol] = ONE
        res = solve_lp_guided(c_obj, rows)
        cap = res.value if res.status == "optimal" else None
        self._caps[key] = cap
        return cap


# ═══════════════════════════════════════════════════════════════════════════
# Solving
# ═══════════════════════════════════════════════════════════════════════════


@dataclass
class JointDuals:
    """Nonnegative multipliers per row family, in each row's natural sense."""

    lam: dict[VarSet, Fraction]
    theta: dict[VarSet, Fraction]
    mono_s: dict[int, Fraction]
    mono_t: dict[int, Fraction]
    sub_s: dict[tuple[int, int, VarSet], Fraction]
    sub_t: dict[tuple[int, int, VarSet], Fraction]
    dc_s: dict[tuple[VarSet, VarSet], Fraction]
    dc_t: dict[tuple[VarSet, VarSet], Fraction]
    ac: Fraction
    gp: dict[tuple[VarSet, VarSet, VarSet], Fraction]
    gm: dict[tuple[VarSet, VarSet, VarSet], Fraction]


@dataclass
class JointSolution:
    status: str  # "optimal" | "materialize-all" | "unbounded"
    value: Fraction | None = None
    h_s: SetFunction | None = None
    h_t: SetFunction | None = None
    duals: JointDuals | None = None
    # value == line[0]*logN + line[1]*logQ - line[2]*logS at the solved probe,
    # and the right side stays a valid bound at every (logN, logQ, logS)
    line: tuple[Fraction, Fraction, Fraction] | None = None
    s_cap: Fraction | None = None
    # the exact LP result, whose final tableau a later probe may start from
    lp: LpResult | None = field(default=None, repr=False, compare=False)


def solve_joint_lp(
    rule: TwoPhaseRule,
    system: JointSystem,
    log_s,
    *,
    log_n=Fraction(1),
    log_q=Fraction(0),
    at_cap: bool = False,
    start: JointSolution | None = None,
) -> JointSolution:
    """Solve the maximin program for one rule at a numeric probe point.

    `at_cap` solves the program even when the budget covers the whole S side
    (the program is still feasible at exactly the cap); probing there is how
    the last tradeoff piece is pinned down.  `start` is an earlier optimal
    solution for the same rule: the program differs only in its right sides,
    so the solve warm-starts from that solution's final tableau.
    """
    log_s, log_n, log_q = Fraction(log_s), Fraction(log_n), Fraction(log_q)
    if not rule.t_targets:
        return JointSolution("unbounded")
    cap = None
    if rule.s_targets:
        cap = system.log_size_bound(rule.s_targets, log_n=log_n, log_q=log_q)
        if cap is not None and cap <= log_s and not (at_cap and cap == log_s):
            log.debug("budget %s covers the whole S side (cap %s)", log_s, cap)
            return JointSolution("materialize-all", s_cap=cap)
    rows = system.rule_rows(rule)
    c_obj = [ZERO] * system.ncols
    c_obj[system.col_obj] = ONE
    res = solve_lp_guided(
        c_obj,
        [(r.coeffs, r.sense, _rhs(r, log_n, log_q, log_s)) for r in rows],
        start=None if start is None else start.lp,
    )
    if res.status == "unbounded":  # pragma: no cover - T targets bound t
        return JointSolution("unbounded", s_cap=cap)
    if res.status != "optimal":  # pragma: no cover - cap precheck screens this
        raise LpError(
            f"joint program for {rule.pretty()} at (logN, logQ, logS) = "
            f"({log_n}, {log_q}, {log_s}) came back {res.status}"
        )
    sol = _package(rule, system, rows, res, cap)
    log.debug(
        "rule %s at (%s, %s, %s): OBJ=%s", rule.pretty(), log_n, log_q, log_s, sol.value
    )
    return sol


def _rhs(row: LpRow, log_n, log_q, log_s) -> Fraction:
    """The row's numeric right side at a probe; most rows have none."""
    if row.bound is NO_BOUND and not row.s_mult:
        return ZERO
    return row.bound.at(log_n, log_q) + row.s_mult * log_s


def _package(rule, system, rows, res: LpResult, cap) -> JointSolution:
    x, raw, value = res.x, res.duals, res.value
    h_s = SetFunction(system.n, [ZERO] + x[: system.m])
    h_t = SetFunction(system.n, [ZERO] + x[system.m : 2 * system.m])
    for side, h in (("h_S", h_s), ("h_T", h_t)):
        if not check_polymatroid(h):
            raise LpError(
                f"primal solution for {rule.pretty()} is not a polymatroid pair: "
                f"{side} fails"
            )
    d = JointDuals({}, {}, {}, {}, {}, {}, {}, {}, ZERO, {}, {})
    a_part = b_part = c_part = ZERO
    for row, mult in zip(rows, raw):
        if not mult:
            continue
        w = -mult if row.sense == ">=" else mult
        if w < 0:
            raise LpError(
                f"multiplier {mult} on row {row.tag} of {rule.pretty()} has the "
                f"wrong sign for its sense {row.sense!r}"
            )
        if row.bound is not NO_BOUND:
            a_part += mult * row.bound.n
            b_part += mult * row.bound.q
        if row.s_mult:
            c_part -= mult * row.s_mult
        tag = row.tag
        if tag[0] == "lam":
            d.lam[tag[1]] = w
        elif tag[0] == "theta":
            d.theta[tag[1]] = w
        elif tag[0] == "mono":
            (d.mono_s if tag[1] == "S" else d.mono_t)[tag[2]] = w
        elif tag[0] == "sub":
            (d.sub_s if tag[1] == "S" else d.sub_t)[tag[2:]] = w
        elif tag[0] == "dc":
            c = system.dc[tag[2]]
            (d.dc_s if tag[1] == "S" else d.dc_t)[(c.x, c.y)] = w
        elif tag[0] == "ac":
            d.ac = w
        elif tag[0] == "gp":
            c = system.sc[tag[1]]
            d.gp[(c.x, c.y, c.z)] = w
        elif tag[0] == "gm":
            c = system.sc[tag[1]]
            d.gm[(c.x, c.y, c.z)] = w
    lam_sum = sum(d.lam.values())
    if value > 0 and lam_sum != 1:
        raise LpError(f"target multipliers of {rule.pretty()} sum to {lam_sum}, not 1")
    return JointSolution(
        "optimal", value, h_s, h_t, d, (a_part, b_part, c_part), cap, res
    )
