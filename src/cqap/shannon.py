"""The joint entropy program behind a two-phase rule.

For a rule with T-targets {B} and S-targets {B'}, the online cost exponent is

    OBJ(S) = max over polymatroid pairs (h_S, h_T) of  min_B h_T(B)

where h_S ranges over what preprocessing could have stored within the budget
(h_S(B') >= logS for every S-target) and both sides are tied to the data by
degree rows and by split couplings that charge a stored projection plus a
residual traversal to one cardinality.  This module assembles that program
over exact rationals and solves it.  Each row names the certificate
coordinates its multiplier is added to, so one pass over the optimal dual
prices the cost line and builds the certifying inequality

    <g_S, h_S> + <g_T, h_T> >= <theta, h_S> + <lam, h_T>

together with the submodularity (sigma) and monotonicity (mu) multipliers a
stepwise proof of each side spends.

Row families and their certificate coordinates (g, sigma and mu take the
row's side, as g_s or g_t; X+i is X with variable i added):

    lam    t <= h_T(B)                        lam (0, B)        per T-target
    theta  h_S(B') >= logS                    theta (0, B')     per S-target
    mono   h([n]) >= h([n] - i)               mu ([n]-i, [n])   elemental, both sides
    sub    h(X+i) + h(X+j) >= h(X+ij) + h(X)  sigma (X+i, X+j)  elemental, both sides
    dc     h(y | x) <= bound                  g (x, y)          degree, both sides
    ac     h_T(A) <= logQ                     g_t (0, A)        request, T side only
    gp     h_S(x) + h_T(y | x) <= bound       g_s (0, x) and g_t (x, y)
    gm     h_S(y | x) + h_T(x) <= bound       g_s (x, y) and g_t (0, x)

The data rows (dc, ac, gp, gm) are built from their terms h_side(y | x), so a
row's coefficients and its certificate coordinates come from the same terms.

The analysis runs at logN = 1.  `solve_joint_lp` solves the rule's program
at one point, without probing or retrying, and returns the optimum or raises
`LpError`; `walk_joint_lp` follows its optimum from logS = 0 up to the
storage cap, one basis at a time.  `tradeoffs.rule_tradeoff` owns the
budget range [0, cap].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exactlp import LpError, LpResult, RhsPiece, resolve_lp, solve_lp_guided, walk_rhs
from .polymatroids import CondVec, JointInequality, SetFunction
from .proofs import normalize
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
    a cold `solve_lp` as they are.  The numeric right side at a probe is
    bound.at(1, logQ) + s_mult*logS.  `cert` holds the (part, key)
    certificate coordinates the row's nonnegative multiplier is added to.
    """

    coeffs: tuple[tuple[int, Fraction], ...]
    sense: str
    bound: LogBound
    s_mult: Fraction
    tag: tuple
    cert: tuple[tuple[str, tuple[VarSet, VarSet]], ...]


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
        mu, sigma = f"mu_{side.lower()}", f"sigma_{side.lower()}"
        for i in range(self.n):
            rest = self.full & ~(1 << i)
            coeffs = [(self.col(side, self.full), ONE)]
            if rest:
                coeffs.append((self.col(side, rest), -ONE))
            cert = ((mu, (rest, self.full)),)
            rows.append(
                LpRow(tuple(coeffs), ">=", NO_BOUND, ZERO, ("mono", side, i), cert)
            )
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
                cert = ((sigma, (x | (1 << i), x | (1 << j))),)
                rows.append(
                    LpRow(coeffs, ">=", NO_BOUND, ZERO, ("sub", side, i, j, x), cert)
                )
        return rows

    def _data_row(self, terms, bound: LogBound, tag: tuple) -> LpRow:
        """The row  sum of h_side(y | x) <= bound  over (side, x, y) `terms`.

        Each term is also the row's certificate coordinate (x, y) on g_side.
        """
        acc: dict[int, Fraction] = {}
        for side, x, y in terms:
            for z, w in ((y, ONE), (x, -ONE)):
                if z:
                    col = self.col(side, z)
                    acc[col] = acc.get(col, ZERO) + w
        cert = tuple((f"g_{side.lower()}", (x, y)) for side, x, y in terms)
        return LpRow(tuple(sorted(acc.items())), "<=", bound, ZERO, tag, cert)

    def _degree_rows(self) -> list[LpRow]:
        rows = [
            self._data_row([(side, c.x, c.y)], c.log, ("dc", side, k))
            for side in ("S", "T")
            for k, c in enumerate(self.dc)
        ]
        if self.ac.y:
            rows.append(self._data_row([("T", self.ac.x, self.ac.y)], self.ac.log, ("ac",)))
        return rows

    def _split_rows(self) -> list[LpRow]:
        rows = []
        for k, c in enumerate(self.sc):
            rows.append(self._data_row([("S", 0, c.x), ("T", c.x, c.y)], c.log, ("gp", k)))
            rows.append(self._data_row([("S", c.x, c.y), ("T", 0, c.x)], c.log, ("gm", k)))
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
            cert = (("lam", (0, b)),)
            rows.append(LpRow(coeffs, "<=", NO_BOUND, ZERO, ("lam", b), cert))
        for b in sorted(rule.s_targets):
            coeffs = ((self.col("S", b), ONE),)
            cert = (("theta", (0, b)),)
            rows.append(LpRow(coeffs, ">=", NO_BOUND, ONE, ("theta", b), cert))
        return rows + self.base_rows()

    # -- one-sided storage cap --------------------------------------------------

    def log_size_bound(self, targets: frozenset[VarSet] | set[VarSet]) -> Fraction | None:
        """max over h_S of min_B h_S(B), under the S side's degree rows.

        This is the largest log-size any strategy could need for the given
        S-targets; above it the joint program is infeasible.  The program
        takes the S side's polymatroid and degree rows at logN = 1, with t in
        column m; no S-side row reads logQ, so the bound is cached per target
        set.  It is solved as its dual, min b*y over y >= 0 with one row
        per column of the program: every bound is N^a with a >= 0, so every
        cost -b_i of the dual's maximization is <= 0 and its slack basis is
        dual feasible.  An infeasible dual means an unbounded program, and
        the bound is None (no target is tied to the data, which well-formed
        queries never produce).
        """
        key = tuple(sorted(targets))
        if key in self._caps:
            return self._caps[key]
        tcol = self.m
        rows = [
            (r.coeffs, r.sense, _rhs(r, ZERO, ZERO))
            for r in self.base_rows()
            if r.tag[0] in ("mono", "sub", "dc") and r.tag[1] == "S"
        ]
        rows += [(((b - 1, -ONE), (tcol, ONE)), "<=", ZERO) for b in key]
        # row i, read as a <= row, is dual column i; program column j is dual row j
        cost = []
        dual_rows: list[list] = [[] for _ in range(tcol + 1)]
        for i, (coeffs, sense, rhs) in enumerate(rows):
            sign = ONE if sense == "<=" else -ONE
            cost.append(-sign * rhs)
            for j, v in coeffs:
                dual_rows[j].append((i, sign * v))
        res = solve_lp_guided(
            cost, [(pairs, ">=", ONE if j == tcol else ZERO) for j, pairs in enumerate(dual_rows)]
        )
        if res.status == "unbounded":  # pragma: no cover - the zero point is feasible
            raise LpError(f"storage-cap program of targets {key} came back infeasible")
        cap = -res.value if res.status == "optimal" else None
        self._caps[key] = cap
        return cap


# ═══════════════════════════════════════════════════════════════════════════
# Solving
# ═══════════════════════════════════════════════════════════════════════════


@dataclass
class ExtractedInequality:
    """A joint inequality <g_S, hS> + <g_T, hT> >= <theta, hS> + <lam, hT>.

    `bound` prices the left side against the declared rows, so the inequality
    certifies  <theta, hS> + <lam, hT> <= bound  on every instance.  When the
    coefficients came from an optimal dual, sigma/mu carry the polymatroid
    row multipliers (the witness `proofs.construct` spends to build a
    stepwise proof).  Closed-form constructions leave them as None, and
    `proofs.construct` then solves for a witness itself.
    """

    g_s: CondVec
    g_t: CondVec
    theta: CondVec
    lam: CondVec
    bound: LogBound
    sigma_s: CondVec | None = None
    mu_s: CondVec | None = None
    sigma_t: CondVec | None = None
    mu_t: CondVec | None = None

    @property
    def ineq(self) -> JointInequality:
        return JointInequality(self.g_s, self.g_t, self.theta, self.lam)

    @property
    def space_weight(self) -> Fraction:
        return sum(self.theta.values(), ZERO)

    def scaled_s_side(self):
        """The storage-side inequality divided by its target weight."""
        return normalize(self.g_s, self.theta, self.sigma_s, self.mu_s)


CERT_PARTS = ("g_s", "g_t", "theta", "lam", "sigma_s", "sigma_t", "mu_s", "mu_t")


@dataclass
class JointSolution:
    value: Fraction
    h_s: SetFunction
    h_t: SetFunction
    # the certifying inequality read off the optimal dual; its bound is
    # (line[0], line[1])
    certificate: ExtractedInequality
    # value == line[0] + line[1]*logQ - line[2]*logS at the solved probe, and
    # the right side stays a valid bound at every (logQ, logS)
    line: tuple[Fraction, Fraction, Fraction]
    # the exact LP result, whose final tableau a later probe may start from
    lp: LpResult = field(repr=False, compare=False)


def solve_joint_lp(
    rule: TwoPhaseRule,
    system: JointSystem,
    log_s,
    *,
    log_q=ZERO,
    start: JointSolution | RhsPiece | None = None,
) -> JointSolution:
    """Solve the rule's maximin program at (logN, logQ, logS) = (1, q, s).

    One plain solve: any outcome but optimal raises `LpError` naming the
    rule, the point and the status, which is infeasible above the storage
    cap and unbounded without T-targets; `tradeoffs.rule_tradeoff` owns the
    budget range.  `start` is an earlier optimal solution of the same rule
    or a piece of its walk: the program is the same and only its right sides
    differ, so `resolve_lp` gets those alone, one per row, and warm-starts
    from that basis.  Without `start` the solve begins at the slack basis,
    where a theta row h_S(B') >= logS with logS > 0 is violated, so a call
    at logS != 0 first solves at logS = 0 (same logQ) and warm-starts from
    that solve.
    """
    log_s, log_q = Fraction(log_s), Fraction(log_q)
    rows = system.rule_rows(rule)
    warm = start.lp if isinstance(start, JointSolution) else start
    if warm is None:
        c_obj = [ZERO] * system.ncols
        c_obj[system.col_obj] = ONE
        res = solve_lp_guided(c_obj, [(r.coeffs, r.sense, _rhs(r, log_q, ZERO)) for r in rows])
        warm = res if log_s and res.status == "optimal" else None
    if warm is not None:
        res = resolve_lp(warm, [_rhs(r, log_q, log_s) for r in rows])
    if res.status != "optimal":
        raise LpError(
            f"joint program for {rule.pretty()} at (logN, logQ, logS) = "
            f"(1, {log_q}, {log_s}) came back {res.status}"
        )
    sol = _package(rule, system, rows, res)
    log.debug("rule %s at (1, %s, %s): OBJ=%s", rule.pretty(), log_q, log_s, sol.value)
    return sol


def walk_joint_lp(rule: TwoPhaseRule, system: JointSystem, low: JointSolution) -> list[RhsPiece]:
    """The rule's value function from logS = 0 up to where it turns infeasible.

    `low` is the rule's optimal solution at logS = 0 (any logQ); the walk
    raises logS from its basis along the theta rows' right sides.  Piece k
    reads OBJ = intercept + slope*logS for lo <= logS <= hi, and can start a
    `solve_joint_lp` of the same rule.
    """
    return walk_rhs(low.lp, [r.s_mult for r in system.rule_rows(rule)])


def _rhs(row: LpRow, log_q, log_s) -> Fraction:
    """The row's numeric right side at logN = 1; most rows have none."""
    if row.bound is NO_BOUND and not row.s_mult:
        return ZERO
    return row.bound.at(ONE, log_q) + row.s_mult * log_s


def _package(rule, system, rows, res: LpResult) -> JointSolution:
    x, raw, value = res.x, res.duals, res.value
    h_s = SetFunction(system.n, [ZERO] + x[: system.m])
    h_t = SetFunction(system.n, [ZERO] + x[system.m : 2 * system.m])
    # both are polymatroids: the exact LP checked the point against every
    # row, and each side's mono and sub rows are its elemental inequalities
    vecs: dict[str, CondVec] = {part: {} for part in CERT_PARTS}
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
        for part, key in row.cert:
            vec = vecs[part]
            vec[key] = vec[key] + w if key in vec else w
    lam_sum = sum(vecs["lam"].values())
    if value > 0 and lam_sum != 1:
        raise LpError(f"target multipliers of {rule.pretty()} sum to {lam_sum}, not 1")
    cert = ExtractedInequality(bound=LogBound(a_part, b_part), **vecs)
    return JointSolution(value, h_s, h_t, cert, (a_part, b_part, c_part), res)
