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
storage cap, one basis at a time; `JointSystem.log_size_bound` prices its
last row into the cap.  `tradeoffs.rule_tradeoff` owns the range [0, cap].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exactlp import LpError, LpResult, RhsPiece, resolve_lp, solve_lp_guided, walk_rhs
from .proofs import CondVec, normalize
from .queries import Cqap, LogBound, LogConstraint, QueryError, span_split_constraints
from .relalg import VarSet, submasks, subset, vs_str
from .rules import TwoPhaseRule

log = logging.getLogger(__name__)

ZERO = Fraction(0)
ONE = Fraction(1)
NO_BOUND = LogBound()


@dataclass(frozen=True)
class LpRow:
    """One constraint row: sparse coefficients, sense, symbolic right side.

    `coeffs` are (column, integer) pairs, each column once, and go to
    a cold `solve_lp` as they are.  The numeric right side at a probe is
    bound.n + bound.q*logQ + s_mult*logS.  `cert` holds the (part, key)
    certificate coordinates the row's nonnegative multiplier is added to.
    """

    coeffs: tuple[tuple[int, int], ...]
    sense: str
    bound: LogBound
    s_mult: Fraction
    tag: tuple
    cert: tuple[tuple[str, tuple[VarSet, VarSet]], ...]


@dataclass(frozen=True)
class RuleRows:
    """One rule's rows, their logQ coefficients `q`, and (k, n, q, s) in `live`
    for each row k whose right side n + q*logQ + s*logS is not 0 throughout."""

    rows: list[LpRow]
    q: list[Fraction]
    live: list[tuple[int, Fraction, Fraction, Fraction]]

    def rhs(self, log_q, log_s) -> list[Fraction]:
        """Every row's right side at (logQ, logS), adding only nonzero terms."""
        out = [ZERO] * len(self.rows)
        for k, n, q, s in self.live:
            v = n
            if q and log_q:
                v += q * log_q
            if s and log_s:
                v += s * log_s
            out[k] = v
        return out


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
        self.sc: list[LogConstraint] = span_split_constraints(self.dc)
        self._base: list[LpRow] | None = None
        self._rules: dict[TwoPhaseRule, RuleRows] = {}

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
            coeffs = [(self.col(side, self.full), 1)]
            if rest:
                coeffs.append((self.col(side, rest), -1))
            cert = ((mu, (rest, self.full)),)
            rows.append(
                LpRow(tuple(coeffs), ">=", NO_BOUND, ZERO, ("mono", side, i), cert)
            )
        for i, j in combinations(range(self.n), 2):
            pair = (1 << i) | (1 << j)
            for x in submasks(self.full & ~pair):
                acc: dict[int, int] = {}
                for z, w in ((x | (1 << i), 1), (x | (1 << j), 1), (x | pair, -1), (x, -1)):
                    if z:
                        col = self.col(side, z)
                        acc[col] = acc.get(col, 0) + w
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
        acc: dict[int, int] = {}
        for side, x, y in terms:
            for z, w in ((y, 1), (x, -1)):
                if z:
                    col = self.col(side, z)
                    acc[col] = acc.get(col, 0) + w
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

    def rule_rows(self, rule: TwoPhaseRule) -> RuleRows:
        """The rule's lam and theta rows, then the base rows; built once per rule."""
        if rule in self._rules:
            return self._rules[rule]
        rows = []
        for b in sorted(rule.t_targets):
            coeffs = ((self.col("T", b), -1), (self.col_obj, 1))
            cert = (("lam", (0, b)),)
            rows.append(LpRow(coeffs, "<=", NO_BOUND, ZERO, ("lam", b), cert))
        for b in sorted(rule.s_targets):
            coeffs = ((self.col("S", b), 1),)
            cert = (("theta", (0, b)),)
            rows.append(LpRow(coeffs, ">=", NO_BOUND, ONE, ("theta", b), cert))
        rows += self.base_rows()
        parts = [(k, r.bound.n, r.bound.q, r.s_mult) for k, r in enumerate(rows)]
        live = [part for part in parts if any(part[1:])]
        self._rules[rule] = RuleRows(rows, [r.bound.q for r in rows], live)
        return self._rules[rule]

    # -- the storage cap ---------------------------------------------------------

    def log_size_bound(self, rule: TwoPhaseRule, farkas: list[Fraction]) -> Fraction:
        """The rule's storage cap, priced from its walk's Farkas multipliers.

        The walk checked that they weigh the rows of `rule_rows(rule)` into
        0 <= a + c*logS, priced here at logN = 1 and logQ = 0 by `_price`,
        as a dual is; with c < 0 no h_S reaches a budget above -a/c.  Each
        sign is checked against its row's sense, and c < 0 too.
        """
        names = self.q.var_names
        a, _, c, _ = _price(rule, names, self.rule_rows(rule).rows, farkas, "Farkas multiplier")
        if c >= 0:
            raise LpError(f"Farkas multipliers of {rule.pretty(names)} price logS at {c}, not below 0")
        return -a / c


# ═══════════════════════════════════════════════════════════════════════════
# Solving
# ═══════════════════════════════════════════════════════════════════════════


@dataclass
class ExtractedInequality:
    """A joint inequality <g_S, hS> + <g_T, hT> >= <theta, hS> + <lam, hT>.

    `bound` prices the left side against the declared rows, so the inequality
    certifies  <theta, hS> + <lam, hT> <= bound  on every instance.  All of
    it is read off one optimal dual; sigma/mu carry each side's polymatroid
    row multipliers, the witness `proofs.construct` spends to build that
    side's stepwise proof.
    """

    g_s: CondVec
    g_t: CondVec
    theta: CondVec
    lam: CondVec
    bound: LogBound
    sigma_s: CondVec
    mu_s: CondVec
    sigma_t: CondVec
    mu_t: CondVec

    def scaled_s_side(self):
        """The storage-side inequality divided by its target weight."""
        return normalize(self.g_s, self.theta, self.sigma_s, self.mu_s)


CERT_PARTS = ("g_s", "g_t", "theta", "lam", "sigma_s", "sigma_t", "mu_s", "mu_t")


@dataclass
class JointSolution:
    value: Fraction
    # the certifying inequality read off the optimal dual; its bound is
    # (line[0], line[1])
    certificate: ExtractedInequality
    # value == line[0] + line[1]*logQ - line[2]*logS at the solved probe, and
    # the right side stays a valid bound at every (logQ, logS).  A warm solve
    # breaks ties toward larger logQ, so line[1] is the slope in logQ just
    # above the probe; a cold one breaks none, and line[1] may exceed it: at
    # (0, 0) three_reach's T{0,1,2} v T{0,2,3} v S{0,1} v S{0,3} and
    # set_disjointness_k2 read 1, where their first terms' slope is 1/2
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
    budget range.  With T-targets it is unbounded only on bad input, a
    `QueryError`: each target holds a variable that no declared bound
    reaches from the access variables.  `start` is an earlier optimal
    solution of the same rule or a piece of its walk: the program is the
    same and only its right sides differ, so `resolve_lp` gets those alone,
    one per row, and warm-starts from that basis, breaking ties toward
    larger logQ: line[1] is then the value's exact slope in logQ just above
    q.  Without `start` the solve begins at the slack basis, which violates
    a theta row h_S(B') >= logS with logS > 0, so a cold solve runs at
    logS = 0 (`solve_lp` raises ValueError at any other logS).
    """
    log_s, log_q = Fraction(log_s), Fraction(log_q)
    rr, names = system.rule_rows(rule), system.q.var_names
    rhs = rr.rhs(log_q, log_s)
    if start is None:
        c_obj = [ZERO] * system.ncols
        c_obj[system.col_obj] = ONE
        res = solve_lp_guided(c_obj, [(r.coeffs, r.sense, b) for r, b in zip(rr.rows, rhs)])
    else:
        res = resolve_lp(start.lp if isinstance(start, JointSolution) else start, rhs, rr.q)
    if res.status == "unbounded" and rule.t_targets:
        reached, last = system.ac.y, None
        while reached != last:  # chains of declared bounds h(y | x) <= bound, x reached
            last = reached
            for c in system.dc:
                if subset(c.x, reached):
                    reached |= c.y
        far = vs_str(system.full & ~reached, names)
        raise QueryError(
            f"rule {rule.pretty(names)} has no finite online cost: no chain of declared size"
            f" and degree bounds reaches {far} from the access variables"
        )
    if res.status != "optimal":
        raise LpError(
            f"joint program for {rule.pretty(names)} at (logN, logQ, logS) = "
            f"(1, {log_q}, {log_s}) came back {res.status}"
        )
    sol = _package(rule, names, rr.rows, res)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("rule %s at (1, %s, %s): OBJ=%s", rule.pretty(names), log_q, log_s, sol.value)
    return sol


def walk_joint_lp(
    rule: TwoPhaseRule, system: JointSystem, low: JointSolution
) -> tuple[list[RhsPiece], list | None]:
    """The rule's value function from logS = 0 up to where it turns infeasible.

    `low` is the rule's optimal solution at logS = 0 (any logQ); the walk
    raises logS from its basis along the theta rows' right sides.  Piece k
    reads OBJ = intercept + slope*logS for lo <= logS <= hi, and can start a
    `solve_joint_lp` of the same rule.  `walk_rhs`'s Farkas multipliers come
    with the pieces, one per row of `system.rule_rows(rule)`.
    """
    return walk_rhs(low.lp, [r.s_mult for r in system.rule_rows(rule).rows])


def _price(rule, names, rows, mults, what: str):
    """Price multipliers signed like duals, one per row, at logN = 1.

    Returns (a, b, c, used): the weighted sums of the rows' logN, logQ and
    logS coefficients, and the nonzero multipliers as (row, weight) pairs,
    each weight made nonnegative.  A multiplier whose sign does not match
    its row's sense (<= 0 on a >= row, >= 0 on a <= row) raises `LpError`.
    """
    a = b = c = ZERO
    used = []
    for row, y in zip(rows, mults, strict=True):
        if not y:
            continue
        w = -y if row.sense == ">=" else y
        if w < 0:
            raise LpError(
                f"{what} {y} on row {row.tag} of {rule.pretty(names)} has the "
                f"wrong sign for its sense {row.sense!r}"
            )
        if row.bound is not NO_BOUND:
            a += y * row.bound.n
            b += y * row.bound.q
        if row.s_mult:
            c += y * row.s_mult
        used.append((row, w))
    return a, b, c, used


def _package(rule, names, rows, res: LpResult) -> JointSolution:
    a, b, c, used = _price(rule, names, rows, res.duals, "multiplier")
    vecs: dict[str, CondVec] = {part: {} for part in CERT_PARTS}
    for row, w in used:
        for part, key in row.cert:
            vec = vecs[part]
            vec[key] = vec[key] + w if key in vec else w
    lam_sum = sum(vecs["lam"].values())
    if res.value > 0 and lam_sum != 1:
        raise LpError(f"target multipliers of {rule.pretty(names)} sum to {lam_sum}, not 1")
    cert = ExtractedInequality(bound=LogBound(a, b), **vecs)
    return JointSolution(res.value, cert, (a, b, -c), res)
