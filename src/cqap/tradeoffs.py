"""Space-time tradeoff terms and envelopes.

A tradeoff term states S^c * T^k <= N^a * Q^b (up to polylog factors), and
carries as its provenance the certifying inequality the joint entropy program
reports with its optimal dual: k is the total weight on online targets
(normalised to 1), c the total weight on storage targets, and (a, b) the
priced data and request rows.  The value function of the program over the
storage budget is concave and piecewise linear, so a rule's whole tradeoff is
a short list of such terms; `rule_tradeoff` recovers them exactly by probing
tangents and certifying each piece with its dual line.

Every probe is one plain `solve_joint_lp` call; `rule_tradeoff` owns the
budget range and probes only inside [0, cap], where the program is feasible.

Two kinds of probe do that, all on one program per rule that differs only
in its right sides, so a rule's first value probe is its only cold solve.
A value probe (the two ends of the budget range and each refinement point)
needs only the program's value and some tangent there: the pieces are a
property of the value function, whichever optimal dual a probe reports.  So
every value probe after the first warm-starts from the rule's last optimal
probe by dual simplex.  A term's certificate comes from one request probe
per piece, in the piece's interior at a small logQ > 0.  It warm-starts from
the value probe whose tangent is that piece, a short move in (logS, logQ),
and its request coefficient and certificate are those of the optimal basis
the dual simplex reaches.  The probe path is fixed by the rule, so the
certificates do not depend on other rules or on the order they are solved
in.  One request probe is enough: its dual line is a valid bound everywhere
and tight at the probe, and when it carries the piece's (a, c) it is also
tight at logQ = 0, so by concavity it is tight on the whole segment between.

Terms also arise in closed form from fractional edge covers, either of the
whole query or bag-by-bag along a root-to-node path of a decomposition; those
constructions are `tradeoff_from_edge_cover` and `tradeoff_from_path`.

`envelope` combines per-rule term lists into the answering-time curve: every
rule must be served, each by its best term (or by running from scratch within
T <= N*Q), so the curve is the max over rules of the min over term lines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .decompose import TreeDecomp
from .exactlp import LpError
from .polymatroids import CondVec
from .queries import Cqap, LogBound
from .relalg import VarSet, members
from .rules import TwoPhaseRule
from .shannon import ExtractedInequality, JointSolution, JointSystem, solve_joint_lp

log = logging.getLogger(__name__)

ZERO = Fraction(0)
ONE = Fraction(1)


# ═══════════════════════════════════════════════════════════════════════════
# Terms
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True, eq=False)
class TradeoffTerm:
    """S^space_exp * T^time_exp <= N^rhs.n * Q^rhs.q, up to polylog factors.

    `span` is the budget range (in units of logN) on which the term is the
    tight piece of its rule's value function; None when unknown or, for the
    right end, unbounded.  Identity is the normalised line, so the same
    bound written at different scales compares equal.
    """

    space_exp: Fraction
    rhs: LogBound
    time_exp: Fraction = ONE
    span: tuple | None = field(default=None)
    provenance: ExtractedInequality | None = field(default=None, repr=False)
    note: str = ""

    def line(self) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, c) with  logT <= a*logN + b*logQ - c*logS."""
        k = self.time_exp
        return (self.rhs.n / k, self.rhs.q / k, self.space_exp / k)

    def log_time(self, log_s) -> Fraction:
        """logT at logN = 1, logQ = 0."""
        a, _, c = self.line()
        return a - c * Fraction(log_s)

    def __eq__(self, other):
        if not isinstance(other, TradeoffTerm):
            return NotImplemented
        return self.line() == other.line()

    def __hash__(self):
        return hash(self.line())

    def pretty(self) -> str:
        vals = (self.space_exp, self.time_exp, self.rhs.n, self.rhs.q)
        k = lcm(*(v.denominator for v in vals))
        c, t, a, b = (int(v * k) for v in vals)

        def side(parts):
            out = [
                base if e == 1 else f"{base}^{e}"
                for base, e in parts
                if e
            ]
            return "*".join(out) if out else "1"

        return f"{side([('S', c), ('T', t)])} ~ {side([('N', a), ('Q', b)])}"

    def to_json(self) -> dict:
        out = {
            "display": self.pretty(),
            "space_exp": str(self.space_exp),
            "time_exp": str(self.time_exp),
            "n_exp": str(self.rhs.n),
            "q_exp": str(self.rhs.q),
        }
        if self.span is not None:
            lo, hi = self.span
            out["span"] = [str(lo), None if hi is None else str(hi)]
        if self.note:
            out["note"] = self.note
        return out


def scratch_term() -> TradeoffTerm:
    """The from-scratch bound T ~ N*Q: no stored object, one pass of the
    data per request.  Valid for any rule of an acyclic query, so reports
    and envelopes may attach it to every rule."""
    return TradeoffTerm(
        space_exp=ZERO,
        rhs=LogBound(ONE, ONE),
        note="from scratch: answer each request by a fresh traversal",
    )


@dataclass
class RuleTradeoff:
    """The exact value function of one rule: terms in piece order."""

    rule: TwoPhaseRule
    terms: list[TradeoffTerm]
    s_cap: Fraction | None

    def log_time(self, log_s) -> Fraction:
        return min(t.log_time(log_s) for t in self.terms)

    def with_scratch(self) -> list[TradeoffTerm]:
        """Terms plus the from-scratch fallback, deduplicated."""
        terms = list(self.terms)
        if scratch_term() not in terms:
            terms.append(scratch_term())
        return terms


# ═══════════════════════════════════════════════════════════════════════════
# Exact piece extraction
# ═══════════════════════════════════════════════════════════════════════════


def _tangent(sol: JointSolution) -> tuple[Fraction, Fraction]:
    return sol.line[0], sol.line[2]


def _refine(rule, probe, lo_s, lo, hi_s, hi, depth=0) -> list:
    """Pieces covering [lo_s, hi_s] as (a, c, end_s, sol), in order.

    `probe(s)` solves the rule's program at logS = s, and `sol` is the probe
    whose tangent (a, c) is the piece.  Soundness rests on two facts: each
    probe's line is a globally valid bound that is tight at the probe, and
    the value function is concave, so a line tight at two points is tight on
    the whole interval between them.
    """
    where = (
        f"tangents of {rule.pretty()} at (logN, logQ, logS) = "
        f"(1, 0, {lo_s}) and (1, 0, {hi_s})"
    )
    if depth > 40:  # pragma: no cover - refinement is worst-case linear
        raise LpError(f"{where}: refinement did not converge")
    a0, c0 = _tangent(lo)
    a1, c1 = _tangent(hi)
    if (a0, c0) == (a1, c1):
        return [(a0, c0, hi_s, lo)]
    if c0 == c1:
        raise LpError(f"{where}: distinct parallel tangents cannot both be tight")
    s_star = (a0 - a1) / (c0 - c1)
    if s_star <= lo_s:  # the low probe sat on a degenerate support
        if a1 - c1 * lo_s != lo.value:
            raise LpError(f"{where}: tangent geometry left the concave curve")
        return [(a1, c1, hi_s, hi)]
    if s_star >= hi_s:
        if a0 - c0 * hi_s != hi.value:
            raise LpError(f"{where}: tangent geometry left the concave curve")
        return [(a0, c0, hi_s, lo)]
    mid = probe(s_star)
    if mid.value == a0 - c0 * s_star:
        return [(a0, c0, s_star, lo), (a1, c1, hi_s, hi)]
    left = _refine(rule, probe, lo_s, lo, s_star, mid, depth + 1)
    right = _refine(rule, probe, s_star, mid, hi_s, hi, depth + 1)
    if left[-1][:2] == right[0][:2]:
        left[-1] = right.pop(0)
    return left + right


def _pin_request_exponent(system, rule, a, c, m, span, start) -> TradeoffTerm:
    """Fix the Q coefficient of the piece through (m, a - c*m).

    At a budget probe alone the request coefficient is undetermined (any
    value prices a slack request row), so the piece is solved once more at
    a small request level q, warm-started from `start`, the value probe
    whose tangent is (a, c).  Only right sides move between the two, so the
    dual simplex walks from that probe's basis; b and the term's certificate
    are read off the optimal basis it reaches.  That dual line
    a' + b*logQ - c'*logS is a valid bound everywhere (weak duality) and
    tight at (m, q).  When (a', c') is the piece's (a, c), the line also
    meets the value a - c*m at (m, 0); the value function is concave, so the
    line is tight on the whole segment from (m, 0) to (m, q), and b is the
    exact request coefficient.  Solving in the segment's relative interior
    makes the reported dual line unique.  Only when the line misses (a, c),
    because q crossed a kink, is the probe retried at a smaller q, again
    from `start`.
    """
    step = Fraction(1, 64)
    tried = []
    for _ in range(6):
        q = step / 2
        sol = solve_joint_lp(rule, system, m, log_q=q, start=start)
        a1, b, c1 = sol.line
        if (a1, c1) == (a, c):
            if b < 0:
                raise LpError(
                    f"request probe of {rule.pretty()} at (logN, logQ, logS) = "
                    f"(1, {q}, {m}): request coefficient {b} cannot be negative"
                )
            return TradeoffTerm(
                space_exp=c,
                rhs=LogBound(a, b),
                span=span,
                provenance=sol.certificate,
            )
        tried.append(str(q))
        step /= 16
        log.debug("request probe crossed a kink; retrying at %s", step / 2)
    raise LpError(
        f"request coefficient of {rule.pretty()} at logS = {m} did not stabilise: "
        f"the dual lines at logQ = {', '.join(tried)} all missed (a, c) = ({a}, {c})"
    )


def rule_tradeoff(rule: TwoPhaseRule, system: JointSystem) -> RuleTradeoff:
    """Extract the exact piecewise tradeoff of one rule over logN=1, logQ=0.

    It reads the storage cap once and probes only inside [0, cap].  The
    rule's first value probe is its only cold solve; every other probe
    warm-starts from an earlier one of the same rule, so the terms and their
    certificates depend on the rule alone.
    """
    if not rule.t_targets:
        raise ValueError("a rule without online targets has no finite tradeoff")
    if not rule.s_targets:
        sol = solve_joint_lp(rule, system, ZERO)
        a, c = _tangent(sol)
        if c:  # pragma: no cover - no storage rows means no storage weight
            raise LpError("storage weight appeared without storage targets")
        term = _pin_request_exponent(system, rule, a, c, ZERO, (ZERO, None), sol)
        return RuleTradeoff(rule, [term], None)
    cap = system.log_size_bound(rule.s_targets)
    if cap is None or cap <= 0:  # pragma: no cover - targets are data-tied
        raise LpError("storage targets admit no positive budget cap")
    last = None

    def probe(s):
        """A value probe, warm-started from the rule's last optimal one."""
        nonlocal last
        last = solve_joint_lp(rule, system, s, start=last)
        return last

    lo = probe(ZERO)
    hi = probe(cap)
    pieces = _refine(rule, probe, ZERO, lo, cap, hi)
    for (a0, c0, end, _), (a1, c1, _, _) in zip(pieces, pieces[1:]):
        if (a0 - a1) / (c1 - c0) != -end:  # pragma: no cover - exactness guard
            raise LpError("recorded breakpoint is not the line crossing")
    terms = []
    start = ZERO
    for a, c, end, sol in pieces:
        if not start < end:  # pragma: no cover - exactness guard
            raise LpError("empty tradeoff piece")
        terms.append(
            _pin_request_exponent(
                system, rule, a, c, (start + end) / 2, (start, end), sol
            )
        )
        start = end
    log.debug(
        "rule %s: %d pieces up to cap %s", rule.pretty(), len(terms), cap
    )
    return RuleTradeoff(rule, terms, cap)


# ═══════════════════════════════════════════════════════════════════════════
# Closed-form generators
# ═══════════════════════════════════════════════════════════════════════════


def _acc(vec: dict, key, w: Fraction) -> None:
    if w:
        vec[key] = vec.get(key, ZERO) + w


def _atom_cardinalities(q: Cqap) -> dict[VarSet, LogBound]:
    cards: dict[VarSet, LogBound] = {}
    for c in q.analysis_constraints():
        if c.x == 0:
            cards.setdefault(c.y, c.log)
    return cards


def _check_cover(q: Cqap, u, need: VarSet) -> list[Fraction]:
    weights = [Fraction(w) for w in u]
    if len(weights) != len(q.atoms):
        raise ValueError("need one cover weight per body atom")
    if any(w < 0 for w in weights):
        raise ValueError("cover weights must be nonnegative")
    for i in members(need):
        if sum(w for a, w in zip(q.atoms, weights) if a.varset >> i & 1) < 1:
            raise ValueError(
                f"weights do not cover variable {q.var_names[i]!r}"
            )
    return weights


def _cover_term(q: Cqap, bags, a_sets, covers) -> TradeoffTerm:
    """One term from per-bag covers along bags with hand-off sets `a_sets`.

    Each bag contributes its cover, scaled down by its slack (the spare
    coverage on the bag's non-hand-off variables); the online side pays one
    full traversal plus the request row.
    """
    cards = _atom_cardinalities(q)
    ac = q.access_constraint()
    g_s: CondVec = {}
    g_t: CondVec = {}
    theta: CondVec = {}
    n_tot, q_tot = ac.log.n, ac.log.q
    space = ZERO
    _acc(g_t, (0, ac.y), ONE)
    for bag, a_set, u in zip(bags, a_sets, covers):
        weights = _check_cover(q, u, bag)
        free = bag & ~a_set
        if not free:
            raise ValueError("a path step must introduce at least one variable")
        alpha = min(
            sum(w for a, w in zip(q.atoms, weights) if a.varset >> i & 1)
            for i in members(free)
        )
        if alpha < 1:  # pragma: no cover - cover of `free` forces alpha >= 1
            raise LpError("slack below one on a covered bag")
        for atom, w in zip(q.atoms, weights):
            if not w:
                continue
            f = atom.varset
            if f not in cards:
                raise ValueError(f"no cardinality bound for {atom.rel!r}")
            scaled = w / alpha
            stored = a_set & f
            if stored != f:
                _acc(g_t, (stored, f), scaled)
            if stored:
                _acc(g_s, (0, stored), scaled)
            n_tot += scaled * cards[f].n
            q_tot += scaled * cards[f].q
        _acc(theta, (0, a_set), ONE / alpha)
        space += ONE / alpha
    lam = {(0, bags[-1]): ONE}
    prov = ExtractedInequality(g_s, g_t, theta, lam, LogBound(n_tot, q_tot))
    return TradeoffTerm(
        space_exp=space, rhs=LogBound(n_tot, q_tot), provenance=prov
    )


def tradeoff_from_edge_cover(q: Cqap, u) -> TradeoffTerm:
    """The two-plan tradeoff implied by a fractional edge cover of the query.

    With a lookup-shaped head the bound is closed form: storing answerable
    requests leaves slack alpha on the remaining variables, and the term is
    S^(1/alpha) * T ~ Q * prod |R_F|^(u_F/alpha).  When the head keeps
    witness variables the stored object is the head projection instead, and
    the steepest piece of that rule's exact tradeoff is returned.
    """
    full = q.vars_all
    weights = _check_cover(q, u, full)
    if q.access == full:
        storage = sum(
            w * _atom_cardinalities(q)[a.varset].n
            for a, w in zip(q.atoms, weights)
        )
        return TradeoffTerm(
            space_exp=ZERO,
            rhs=LogBound(q=ONE),
            note=(
                "degenerate: the access set covers every variable; storing "
                f"the requested projection needs at most N^{storage}"
            ),
        )
    if q.head == q.access:
        return _cover_term(q, [full], [q.access], [weights])
    system = JointSystem(q)
    rule = TwoPhaseRule(
        s_targets=frozenset({q.head}), t_targets=frozenset({full})
    )
    return rule_tradeoff(rule, system).terms[-1]


def tradeoff_from_path(
    q: Cqap, d: TreeDecomp, covers, path: list[int]
) -> TradeoffTerm:
    """One term from a root-to-node path of a decomposition.

    `covers` gives one per-atom weight sequence per path node; each must
    cover its bag.  Hand-off sets are the access set at the root and the
    intersection with the parent bag below it.
    """
    if not path or path[0] != 0:
        raise ValueError("the path must start at the root")
    for prev, node in zip(path, path[1:]):
        if not 0 <= node < len(d):
            raise ValueError(f"node {node} is not in the decomposition")
        if d.parent[node] != prev:
            raise ValueError("path nodes must follow parent links")
    if len(covers) != len(path):
        raise ValueError("need one cover per path node")
    bags = [d.bags[t] for t in path]
    a_sets = [q.access] + [
        d.bags[t] & d.bags[p] for p, t in zip(path, path[1:])
    ]
    return _cover_term(q, bags, a_sets, covers)


# ═══════════════════════════════════════════════════════════════════════════
# Envelopes
# ═══════════════════════════════════════════════════════════════════════════


@dataclass
class TradeoffCurve:
    """Answering-time exponent as a function of the budget, both in logN
    units: exact breakpoints, non-increasing, clamped at zero."""

    points: list[tuple[Fraction, Fraction]]

    def at(self, log_s) -> Fraction:
        s = Fraction(log_s)
        pts = self.points
        if s <= pts[0][0]:
            return pts[0][1]
        for (s0, t0), (s1, t1) in zip(pts, pts[1:]):
            if s <= s1:
                return t0 + (t1 - t0) * (s - s0) / (s1 - s0)
        return pts[-1][1]

    def to_csv(self) -> str:
        lines = ["logS,logT"]
        lines += [f"{s},{t}" for s, t in self.points]
        return "\n".join(lines) + "\n"


def envelope(rule_terms, log_q=ZERO) -> TradeoffCurve:
    """Max over rules of the min over each rule's term lines, clamped at 0.

    Terms with no storage exponent are from-scratch plans: they do not read
    the stored object, so they serve the requests of every rule alike.  They
    join every rule's minimum and never stand alone in the maximum — a rule
    list holding only such terms contributes its fallbacks to the others
    rather than pinning the worst case to a constant.

    The grid holds 0, every line's zero and every positive crossing of two
    lines.  A max of mins of lines bends only where two lines cross and
    reaches zero only where one does, so the grid holds every breakpoint.
    Points collinear with their neighbours are dropped, and the walk stops
    at the first zero, which a falling line in every minimum ensures; with
    only from-scratch terms every line is flat and the grid is {0}.
    """
    log_q = Fraction(log_q)
    shared: set[tuple[Fraction, Fraction]] = set()
    sloped_groups: list[set[tuple[Fraction, Fraction]]] = []
    for terms in rule_terms:
        sloped: set[tuple[Fraction, Fraction]] = set()
        for term in terms:
            a, b, c = term.line()
            line = (a + b * log_q, -c)
            (sloped if c else shared).add(line)
        if sloped:
            sloped_groups.append(sloped)
    if sloped_groups:
        groups = [g | shared for g in sloped_groups]
    elif shared:
        groups = [shared]
    else:
        raise ValueError("envelope needs at least one term")

    cands = {ZERO}
    flat = [ln for g in groups for ln in g]
    for i, (v0, m0) in enumerate(flat):
        if m0:
            cands.add(-v0 / m0)  # zero crossing
        for v1, m1 in flat[i + 1 :]:
            if m0 != m1:
                s = (v1 - v0) / (m0 - m1)
                if s > 0:
                    cands.add(s)

    points: list[tuple[Fraction, Fraction]] = []
    for s in sorted(cands):
        t = max(min(v0 + m0 * s for v0, m0 in g) for g in groups)
        if len(points) > 1:
            (s0, t0), (s1, t1) = points[-2:]
            if (t1 - t0) * (s - s1) == (t - t1) * (s1 - s0):
                points.pop()
        points.append((s, t))
        if t <= 0:
            break
    for (s0, t0), (s1, t1) in zip(points, points[1:]):
        if s1 <= s0 or t1 > t0:  # pragma: no cover - exactness guard
            raise LpError("envelope walk produced a non-monotone curve")
    return TradeoffCurve(points)
