"""Space-time tradeoff terms and envelopes.

A tradeoff term states S^c * T <= N^a * Q^b (up to polylog factors), and
carries as its provenance the certifying inequality the joint entropy program
reports with its optimal dual, whose weight on online targets is 1: c is the
total weight on storage targets, and (a, b) the priced data and request
rows.  The value function of the program over the storage budget is concave
and piecewise linear, so a rule's whole tradeoff is a short list of such
terms; `rule_tradeoff` recovers them exactly by walking the program's
optimal basis, with no value probes, and certifies each piece with its dual
line.

Everything happens on one program per rule that differs only in its right
sides, so a rule's solve at logS = 0 is its only cold solve.  From that
basis `shannon.walk_joint_lp` raises logS through every basis change up to
the storage cap (right-side ranging: Gass & Saaty, 1955), and each basis it
passes gives one piece's exact line and the breakpoint where the next takes
over; the last row it meets proves the cap.  A term's request coefficient
and certificate come from one request probe per piece: a warm solve at the
piece's midpoint and logQ = 0, started from the piece's first basis on the
walk, whose ties go toward larger logQ (the lexicographic rule of Dantzig,
Orden & Wolfe, 1955).  Its basis is optimal at logQ = 0 and just above, so
its dual line is tight there and its slope in logQ is exact.  The walk is
fixed by the rule, so the certificates do not depend on other rules or on
the order they are solved in.

`envelope` combines per-rule term lists into the answering-time curve, as
PANDA bounds a disjunctive rule by its own program (Abo Khamis, Ngo & Suciu,
2017): every rule must be served, each by the best of its own terms, so the
curve is the max over rules of the min over each rule's lines, and every
point of it comes from a certified term.  At logQ > 0 a term's line is its
exact line at logQ = 0+ extended, so the curve there is a valid bound, not
the value.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .exactlp import LpError
from .queries import LogBound
from .rules import TwoPhaseRule
from .shannon import ExtractedInequality, JointSystem, solve_joint_lp, walk_joint_lp

log = logging.getLogger(__name__)

ZERO = Fraction(0)


# ═══════════════════════════════════════════════════════════════════════════
# Terms
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class TradeoffTerm:
    """S^space_exp * T <= N^rhs.n * Q^rhs.q, up to polylog factors.

    `span` is the budget range (in units of logN) on which the term is the
    tight piece of its rule's value function; None when unknown or, for the
    right end, unbounded.  Identity is the line: span and provenance do not
    take part in equality or hashing.
    """

    space_exp: Fraction
    rhs: LogBound
    span: tuple | None = field(default=None, compare=False)
    provenance: ExtractedInequality | None = field(default=None, repr=False, compare=False)

    def line(self) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, c) with  logT <= a*logN + b*logQ - c*logS."""
        return (self.rhs.n, self.rhs.q, self.space_exp)

    def pretty(self) -> str:
        vals = (self.space_exp, self.rhs.n, self.rhs.q)
        k = lcm(*(v.denominator for v in vals))
        c, a, b = (int(v * k) for v in vals)

        def side(parts):
            out = [
                base if e == 1 else f"{base}^{e}"
                for base, e in parts
                if e
            ]
            return "*".join(out) if out else "1"

        return f"{side([('S', c), ('T', k)])} ~ {side([('N', a), ('Q', b)])}"

    def to_json(self) -> dict:
        out = {
            "display": self.pretty(),
            "space_exp": str(self.space_exp),
            "n_exp": str(self.rhs.n),
            "q_exp": str(self.rhs.q),
        }
        if self.span is not None:
            lo, hi = self.span
            out["span"] = [str(lo), None if hi is None else str(hi)]
        return out


@dataclass
class RuleTradeoff:
    """The exact value function of one rule: terms in piece order."""

    rule: TwoPhaseRule
    terms: list[TradeoffTerm]
    s_cap: Fraction | None

    def with_scratch(self) -> list[TradeoffTerm]:
        """The rule's own terms, as a new list; nothing is added to them.

        The name stays only because `perfbench/workloads.py` calls it, as
        `exactlp.solve_lp_guided` stays for `perfbench/layers.py`; both go
        when the benchmark is refreshed."""
        return list(self.terms)


# ═══════════════════════════════════════════════════════════════════════════
# Exact piece extraction
# ═══════════════════════════════════════════════════════════════════════════


def _pin_request_exponent(system, rule, a, c, m, span, start) -> TradeoffTerm:
    """Fix the Q coefficient of the piece through (m, a - c*m).

    At logQ = 0 alone the request coefficient is undetermined (any value
    prices a slack request row), so the piece is solved once more at
    (logS, logQ) = (m, 0), warm-started from `start`, the piece's first
    basis (or, without a piece, the solve at logS = 0).  That solve breaks
    ties toward larger logQ, so its basis is optimal at (m, 0) and at
    (m, t) for every small t > 0: its dual line a' + b*logQ - c'*logS is
    the value there, and b is the exact request coefficient.  The line is
    a valid bound everywhere (weak duality) and tight at (m, 0), inside the
    piece a - c*logS, so (a', c') is (a, c); that and b >= 0 are checked.
    """
    sol = solve_joint_lp(rule, system, m, start=start)
    a1, b, c1 = sol.line
    if (a1, c1) == (a, c) and b >= 0:
        return TradeoffTerm(space_exp=c, rhs=LogBound(a, b), span=span, provenance=sol.certificate)
    wrong = (
        f"the dual line's (a, c) = ({a1}, {c1}) is not the piece's ({a}, {c})"
        if (a1, c1) != (a, c)
        else f"request coefficient {b} cannot be negative"
    )
    raise LpError(f"request probe of {rule.pretty()} at (logN, logQ, logS) = (1, 0, {m}): {wrong}")


def rule_tradeoff(rule: TwoPhaseRule, system: JointSystem) -> RuleTradeoff:
    """Extract the exact piecewise tradeoff of one rule over logN=1, logQ=0.

    No value is probed: one cold solve at logS = 0 and one walk from its
    basis up to the storage cap give every piece and breakpoint, and one
    request probe per piece, warm-started from the piece's first basis,
    gives its request coefficient and certificate.  So the terms and their
    certificates depend on the rule alone.  The walk must end at the cap
    `log_size_bound` prices from its Farkas multipliers.  A rule without
    storage targets, or with a cap of 0, has no piece: its one term is
    pinned at logS = 0 from the solve there, with span (0, cap).
    """
    if not rule.t_targets:
        raise ValueError("a rule without online targets has no finite tradeoff")
    low = solve_joint_lp(rule, system, ZERO)
    pieces, cap = [], None
    if rule.s_targets:
        pieces, farkas = walk_joint_lp(rule, system, low)
        end = pieces[-1].hi if pieces else ZERO
        cap = None if farkas is None else system.log_size_bound(rule, farkas)
        if cap is None or end != cap:  # pragma: no cover - exactness guard
            raise LpError(
                f"the walk of {rule.pretty()} ended at logS = {end}, "
                f"not at the storage cap {cap} its last row proves"
            )
    if not pieces:
        a, _, c = low.line
        term = _pin_request_exponent(system, rule, a, c, ZERO, (ZERO, cap), low)
        return RuleTradeoff(rule, [term], cap)
    terms = [
        _pin_request_exponent(
            system, rule, p.intercept, -p.slope, (p.lo + p.hi) / 2, (p.lo, p.hi), p
        )
        for p in pieces
    ]
    if log.isEnabledFor(logging.DEBUG):
        log.debug("rule %s: %d pieces up to cap %s", rule.pretty(), len(terms), cap)
    return RuleTradeoff(rule, terms, cap)


# ═══════════════════════════════════════════════════════════════════════════
# Envelopes
# ═══════════════════════════════════════════════════════════════════════════


@dataclass
class TradeoffCurve:
    """Answering-time exponent as a function of the budget, both in logN
    units: exact breakpoints, non-increasing, clamped at zero."""

    points: list[tuple[Fraction, Fraction]]

    def to_csv(self) -> str:
        lines = ["logS,logT"]
        lines += [f"{s},{t}" for s, t in self.points]
        return "\n".join(lines) + "\n"


def envelope(rule_terms, log_q=ZERO) -> TradeoffCurve:
    """Max over rules of the min over each rule's own term lines, clamped at 0.

    Each item of `rule_terms` is one rule's term list, and every rule must
    be served, each by its best term: a rule whose terms all have space
    exponent 0 holds the curve at its value for every budget.

    The grid holds 0, every line's zero and every positive crossing of two
    lines.  A max of mins of lines bends only where two lines cross and
    reaches zero only where one does, so the grid holds every breakpoint.
    Points collinear with their neighbours are dropped, the walk stops at
    the first zero, and a last point level with the one before it is
    dropped, since the curve is read as constant past its last point.
    """
    log_q = Fraction(log_q)
    groups = [
        {(a + b * log_q, -c) for a, b, c in (t.line() for t in terms)} for terms in rule_terms
    ]
    if not groups or not all(groups):
        raise ValueError("envelope needs at least one term for every rule")

    cands = {ZERO}
    flat = list(set().union(*groups))
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
        t = max(ZERO, *(min(v0 + m0 * s for v0, m0 in g) for g in groups))
        if len(points) > 1:
            (s0, t0), (s1, t1) = points[-2:]
            if (t1 - t0) * (s - s1) == (t - t1) * (s1 - s0):
                points.pop()
        points.append((s, t))
        if t == 0:
            break
    if len(points) > 1 and points[-1][1] == points[-2][1]:
        points.pop()
    for (s0, t0), (s1, t1) in zip(points, points[1:]):
        if s1 <= s0 or t1 > t0:  # pragma: no cover - exactness guard
            raise LpError("envelope walk produced a non-monotone curve")
    return TradeoffCurve(points)
