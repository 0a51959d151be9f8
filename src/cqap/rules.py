"""Disjunctive size rules combining the views of several plans.

Given plans P_1..P_k, every way of choosing one view per plan gives a rule

    T_B1 v ... v T_Bi v S_C1 v ... v S_Cj

read as a size guarantee: the body tuples can always be distributed so that
every one of them lands in at least one chosen view, and the rule's cost is
the best achievable maximum view size.  S-views are filled while
preprocessing (they may not depend on the request), T-views while answering.

Within a rule a target whose variable set contains another target on the
same side is redundant -- covering the smaller view is never harder -- so it
is removed.  Across rules, a rule whose target sets contain another rule's
(one side strictly) can only be weaker and is pruned.

The rules are not built from the product of the choices.  `generate_rules`
folds the plans in one at a time (Berge multiplication, as for minimal
transversals: Eiter & Gottlob, SIAM J. Comput. 1995), keeping only the
distinct partial pairs of cleaned target sets, each with the first pick
prefix in product order that reaches it.  This is exact because
min(A | B) == min(min A | min B), so a cleaned partial pair determines the
final targets of every completion; ties between choices keep the one that
picks the earliest nodes, as the product loop did.  `prune_rules` takes the
rules by increasing target count and compares each only with the minimal
rules kept so far; that is exact because a rule strictly below another has
strictly fewer targets and strict domination is transitive.

Many states share a side, and the plans share most of their views, so the
fold interns each distinct clean side as a small int (hash-consing:
Filliâtre & Conchon, 2006) and memoises the insert per (side, view): each
clean insert is computed once, the states are pairs of ints, and equal
sides are one frozenset object.  The rules are built only at the end and
sorted by each side's `tuple(sorted(side))`, computed once per side; that
is `TwoPhaseRule.key`'s order, and since distinct sides have distinct
tuples no two rules tie.

The choice structure is kept as `picks` (plan index, node index) so later
stages can map every target back to the plan node that produced it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

from .decompose import Pmtd
from .queries import Cqap
from .relalg import VarSet, members, subset, vs_from, vs_str

log = logging.getLogger(__name__)


# ═══════════════════════════════════════════════════════════════════════════
# Rules
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class TwoPhaseRule:
    """One disjunctive size rule; at most one of the sides may be empty."""

    s_targets: frozenset[VarSet]
    t_targets: frozenset[VarSet]
    picks: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    def key(self) -> tuple[tuple[VarSet, ...], tuple[VarSet, ...]]:
        return (tuple(sorted(self.t_targets)), tuple(sorted(self.s_targets)))

    def targets(self) -> frozenset[tuple[str, VarSet]]:
        return frozenset(
            [("T", v) for v in self.t_targets] + [("S", v) for v in self.s_targets]
        )

    def pretty(self, names: list[str] | None = None) -> str:
        parts = [f"T{vs_str(v, names)}" for v in sorted(self.t_targets)]
        parts += [f"S{vs_str(v, names)}" for v in sorted(self.s_targets)]
        return " v ".join(parts)


def _add_target(side: frozenset[VarSet], v: VarSet) -> frozenset[VarSet]:
    """clean_targets(side | {v}) for a side that is already clean."""
    if any(subset(b, v) for b in side):
        return side
    return frozenset([b for b in side if not subset(v, b)] + [v])


def clean_targets(targets: Iterable[VarSet]) -> frozenset[VarSet]:
    """Drop every target that properly contains another one."""
    return reduce(_add_target, targets, frozenset())


def plan_choices(plan: Pmtd) -> list[tuple[int, bool, VarSet]]:
    """The pickable views of a plan as (node, materialized, variable set)."""
    return [
        (t, m, v) for t, (m, v) in enumerate(zip(plan.in_m, plan.nu)) if v
    ]


def generate_rules(plans: Sequence[Pmtd]) -> list[TwoPhaseRule]:
    """All rules from one-view-per-plan choices, deduplicated, sorted by key.

    The plans are folded in one at a time.  The state maps each distinct
    partial (S targets, T targets) pair, both clean, to the first pick prefix
    that reaches it; every view of the next plan extends every state by an
    insert into the clean side (min(A | B) == min(min A | min B), so the
    cleaned pair is all the completions depend on).  Any later prefix that
    reaches the same state is completed by the same suffixes, so dropping it
    loses nothing.  States are extended in insertion order and views in node
    order, so each rule keeps the first choice in product order, i.e. the
    one picking earliest nodes.

    Sides are interned: a state is a pair of side ids, and the insert of a
    view into a side is computed once and then looked up by (side id, view).
    The rules are sorted by the per-side `tuple(sorted(side))` pairs, which
    is `TwoPhaseRule.key`'s order.
    """
    per_plan = [plan_choices(p) for p in plans]
    if not per_plan:
        raise ValueError("no plans to fold into rules")
    for i, choices in enumerate(per_plan):
        if not choices:
            raise ValueError(f"plan {i} offers no view: every node is hollow")
    sides: list[frozenset[VarSet]] = [frozenset()]
    side_ids: dict[frozenset[VarSet], int] = {sides[0]: 0}
    moves: dict[VarSet, dict[int, int]] = {}  # view -> side id -> side id
    states: dict = {(0, 0): ()}
    for i, choices in enumerate(per_plan):
        views = [(node, m, v, moves.setdefault(v, {})) for node, m, v in choices]
        step: dict = {}
        for (s, t), picks in states.items():
            for node, m, v, into in views:
                side = s if m else t
                nxt = into.get(side)
                if nxt is None:
                    new = _add_target(sides[side], v)
                    nxt = into[side] = side_ids.setdefault(new, len(sides))
                    if nxt == len(sides):
                        sides.append(new)
                key = (nxt, t) if m else (s, nxt)
                if key not in step:
                    step[key] = picks + ((i, node),)
        states = step
        log.debug("folded plan %d: %d partial rules", i, len(states))
    order = [tuple(sorted(side)) for side in sides]
    done = sorted(states, key=lambda st: (order[st[1]], order[st[0]]))
    rules = [TwoPhaseRule(sides[s], sides[t], states[s, t]) for s, t in done]
    log.debug("generated %d rules, %d distinct sides", len(rules), len(sides))
    return rules


def prune_rules(rules: Sequence[TwoPhaseRule]) -> list[TwoPhaseRule]:
    """Keep only rules whose target sets are minimal under inclusion, by key.

    A rule strictly below another has strictly fewer targets, and strict
    domination is transitive, so scanning by increasing target count and
    checking each rule against the rules kept so far is exact.
    """
    kept: list[TwoPhaseRule] = []
    for r in sorted(rules, key=lambda o: len(o.s_targets) + len(o.t_targets)):
        if not any(
            o.s_targets <= r.s_targets and o.t_targets <= r.t_targets and o != r
            for o in kept
        ):
            kept.append(r)
    log.debug("pruned %d rules to %d", len(rules), len(kept))
    return sorted(kept, key=TwoPhaseRule.key)


# ═══════════════════════════════════════════════════════════════════════════
# Serialization
# ═══════════════════════════════════════════════════════════════════════════


def _names(v: VarSet, q: Cqap) -> list[str]:
    return [q.var_names[i] for i in members(v)]


def rules_to_json(rules: Sequence[TwoPhaseRule], q: Cqap) -> str:
    doc = {
        "query": q.name,
        "rules": [
            {
                "t": [_names(v, q) for v in sorted(r.t_targets)],
                "s": [_names(v, q) for v in sorted(r.s_targets)],
                "picks": [list(p) for p in r.picks],
            }
            for r in rules
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def rules_from_json(text: str, q: Cqap) -> list[TwoPhaseRule]:
    doc = json.loads(text)
    if doc.get("query") not in (None, q.name):
        raise ValueError(f"rules are for query {doc.get('query')!r}, not {q.name!r}")
    out = []
    for r in doc["rules"]:
        out.append(
            TwoPhaseRule(
                s_targets=frozenset(
                    vs_from(q.var_index(n) for n in names) for names in r["s"]
                ),
                t_targets=frozenset(
                    vs_from(q.var_index(n) for n in names) for names in r["t"]
                ),
                picks=tuple((p[0], p[1]) for p in r.get("picks", [])),
            )
        )
    return out
