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
distinct partial pairs of cleaned target sets.  This is exact because
min(A | B) == min(min A | min B), so a cleaned partial pair determines the
final targets of every completion, whatever order the plans come in.  The
work does depend on the order (four_reach: 49 k to 129 k (state, view) steps
over 200 random orders), so the fold fixes its own: the plans with the most
views first, while the states they multiply are few (about 49 k steps),
ties broken by each plan's sorted (side, view) list.  `prune_rules` scans
the rules level by level in target count and compares each only with the
rules kept at lower levels; that is exact because a rule strictly below
another has strictly fewer targets and strict domination is transitive.

The plans share most of their views, so the fold stores a side as a bitmask
over the distinct views and a partial pair as one int in a set; a view's
insert is two mask operations, and a frozenset is built once per distinct
final side.  The prune gives kept rule j bit j and keeps, per distinct side
(by value), the mask of the kept rules whose side it contains: a rule is
dominated exactly when its S and T masks meet.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Sequence

from .decompose import Pmtd
from .queries import Cqap, fields_of, file_entries, varset_of
from .relalg import VarSet, names_of, subset, vs_str

log = logging.getLogger(__name__)


# ═══════════════════════════════════════════════════════════════════════════
# Rules
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True, slots=True)
class TwoPhaseRule:
    """One disjunctive size rule; at most one of the sides may be empty."""

    s_targets: frozenset[VarSet]
    t_targets: frozenset[VarSet]

    def key(self) -> tuple[tuple[VarSet, ...], tuple[VarSet, ...]]:
        return (tuple(sorted(self.t_targets)), tuple(sorted(self.s_targets)))

    def pretty(self, names: list[str] | None = None) -> str:
        parts = [f"T{vs_str(v, names)}" for v in sorted(self.t_targets)]
        parts += [f"S{vs_str(v, names)}" for v in sorted(self.s_targets)]
        return " v ".join(parts)


def generate_rules(plans: Sequence[Pmtd]) -> list[TwoPhaseRule]:
    """All rules from one-view-per-plan choices, deduplicated, sorted by key.

    The plans are folded in one at a time, in the module docstring's order,
    which the "folded plan i" debug lines follow.  A state is a clean
    partial pair, the int  S side << w | T side  where bit k of a side is
    the k-th smallest of the w views.  A view's insert leaves a side alone when it holds a view the
    new one contains (`low`), and else clears the views that contain it
    (`keep`) and sets its bit.
    """
    per_plan = [sorted((m, v) for m, v in zip(p.in_m, p.nu) if v) for p in plans]
    if not per_plan:
        raise ValueError("no plans to fold into rules")
    for i, choices in enumerate(per_plan):
        if not choices:
            raise ValueError(f"plan {i} offers no view: every node is hollow")
    per_plan.sort(key=lambda choices: (-len(choices), choices))
    views = sorted({v for choices in per_plan for _, v in choices})
    w = len(views)
    below = [sum(1 << j for j, b in enumerate(views) if subset(b, v)) for v in views]
    above = [sum(1 << j for j, b in enumerate(views) if subset(v, b)) for v in views]
    states = {0}
    for i, choices in enumerate(per_plan):
        at = [(views.index(v), w if m else 0) for m, v in choices]
        moves = [(below[k] << sh, ~(above[k] << sh), 1 << k + sh) for k, sh in at]
        states = {
            key if key & low else key & keep | bit
            for key in states
            for low, keep, bit in moves
        }
        log.debug("folded plan %d: %d partial rules", i, len(states))
    t_mask = (1 << w) - 1
    masks = {m for key in states for m in (key >> w, key & t_mask)}
    # bits follow the view order, so a side's tuple is the sorted one
    # `TwoPhaseRule.key` compares, and  T rank * n + S rank  sorts by key
    ranked = sorted((tuple(v for k, v in enumerate(views) if m >> k & 1), m) for m in masks)
    rank = {m: r for r, (_, m) in enumerate(ranked)}
    sides = [frozenset(side) for side, _ in ranked]
    n = len(sides)
    codes = sorted(rank[key & t_mask] * n + rank[key >> w] for key in states)
    rules = [TwoPhaseRule(sides[c % n], sides[c // n]) for c in codes]
    log.debug("generated %d rules, %d distinct sides", len(rules), len(sides))
    return rules


def prune_rules(rules: Sequence[TwoPhaseRule]) -> list[TwoPhaseRule]:
    """Keep only rules whose target sets are minimal under inclusion, by key.

    Scans level by level in target count (see the module docstring).  With
    kept rule j as bit j, `s_in[side]` masks the kept rules whose S side
    `side` contains, and `t_in` the same for T sides; both are keyed by value.
    """
    levels: dict[int, list[TwoPhaseRule]] = {}
    for r in rules:
        levels.setdefault(len(r.s_targets) + len(r.t_targets), []).append(r)
    s_in = dict.fromkeys([r.s_targets for r in rules], 0)
    t_in = dict.fromkeys([r.t_targets for r in rules], 0)
    kept: list[TwoPhaseRule] = []
    for size in sorted(levels):
        level = [r for r in levels[size] if not s_in[r.s_targets] & t_in[r.t_targets]]
        for r in level:
            for masks, side in ((s_in, r.s_targets), (t_in, r.t_targets)):
                for seen in masks:
                    if side <= seen:
                        masks[seen] |= 1 << len(kept)
            kept.append(r)
    log.debug("pruned %d rules to %d", len(rules), len(kept))
    return sorted(kept, key=TwoPhaseRule.key)


# ═══════════════════════════════════════════════════════════════════════════
# Serialization
# ═══════════════════════════════════════════════════════════════════════════


def rules_to_json(rules: Sequence[TwoPhaseRule], q: Cqap) -> str:
    doc = {
        "query": q.name,
        "rules": [
            {
                "t": [names_of(v, q.var_names) for v in sorted(r.t_targets)],
                "s": [names_of(v, q.var_names) for v in sorted(r.s_targets)],
            }
            for r in rules
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def rules_from_json(text: str, q: Cqap) -> list[TwoPhaseRule]:
    rules = []
    for entry in file_entries(text, q, "rule file", "rules"):
        what = f"rule in file {entry}"
        s, t = fields_of(entry, what, "s", "t")
        rules.append(
            TwoPhaseRule(
                s_targets=frozenset(varset_of(names, q.var_names, what) for names in s),
                t_targets=frozenset(varset_of(names, q.var_names, what) for names in t),
            )
        )
    return rules
