"""Rule generation: one-view-per-plan choices, target cleaning, pruning."""

from __future__ import annotations

import hashlib
import logging
import re
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqap.decompose import (
    Pmtd,
    TreeDecomp,
    enumerate_pmtds,
    enumerate_tds,
    pmtds_from_json,
    pmtds_to_json,
)
from cqap.queries import load_query
from cqap.relalg import subset, vs
from cqap.rules import TwoPhaseRule, generate_rules, prune_rules

ROOT = Path(__file__).resolve().parent.parent / "corpus"


def q(name):
    return load_query(ROOT / "queries" / f"{name}.cqap")


def fs(*groups):
    return frozenset(frozenset(g) for g in groups)


def rule_names(rules, query) -> set[tuple[frozenset, frozenset]]:
    """Each rule as (T target name-sets, S target name-sets)."""
    nm = query.var_names

    def names(s):
        return frozenset(nm[i] for i in range(len(nm)) if s >> i & 1)

    return {
        (
            frozenset(names(v) for v in r.t_targets),
            frozenset(names(v) for v in r.s_targets),
        )
        for r in rules
    }


def pick_plans(plans, query, *wanted):
    """Select plans by their (T, S) view name-sets, in the given order."""
    nm = query.var_names

    def names(s):
        return frozenset(nm[i] for i in range(len(nm)) if s >> i & 1)

    by_key = {
        (
            frozenset(names(v) for v in p.t_targets),
            frozenset(names(v) for v in p.s_targets),
        ): p
        for p in plans
    }
    return [by_key[w] for w in wanted]


def proper_subset(a, b) -> bool:
    return a != b and subset(a, b)


def side_targets(p: Pmtd | TwoPhaseRule) -> frozenset:
    """The plan's or rule's targets, each tagged with its side."""
    return frozenset(
        [("T", v) for v in p.t_targets] + [("S", v) for v in p.s_targets]
    )


# ----------------------------------------------------------------------------
# Cleaning
# ----------------------------------------------------------------------------


def test_clean_drops_containing_targets():
    assert clean_targets([vs(0, 1, 2), vs(0, 1), vs(2, 3)]) == {vs(0, 1), vs(2, 3)}
    assert clean_targets([vs(0)]) == {vs(0)}


@given(st.sets(st.integers(min_value=1, max_value=1023), min_size=1, max_size=12))
def test_clean_keeps_exactly_the_minimal_antichain(ts):
    kept = clean_targets(ts)
    assert kept <= ts
    for a in kept:
        assert not any(proper_subset(b, a) for b in kept)
    for a in ts - kept:
        assert any(proper_subset(b, a) for b in kept)


# ----------------------------------------------------------------------------
# Generation on the corpus
# ----------------------------------------------------------------------------


def test_three_plan_subset_yields_four_rules():
    query = q("three_reach")
    plans = pick_plans(
        enumerate_pmtds(query),
        query,
        (fs(["x1", "x3", "x4"], ["x1", "x2", "x3"]), fs()),
        (fs(["x1", "x3", "x4"]), fs(["x1", "x3"])),
        (fs(), fs(["x1", "x4"])),
    )
    rules = generate_rules(plans)
    assert rule_names(rules, query) == {
        (fs(["x1", "x3", "x4"]), fs(["x1", "x4"])),
        (fs(["x1", "x3", "x4"]), fs(["x1", "x3"], ["x1", "x4"])),
        (fs(["x1", "x2", "x3"], ["x1", "x3", "x4"]), fs(["x1", "x4"])),
        (fs(["x1", "x2", "x3"]), fs(["x1", "x3"], ["x1", "x4"])),
    }


def test_three_reach_sixteen_rules_prune_to_four():
    query = q("three_reach")
    rules = generate_rules(enumerate_pmtds(query))
    assert len(rules) == 16
    pruned = prune_rules(rules)
    assert rule_names(pruned, query) == {
        (fs(["x1", "x3", "x4"], ["x1", "x2", "x4"]), fs(["x1", "x4"])),
        (
            fs(["x1", "x2", "x3"], ["x1", "x2", "x4"]),
            fs(["x1", "x3"], ["x1", "x4"]),
        ),
        (
            fs(["x1", "x3", "x4"], ["x2", "x3", "x4"]),
            fs(["x2", "x4"], ["x1", "x4"]),
        ),
        (
            fs(["x1", "x2", "x3"], ["x2", "x3", "x4"]),
            fs(["x1", "x3"], ["x2", "x4"], ["x1", "x4"]),
        ),
    }


def test_two_reach_single_rule():
    query = q("two_reach")
    rules = generate_rules(enumerate_pmtds(query))
    assert rule_names(rules, query) == {
        (fs(["x1", "x2", "x3"]), fs(["x1", "x3"])),
    }
    assert prune_rules(rules) == rules


def test_square_two_rules():
    query = q("square")
    rules = prune_rules(generate_rules(enumerate_pmtds(query)))
    assert rule_names(rules, query) == {
        (fs(["x1", "x3", "x4"]), fs(["x1", "x3"])),
        (fs(["x1", "x2", "x3"]), fs(["x1", "x3"])),
    }


@pytest.mark.parametrize(
    "name,xs,s_side",
    [
        # the witness y is part of the head, so the preprocessed view keeps it
        ("set_disjointness_k2", ["x1", "x2"], ["x1", "x2", "y"]),
        ("set_disjointness_k3", ["x1", "x2", "x3"], ["x1", "x2", "x3", "y"]),
        ("set_disjointness_k4", ["x1", "x2", "x3", "x4"], ["x1", "x2", "x3", "x4", "y"]),
        # the boolean variant projects y away
        ("bool_two_sd", ["x1", "x2"], ["x1", "x2"]),
    ],
)
def test_set_disjointness_single_rule(name, xs, s_side):
    query = q(name)
    rules = generate_rules(enumerate_pmtds(query))
    assert rule_names(rules, query) == {
        (fs(xs + ["y"]), fs(s_side)),
    }


def test_hierarchical_prunes_to_three_rules():
    query = q("hierarchical")
    rules = generate_rules(enumerate_pmtds(query))
    pruned = prune_rules(rules)
    zs = ["z1", "z2", "z3", "z4"]
    assert rule_names(pruned, query) == {
        (fs(["x"] + zs), fs(zs)),
        (fs(["x", "y1", "z1", "z2"]), fs(["x", "z1", "z2"], zs)),
        (fs(["x", "y2", "z3", "z4"]), fs(["x", "z3", "z4"], zs)),
    }
    # every generated rule is at or above one of the minimal three
    for r in rules:
        assert any(
            p.s_targets <= r.s_targets and p.t_targets <= r.t_targets
            for p in pruned
        )


def test_four_reach_rules_from_pinned_plans():
    query = q("four_reach")
    text = (ROOT / "pmtds" / "four_reach.json").read_text()
    plans = pmtds_from_json(text, query)
    rules = generate_rules(plans)
    assert len(rules) == 680
    pruned = rule_names(prune_rules(rules), query)
    assert len(pruned) == 32
    assert (
        fs(["x1", "x2", "x3", "x5"], ["x1", "x3", "x4", "x5"], ["x2", "x3", "x4"]),
        fs(["x2", "x4"], ["x2", "x5"], ["x1", "x4"], ["x1", "x5"]),
    ) in pruned
    assert (
        fs(["x3", "x4", "x5"], ["x2", "x3", "x4"]),
        fs(["x3", "x5"], ["x2", "x4"], ["x2", "x5"], ["x1", "x4"], ["x1", "x5"]),
    ) in pruned
    assert (
        fs(["x1", "x2", "x5"], ["x1", "x4", "x5"]),
        fs(["x1", "x5"]),
    ) in pruned
    assert (
        fs(
            ["x1", "x2", "x3", "x5"],
            ["x1", "x3", "x4", "x5"],
            ["x1", "x2", "x4", "x5"],
            ["x2", "x3", "x4", "x5"],
            ["x1", "x2", "x3", "x4"],
        ),
        fs(["x2", "x5"], ["x1", "x4"], ["x1", "x5"]),
    ) in pruned
    # a lone T-target over {x1,x2,x4,x5} is never produced: some other plan
    # always contributes an incomparable view
    assert (
        fs(["x1", "x2", "x4", "x5"]),
        fs(["x1", "x5"]),
    ) not in rule_names(rules, query)


def as_pairs(rules):
    return [r.key() for r in rules]


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "queries").glob("*.cqap")))
def test_a_plan_file_pins_the_rules(name):
    # the rules are a pure function of the plans, so a plan file written and
    # read back gives the same rules, in the same order, before and after pruning
    query = q(name)
    plans = enumerate_pmtds(query)
    back = pmtds_from_json(pmtds_to_json(plans, query), query)
    rules, again = generate_rules(plans), generate_rules(back)
    assert as_pairs(again) == as_pairs(rules)
    assert as_pairs(prune_rules(again)) == as_pairs(prune_rules(rules))


def rules_digest(rules) -> str:
    return hashlib.sha256(repr(as_pairs(rules)).encode()).hexdigest()


# Digests of the keys of every generated and every kept four_reach rule, as
# the loop over the product of all 2 125 764 choices produced them; the same
# for every plan order.
FOUR_REACH_DIGESTS = (
    "e3f820ad6dff5710e9aafac897bc8eae9f43152793a1713a0e737f23659897e5",
    "464ea1c6cb68fbeea37b56309922dde67151d03e947cae65d95bad5cdd8cc6a4",
)


def test_four_reach_full_enumeration():
    query = q("four_reach")
    assert len(enumerate_tds(query)) == 21
    plans = enumerate_pmtds(query)
    assert len(plans) == 15
    for ps in (plans, plans[::-1]):
        rules = generate_rules(ps)
        kept = prune_rules(rules)
        assert (len(rules), len(kept)) == (8654, 23)
        assert (rules_digest(rules), rules_digest(kept)) == FOUR_REACH_DIGESTS


def test_generate_requires_views():
    td = TreeDecomp((vs(0, 1),), (-1,))
    hollow = Pmtd(td, (True,), (0,))
    with pytest.raises(ValueError):
        generate_rules([hollow])


def test_generate_names_the_missing_views():
    td = TreeDecomp((vs(0, 1),), (-1,))
    hollow = Pmtd(td, (True,), (0,))
    full = Pmtd(td, (True,), (vs(0, 1),))
    with pytest.raises(ValueError, match=r"^no plans to fold into rules$"):
        generate_rules([])
    with pytest.raises(
        ValueError, match=r"^plan 2 offers no view: every node is hollow$"
    ):
        generate_rules([full, full, hollow, full])


# Partial states after each four_reach plan, one per distinct cleaned
# partial (S targets, T targets) pair: the invariant that makes the fold exact.
# The fold's own plan order makes them the same for every caller's order.
FOUR_REACH_STATES = [3, 8, 23, 56, 149, 224, 435, 443, 1136, 2532, 3065, 2998, 5090, 8654, 8654]


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def generate_and_count(plans):
    """`generate_rules(plans)` and the state counts its fold logs per plan."""
    logger = logging.getLogger("cqap.rules")
    handler, level = _Records(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        rules = generate_rules(plans)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    counts = [
        int(m[2])
        for m in (
            re.fullmatch(r"folded plan (\d+): (\d+) partial rules", r.getMessage())
            for r in handler.records
        )
        if m
    ]
    return rules, counts


def test_fold_keeps_one_state_per_cleaned_partial_pair():
    plans = enumerate_pmtds(q("four_reach"))
    for ps in (plans, plans[::-1]):
        generated, counts = generate_and_count(ps)
        assert counts == FOUR_REACH_STATES
        assert rules_digest(generated) == FOUR_REACH_DIGESTS[0]


# ----------------------------------------------------------------------------
# The fold and the frontier scan against their definitions
# ----------------------------------------------------------------------------


def minimal(ts):
    ts = set(ts)
    return frozenset(a for a in ts if not any(proper_subset(b, a) for b in ts))


def _add_target(side, v):
    """clean_targets(side | {v}) for a side that is already clean."""
    if any(subset(b, v) for b in side):
        return side
    return frozenset([b for b in side if not subset(v, b)] + [v])


def clean_targets(targets):
    """Drop every target that properly contains another one, one insert at a time."""
    return reduce(_add_target, targets, frozenset())


def product_rules(plans):
    """Every one-view-per-plan choice, cleaned and deduplicated."""
    by_key = {}
    choices = [[(m, v) for m, v in zip(p.in_m, p.nu) if v] for p in plans]
    for combo in product(*choices):
        rule = TwoPhaseRule(
            s_targets=minimal(v for m, v in combo if m),
            t_targets=minimal(v for m, v in combo if not m),
        )
        by_key.setdefault(rule.key(), rule)
    return sorted(by_key.values(), key=TwoPhaseRule.key)


def quadratic_prune(rules):
    """Rules that no other rule strictly dominates, compared pairwise."""
    kept = [
        r
        for r in rules
        if not any(
            o.s_targets <= r.s_targets
            and o.t_targets <= r.t_targets
            and (o.s_targets, o.t_targets) != (r.s_targets, r.t_targets)
            for o in rules
        )
    ]
    return sorted(kept, key=TwoPhaseRule.key)


@st.composite
def plan_lists(draw):
    """1-6 plans over at most 6 variables; views repeat, nodes may be hollow."""
    n = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5))
    plans = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        k = draw(st.integers(min_value=1, max_value=4))
        # the first node always has a view; 0 marks a hollow node
        nu = [draw(st.sampled_from(pool))]
        rest = st.lists(st.sampled_from([0] + pool), min_size=k - 1, max_size=k - 1)
        nu += draw(rest)
        in_m = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        td = TreeDecomp(tuple(v or 1 for v in nu), (-1,) + (0,) * (k - 1))
        plans.append(Pmtd(td, tuple(in_m), tuple(nu)))
    return plans


@settings(max_examples=150, deadline=None)
@given(plan_lists(), st.data())
def test_fold_and_frontier_match_their_definitions(plans, data):
    rules = generate_rules(plans)
    assert as_pairs(rules) == as_pairs(product_rules(plans))
    kept = prune_rules(rules)
    assert as_pairs(kept) == as_pairs(quadratic_prune(rules))
    assert as_pairs(prune_rules(data.draw(st.permutations(rules)))) == as_pairs(kept)


@settings(max_examples=100, deadline=None)
@given(plan_lists(), st.data())
def test_plan_order_changes_neither_rules_nor_fold_work(plans, data):
    rules, counts = generate_and_count(plans)
    again, counts_again = generate_and_count(data.draw(st.permutations(plans)))
    assert again == rules
    assert counts_again == counts


def fresh(r: TwoPhaseRule) -> TwoPhaseRule:
    """An equal rule whose sides are new frozenset objects."""
    return TwoPhaseRule(frozenset(list(r.s_targets)), frozenset(list(r.t_targets)))


@settings(max_examples=100, deadline=None)
@given(plan_lists(), st.data())
def test_prune_compares_sides_by_value(plans, data):
    rules = generate_rules(plans)
    extra = data.draw(st.lists(st.sampled_from(rules).map(fresh) | st.sampled_from(rules)))
    mixed = data.draw(st.permutations(rules + extra))
    assert as_pairs(prune_rules(mixed)) == as_pairs(quadratic_prune(mixed))


def test_prune_compares_round_tripped_sides_by_value():
    query = q("three_reach")
    rules = generate_rules(enumerate_pmtds(query))
    back = [fresh(r) for r in rules]
    assert all(a.s_targets is not b.s_targets for a, b in zip(rules, back) if a.s_targets)
    mixed = rules + back
    kept = prune_rules(mixed)
    assert len(kept) == 8
    assert as_pairs(kept) == as_pairs(quadratic_prune(mixed))


# ----------------------------------------------------------------------------
# Every full choice of targets covers some plan
# ----------------------------------------------------------------------------


def test_full_choices_cover_a_plan_three_reach():
    query = q("three_reach")
    plans = enumerate_pmtds(query)
    rules = generate_rules(plans)
    # complete check over all full choices, factored through one banned view
    # per plan: a choice avoiding every plan exists exactly when some ban set
    # contains a whole rule for no rule at all
    for banned in product(*[sorted(side_targets(p)) for p in plans]):
        bset = frozenset(banned)
        assert any(side_targets(r) <= bset for r in rules)
    # and directly on the pruned set, whose choice space is small
    pruned = prune_rules(rules)
    for choice in product(*[sorted(side_targets(r)) for r in pruned]):
        cset = frozenset(choice)
        assert any(side_targets(p) <= cset for p in plans)


@pytest.mark.parametrize(
    "name", ["two_reach", "square", "hierarchical", "set_disjointness_k3"]
)
def test_full_choices_cover_a_plan_corpus(name):
    query = q(name)
    plans = enumerate_pmtds(query)
    rules = generate_rules(plans)
    for banned in product(*[sorted(side_targets(p)) for p in plans]):
        bset = frozenset(banned)
        assert any(side_targets(r) <= bset for r in rules)
