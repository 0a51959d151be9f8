"""Generated CQAPs through the whole pipeline, from text to envelope.

Every other pinned output comes from a few hand-written queries.  Here
`support.random_cqap` draws queries with self-joins, degree bounds and
sizes N^1/2, N^1 and N^3/2, and each goes from text to pruned rules, their
terms, proofs and envelope, with each term's line checked against a fresh
joint solve, one dropped rule against the kept ones, and the rules of every
plan, dominated ones included, against the kept plans'.  A failing query's
text is printed first, so it shows in the report and can be pasted into a
test.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from cqap import proofs
from cqap.decompose import (
    _downward_closed_sets,
    enumerate_pmtds,
    enumerate_tds,
    is_free_connex,
    make_pmtd,
)
from cqap.queries import parse_query, print_query
from cqap.rules import generate_rules, prune_rules
from cqap.shannon import JointSystem, solve_joint_lp
from cqap.tradeoffs import envelope, rule_tradeoff

from support import joint_solve_at, random_cqap

GENERATED = 40


@pytest.mark.parametrize("seed", range(GENERATED))
def test_generated_query_from_text_to_envelope(seed):
    text = random_cqap(random.Random(seed))
    print(text)
    query = parse_query(text)
    printed = print_query(query)
    assert print_query(parse_query(printed)) == printed
    system = JointSystem(query)
    rules = generate_rules(enumerate_pmtds(query))
    kept = prune_rules(rules)
    curves = [rule_tradeoff(r, system) for r in kept]
    for rt in curves:
        for t in rt.terms:
            # the term's line is a fresh joint solve's, warm-started from
            # logS = 0, at its span's midpoint, or at its start when the span
            # is unbounded
            lo, hi = t.span
            at = lo if hi is None else (lo + hi) / 2
            line = joint_solve_at(rt.rule, system, at).line
            assert line == t.line(), (rt.rule.pretty(query.var_names), t.pretty(), at, line)
            # every side of every term constructs and validates
            ext = t.provenance
            sides = [(ext.g_t, ext.lam, ext.sigma_t, ext.mu_t)]
            if ext.theta:
                sides.append(ext.scaled_s_side())
            for g, target, sigma, mu in sides:
                report = proofs.validate(proofs.construct(g, target, sigma=sigma, mu=mu))
                assert report, (rt.rule.pretty(query.var_names), t.pretty(), report.reason)
    # every rule is served by its own terms, so the envelope starts no lower
    # than any rule's value from a fresh joint solve
    for log_q in (F(0), F(1, 2)):
        s0, t0 = envelope([rt.terms for rt in curves], log_q).points[0]
        assert s0 == 0
        for rt in curves:
            value = solve_joint_lp(rt.rule, system, F(0), log_q=log_q).value
            assert value <= t0, (rt.rule.pretty(query.var_names), log_q, value, t0)
    # pruning is sound: one dropped rule, chosen by the seed, is nowhere
    # above the kept rules' maximum, each rule read as the min of its own
    # lines clamped at 0, at logS = 0 and at every span end
    height = lambda terms, s: max(F(0), min(a - c * s for a, _, c in (t.line() for t in terms)))
    kept_keys = {r.key() for r in kept}
    dropped = [r for r in rules if r.key() not in kept_keys]
    if dropped:
        rt = rule_tradeoff(dropped[seed % len(dropped)], system)
        ends = {e for r in (rt, *curves) for t in r.terms for e in t.span if e is not None}
        for s in sorted(ends | {F(0)}):
            top = max(height(k.terms, s) for k in curves)
            assert height(rt.terms, s) <= top, (rt.rule.pretty(query.var_names), s, top)
    # domination is sound: the pruned rules of every plan, dominated ones
    # included (free-connex trees, closed M, then `make_pmtd`), reach the
    # kept plans' maximum at logS = 0 and at every span end, and no higher
    every = [
        p
        for td in enumerate_tds(query)
        if is_free_connex(td, query.head)
        for in_m in _downward_closed_sets(td)
        if (p := make_pmtd(td, in_m, query)) is not None
    ]
    done = {rt.rule.key(): rt for rt in curves}
    wide = [
        done[r.key()] if r.key() in done else rule_tradeoff(r, system)
        for r in prune_rules(generate_rules(every))
    ]
    ends = {e for r in (*wide, *curves) for t in r.terms for e in t.span if e is not None}
    for s in sorted(ends | {F(0)}):
        top = max(height(k.terms, s) for k in curves)
        assert max(height(w.terms, s) for w in wide) == top, (s, top)
