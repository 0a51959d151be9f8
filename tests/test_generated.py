"""Generated CQAPs through the whole pipeline, from text to envelope.

Every other pinned output comes from a few hand-written queries.  Here
`support.random_cqap` draws queries with self-joins, degree bounds and
sizes N^1/2, N^1 and N^3/2, and each goes from text to pruned rules, their
terms, proofs and envelope.  A failing query's text is printed first, so it
shows in the report and can be pasted into a test.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from cqap import proofs
from cqap.decompose import enumerate_pmtds
from cqap.queries import parse_query, print_query
from cqap.rules import generate_rules, prune_rules
from cqap.shannon import JointSystem, solve_joint_lp
from cqap.tradeoffs import envelope, rule_tradeoff

from support import random_cqap

GENERATED = 40


@pytest.mark.parametrize("seed", range(GENERATED))
def test_generated_query_from_text_to_envelope(seed):
    text = random_cqap(random.Random(seed))
    print(text)
    query = parse_query(text)
    printed = print_query(query)
    assert print_query(parse_query(printed)) == printed
    system = JointSystem(query)
    curves = [rule_tradeoff(r, system) for r in prune_rules(generate_rules(enumerate_pmtds(query)))]
    # every side of every term constructs and validates
    for rt in curves:
        for t in rt.terms:
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
