"""Shared fixtures: solved tradeoff curves are expensive, so build them once."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from cqap.decompose import TreeDecomp, enumerate_pmtds, pmtds_from_json
from cqap.exactlp import solve_lp
from cqap.queries import load_query, parse_query, varset_of
from cqap.rules import TwoPhaseRule, generate_rules, prune_rules
from cqap.shannon import JointSystem
from cqap.tradeoffs import rule_tradeoff

from support import tradeoff_from_edge_cover, tradeoff_from_path

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_query(name):
    return load_query(CORPUS / "queries" / f"{name}.cqap")


def varmask(query, *names):
    return varset_of(names, query.var_names)


def rule_with_t(rules, query, *t_groups):
    want = frozenset(varmask(query, *g) for g in t_groups)
    for r in rules:
        if r.t_targets == want:
            return r
    raise AssertionError(f"no rule with online targets {t_groups}")


def cap_lp(system, targets):
    """The storage cap as a program of its own: an oracle for the walk's end.

    max over h_S of min_B h_S(B) over the S-targets B, under the S side's
    polymatroid and degree rows at logN = 1, with t in column m.  It is
    solved as its dual, min b*y over y >= 0 with one row per column of the
    program: every bound is N^a with a >= 0, so every cost -b_i of the
    dual's maximization is <= 0 and its slack basis is dual feasible.  An
    infeasible dual means an unbounded program, and the cap is None.
    """
    tcol = system.m
    rows = [
        (r.coeffs, r.sense, r.bound.n)
        for r in system.base_rows()
        if r.tag[0] in ("mono", "sub", "dc") and r.tag[1] == "S"
    ]
    rows += [(((b - 1, -1), (tcol, 1)), "<=", 0) for b in sorted(targets)]
    # row i, read as a <= row, is dual column i; program column j is dual row j
    cost = []
    dual_rows = [[] for _ in range(tcol + 1)]
    for i, (coeffs, sense, rhs) in enumerate(rows):
        sign = 1 if sense == "<=" else -1
        cost.append(-sign * Fraction(rhs))
        for j, v in coeffs:
            dual_rows[j].append((i, sign * v))
    res = solve_lp(cost, [(pairs, ">=", int(j == tcol)) for j, pairs in enumerate(dual_rows)])
    assert res.status != "unbounded", "the zero point is feasible"
    return -res.value if res.status == "optimal" else None


@pytest.fixture(scope="session")
def two_reach():
    query = corpus_query("two_reach")
    system = JointSystem(query)
    rule = TwoPhaseRule(
        s_targets=frozenset({varmask(query, "x1", "x3")}),
        t_targets=frozenset({varmask(query, "x1", "x2", "x3")}),
    )
    return query, system, rule_tradeoff(rule, system)


@pytest.fixture(scope="session")
def three_reach():
    query = corpus_query("three_reach")
    system = JointSystem(query)
    rules = prune_rules(generate_rules(enumerate_pmtds(query)))
    groups = {
        1: (("x1", "x2", "x4"), ("x1", "x3", "x4")),
        2: (("x1", "x2", "x4"), ("x1", "x2", "x3")),
        3: (("x1", "x3", "x4"), ("x2", "x3", "x4")),
        4: (("x1", "x2", "x3"), ("x2", "x3", "x4")),
    }
    curves = {
        idx: rule_tradeoff(rule_with_t(rules, query, *g), system)
        for idx, g in groups.items()
    }
    return query, system, curves


@pytest.fixture(scope="session")
def four_reach():
    query = corpus_query("four_reach")
    system = JointSystem(query)
    text = (CORPUS / "pmtds" / "four_reach.json").read_text()
    rules = prune_rules(generate_rules(pmtds_from_json(text, query)))
    deep = rule_tradeoff(
        rule_with_t(rules, query, ("x3", "x4", "x5"), ("x2", "x3", "x4")),
        system,
    )
    wide = rule_tradeoff(
        rule_with_t(
            rules,
            query,
            ("x1", "x2", "x3", "x5"),
            ("x1", "x3", "x4", "x5"),
            ("x2", "x3", "x4"),
        ),
        system,
    )
    single = rule_tradeoff(
        TwoPhaseRule(
            s_targets=frozenset({varmask(query, "x1", "x5")}),
            t_targets=frozenset({varmask(query, "x1", "x2", "x4", "x5")}),
        ),
        system,
    )
    return query, system, {"deep": deep, "wide": wide, "single": single}


@pytest.fixture(scope="session")
def generator_terms():
    """Closed-form and LP-route generator outputs reused across tests."""
    out = {}
    for k in (2, 3, 4):
        query = corpus_query(f"set_disjointness_k{k}")
        out[f"sd{k}"] = tradeoff_from_edge_cover(query, [1] * k)
    out["bool2"] = tradeoff_from_edge_cover(corpus_query("bool_two_sd"), [1, 1])
    for k in (3, 4):
        vs = ", ".join(f"x{i}" for i in range(1, k + 1))
        atoms = ", ".join(f"R(y, x{i})" for i in range(1, k + 1))
        boolean = parse_query(
            f"bool_sd_{k}({vs} | {vs}) :- {atoms}.\ndc R: size = N^1"
        )
        out[f"bool{k}"] = tradeoff_from_edge_cover(boolean, [1] * k)
    out["cover2r"] = tradeoff_from_edge_cover(corpus_query("two_reach"), [1, 1])

    query = corpus_query("four_reach")
    decomp = TreeDecomp(
        bags=(
            varmask(query, "x1", "x2", "x4", "x5"),
            varmask(query, "x2", "x3", "x4"),
        ),
        parent=(-1, 0),
    )
    out["path4"] = tradeoff_from_path(
        query, decomp, [(1, 0, 0, 1), (0, 1, 1, 0)], [0, 1]
    )
    return out
