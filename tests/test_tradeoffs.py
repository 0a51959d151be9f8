"""Tradeoff extraction and the closed-form generators, pinned to worked values.

The piecewise curves asserted here were frozen from exact solves whose duals
are machine-verified certificates; the generator terms are checked against
the hand-derivable closed forms and against random polymatroid pairs.
"""

from __future__ import annotations

import hashlib
import logging
from functools import cache
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqap import proofs, tradeoffs
from cqap.decompose import TreeDecomp, enumerate_pmtds
from cqap.exactlp import LpError, walk_rhs
from cqap.queries import LogBound, load_query, parse_query, varset_of
from cqap.rules import TwoPhaseRule, generate_rules, prune_rules
from cqap.shannon import JointSystem, solve_joint_lp
from cqap.tradeoffs import TradeoffTerm, envelope, rule_tradeoff

from support import (
    curve_at,
    joint_inequality,
    joint_solve_at,
    tradeoff_from_edge_cover,
    tradeoff_from_path,
    verify_joint_inequality,
)

ROOT = Path(__file__).resolve().parent.parent / "corpus"
ZERO, ONE = F(0), F(1)


def q(name):
    return load_query(ROOT / "queries" / f"{name}.cqap")


def mask(query, *names):
    return varset_of(names, query.var_names)


def term(c, n, q_exp=0, k=1):
    """S^c * T^k ~ N^n * Q^q_exp, stored as its line over k."""
    return TradeoffTerm(space_exp=F(c, k), rhs=LogBound(F(n, k), F(q_exp, k)))


def lines_and_spans(rt):
    return [(t.line(), t.span) for t in rt.terms]


def certificates(rt):
    """Each term's line, span and full provenance, for equality checks."""
    fields = ("g_s", "g_t", "theta", "lam", "sigma_s", "mu_s", "sigma_t", "mu_t")
    return [
        (t.line(), t.span, [getattr(t.provenance, f) for f in fields])
        for t in rt.terms
    ]


# ═══════════════════════════════════════════════════════════════════════════
# Extracted rule curves (fixtures live in conftest.py; the solves are shared)
# ═══════════════════════════════════════════════════════════════════════════


def test_two_reach_single_piece(two_reach):
    _, _, rt = two_reach
    assert lines_and_spans(rt) == [((ONE, ONE, F(1, 2)), (ZERO, F(2)))]
    assert rt.s_cap == 2
    assert rt.terms[0].pretty() == "S*T^2 ~ N^2*Q^2"


def test_two_reach_extraction_is_the_worked_inequality(two_reach):
    query, _, rt = two_reach
    x1, x3, x2 = (mask(query, v) for v in ("x1", "x3", "x2"))
    prov = rt.terms[0].provenance
    double = lambda vec: {k: 2 * w for k, w in vec.items()}
    assert double(prov.g_s) == {(0, x1): 1, (0, x3): 1}
    assert double(prov.g_t) == {
        (0, x1 | x3): 2,
        (x1, x1 | x2): 1,
        (x3, x3 | x2): 1,
    }
    assert double(prov.theta) == {(0, x1 | x3): 1}
    assert double(prov.lam) == {(0, x1 | x2 | x3): 2}
    assert prov.bound == LogBound(ONE, ONE)
    assert prov.sigma_s == {(x1, x3): F(1, 2)}
    assert prov.sigma_t == {(x1 | x3, x3 | x2): F(1, 2), (x1 | x3, x1 | x2): F(1, 2)}
    assert prov.mu_s == {} and prov.mu_t == {}


def test_two_reach_scaled_s_side(two_reach):
    query, _, rt = two_reach
    x1, x3 = mask(query, "x1"), mask(query, "x3")
    g_s, theta, sigma_s, _ = rt.terms[0].provenance.scaled_s_side()
    assert theta == {(0, x1 | x3): 1}
    assert g_s == {(0, x1): 1, (0, x3): 1}
    assert sigma_s == {(x1, x3): 1}


def test_square_rules_match_the_worked_example():
    query = q("square")
    system = JointSystem(query)
    rules = prune_rules(generate_rules(enumerate_pmtds(query)))
    assert len(rules) == 2
    for rule in rules:
        rt = rule_tradeoff(rule, system)
        assert lines_and_spans(rt) == [((ONE, ONE, F(1, 2)), (ZERO, F(2)))]
        prov = rt.terms[0].provenance
        assert sorted(prov.g_s.values()) == [F(1, 2), F(1, 2)]
        assert sorted(prov.g_t.values()) == [F(1, 2), F(1, 2), ONE]
        assert list(prov.theta.values()) == [F(1, 2)]
        assert list(prov.lam.values()) == [ONE]


def test_three_reach_piece_tables(three_reach):
    _, _, curves = three_reach
    assert lines_and_spans(curves[1]) == [((ONE, ONE, F(1, 2)), (ZERO, F(2)))]
    two_piece = [
        ((ONE, F(1, 2), ZERO), (ZERO, F(1, 2))),
        ((F(4, 3), ONE, F(2, 3)), (F(1, 2), F(2))),
    ]
    assert lines_and_spans(curves[2]) == two_piece
    assert lines_and_spans(curves[3]) == two_piece
    assert lines_and_spans(curves[4]) == [
        ((ONE, ONE, ZERO), (ZERO, ONE)),
        ((F(2), ONE, ONE), (ONE, F(4, 3))),
        ((F(6), ONE, F(4)), (F(4, 3), F(3, 2))),
    ]
    assert curves[4].s_cap == F(3, 2)


def test_three_reach_reported_terms_cover_the_published_table(three_reach):
    # a published term is either one of the rule's own terms or implied by
    # them: the rule's curve lies on or below its line on [0, cap], checked at
    # each of the curve's breakpoints there and at the cap, at logQ = 0 and 1
    _, _, curves = three_reach
    published = {
        1: [term(1, 2, 2, 2)],
        2: [term(2, 4, 3, 3), term(0, 1, 1)],
        3: [term(2, 4, 3, 3), term(0, 1, 1)],
        4: [term(1, 2, 1), term(4, 6, 1), term(0, 1, 1)],
    }
    for idx, wanted in published.items():
        rt = curves[idx]
        for t in wanted:
            if t in rt.terms:
                continue
            a, b, c = t.line()
            for log_q in (ZERO, ONE):
                points = envelope([rt.terms], log_q).points
                grid = {s for s, _ in points if s <= rt.s_cap} | {rt.s_cap}
                for s in sorted(grid):
                    assert curve_at(points, s) <= a + b * log_q - c * s, (idx, t.pretty(), log_q, s)


def test_four_reach_piece_tables(four_reach):
    _, _, curves = four_reach
    assert lines_and_spans(curves["single"]) == [
        ((F(2), ONE, ONE), (ZERO, F(2)))
    ]
    assert lines_and_spans(curves["wide"]) == [
        ((ONE, ONE, ZERO), (ZERO, ONE)),
        ((F(2), ONE, ONE), (ONE, F(2))),
    ]
    assert lines_and_spans(curves["deep"]) == [
        ((ONE, ONE, ZERO), (ZERO, F(7, 6))),
        ((F(12, 5), ONE, F(6, 5)), (F(7, 6), F(9, 7))),
        ((F(3), ONE, F(5, 3)), (F(9, 7), F(4, 3))),
        ((F(13, 3), ONE, F(8, 3)), (F(4, 3), F(7, 5))),
        ((F(9), ONE, F(6)), (F(7, 5), F(3, 2))),
    ]
    assert curves["deep"].s_cap == F(3, 2)


def test_four_reach_displayed_terms_are_extracted_pieces(four_reach):
    _, _, curves = four_reach
    assert term(1, 2, 1) in curves["single"].terms
    assert term(2, 4, 2, 2) in curves["wide"].terms
    assert term(6, 12, 5, 5) in curves["deep"].terms
    assert term(8, 13, 3, 3) in curves["deep"].terms


def test_pieces_are_contiguous_and_steepen(three_reach, four_reach):
    curves = list(three_reach[2].values()) + list(four_reach[2].values())
    for rt in curves:
        assert rt.terms[0].span[0] == 0
        assert rt.terms[-1].span[1] == rt.s_cap
        for left, right in zip(rt.terms, rt.terms[1:]):
            assert left.span[1] == right.span[0]
            a0, _, c0 = left.line()
            a1, _, c1 = right.line()
            assert c1 > c0 and a1 > a0
            # the shared span edge is exactly the crossing of the two lines
            assert (a0 - a1) / (c0 - c1) == left.span[1]


def test_rule_curve_matches_fresh_probes(three_reach):
    _, system, curves = three_reach
    rt = curves[4]
    for budget, want in [(F(9, 8), F(7, 8)), (F(35, 24), F(1, 6))]:
        assert min(a - c * budget for a, _, c in (t.line() for t in rt.terms)) == want


def test_extraction_is_deterministic(two_reach):
    query, _, rt = two_reach
    fresh = rule_tradeoff(rt.rule, JointSystem(query))
    assert certificates(fresh) == certificates(rt)
    # warm request probes start from each rule's own walk, so neither a
    # shared system nor the order of the rules may move a certificate
    query = q("three_reach")
    kept = prune_rules(generate_rules(enumerate_pmtds(query)))
    system = JointSystem(query)
    shared = [rule_tradeoff(r, system) for r in kept]
    apart = [rule_tradeoff(r, JointSystem(query)) for r in reversed(kept)][::-1]
    assert len(shared) == 4
    for one, other in zip(shared, apart):
        assert certificates(one) == certificates(other), one.rule.pretty()


# SHA-256 over every conftest fixture term: its line, span and bound and the
# eight certificate vectors, each as its sorted items.  Any change to a row,
# the row order, a pivot rule or the certificate read-out moves a multiplier;
# re-record only with the reason.
FIXTURE_CERTIFICATES = "5c2b403da3bfd85de267d1dfcf5f64199bda2ff618a104faf174205f53eeff16"


def test_fixture_certificates_are_pinned(two_reach, three_reach, four_reach):
    curves = [two_reach[2]] + [three_reach[2][i] for i in (1, 2, 3, 4)]
    curves += [four_reach[2][k] for k in ("deep", "wide", "single")]
    parts = ("g_s", "g_t", "theta", "lam", "sigma_s", "sigma_t", "mu_s", "mu_t")
    text = "\n".join(
        repr((
            t.line(),
            t.span,
            t.provenance.bound,
            [sorted(getattr(t.provenance, p).items()) for p in parts],
        ))
        for rt in curves
        for t in rt.terms
    )
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_CERTIFICATES


def test_rule_without_online_targets_rejected(two_reach):
    query, system, _ = two_reach
    dead = TwoPhaseRule(
        s_targets=frozenset({mask(query, "x1", "x3")}), t_targets=frozenset()
    )
    with pytest.raises(ValueError):
        rule_tradeoff(dead, system)


def test_probe_error_names_the_rule_and_the_point(two_reach):
    # logS = 5/2 is above the rule's cap of 2, so no stored h_S reaches it
    _, system, rt = two_reach
    with pytest.raises(LpError, match="came back infeasible$") as exc:
        joint_solve_at(rt.rule, system, F(5, 2))
    assert rt.rule.pretty() in str(exc.value)
    assert "at (logN, logQ, logS) = (1, 0, 5/2) came back infeasible" in str(exc.value)


@pytest.mark.parametrize(
    "name, rules, terms, solves", [("two_reach", 1, 1, 2), ("three_reach", 4, 8, 12)]
)
def test_one_cold_probe_per_rule(monkeypatch, name, rules, terms, solves):
    # a rule's solve at logS = 0 is its only cold solve, and the walk from it
    # is no solve: the other solves are one request probe per term, each
    # started from its piece's first basis on the walk
    calls = []
    real = tradeoffs.solve_joint_lp

    def counting(rule, *args, start=None, **kwargs):
        calls.append((rule, start is None))
        return real(rule, *args, start=start, **kwargs)

    monkeypatch.setattr(tradeoffs, "solve_joint_lp", counting)
    query = q(name)
    system = JointSystem(query)
    rules_kept = prune_rules(generate_rules(enumerate_pmtds(query)))
    curves = [rule_tradeoff(r, system) for r in rules_kept]
    for rt in curves:
        cold = sum(1 for rule, is_cold in calls if is_cold and rule is rt.rule)
        assert cold == 1, rt.rule.pretty()
    assert (len(curves), sum(len(rt.terms) for rt in curves)) == (rules, terms)
    assert len(calls) == solves


@pytest.mark.parametrize(
    "tilt, message",
    [
        (lambda a, b, c: (a, -b, c), "request coefficient -1 cannot be negative"),
        (
            lambda a, b, c: (a + 1, b, c),
            "the dual line's (a, c) = (2, 1/2) is not the piece's (1, 1/2)",
        ),
    ],
    ids=["negative_b", "misses_a_c"],
)
def test_request_pin_error_names_the_rule_and_the_probe(monkeypatch, two_reach, tilt, message):
    # the two_reach piece S*T^2 ~ N^2*Q^2 spans [0, 2], so its request probe sits at logS = 1;
    # the probe is the rule's one warm solve
    _, system, rt = two_reach
    real = tradeoffs.solve_joint_lp

    def tilted(rule, system, s, *, start=None, **kwargs):
        sol = real(rule, system, s, start=start, **kwargs)
        if start is not None:
            sol.line = tilt(*sol.line)
        return sol

    monkeypatch.setattr(tradeoffs, "solve_joint_lp", tilted)
    with pytest.raises(LpError) as exc:
        rule_tradeoff(rt.rule, system)
    assert str(exc.value) == (
        f"request probe of {rt.rule.pretty()} at (logN, logQ, logS) = (1, 0, 1): {message}"
    )


def test_rule_is_formatted_only_for_debug_lines_and_errors(monkeypatch, caplog, two_reach):
    # rule.pretty() walks every target: a passing analysis below DEBUG never builds it
    _, system, rt = two_reach
    calls = []
    real = TwoPhaseRule.pretty

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(TwoPhaseRule, "pretty", counting)
    caplog.set_level(logging.WARNING, logger="cqap")
    rule_tradeoff(rt.rule, system)
    assert calls == []
    caplog.set_level(logging.DEBUG, logger="cqap.tradeoffs")
    rule_tradeoff(rt.rule, system)
    assert calls


def test_rule_without_storage_targets_extracts_one_plane(two_reach):
    # the online-only program still beats running from scratch: splitting
    # requests on the access row gives T^2 ~ N^2*Q, not T ~ N*Q
    query, system, _ = two_reach
    bfs = TwoPhaseRule(
        s_targets=frozenset(),
        t_targets=frozenset({mask(query, "x1", "x2", "x3")}),
    )
    rt = rule_tradeoff(bfs, system)
    assert rt.s_cap is None
    assert rt.terms == [term(0, 1, F(1, 2))]
    assert rt.terms[0].span == (ZERO, None)


def test_storage_cap_of_zero_gives_one_term_at_zero():
    # numeric bounds read as N^0, so nothing can be stored above logS = 0 and
    # the walk yields no piece; the term is pinned at logS = 0 alone
    query = parse_query(
        "two_reach(x1, x3 | x1, x3) :- R1(x1, x2), R2(x2, x3).\n"
        "dc R1: size = 8\n"
        "dc R2: size = 8"
    )
    system = JointSystem(query)
    rule = TwoPhaseRule(
        s_targets=frozenset({mask(query, "x1", "x3")}),
        t_targets=frozenset({mask(query, "x1", "x2", "x3")}),
    )
    rt = rule_tradeoff(rule, system)
    assert rt.s_cap == 0
    assert [(t.pretty(), t.span) for t in rt.terms] == [("T ~ 1", (ZERO, ZERO))]
    ext = rt.terms[0].provenance
    assert not ext.theta
    steps = proofs.construct(ext.g_t, ext.lam, sigma=ext.sigma_t, mu=ext.mu_t, name="cap 0 T")
    assert proofs.validate(steps)
    assert len(steps.steps) == 3


@pytest.mark.parametrize(
    "name",
    [
        "two_reach",
        "three_reach",
        "square",
        "set_disjointness_k2",
        "set_disjointness_k3",
        "set_disjointness_k4",
        "bool_two_sd",
    ],
)
def test_request_exponent_is_the_first_slope_of_a_log_q_walk(name):
    # an independent read of b: from any optimal basis at (logS, logQ) =
    # (m, 0), walk logQ up along the rows' request coefficients; the first
    # piece is the value's line just above logQ = 0
    query = q(name)
    system = JointSystem(query)
    for rule in prune_rules(generate_rules(enumerate_pmtds(query))):
        for t in rule_tradeoff(rule, system).terms:
            lo, hi = t.span
            m = lo if hi is None else (lo + hi) / 2
            a, b, c = t.line()
            sol = joint_solve_at(rule, system, m)
            pieces, _ = walk_rhs(sol.lp, system.rule_rows(rule).q)
            first = pieces[0]
            assert (first.lo, first.intercept, first.slope) == (0, a - c * m, b), t.pretty()


# ═══════════════════════════════════════════════════════════════════════════
# Closed-form generators
# ═══════════════════════════════════════════════════════════════════════════


def test_boolean_disjointness_closed_form(generator_terms):
    for k in (2, 3, 4):
        t = generator_terms[f"bool{k}"] if k > 2 else generator_terms["bool2"]
        assert t.space_exp == F(1, k)
        assert t.rhs == LogBound(ONE, ONE)
        assert t.pretty() == f"S*T^{k} ~ N^{k}*Q^{k}"


def test_witnessed_disjointness_uses_the_rule_route(generator_terms):
    for k in (2, 3, 4):
        t = generator_terms[f"sd{k}"]
        assert t.line() == (F(k, k - 1), ONE, F(1, k - 1))
        assert t.span == (ONE, F(k))  # steepest piece of the head rule


def test_two_reach_cover_matches_the_extracted_piece(two_reach, generator_terms):
    _, _, rt = two_reach
    assert generator_terms["cover2r"] == rt.terms[0]


def test_path_term_is_the_worked_four_reach_bound(generator_terms):
    t = generator_terms["path4"]
    assert t.space_exp == F(3, 2)
    assert t.rhs == LogBound(F(3), ONE)
    prov = t.provenance
    assert sum(prov.lam.values()) == 1
    assert prov.bound == t.rhs
    assert sum(prov.theta.values()) == t.space_exp


def test_path_inequality_shape(generator_terms):
    query = q("four_reach")
    v = lambda *ns: mask(query, *ns)
    prov = generator_terms["path4"].provenance
    assert prov.theta == {(0, v("x1", "x5")): ONE, (0, v("x2", "x4")): F(1, 2)}
    assert prov.lam == {(0, v("x2", "x3", "x4")): ONE}
    assert prov.g_s == {
        (0, v("x1")): ONE,
        (0, v("x5")): ONE,
        (0, v("x2")): F(1, 2),
        (0, v("x4")): F(1, 2),
    }
    assert prov.g_t == {
        (0, v("x1", "x5")): ONE,
        (v("x1"), v("x1", "x2")): ONE,
        (v("x5"), v("x4", "x5")): ONE,
        (v("x2"), v("x2", "x3")): F(1, 2),
        (v("x4"), v("x3", "x4")): F(1, 2),
    }


def test_single_bag_path_reduces_to_the_cover_form(generator_terms):
    query = q("two_reach")
    decomp = TreeDecomp(bags=(mask(query, "x1", "x2", "x3"),), parent=(-1,))
    t = tradeoff_from_path(query, decomp, [(1, 1)], [0])
    assert t == generator_terms["cover2r"]
    assert t.provenance.g_t == generator_terms["cover2r"].provenance.g_t


def test_five_chain_shell_path():
    chain = parse_query(
        "five_reach(x1, x6 | x1, x6) :- R1(x1, x2), R2(x2, x3), "
        "R3(x3, x4), R4(x4, x5), R5(x5, x6).\n"
        + "\n".join(f"dc R{i}: size = N^1" for i in range(1, 6))
    )
    decomp = TreeDecomp(
        bags=(
            mask(chain, "x1", "x2", "x5", "x6"),
            mask(chain, "x2", "x3", "x4", "x5"),
        ),
        parent=(-1, 0),
    )
    t = tradeoff_from_path(
        chain, decomp, [(1, 0, 0, 0, 1), (0, 1, 0, 1, 0)], [0, 1]
    )
    assert t.space_exp == F(2)
    assert t.rhs == LogBound(F(4), ONE)
    assert bool(verify_joint_inequality(joint_inequality(t.provenance), trials=150))


def test_degenerate_full_access_cover():
    query = parse_query("deg(x, y | x, y) :- R(x, y).\ndc R: size = N^1")
    t = tradeoff_from_edge_cover(query, [1])
    assert t.space_exp == ZERO
    assert t.rhs == LogBound(q=ONE)
    assert t.provenance is None


@pytest.mark.parametrize(
    "weights, message",
    [
        ([1], "one cover weight per body atom"),
        ([1, 0], "do not cover"),
        ([-1, 2], "nonnegative"),
    ],
)
def test_bad_covers_rejected(weights, message):
    with pytest.raises(ValueError, match=message):
        tradeoff_from_edge_cover(q("two_reach"), weights)


@pytest.mark.parametrize(
    "path, covers, message",
    [
        ([1, 0], [(1, 0, 0, 1), (0, 1, 1, 0)], "start at the root"),
        ([0], [(1, 0, 0, 1), (0, 1, 1, 0)], "one cover per path node"),
        ([0, 1], [(1, 0, 0, 1), (1, 0, 0, 1)], "do not cover"),
        ([0, 5], [(1, 0, 0, 1), (0, 1, 1, 0)], "not in the decomposition"),
        ([0, 0], [(1, 0, 0, 1), (0, 1, 1, 0)], "parent links"),
    ],
)
def test_bad_paths_rejected(path, covers, message):
    query = q("four_reach")
    decomp = TreeDecomp(
        bags=(
            mask(query, "x1", "x2", "x4", "x5"),
            mask(query, "x2", "x3", "x4"),
        ),
        parent=(-1, 0),
    )
    with pytest.raises(ValueError, match=message):
        tradeoff_from_path(query, decomp, covers, path)


@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, 3), b=st.integers(1, 3))
def test_any_positive_cover_of_disjointness_is_certified(a, b):
    query = q("bool_two_sd")
    t = tradeoff_from_edge_cover(query, [a, b])
    assert t.space_exp == F(1, a + b)
    assert t.rhs == LogBound(F(a + b, a + b), ONE)
    assert bool(verify_joint_inequality(joint_inequality(t.provenance), trials=40, seed=a * 7 + b))


# ═══════════════════════════════════════════════════════════════════════════
# Every emitted inequality holds on random polymatroid pairs
# ═══════════════════════════════════════════════════════════════════════════


def test_generated_inequalities_verify(
    two_reach, three_reach, four_reach, generator_terms
):
    batch = [two_reach[2].terms[0]]
    for rt in three_reach[2].values():
        batch.extend(rt.terms)
    batch.extend(four_reach[2]["wide"].terms)
    batch.append(four_reach[2]["deep"].terms[3])
    batch.extend(
        generator_terms[k] for k in ("bool2", "bool3", "sd2", "path4")
    )
    for i, t in enumerate(batch):
        res = verify_joint_inequality(joint_inequality(t.provenance), trials=120, seed=i)
        assert bool(res), t.pretty()


def test_provenance_prices_each_term(three_reach, generator_terms):
    terms = [t for rt in three_reach[2].values() for t in rt.terms]
    terms += [generator_terms["bool2"], generator_terms["path4"]]
    for t in terms:
        prov = t.provenance
        assert prov.bound == t.rhs
        assert sum(prov.theta.values()) == t.space_exp
        assert sum(prov.lam.values()) == ONE


# ═══════════════════════════════════════════════════════════════════════════
# Envelopes
# ═══════════════════════════════════════════════════════════════════════════


def fig_four_groups():
    # each rule may also answer from scratch within T ~ N
    return [
        [term(1, 2), term(0, 1)],
        [term(2, 4, 0, 2), term(0, 1)],
        [term(6, 12, 0, 5), term(8, 13, 0, 3), term(0, 1)],
    ]


def test_envelope_four_reach_figure():
    curve = envelope(fig_four_groups())
    assert curve.points == [
        (ZERO, ONE),
        (F(7, 6), ONE),
        (F(29, 22), F(9, 11)),
        (F(7, 5), F(3, 5)),
        (F(2), ZERO),
    ]


def test_four_reach_pipeline_improves_on_the_figure(four_reach):
    # The figure's deep group (the third above) omits deep's middle piece
    # S^5*T^3 ~ N^9*Q^3 on [9/7, 4/3].  With that piece the figure's curve is
    # the pipeline's whole-query envelope, which bends at 9/7 and 4/3 instead
    # of 29/22 and reads 1/66 lower there.  The piece is certified: both of
    # its proof sides validate.
    _, _, curves = four_reach
    middle = curves["deep"].terms[2]
    assert (middle.pretty(), middle.span) == ("S^5*T^3 ~ N^9*Q^3", (F(9, 7), F(4, 3)))
    groups = fig_four_groups()
    groups[2].append(middle)
    curve = envelope(groups)
    assert curve.points == WHOLE_QUERY_ENVELOPES["four_reach"][1]
    figure = envelope(fig_four_groups()).points
    assert curve_at(figure, F(29, 22)) - curve_at(curve.points, F(29, 22)) == F(1, 66)
    ext = middle.provenance
    for g, target, sigma, mu in ((ext.g_t, ext.lam, ext.sigma_t, ext.mu_t), ext.scaled_s_side()):
        assert proofs.validate(proofs.construct(g, target, sigma=sigma, mu=mu))


# each query's pruned rules (from its enumerated plans) and the envelope of
# their terms, each rule served by its own terms
WHOLE_QUERY_ENVELOPES = {
    "two_reach": (1, [(0, 1), (2, 0)]),
    "three_reach": (4, [(0, 1), (1, 1), (F(4, 3), F(2, 3)), (F(7, 5), F(2, 5)), (2, 0)]),
    "four_reach": (
        23,
        [(0, 1), (F(7, 6), 1), (F(9, 7), F(6, 7)), (F(4, 3), F(7, 9)), (F(7, 5), F(3, 5)), (2, 0)],
    ),
    "square": (2, [(0, 1), (2, 0)]),
    **{f"set_disjointness_k{k}": (1, [(0, 1), (1, 1), (k, 0)]) for k in (2, 3, 4)},
    "bool_two_sd": (1, [(0, 1), (2, 0)]),
}


# queries outside the corpus, each with the start of its envelope at logQ = 0:
# the value its worst rule certifies at logS = 0.  A term T ~ N*Q added to
# every rule without a certificate would pull each start down to 1
CERTIFIED_START_QUERIES = {
    "q12": (
        "q12(x2, x4 | x4) :- R1(x2, x4, x1), R2(x4, x2, x3), R3(x1, x3).\n"
        "dc R1: size = N^1\ndc R2: size = N^1\ndc R3: size = N^1",
        F(3, 2),
    ),
    "q172": (
        "q172(x1, x3, x4 | x1) :- R1(x3, x2), R2(x4, x2, x1).\n"
        "dc R1: size = N^1\ndc R2: size = N^1",
        F(2),
    ),
    "tri": (
        "tri(x1, x2, x3 | ) :- R(x1, x2), S(x2, x3), T(x1, x3).\n"
        "dc R: size = N^1\ndc S: size = N^1\ndc T: size = N^1",
        F(3, 2),
    ),
    "q29": (
        "q29(x1, x2, x3, x4, x5 | x4) :- R1(x5, x3, x1, x2), R2(x4, x5, x1).\n"
        "dc R1: size = N^3/2\ndc R2: size = N^3/2",
        F(3, 2),
    ),
}


@cache
def pruned_tradeoffs(name):
    """The query's system and the tradeoff of each pruned rule of its
    enumerated plans."""
    if name in CERTIFIED_START_QUERIES:
        system = JointSystem(parse_query(CERTIFIED_START_QUERIES[name][0]))
    else:
        system = JointSystem(q(name))
    rules = prune_rules(generate_rules(enumerate_pmtds(system.q)))
    return system, [rule_tradeoff(r, system) for r in rules]


@pytest.mark.parametrize("name", sorted(WHOLE_QUERY_ENVELOPES))
def test_whole_query_envelope(name):
    _, curves = pruned_tradeoffs(name)
    curve = envelope([rt.terms for rt in curves])
    assert (len(curves), curve.points) == WHOLE_QUERY_ENVELOPES[name]


# SHA-256 over every step, as (kind, X, Y, weight), of the T and S side proofs
# of every term of every pruned rule of the queries above, in query, rule and
# term order; `validate` checks each side.  The count and the digest pin the
# steps themselves, not only their validity: a prover that reorders, merges or
# re-weights a step moves the digest.  Re-record only with the reason.
PRUNED_PROOF_STEPS = (1002, "cf5819ce75130183d1f142ff4a1ee312ea33a87392cc076ad481903fdf97d915")


def test_pruned_rules_proof_steps_are_pinned():
    lines = []
    for name in sorted(WHOLE_QUERY_ENVELOPES):
        for rt in pruned_tradeoffs(name)[1]:
            for t in rt.terms:
                ext = t.provenance
                sides = [(ext.g_t, ext.lam, ext.sigma_t, ext.mu_t)]
                if ext.theta:
                    sides.append(ext.scaled_s_side())
                for g, target, sigma, mu in sides:
                    ps = proofs.construct(g, target, sigma=sigma, mu=mu)
                    assert proofs.validate(ps), (name, t.pretty())
                    lines += [repr((st.kind, st.x, st.y, st.weight)) for st in ps.steps]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == PRUNED_PROOF_STEPS


@pytest.mark.parametrize("log_q", [ZERO, F(1, 4), F(1, 2), ONE, F(2)], ids=str)
@pytest.mark.parametrize("name", sorted(WHOLE_QUERY_ENVELOPES) + sorted(CERTIFIED_START_QUERIES))
def test_envelope_is_no_lower_than_any_rule_at_positive_log_q(name, log_q):
    # every rule is served by its own terms, so at logS = 0 the envelope is
    # at least each rule's exact value, from a fresh joint solve.  It is
    # built as the benchmark builds it
    system, curves = pruned_tradeoffs(name)
    s0, t0 = envelope([rt.with_scratch() for rt in curves], log_q).points[0]
    assert s0 == 0
    for rt in curves:
        value = solve_joint_lp(rt.rule, system, ZERO, log_q=log_q).value
        assert value <= t0, (rt.rule.pretty(system.q.var_names), value, t0)
    if name in CERTIFIED_START_QUERIES and not log_q:
        assert t0 == CERTIFIED_START_QUERIES[name][1]


def test_three_reach_envelope_at_a_quarter_starts_at_its_worst_rule():
    # the rule T{x1,x2,x3} v T{x4,x2,x3} v S{x1,x4} v S{x4,x2} v S{x1,x3}
    # reads 5/4 at (logS, logQ) = (0, 1/4), and no rule reads more
    _, curves = pruned_tradeoffs("three_reach")
    curve = envelope([rt.terms for rt in curves], F(1, 4))
    assert curve.points[0] == (ZERO, F(5, 4))


def test_envelope_three_reach_figure():
    curve = envelope(
        [
            [term(1, 2, 2, 2)],
            [term(2, 4, 3, 3), term(0, 1, 1)],
            [term(2, 4, 3, 3), term(0, 1, 1)],
            [term(1, 2, 1), term(4, 6, 1), term(0, 1, 1)],
        ]
    )
    assert curve.points == [
        (ZERO, ONE),
        (ONE, ONE),
        (F(4, 3), F(2, 3)),
        (F(7, 5), F(2, 5)),
        (F(2), ZERO),
    ]


def test_envelope_single_term_is_a_straight_segment():
    curve = envelope([[term(1, 2)]])
    assert curve.points == [(ZERO, F(2)), (F(2), ZERO)]


def test_envelope_group_order_does_not_matter():
    base = envelope(fig_four_groups()).points
    assert envelope(fig_four_groups()[::-1]).points == base
    rotated = fig_four_groups()[1:] + fig_four_groups()[:1]
    assert envelope(rotated).points == base


def test_envelope_interpolation_and_clamping():
    curve = envelope(fig_four_groups())
    assert curve_at(curve.points, F(29, 22)) == F(9, 11)
    assert curve_at(curve.points, F(5, 4)) == F(12, 5) - F(6, 5) * F(5, 4)
    assert curve_at(curve.points, -1) == ONE
    assert curve_at(curve.points, 10) == ZERO


def test_envelope_respects_request_volume():
    # at logQ=1 the two-path term S*T^2 ~ N^2 Q^2 reads logT = (2+2-s)/2
    curve = envelope([[term(1, 2, 2, 2)]], log_q=ONE)
    assert curve.points == [(ZERO, F(2)), (F(4), ZERO)]


def test_envelope_csv_round_trip():
    curve = envelope(fig_four_groups())
    assert curve.to_csv().splitlines() == [
        "logS,logT",
        "0,1",
        "7/6,1",
        "29/22,9/11",
        "7/5,3/5",
        "2,0",
    ]


def test_envelope_without_terms_rejected():
    with pytest.raises(ValueError):
        envelope([])


def test_envelope_of_only_fallbacks_is_flat():
    # a rule the budget cannot help holds the curve at its value
    curve = envelope([[term(0, 1, 1)], [term(0, 2)]])
    assert curve.points == [(ZERO, F(2))]
    assert curve_at(curve.points, 3) == F(2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.fractions(min_value=F(1, 3), max_value=4, max_denominator=4),
    c=st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4),
)
def test_envelope_of_one_line_is_its_clamped_segment(n, c):
    curve = envelope([[TradeoffTerm(space_exp=c, rhs=LogBound(n))]])
    assert curve.points == [(ZERO, n), (n / c, ZERO)]


def exponents(hi):
    return st.fractions(min_value=0, max_value=hi, max_denominator=4)


random_terms = st.builds(
    lambda c, a, b, k: TradeoffTerm(space_exp=c / k, rhs=LogBound(a / k, b / k)),
    st.one_of(st.just(ZERO), exponents(3)),
    exponents(4),
    exponents(2),
    st.integers(1, 3),
)


@settings(max_examples=80, deadline=None)
@given(
    groups=st.lists(st.lists(random_terms, min_size=1, max_size=3), min_size=1, max_size=4),
    log_q=st.sampled_from([ZERO, F(1, 2), ONE]),
)
def test_envelope_is_the_clamped_max_of_mins_at_its_breakpoints(groups, log_q):
    def want(s):
        def at(t):
            a, b, c = t.line()
            return a + b * log_q - c * s

        return max(ZERO, max(min(at(t) for t in g) for g in groups))

    points = envelope(groups, log_q).points
    checks = [s for s, _ in points]
    checks += [(s0 + s1) / 2 for (s0, _), (s1, _) in zip(points, points[1:])]
    checks.append(points[-1][0] + 1)
    for s in checks:
        assert curve_at(points, s) == want(s), s
    for (s0, t0), (s1, t1), (s2, t2) in zip(points, points[1:], points[2:]):
        assert (t1 - t0) * (s2 - s1) != (t2 - t1) * (s1 - s0), (s1, t1)
    assert points[0][0] == 0
    if points[-1][1] == 0:
        assert all(t > 0 for _, t in points[:-1])
    else:
        assert len(points) == 1 or points[-2][1] > points[-1][1]


def test_term_identity_ignores_span_and_provenance(two_reach):
    # equal lines compare equal whatever their span or provenance
    piece = two_reach[2].terms[0]
    bare = TradeoffTerm(space_exp=piece.space_exp, rhs=piece.rhs)
    assert piece.span is not None and piece.provenance is not None
    assert bare == piece and hash(bare) == hash(piece)
    assert len({bare, piece, term(1, 2, 2, 2)}) == 1
    assert term(1, 2, 1) != term(1, 2)


def test_term_json_shape(generator_terms):
    doc = generator_terms["sd3"].to_json()
    assert doc["display"] == "S*T^2 ~ N^3*Q^2"
    assert doc["space_exp"] == "1/2"
    assert doc["n_exp"] == "3/2"
    assert doc["span"] == ["1", "3"]
