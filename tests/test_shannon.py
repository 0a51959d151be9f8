"""Joint entropy program: values, certificates, caps, and cross-checks."""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from functools import partial
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from cqap import shannon
from cqap.decompose import enumerate_pmtds, pmtds_from_json
from cqap.exactlp import LpError, _Simplex, resolve_lp, solve_lp
from cqap.queries import LogBound, load_query, parse_query, varset_of
from cqap.rules import TwoPhaseRule, generate_rules, prune_rules
from cqap.shannon import JointSystem, solve_joint_lp

from conftest import cap_lp
from support import SetFunction, check_polymatroid, joint_solve_at

ROOT = Path(__file__).resolve().parent.parent / "corpus"


def q(name):
    return load_query(ROOT / "queries" / f"{name}.cqap")


def mask(query, *names):
    return varset_of(names, query.var_names)


def rules_of(query):
    return prune_rules(generate_rules(enumerate_pmtds(query)))


def rule_with_t(rules, query, *t_groups):
    want = {mask(query, *g) for g in t_groups}
    return next(r for r in rules if set(r.t_targets) == want)


# ═══════════════════════════════════════════════════════════════════════════
# two_reach: the worked certificate
# ═══════════════════════════════════════════════════════════════════════════


def test_two_reach_value_line_and_cap():
    query = q("two_reach")
    system = JointSystem(query)
    (rule,) = rules_of(query)
    sol = joint_solve_at(rule, system, F(1))
    assert sol.value == F(1, 2)
    assert sol.line == (F(1), F(1), F(1, 2))
    assert cap_lp(system, rule.s_targets) == 2


def test_two_reach_certificate_is_the_worked_dual():
    query = q("two_reach")
    x1, x3, x2 = (mask(query, v) for v in ("x1", "x3", "x2"))
    system = JointSystem(query)
    (rule,) = rules_of(query)
    d = joint_solve_at(rule, system, F(1)).certificate
    assert d.lam == {(0, x1 | x2 | x3): F(1)}
    assert d.theta == {(0, x1 | x3): F(1, 2)}
    # the request row charges the pair once; each relation is charged half
    # by its gp row: a stored prefix plus a traversal, and no gm or dc row
    assert d.g_s == {(0, x1): F(1, 2), (0, x3): F(1, 2)}
    assert d.g_t == {(0, x1 | x3): F(1), (x1, x1 | x2): F(1, 2), (x3, x2 | x3): F(1, 2)}
    assert d.bound == LogBound(F(1), F(1))
    # the stored halves merge on the request pair, the traversals on the full set
    assert d.sigma_s == {(x1, x3): F(1, 2)}
    assert d.sigma_t == {(x1 | x3, x1 | x2): F(1, 2), (x1 | x3, x2 | x3): F(1, 2)}
    assert d.mu_s == {} and d.mu_t == {}


def test_cold_solve_runs_at_log_s_zero():
    # the slack basis violates the theta rows at logS > 0: only a warm start gets there
    query = q("two_reach")
    system = JointSystem(query)
    (rule,) = rules_of(query)
    with pytest.raises(ValueError, match="^a cold solve needs a primal feasible slack basis"):
        solve_joint_lp(rule, system, F(1))


def test_two_reach_budget_cap_region():
    query = q("two_reach")
    system = JointSystem(query)
    (rule,) = rules_of(query)
    assert joint_solve_at(rule, system, F(2)).value == 0
    for s in (F(5, 2), F(7)):
        with pytest.raises(LpError, match="came back infeasible$"):
            joint_solve_at(rule, system, s)
    near = joint_solve_at(rule, system, F(199, 100))
    assert near.value == F(1, 200)


# ═══════════════════════════════════════════════════════════════════════════
# three_reach: piecewise values
# ═══════════════════════════════════════════════════════════════════════════


def three_reach_rho(idx):
    query = q("three_reach")
    rules = rules_of(query)
    groups = {
        1: (("x1", "x2", "x4"), ("x1", "x3", "x4")),
        2: (("x1", "x2", "x4"), ("x1", "x2", "x3")),
        4: (("x1", "x2", "x3"), ("x2", "x3", "x4")),
    }[idx]
    return query, rule_with_t(rules, query, *groups)


def test_three_reach_rho4_piece_sweep():
    query, rule = three_reach_rho(4)
    system = JointSystem(query)
    expected = {
        F(0): F(1),
        F(1, 2): F(1),
        F(1): F(1),
        F(9, 8): F(7, 8),
        F(4, 3): F(2, 3),
        F(35, 24): F(1, 6),
    }
    assert cap_lp(system, rule.s_targets) == F(3, 2)
    lines = {}
    for s, want in expected.items():
        sol = joint_solve_at(rule, system, s)
        assert sol.value == want, f"logS={s}"
        assert sum(sol.certificate.lam.values()) == 1
        lines[s] = sol.line
    # every reported line stays a valid bound at every other probe
    for s_from, (a, _b, c) in lines.items():
        for s_at, want in expected.items():
            assert want <= a - c * s_at, (s_from, s_at)
    # at the cap the whole S side fits and nothing is left to pay online;
    # above it no stored h_S reaches the budget
    assert joint_solve_at(rule, system, F(3, 2)).value == 0
    with pytest.raises(LpError, match="came back infeasible$"):
        joint_solve_at(rule, system, F(2))


def test_three_reach_rho1_single_piece():
    query, rule = three_reach_rho(1)
    system = JointSystem(query)
    for s in (F(0), F(1, 2), F(1), F(3, 2)):
        sol = joint_solve_at(rule, system, s)
        assert sol.value == 1 - s / 2
    # a small positive request budget pins the request coefficient too
    probe = joint_solve_at(rule, system, F(1), log_q=F(1, 64))
    assert probe.value == 1 + F(1, 64) - F(1, 2)
    assert probe.line == (F(1), F(1), F(1, 2))
    assert cap_lp(system, rule.s_targets) == 2


def test_obj_non_increasing_in_budget():
    query, rule = three_reach_rho(2)
    system = JointSystem(query)
    cap = cap_lp(system, rule.s_targets)
    last = None
    for k in range(0, int(4 * cap) + 1):
        sol = joint_solve_at(rule, system, F(k, 4))
        if last is not None:
            assert sol.value <= last
        last = sol.value


def test_primal_is_certified_polymatroid_pair():
    query, rule = three_reach_rho(4)
    system = JointSystem(query)
    sol = joint_solve_at(rule, system, F(9, 8))
    x, m = sol.lp.x, system.m
    h_s = SetFunction(system.n, [F(0)] + x[:m])
    h_t = SetFunction(system.n, [F(0)] + x[m : 2 * m])
    assert check_polymatroid(h_s) and check_polymatroid(h_t)
    # the maximin witness really attains the value on some target
    assert min(h_t(b) for b in rule.t_targets) == sol.value
    assert all(h_s(b) >= F(9, 8) for b in rule.s_targets)


def test_package_errors_name_the_rule_row_and_residual():
    query = q("two_reach")
    system = JointSystem(query)
    (rule,) = rules_of(query)
    sol = joint_solve_at(rule, system, F(1))
    rows = system.rule_rows(rule).rows
    res = sol.lp

    def package(**changes):
        return shannon._package(rule, query.var_names, rows, replace(res, **changes))

    assert package().certificate == sol.certificate
    # the theta row is ">=", so its multiplier -1/2 turns positive
    i = next(k for k, r in enumerate(rows) if r.tag[0] == "theta")
    flipped = list(res.duals)
    assert flipped[i] == F(-1, 2)
    flipped[i] = -flipped[i]
    with pytest.raises(shannon.LpError) as e:
        package(duals=flipped)
    assert str(e.value) == (
        "multiplier 1/2 on row ('theta', 3) of T{x1,x3,x2} v S{x1,x3} "
        "has the wrong sign for its sense '>='"
    )
    with pytest.raises(shannon.LpError) as e:
        package(duals=[m / 2 for m in res.duals])
    assert str(e.value) == "target multipliers of T{x1,x3,x2} v S{x1,x3} sum to 1/2, not 1"


def test_mono_and_sub_rows_are_the_elemental_inequalities():
    # a solved point is a polymatroid pair because the exact LP checked it
    # against every row: each side's mono and sub rows must be exactly its
    # elemental inequalities, each once, as in `support.check_polymatroid`
    names = sorted(p.stem for p in (ROOT / "queries").glob("*.cqap"))
    assert len(names) == 9
    for name in names:
        system = JointSystem(q(name))
        n, full = system.n, system.full
        for side in ("S", "T"):

            def ineq(terms):
                acc = Counter()
                for z, w in terms:
                    if z:
                        acc[system.col(side, z)] += w
                return frozenset((j, v) for j, v in acc.items() if v)

            want = [ineq([(full, 1), (full & ~(1 << i), -1)]) for i in range(n)]
            for i, j in combinations(range(n), 2):
                bi, bj = 1 << i, 1 << j
                for x in range(full + 1):
                    if not x & (bi | bj):
                        want.append(ineq([(x | bi, 1), (x | bj, 1), (x | bi | bj, -1), (x, -1)]))
            rows = [
                r for r in system.base_rows()
                if r.tag[:2] in (("mono", side), ("sub", side))
            ]
            assert len(want) == len(set(want)) == n + comb(n, 2) * 2 ** (n - 2), name
            assert all(r.sense == ">=" and r.bound == LogBound() and not r.s_mult for r in rows)
            assert Counter(frozenset(r.coeffs) for r in rows) == Counter(want), (name, side)


# ═══════════════════════════════════════════════════════════════════════════
# weighted-bound sandwich and formulation cross-checks
# ═══════════════════════════════════════════════════════════════════════════


def weighted_bound(system, lam, theta, log_s):
    """max Σλ·h_T(B) + Σθ·h_S(B') under the data rows, minus ‖θ‖₁·logS."""
    rows = [
        (r.coeffs, r.sense, r.bound.n)
        for r in system.base_rows()
    ]
    c = [F(0)] * system.ncols
    for b, w in lam.items():
        c[system.col("T", b)] += w
    for b, w in theta.items():
        c[system.col("S", b)] += w
    res = solve_lp(c, rows)
    assert res.status == "optimal"
    return res.value - sum(theta.values()) * log_s


def test_weighted_bound_sandwich():
    query, rule = three_reach_rho(4)
    system = JointSystem(query)
    s = F(9, 8)
    sol = joint_solve_at(rule, system, s)
    lam = {b: w for (_, b), w in sol.certificate.lam.items()}
    theta = {b: w for (_, b), w in sol.certificate.theta.items()}
    # at the solved multipliers the bound is tight ...
    assert weighted_bound(system, lam, theta, s) == sol.value
    # ... and any other feasible choice can only be weaker
    x13 = mask(query, "x1", "x3")
    x14 = mask(query, "x1", "x4")
    x24 = mask(query, "x2", "x4")
    hand = (
        {next(iter(rule.t_targets)): F(1)},
        {x13: F(1, 2), x24: F(1, 2)},
    )
    perturbed = (
        lam,
        {x14: theta.get(x14, F(0)) + F(1, 3), **{
            b: w for b, w in theta.items() if b != x14
        }},
    )
    for lam, theta in (hand, perturbed):
        assert weighted_bound(system, lam, theta, s) >= sol.value


def test_empty_t_side_reports_unbounded():
    query = q("two_reach")
    system = JointSystem(query)
    rule = TwoPhaseRule(s_targets=frozenset({mask(query, "x1", "x3")}), t_targets=frozenset())
    with pytest.raises(LpError, match="came back unbounded$"):
        joint_solve_at(rule, system, F(1))


def full_polymatroid_rows(system, side):
    """Every monotonicity and submodularity row, not just the elemental basis."""
    rows = []
    full = system.full
    for x in range(1, full + 1):
        for y in range(1, full + 1):
            if x != y and x & y == x:
                rows.append(
                    ([(system.col(side, y), F(1)), (system.col(side, x), F(-1))], ">=", F(0))
                )
    for i_set in range(1, full + 1):
        for j_set in range(1, full + 1):
            if i_set & j_set in (i_set, j_set):
                continue  # comparable pairs are vacuous
            coeffs = [(system.col(side, i_set), F(1)), (system.col(side, j_set), F(1))]
            coeffs.append((system.col(side, i_set | j_set), F(-1)))
            if i_set & j_set:
                coeffs.append((system.col(side, i_set & j_set), F(-1)))
            rows.append((coeffs, ">=", F(0)))
    return rows


def solve_at(system, rule, s, extra=()):
    """The rule's program (plus `extra` rows) at logS = s, straight through the exact LP.

    A cold solve starts on the slack basis, where a theta row h_S(B') >= s
    with s > 0 is violated, so the program is solved at logS = 0 first and
    warm-started to s with the right sides alone.
    """
    c = [F(0)] * system.ncols
    c[system.col_obj] = F(1)

    def rows(log_s):
        return [
            (r.coeffs, r.sense, r.bound.n + r.s_mult * log_s)
            for r in system.rule_rows(rule).rows
        ] + list(extra)

    return resolve_lp(solve_lp(c, rows(F(0))), [b for _, _, b in rows(s)], [0] * len(rows(s)))


@pytest.mark.parametrize("name,s", [("two_reach", F(1)), ("three_reach", F(1))])
def test_elemental_basis_equals_full_form(name, s):
    query = q(name)
    system = JointSystem(query)
    rule = sorted(rules_of(query), key=lambda r: r.key())[0]
    base = joint_solve_at(rule, system, s)
    full = full_polymatroid_rows(system, "S") + full_polymatroid_rows(system, "T")
    res = solve_at(system, rule, s, extra=full)
    assert res.status == "optimal" and res.value == base.value


def test_three_reach_rho4_joint_value():
    query, rule = three_reach_rho(4)
    system = JointSystem(query)
    assert solve_at(system, rule, F(9, 8)).value == F(7, 8)


def test_solve_is_deterministic():
    query, rule = three_reach_rho(2)
    system = JointSystem(query)
    a = joint_solve_at(rule, system, F(5, 4))
    b = joint_solve_at(rule, JointSystem(query), F(5, 4))
    assert a.value == b.value and a.line == b.line
    assert a.certificate == b.certificate


def priced_cap(rule, system):
    """The cap `log_size_bound` prices from the Farkas multipliers of the rule's walk."""
    _, farkas = shannon.walk_joint_lp(rule, system, solve_joint_lp(rule, system, F(0)))
    return system.log_size_bound(rule, farkas)


def test_log_size_bound_values():
    query = q("two_reach")
    system = JointSystem(query)
    pair = frozenset({mask(query, "x1", "x3")})
    rule = TwoPhaseRule(s_targets=pair, t_targets=frozenset({mask(query, "x1", "x2", "x3")}))
    assert priced_cap(rule, system) == cap_lp(system, pair) == 2

    query3, rule4 = three_reach_rho(4)
    system3 = JointSystem(query3)
    assert priced_cap(rule4, system3) == cap_lp(system3, rule4.s_targets) == F(3, 2)


def test_log_size_bound_rejects_a_changed_multiplier():
    # numeric bounds read as N^0, so nothing can be stored above logS = 0:
    # the walk has no piece, and its last row adds theta, a mono, a sub and
    # both S-side dc rows into 0 <= 0 - logS
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
    low = solve_joint_lp(rule, system, F(0))
    pieces, farkas = shannon.walk_joint_lp(rule, system, low)
    rows = system.rule_rows(rule).rows
    used = {rows[i].tag: y for i, y in enumerate(farkas) if y}
    assert pieces == []
    assert used == {
        ("theta", mask(query, "x1", "x3")): -1,
        ("mono", "S", 2): -1,
        ("sub", "S", 0, 1, 4): -1,
        ("dc", "S", 0): 1,
        ("dc", "S", 1): 1,
    }
    check = partial(low.lp._tableau._check_farkas, direction=[r.s_mult for r in rows], end=F(0))
    check(farkas)
    assert system.log_size_bound(rule, farkas) == cap_lp(system, rule.s_targets) == 0
    for i, y in enumerate(farkas):
        if not y:
            continue
        flipped = list(farkas)
        flipped[i] = -y
        with pytest.raises(LpError, match="^(negative|positive) multiplier on a [<>]= row$"):
            check(flipped)
        with pytest.raises(LpError, match=f"on row {re.escape(str(rows[i].tag))} .* wrong sign"):
            system.log_size_bound(rule, flipped)
        dropped = list(farkas)
        dropped[i] = F(0)
        with pytest.raises(LpError, match="^Farkas multipliers (price a column|do not price)"):
            check(dropped)
    # the dc rows' right sides are 0 here, so a doubled dc multiplier is
    # another valid certificate of the same cap, not a wrong one
    tags = [r.tag for r in rows]
    i = tags.index(("dc", "S", 0))
    doubled = list(farkas)
    doubled[i] = 2
    check(doubled)
    assert system.log_size_bound(rule, doubled) == 0
    # a doubled theta multiplier overweighs the S-target's column
    i = tags.index(("theta", mask(query, "x1", "x3")))
    doubled = list(farkas)
    doubled[i] = -2
    with pytest.raises(LpError, match="^Farkas multipliers price a column below 0$"):
        check(doubled)
    # all-zero multipliers pass every sign check but price logS at 0
    with pytest.raises(LpError, match=r"^Farkas multipliers of .* price logS at 0, not below 0$"):
        system.log_size_bound(rule, [F(0)] * len(farkas))


# ═══════════════════════════════════════════════════════════════════════════
# four_reach probes (n=5)
# ═══════════════════════════════════════════════════════════════════════════


def four_reach_rules():
    query = q("four_reach")
    plans = pmtds_from_json((ROOT / "pmtds" / "four_reach.json").read_text(), query)
    return query, prune_rules(generate_rules(plans))


def test_four_reach_deep_rule_pieces():
    query, rules = four_reach_rules()
    system = JointSystem(query)
    rule = rule_with_t(rules, query, ("x3", "x4", "x5"), ("x2", "x3", "x4"))
    at_54 = joint_solve_at(rule, system, F(5, 4))
    assert at_54.value == F(9, 10)
    assert at_54.line == (F(12, 5), F(1), F(6, 5))
    assert joint_solve_at(rule, system, F(7, 5)).value == F(3, 5)
    # between the two printed pieces the program is strictly tighter than
    # their crossing: the curve has an intermediate segment there
    assert joint_solve_at(rule, system, F(29, 22)).value == F(53, 66)


# dual pivots of the deep rule's warm move from logS = 0 to its storage cap;
# pricing the most negative right side took 97, dual steepest edge takes 52
FOUR_REACH_DEEP_CAP_PIVOTS = 52
# tie pivots of the same move, toward larger logQ
FOUR_REACH_DEEP_CAP_TIE_PIVOTS = 2


def test_four_reach_deep_rule_warm_move_to_the_cap(caplog):
    query, rules = four_reach_rules()
    system = JointSystem(query)
    rule = rule_with_t(rules, query, ("x3", "x4", "x5"), ("x2", "x3", "x4"))
    cap = cap_lp(system, rule.s_targets)
    low = solve_joint_lp(rule, system, F(0))
    with caplog.at_level(logging.DEBUG, logger="cqap.exactlp"):
        high = solve_joint_lp(rule, system, cap, start=low)
    assert (cap, high.value) == (F(3, 2), 0)
    warm = [m for m in caplog.messages if m.startswith("warm optimal:")]
    assert len(warm) == 1
    counts = re.search(r"(\d+) dual \+ (\d+) tie \+ 0 primal pivots", warm[0]).groups()
    dual, tie = map(int, counts)
    assert dual == FOUR_REACH_DEEP_CAP_PIVOTS
    assert tie == FOUR_REACH_DEEP_CAP_TIE_PIVOTS


def test_four_reach_three_target_rule_curve():
    query, rules = four_reach_rules()
    system = JointSystem(query)
    rule = rule_with_t(
        rules, query, ("x1", "x2", "x3", "x5"), ("x1", "x3", "x4", "x5"), ("x2", "x3", "x4")
    )
    # flat until the stored views pay for themselves, then one trade line
    low = joint_solve_at(rule, system, F(1, 2))
    assert low.value == F(1) and low.line == (F(1), F(1), F(0))
    high = joint_solve_at(rule, system, F(3, 2), log_q=F(1, 64))
    assert high.value == F(33, 64) and high.line == (F(2), F(1), F(1))
    assert joint_solve_at(rule, system, F(2)).value == 0
    with pytest.raises(LpError, match="came back infeasible$"):
        joint_solve_at(rule, system, F(5, 2))


# ═══════════════════════════════════════════════════════════════════════════
# the walk from logS = 0 to the storage cap
# ═══════════════════════════════════════════════════════════════════════════


def test_walk_pieces_are_fresh_solves_on_every_corpus_rule():
    # hierarchical's rules take minutes; the CI job checks their piece tables
    names = sorted(p.stem for p in (ROOT / "queries").glob("*.cqap"))
    walked = 0
    for name in names:
        if name == "hierarchical":
            continue
        query = q(name)
        system = JointSystem(query)
        for rule in rules_of(query):
            if not rule.s_targets:
                continue
            low = solve_joint_lp(rule, system, F(0))
            pieces, farkas = shannon.walk_joint_lp(rule, system, low)
            where = (name, rule.pretty())
            assert pieces[0].lo == 0, where
            # the walk's end, its priced certificate and the cap solved as a program agree
            cap = cap_lp(system, rule.s_targets)
            assert pieces[-1].hi == system.log_size_bound(rule, farkas) == cap, where
            for p in pieces:
                # a solve of its own, by dual simplex from the optimum at 0
                a, _, c = solve_joint_lp(rule, system, (p.lo + p.hi) / 2, start=low).line
                assert (p.intercept, p.slope) == (a, -c), where
            for left, right in zip(pieces, pieces[1:]):
                crossing = (right.intercept - left.intercept) / (left.slope - right.slope)
                assert left.hi == right.lo == crossing, where
            walked += 1
    assert walked == 34


# ═══════════════════════════════════════════════════════════════════════════
# every cold program the analysis poses starts on a feasible slack basis
# ═══════════════════════════════════════════════════════════════════════════


class Posed(Exception):
    """Stops a solve once its program has been recorded."""


# the joint programs of the 37 pruned rules of the corpus
COLD_PROGRAMS = 37


def test_every_cold_program_starts_on_a_feasible_slack_basis(monkeypatch):
    # each rule's joint program at (logS, logQ) = (0, 0), built as a tableau
    # and never solved.  It has a positive cost, so it must start primal
    # feasible: no right side on the wrong side of its row
    posed = []

    def pose(c, rows):
        lp = _Simplex([F(v) for v in c], rows)
        bad = [i for i, row in enumerate(lp.tab) if row.get(lp.ncols, 0) < 0]
        posed.append((what, bad))
        raise Posed

    monkeypatch.setattr(shannon, "solve_lp_guided", pose)
    names = sorted(p.stem for p in (ROOT / "queries").glob("*.cqap"))
    assert len(names) == 9 and "hierarchical" in names
    for name in names:
        query = q(name)
        system = JointSystem(query)
        for k, rule in enumerate(rules_of(query)):
            what = (name, k)
            with pytest.raises(Posed):
                solve_joint_lp(rule, system, F(0))
    assert [p for p in posed if p[1]] == []
    assert len(posed) == COLD_PROGRAMS
