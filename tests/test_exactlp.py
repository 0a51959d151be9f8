"""Exact simplex: known optima, edge statuses, pinned pivots, scipy cross-check."""

from __future__ import annotations

import hashlib
import logging
import math
import re
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqap import exactlp, shannon
from cqap.decompose import enumerate_pmtds
from cqap.exactlp import LpError, PivotLimitError, _Simplex, resolve_lp, solve_lp, walk_rhs
from cqap.queries import load_query
from cqap.rules import generate_rules, prune_rules
from cqap.shannon import JointSystem
from cqap.tradeoffs import rule_tradeoff

from support import dense_tableau, gauss_jordan_pivot


def sparse(rows):
    """Literal dense rows as the (column, value) pairs solve_lp reads."""
    return [(list(enumerate(a)), sense, b) for a, sense, b in rows]


def test_small_maximization_with_duals():
    res = solve_lp([3, 2], sparse([([1, 1], "<=", 4), ([1, 0], "<=", 2)]))
    assert res.status == "optimal"
    assert res.value == 10
    assert res.x == [2, 2]
    assert res.duals == [F(2), F(1)]


def test_optimal_solve_logs_its_size_and_pivots(caplog):
    # a primal feasible start pivots in phase 2, a dual feasible one in the dual phase
    with caplog.at_level(logging.DEBUG, logger="cqap.exactlp"):
        solve_lp([3, 2], sparse([([1, 1], "<=", 4), ([1, 0], "<=", 2)]))
        solve_lp([-1, -1], sparse([([1, 2], ">=", 4)]))
    assert caplog.messages == [
        "optimal: 2 rows, 2 columns, 0 dual + 2 primal pivots",
        "optimal: 1 rows, 2 columns, 1 dual + 0 primal pivots",
    ]


def test_warm_solve_logs_its_size_and_pivots(caplog):
    with caplog.at_level(logging.DEBUG, logger="cqap.exactlp"):
        start = solve_lp([3, 2], sparse([([1, 1], "<=", 4), ([1, 0], "<=", 2)]))
        res = resolve_lp(start, [4, 5], [0, 0])
    assert (res.status, res.value, res.x) == ("optimal", 12, [4, 0])
    assert caplog.messages == [
        "optimal: 2 rows, 2 columns, 0 dual + 2 primal pivots",
        "warm optimal: 2 rows, 2 columns, 1 dual + 0 tie + 0 primal pivots",
    ]


def test_pivot_budget_names_the_phase_the_count_and_the_size(monkeypatch):
    # the cold solve takes 2 phase-2 pivots, the warm one to [4, 5] 1 dual pivot
    rows = sparse([([1, 1], "<=", 4), ([1, 0], "<=", 2)])
    monkeypatch.setattr(exactlp, "PIVOT_LIMIT", 2)
    start = solve_lp([3, 2], rows)
    assert start.value == 10
    monkeypatch.setattr(exactlp, "PIVOT_LIMIT", 1)
    cold = r"^exact simplex passed its budget of 1 pivots in phase 2: 1 pivots on 2 rows x 2 columns$"
    with pytest.raises(PivotLimitError, match=cold):
        solve_lp([3, 2], rows)
    monkeypatch.setattr(exactlp, "PIVOT_LIMIT", 0)
    warm = r"^exact simplex passed its budget of 0 pivots in the dual phase: 0 pivots on 2 rows x 2 columns$"
    with pytest.raises(PivotLimitError, match=warm):
        resolve_lp(start, [4, 5], [0, 0])


def test_walk_logs_its_size_pivots_pieces_and_end(caplog):
    # max x + 2y with x + y <= 4 and y <= 1 + t: y rises with t until x
    # reaches 0 at t = 3, then x + y <= 4 holds the value at 8 for good
    rows = sparse([([1, 1], "<=", 4), ([0, 1], "<=", 1)])
    start = solve_lp([1, 2], rows)
    with caplog.at_level(logging.DEBUG, logger="cqap.exactlp"):
        pieces, farkas = walk_rhs(start, [0, 1])
    assert [(p.lo, p.hi, p.intercept, p.slope) for p in pieces] == [(0, 3, 5, 1), (3, None, 8, 0)]
    assert farkas is None
    assert caplog.messages == ["walk: 2 rows, 2 columns, 1 pivots (0 at 0), 2 pieces, end None"]
    # each piece's basis warm-starts the same program at other right sides
    res = resolve_lp(pieces[0], [4, 2], [0, 0])
    assert (res.status, res.value, res.x) == ("optimal", 6, [2, 2])


def test_walk_ends_where_the_program_turns_infeasible():
    # max x with x <= 2 and x >= t: x stays 2 up to t = 2, then no x fits
    start = solve_lp([1], sparse([([1], "<=", 2), ([1], ">=", 0)]))
    pieces, farkas = walk_rhs(start, [0, 1])
    assert [(p.lo, p.hi, p.intercept, p.slope) for p in pieces] == [(0, 2, 2, 0)]
    # the last leaving row adds (x <= 2) - (x >= t) into 0 <= 2 - t
    assert farkas == [1, -1]
    # x <= -t is infeasible beyond t = 0 at once
    start = solve_lp([1], sparse([([1], "<=", 0)]))
    assert walk_rhs(start, [-1]) == ([], [1])


@pytest.mark.parametrize(
    ("farkas", "message"),
    [
        ([1, -1], None),
        ([1, 1], "positive multiplier on a >= row"),
        ([-1, -1], "negative multiplier on a <= row"),
        ([1, -2], "Farkas multipliers price a column below 0"),
        ([0, -1], "Farkas multipliers price a column below 0"),
        ([2, -1], "Farkas multipliers do not price the right sides to 0 at t = 2"),
        ([1, 0], "Farkas multipliers do not price the right sides to 0 at t = 2"),
    ],
)
def test_walk_certificate_check_rejects_a_changed_multiplier(farkas, message):
    # the walk of x <= 2, x >= t ends at t = 2 with certificate [1, -1]; a
    # certificate with one multiplier changed proves no end at 2
    start = solve_lp([1], sparse([([1], "<=", 2), ([1], ">=", 0)]))
    check = partial(start._tableau._check_farkas, farkas, [0, 1], F(2))
    if message is None:
        check()
    else:
        with pytest.raises(LpError, match=f"^{re.escape(message)}$"):
            check()


def test_walk_needs_an_optimal_start_and_a_direction_per_row():
    rows = sparse([([1, 1], "<=", 4), ([1, 0], "<=", 2)])
    with pytest.raises(ValueError, match="^a walk needs an optimal result, not 'unbounded'$"):
        walk_rhs(solve_lp([1, 1], sparse([([1, -1], "<=", 1)])), [1])
    with pytest.raises(ValueError, match="^the direction has 1 entries for 2 rows$"):
        walk_rhs(solve_lp([3, 2], rows), [1])


def test_walk_pivot_budget_names_the_walk(monkeypatch):
    start = solve_lp([1, 2], sparse([([1, 1], "<=", 4), ([0, 1], "<=", 1)]))
    monkeypatch.setattr(exactlp, "PIVOT_LIMIT", 0)
    with pytest.raises(PivotLimitError) as exc:
        walk_rhs(start, [0, 1])
    assert str(exc.value) == (
        "exact simplex passed its budget of 0 pivots in the right-side walk: "
        "0 pivots on 2 rows x 2 columns"
    )


def test_tie_phase_pivot_budget_names_the_tie_phase(monkeypatch):
    # the move of test_tie_phase_keeps_the_basis_optimal_along_toward takes
    # 0 dual pivots and 1 tie pivot, so a budget of 0 stops in the tie phase
    rows = sparse([([1, 0], "<=", 2), ([0, 1], "<=", 2), ([1, 1], "<=", 3)])
    start = solve_lp([1, 1], rows)
    monkeypatch.setattr(exactlp, "PIVOT_LIMIT", 0)
    with pytest.raises(PivotLimitError) as exc:
        resolve_lp(start, [1, 1, 2], [0, 0, 1])
    assert str(exc.value) == (
        "exact simplex passed its budget of 0 pivots in the tie phase: "
        "0 pivots on 3 rows x 2 columns"
    )


def test_minimization_flips_duals():
    # minimize x + y as the maximization of -(x + y); a >= row prices <= 0
    res = solve_lp([-1, -1], sparse([([1, 2], ">=", 4)]))
    assert res.status == "optimal"
    assert res.value == -2
    assert res.x == [0, 2]
    assert res.duals == [F(-1, 2)]
    assert sum(d * b for d, (_, _, b) in zip(res.duals, [([1, 2], ">=", 4)])) == -2


def test_infeasible():
    res = solve_lp([-1], sparse([([1], "<=", -1)]))
    assert res.status == "infeasible"


def test_unbounded():
    assert solve_lp([1], []).status == "unbounded"
    assert solve_lp([1], sparse([([-1], "<=", 1)])).status == "unbounded"


def test_beale_cycling_example_terminates():
    # a classic tableau that cycles under naive pivoting
    res = solve_lp(
        [F(3, 4), -150, F(1, 50), -6],
        sparse([
            ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ]),
    )
    assert res.status == "optimal"
    assert res.value == F(1, 20)
    assert res.x == [F(1, 25), 0, 1, 0]


def test_negative_rhs_on_every_sense():
    # x >= 1 written two ways, minimize x as the maximization of -x
    for row in [([-1], "<=", -1), ([1], ">=", 1)]:
        res = solve_lp([-1], sparse([row]))
        assert res.status == "optimal", row
        assert res.value == -1
        assert res.x == [1]


def test_zero_rhs_ge_rows_start_on_their_slack():
    # the >= row with right side 0 scales to a <= row whose slack starts at 0
    c = [1, 2]
    rows = [([1, 1], "<=", 4), ([F(1, 2), F(-1, 2)], ">=", 0)]
    lp = _Simplex([F(v) for v in c], sparse(rows))
    assert lp.basis == [2, 3]
    assert [row.get(lp.ncols, 0) for row in lp.tab] == [4, 0]
    res = solve_lp(c, sparse(rows))
    assert res.status == "optimal"
    assert res.value == 6
    assert res.x == [2, 2]
    assert res.duals == [F(3, 2), F(-1)]
    assert sum(d * b for d, (_, _, b) in zip(res.duals, rows)) == res.value


def test_dual_feasible_start_goes_through_the_dual_phase():
    # minimize 2x + 3y over x + y >= 2 and x + 3y >= 3: no right side is on
    # the feasible side of its row, and every cost of the maximization is <= 0
    rows = [([-1, -1], "<=", -2), ([1, 3], ">=", 3)]
    res = solve_lp([-2, -3], sparse(rows))
    assert (res.status, res.value, res.x) == ("optimal", F(-9, 2), [F(3, 2), F(1, 2)])
    assert res.duals == [F(3, 2), F(-1, 2)]
    assert sum(d * b for d, (_, _, b) in zip(res.duals, rows)) == res.value
    # x >= 2 and x + y <= 1 cannot both hold
    assert solve_lp([-1, 0], sparse([([1, 0], ">=", 2), ([1, 1], "<=", 1)])).status == "infeasible"


def test_cold_solve_needs_a_feasible_slack_basis():
    rows = sparse([([1, 1], "<=", 4), ([1, 0], ">=", F(1, 2))])
    message = (
        "a cold solve needs a primal feasible slack basis (every right side on the "
        "feasible side of its row) or a dual feasible one (every cost <= 0): "
        "row 1 has >= 1/2 and c[1] = 2"
    )
    with pytest.raises(ValueError) as e:
        solve_lp([0, 2], rows)
    assert str(e.value) == message
    # the same program is solved from a feasible start at another right side
    start = solve_lp([0, 2], sparse([([1, 1], "<=", 4), ([1, 0], ">=", 0)]))
    res = resolve_lp(start, [4, F(1, 2)], [0, 0])
    assert (res.status, res.value, res.x) == ("optimal", 7, [F(1, 2), F(7, 2)])


def test_equality_sense_is_unknown():
    with pytest.raises(ValueError, match=r"^unknown sense '=='$"):
        solve_lp([1, 1], sparse([([1, 1], "==", 3)]))


def test_warm_start_needs_an_optimal_start_and_a_right_side_per_row():
    infeasible = solve_lp([-1], sparse([([1], "<=", -1)]))
    with pytest.raises(ValueError) as e:
        resolve_lp(infeasible, [1], [0])
    assert str(e.value) == "a warm start needs an optimal result, not 'infeasible'"
    start = solve_lp([3, 2], sparse([([1, 1], "<=", 4), ([1, 0], "<=", 2)]))
    for rhs in ([4], [4, 2, 1]):
        with pytest.raises(ValueError) as e:
            resolve_lp(start, rhs, [0, 0])
        assert str(e.value) == f"the right sides have {len(rhs)} entries for 2 rows"
    for toward in ([1], [0, 1, 0]):
        with pytest.raises(ValueError) as e:
            resolve_lp(start, [4, 2], toward)
        assert str(e.value) == f"the tie direction has {len(toward)} entries for 2 rows"


def test_tie_phase_keeps_the_basis_optimal_along_toward(caplog):
    # max x0 + x1 with x0 <= 2, x1 <= 2 and x0 + x1 <= 3, moved to [1, 1, 2]:
    # all three rows are tight at (1, 1), and duals [1, 1, 0] and [0, 0, 1]
    # are both optimal.  Toward a larger third right side only the first
    # stays optimal, as a plain solve just above 2 shows
    rows = sparse([([1, 0], "<=", 2), ([0, 1], "<=", 2), ([1, 1], "<=", 3)])
    start = solve_lp([1, 1], rows)
    with caplog.at_level(logging.DEBUG, logger="cqap.exactlp"):
        tied = resolve_lp(start, [1, 1, 2], [0, 0, 1])
    assert (tied.status, tied.value, tied.x) == ("optimal", 2, [1, 1])
    assert tied.duals == [1, 1, 0]
    assert caplog.messages == ["warm optimal: 3 rows, 2 columns, 0 dual + 1 tie + 0 primal pivots"]
    assert resolve_lp(start, [1, 1, 2 + F(1, 100)], [0, 0, 0]).duals == [1, 1, 0]
    # without a direction the start's basis stays, and with it its duals
    assert resolve_lp(start, [1, 1, 2], [0, 0, 0]).duals == [0, 0, 1]
    # the returned tableau keeps no toward column: it warm-starts and walks as any other
    assert walk_rhs(tied, [0, 0, 1])[0][0].slope == 0
    assert resolve_lp(tied, [2, 2, 3], [0, 0, 0]).value == 3


def test_tie_phase_stops_where_no_larger_step_is_feasible():
    # max x with x <= -t and x >= 0 has no point for t > 0; the solve at
    # t = 0 is still optimal
    start = solve_lp([1], sparse([([1], "<=", 1), ([1], ">=", 0)]))
    res = resolve_lp(start, [0, 0], [-1, 0])
    assert (res.status, res.value, res.x) == ("optimal", 0, [0])


def test_rejects_malformed_rows():
    ok = ([(0, 1)], "<=", 3)
    with pytest.raises(ValueError, match=r"^row 1: column 2 is outside 0\.\.1$"):
        solve_lp([1, 2], [ok, ([(2, 1)], "<=", 3)])
    with pytest.raises(ValueError, match=r"^row 1: column -1 is outside 0\.\.1$"):
        solve_lp([1, 2], [ok, ([(-1, 1)], "<=", 3)])
    with pytest.raises(ValueError, match=r"^row 2: column 0 repeats$"):
        solve_lp([1, 2], [ok, ok, ([(0, 1), (1, 0), (0, 2)], "<=", 3)])
    with pytest.raises(ValueError):
        solve_lp([1], [([(0, 1)], "<", 3)])


# ----------------------------------------------------------------------------
# Pinned pivot sequence
# ----------------------------------------------------------------------------

# Digest of (status, value, x, duals) of every distinct program the three_reach
# rule tradeoffs solve, cold or warm, and of the pieces of every walk, and the
# pivots they all take.
THREE_REACH_SOLVES = "c18cb9dc3e7c4bfb5cdaad5ac5131eea4c94977e20fedc751298876ea36cc333"
THREE_REACH_PIVOTS = 192


def test_three_reach_solves_are_bit_identical(monkeypatch):
    # any change to pricing, the ratio test or a tie-break moves a dual, a
    # piece or a pivot count; a program solved again (or served from a cache)
    # counts once
    pivots = 0
    real_pivot = _Simplex._pivot

    def counting_pivot(self, *args):
        nonlocal pivots
        pivots += 1
        real_pivot(self, *args)

    solves = {}
    real_solve = exactlp.solve_lp
    real_resolve = shannon.resolve_lp
    real_walk = shannon.walk_rhs

    def record(c, rows, res, before, kind):
        # keyed on the dense program and the maximize flag, as when the pins were
        # first taken; a warm solve is keyed apart, since its duals may differ
        dense = []
        for pairs, s, b in rows:
            a = [F(0)] * len(c)
            for j, v in pairs:
                a[j] += v
            dense.append((a, s, b))
        program = repr((list(c), dense, True))
        key = hashlib.sha256(program.encode()).hexdigest() + kind
        solves[key] = (repr((res.status, res.value, res.x, res.duals)), pivots - before)

    def recording_solve(c, rows):
        before = pivots
        res = real_solve(c, rows)
        record(c, rows, res, before, "")
        return res

    def recording_resolve(start, rhs, toward):
        # the start's tableau holds the program: costs over cscale and each
        # scaled row over its signed scale give back the rows as posed
        before = pivots
        res = real_resolve(start, rhs, toward)
        lp = start._tableau
        c = [F(v, lp.cscale) for v in lp.cost]
        rows = [
            ([(j, F(v, s)) for j, v in coeffs.items()], sense, b)
            for (coeffs, sense), s, b in zip(lp.rows_in, lp.rscale, rhs)
        ]
        record(c, rows, res, before, " warm")
        return res

    def recording_walk(start, direction):
        before = pivots
        pieces, farkas = real_walk(start, direction)
        out = repr([(p.lo, p.hi, p.intercept, p.slope) for p in pieces])
        # keyed on the start's scaled rows and its point, which name the program
        lp = start._tableau
        rows = [(coeffs, sense, b) for (coeffs, sense), b in zip(lp.rows_in, lp.b)]
        program = repr((rows, start.x, direction))
        key = hashlib.sha256(program.encode()).hexdigest()
        solves[key + " walk"] = (out, pivots - before)
        return pieces, farkas

    monkeypatch.setattr(_Simplex, "_pivot", counting_pivot)
    monkeypatch.setattr(exactlp, "solve_lp", recording_solve)
    monkeypatch.setattr(shannon, "resolve_lp", recording_resolve)
    monkeypatch.setattr(shannon, "walk_rhs", recording_walk)
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    query = load_query(corpus / "queries" / "three_reach.cqap")
    system = JointSystem(query)
    for rule in prune_rules(generate_rules(enumerate_pmtds(query))):
        rule_tradeoff(rule, system)
    digest = hashlib.sha256(
        "\n".join(f"{k} {out}" for k, (out, _) in sorted(solves.items())).encode()
    ).hexdigest()
    assert digest == THREE_REACH_SOLVES
    assert sum(n for _, n in solves.values()) == THREE_REACH_PIVOTS


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=8))
@example([(1, 2), (3, 5), (2, 4)])
@example([(0, 3), (-1, 1), (0, 1), (-2, 2), (-1, 1)])
@example([])
def test_least_ratios_matches_a_fraction_reference(pairs):
    # every ratio test's comparison: the keys tied for the least num/den in
    # the order given (1/2 ties 2/4), zero and negative numerators included
    ties, least = exactlp._least_ratios((k, n, d) for k, (n, d) in enumerate(pairs))
    ratios = [F(n, d) for n, d in pairs]
    assert least == min(ratios, default=None)
    assert ties == [k for k, r in enumerate(ratios) if r == least]


# ----------------------------------------------------------------------------
# Randomized cross-check against scipy's HiGHS backend
# ----------------------------------------------------------------------------

coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def random_lp(draw):
    """A program a cold solve accepts: half primal, half dual feasible at its slacks.

    The first kind has every right side on the feasible side of its row (>= 0
    on a <= row, <= 0 on a >= row), the second every cost <= 0.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    primal = draw(st.booleans())
    c = [draw(coeff if primal else st.integers(min_value=-3, max_value=0)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [draw(coeff) for _ in range(n)]
        sense = draw(st.sampled_from(["<=", ">="]))
        if not primal:
            rhs = draw(st.integers(min_value=-2, max_value=5))
        elif sense == "<=":
            rhs = draw(st.integers(min_value=0, max_value=5))
        else:
            rhs = draw(st.integers(min_value=-2, max_value=0))
        rows.append((coeffs, sense, rhs))
    return c, rows


def highs(c, rows):
    """(status, value) of the program by scipy's HiGHS, in solve_lp's terms."""
    from scipy.optimize import linprog

    a_ub = [a if sense == "<=" else [-v for v in a] for a, sense, _ in rows]
    b_ub = [b if sense == "<=" else -b for _, sense, b in rows]

    def solve(box=None, presolve=True):
        return linprog(
            [-v for v in c], A_ub=a_ub or None, b_ub=b_ub or None, bounds=(0, box),
            method="highs", options={"presolve": presolve},
        )

    # HiGHS presolve can call an unbounded program infeasible; without it
    # HiGHS can stop on numerical difficulties (status 4), which presolve
    # mostly settles
    ref = solve(presolve=False)
    if ref.status == 4:
        ref = solve()
    if ref.status in (2, 4) and all(b >= 0 for b in b_ub):
        # x = 0 is feasible, so the program is optimal or unbounded.  The
        # drawn coefficients put every vertex well inside the smaller box, so
        # an optimum that grows with the box means unbounded, and an equal
        # one is the optimum
        small, large = solve(box=10**3), solve(box=10**6)
        assert small.status == large.status == 0, (small.status, large.status)
        if math.isclose(small.fun, large.fun, rel_tol=1e-9, abs_tol=1e-9):
            return "optimal", -small.fun
        return "unbounded", None
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status)
    assert status is not None, f"scipy status {ref.status}"
    return status, -ref.fun if status == "optimal" else None


@settings(max_examples=150, deadline=None)
@given(random_lp())
@example(([0, 1, 0], [([1, -1, 1], "<=", 1), ([0, 0, 0], "<=", 0), ([1, -1, 1], ">=", 0)]))
@example(([-2, 3, -3], [([-3, -1, -2], "<=", 5), ([-1, -2, 3], "<=", 2)]))
# unbounded along (1, 0, 1); HiGHS calls the first infeasible (with presolve)
# or stops at status 4 (without), and stops at status 4 both ways on the second
@example(([0, 2, 1], [([2, -3, -2], "<=", 1), ([-2, 0, 1], "<=", 0), ([-3, 3, 1], "<=", 0)]))
@example(([0, 2, 1], [([2, -3, -2], "<=", 1), ([-2, 0, 1], "<=", 1), ([-3, 3, 1], "<=", 1)]))
def test_matches_scipy(problem):
    c, rows = problem
    res = solve_lp(c, sparse(rows))
    status, value = highs(c, rows)
    assert res.status == status
    if status == "optimal":
        assert abs(float(res.value) - value) < 1e-7


rhs_value = st.fractions(min_value=-2, max_value=5, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(
    random_lp(),
    st.lists(rhs_value, min_size=10, max_size=10),
    st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_warm_start_matches_a_cold_solve(problem, new_rhs, moved_rows):
    # b1 -> b2 -> b2 -> b3, each step warm from the last optimal solve, where
    # b2 moves only the rows `moved_rows` picks from b1 and is then solved
    # again unmoved; a box row keeps most programs bounded, so that most draws
    # get a start.  A moved right side may leave no feasible slack basis, so
    # HiGHS solves it cold
    c, rows = problem
    rows = rows + [([1] * len(c), "<=", 4)]
    start = solve_lp(c, sparse(rows))
    assume(start.status == "optimal")
    first, last = new_rhs[:5], new_rhs[5:]
    some = [b if move else a for a, b, move in zip(first, last, moved_rows)]
    for bs in (first, some, some, last):
        moved = [(a, sense, b) for (a, sense, _), b in zip(rows, bs)]
        warm = resolve_lp(start, [b for _, _, b in moved], [0] * len(moved))
        status, value = highs(c, moved)
        assert warm.status == status
        if warm.status != "optimal":
            break
        assert abs(float(warm.value) - value) < 1e-7
        assert sum(d * b for d, (_, _, b) in zip(warm.duals, moved)) == warm.value
        start = warm


@settings(max_examples=80, deadline=None)
@given(random_lp(), st.lists(st.integers(min_value=-2, max_value=2), min_size=5, max_size=5))
def test_tie_phase_duals_price_the_first_step_along_toward(problem, toward):
    # a warm solve at b toward d returns a basis optimal at b + t*d for small
    # t > 0 too, so a walk from it along d starts with that basis's line: the
    # value plus t times the duals' price of d.  Halved right sides give the
    # right-side column a denominator
    c, rows = problem
    rows = rows + [([1] * len(c), "<=", 4)]
    start = solve_lp(c, sparse(rows))
    assume(start.status == "optimal")
    toward = toward[: len(rows)]
    rhs = [F(b, 2) for _, _, b in rows]
    warm = resolve_lp(start, rhs, toward)
    plain = resolve_lp(start, rhs, [0] * len(rows))
    assert (warm.status, warm.value) == (plain.status, plain.value)
    assume(warm.status == "optimal")
    pieces, _ = walk_rhs(warm, toward)
    if pieces:
        slope = sum(y * d for y, d in zip(warm.duals, toward))
        assert (pieces[0].lo, pieces[0].intercept, pieces[0].slope) == (0, warm.value, slope)


@settings(max_examples=80, deadline=None)
@given(
    random_lp(),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=5, max_size=5),
    st.fractions(min_value=0, max_value=6, max_denominator=4),
)
def test_walk_matches_a_warm_solve(problem, direction, s):
    # the walk's value at s is a warm solve's at the moved right sides, from
    # the start and from the piece's own basis; past its end the program is
    # infeasible.  A box row keeps most programs bounded, and the start is a
    # warm solve at halved right sides, so that both right-side columns of
    # the walk carry a denominator
    c, rows = problem
    rows = rows + [([1] * len(c), "<=", 4)]
    start = solve_lp(c, sparse(rows))
    assume(start.status == "optimal")
    rows = [(a, sense, F(b, 2)) for a, sense, b in rows]
    start = resolve_lp(start, [b for _, _, b in rows], [0] * len(rows))
    assume(start.status == "optimal")
    direction = direction[: len(rows)]
    pieces, farkas = walk_rhs(start, direction)
    # the certificate prices the right sides to 0 where the last piece ends
    if farkas is None:
        assert pieces and pieces[-1].hi is None
    else:
        end = pieces[-1].hi if pieces else 0
        assert sum(y * (b + end * d) for y, (_, _, b), d in zip(farkas, rows, direction)) == 0
    for left, right in zip(pieces, pieces[1:]):
        assert left.lo < left.hi == right.lo
        assert (left.intercept, left.slope) != (right.intercept, right.slope)
    moved = [b + s * d for (_, _, b), d in zip(rows, direction)]
    warm = resolve_lp(start, moved, [0] * len(moved))
    on = [p for p in pieces if p.lo <= s and (p.hi is None or s <= p.hi)]
    if on:
        assert pieces[0].lo == 0
        assert warm.status == "optimal"
        assert warm.value == on[0].intercept + on[0].slope * s
        assert resolve_lp(on[0], moved, [0] * len(moved)).value == warm.value
    elif s == 0:  # feasible at t = 0 alone
        assert pieces == [] and warm.value == start.value
    else:
        assert warm.status == "infeasible"


# ----------------------------------------------------------------------------
# The pivot kernel and the weighed right sides against a dense reference
# ----------------------------------------------------------------------------


def pivot_branches(problem, picks):
    """Pivot a program's slack basis at `picks`, each checked against the reference.

    A pick (a, b) pivots in row a mod the row count on its b-th nonzero
    column (structural or slack, mod their count), after negating the row if
    that entry is negative, as the dual steps do.  After every pivot the
    tableau and the objective row must be the dense Gauss-Jordan pivot of
    their values before it.  Returns the simplex, its objective row (with a
    second right-side entry) and the `_pivot` branches taken.
    """
    c, rows = problem
    lp = _Simplex([F(v) for v in c], sparse(rows))
    obj = [-v for v in lp.cost] + [0] * (lp.ncols + 2 - lp.nvars)
    branches = set()
    for a, b in picks:
        r = a % len(lp.tab)
        cols = sorted(j for j in lp.tab[r] if j < lp.ncols)
        col = cols[b % len(cols)]
        if lp.tab[r][col] < 0:
            lp._negate(r)
        p, d = lp.tab[r][col], lp.div
        branches.add("p == d == 1" if p == d == 1 else "p == d != 1" if p == d else "p != d")
        want = gauss_jordan_pivot(dense_tableau(lp, obj), r, col)
        lp._pivot(obj, r, col)
        assert dense_tableau(lp, obj) == want, (r, col, p, d)
        assert lp.basis[r] == col and lp.div == p
    return lp, obj, branches


TWO_ROWS = ([1, 1], [([2, 1], "<=", 4), ([1, 3], "<=", 6)])
# pick sequences that take both branches of `_pivot`, the p == d one at
# d = 1 and at d != 1: p = 1 on the slack basis; p = 2 there, then
# p == d == 2 on the second row's slack
PIVOT_EXAMPLES = [
    (TWO_ROWS, [(1, 0)], {"p == d == 1"}),
    (TWO_ROWS, [(0, 0), (1, 2)], {"p != d", "p == d != 1"}),
]


def test_pivot_examples_cover_every_branch():
    seen = set()
    for problem, picks, branches in PIVOT_EXAMPLES:
        assert pivot_branches(problem, picks)[2] == branches
        seen |= branches
    assert seen == {"p == d == 1", "p == d != 1", "p != d"}


def pivot_examples(test):
    for problem, picks, _ in PIVOT_EXAMPLES:
        test = example(problem, picks, [1] * 5, [1] * 5, [True] * 5)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(
    random_lp(),
    st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=6),
    st.lists(rhs_value, min_size=5, max_size=5),
    st.lists(rhs_value, min_size=5, max_size=5),
    st.lists(st.booleans(), min_size=5, max_size=5),
)
@pivot_examples
def test_pivot_and_weighed_columns_match_a_dense_reference(problem, picks, first, last, moved_rows):
    # after random pivots, a column weighed in from nothing is the dense sum
    # of the slack columns weighted by the scaled values; a column moved to
    # values that differ in only some rows, or in none, is the column
    # weighed afresh, integer for integer, with the same scale
    lp, obj, _ = pivot_branches(problem, picks)
    lp.obj = obj
    m, key = len(lp.tab), lp.ncols + 1
    first = first[:m]
    some = [b if move else a for a, b, move in zip(first, last, moved_rows)]
    ints, scale = lp._weigh_slacks(key, first, [0] * m, 1)
    scaled = [v * s for v, s in zip(first, lp.rscale)]
    assert scale == math.lcm(*(v.denominator for v in scaled))
    assert ints == [v * scale for v in scaled]
    slack = dense_tableau(lp, obj)
    for i, row in enumerate(lp.tab):
        weighed = sum(ints[k] * slack[i][lp.nvars + k] for k in range(m))
        assert F(row.get(key, 0), lp.div) == weighed
    basic = [(b, row) for b, row in zip(lp.basis, lp.tab) if b < lp.nvars]
    assert obj[key] == sum(lp.cost[b] * row.get(key, 0) for b, row in basic)
    for values in (some, some):
        fresh = lp._fork(list(obj))
        for row in fresh.tab:
            row.pop(key, None)
        want = fresh._weigh_slacks(key, values, [0] * m, 1)
        assert lp._weigh_slacks(key, values, ints, scale) == want
        assert [row.get(key) for row in lp.tab] == [row.get(key) for row in fresh.tab]
        assert obj[key] == fresh.obj[key]
        ints, scale = want


# ----------------------------------------------------------------------------
# The exact self-check of an optimum
# ----------------------------------------------------------------------------

TINY = F(1, 2**61 - 1)


def reference_check(c, rows, x, duals, value):
    """The message of the first exact check that rejects, or None.

    The three checks of an optimum in Fraction arithmetic on the dense rows as
    given: primal feasibility and the multiplier's sign row by row, then dual
    feasibility, then strong duality.
    """
    reduced = [F(0)] * len(c)
    dual_value = F(0)
    for (a, sense, b), y in zip(rows, duals):
        gap = sum(v * xj for v, xj in zip(a, x)) - b
        ok = gap <= 0 if sense == "<=" else gap >= 0
        if not ok:
            return f"optimal point violates a {sense} row"
        if sense == "<=" and y < 0:
            return "negative multiplier on a <= row"
        if sense == ">=" and y > 0:
            return "positive multiplier on a >= row"
        for j, v in enumerate(a):
            reduced[j] += y * v
        dual_value += y * b
    if any(r < cj for r, cj in zip(reduced, c)):
        return "dual infeasibility detected"
    if dual_value != value:
        return "strong duality gap; simplex state is corrupt"
    return None


def perturbed(res, kind, index, step):
    """(x, duals, value) of an optimum with one entry moved by step (+1 or -1).

    "x" moves one entry of x by step/(2^61 - 1), "sign" flips one dual,
    "size" moves one dual by step of the tableau's units for that row, and
    "value" moves the value by step/(2^61 - 1).
    """
    x, duals, value = list(res.x), list(res.duals), res.value
    if kind == "x":
        x[index % len(x)] += step * TINY
    elif kind == "sign":
        duals[index % len(duals)] *= -1
    elif kind == "size":
        i = index % len(duals)
        lp = res._tableau
        duals[i] += step * F(lp.rscale[i], lp.div * lp.cscale)
    else:
        value += step * TINY
    return x, duals, value


MAX_LE = ([3, 2], [([1, 1], "<=", 4), ([1, 0], "<=", 2)])  # x = [2, 2], duals [2, 1]
MIN_GE = ([-1, -1], [([1, 2], ">=", 4)])  # x = [0, 2], dual -1/2

# one change per verdict of the check, with that verdict
VERDICT_EXAMPLES = [
    (MAX_LE, ("x", 0, -1), None),
    (MAX_LE, ("x", 0, 1), "optimal point violates a <= row"),
    (MIN_GE, ("x", 1, -1), "optimal point violates a >= row"),
    (MAX_LE, ("sign", 0, 1), "negative multiplier on a <= row"),
    (MIN_GE, ("sign", 0, 1), "positive multiplier on a >= row"),
    (MAX_LE, ("size", 1, -1), "dual infeasibility detected"),
    (MAX_LE, ("value", 0, 1), "strong duality gap; simplex state is corrupt"),
]


def test_verdict_examples_cover_every_verdict():
    verdicts = []
    for (c, rows), change, verdict in VERDICT_EXAMPLES:
        res = solve_lp(c, sparse(rows))
        assert reference_check(c, rows, *perturbed(res, *change)) == verdict
        verdicts.append(verdict)
    assert len(set(verdicts)) == 7


def test_check_rejects_a_multiplier_off_the_tableau_denominator():
    # a dual a fraction of a tableau unit away is no integer weight of its row
    c, rows = MAX_LE
    res = solve_lp(c, sparse(rows))
    duals = list(res.duals)
    duals[1] += TINY
    with pytest.raises(LpError, match="^multiplier is not on the tableau's denominator$"):
        res._tableau._check(res.x, duals, res.value)


def verdict_examples(test):
    for problem, change, _ in VERDICT_EXAMPLES:
        test = example(problem, change, None)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(
    random_lp(),
    st.tuples(
        st.sampled_from(["x", "sign", "size", "value"]),
        st.integers(0, 3),
        st.sampled_from([-1, 1]),
    ),
    st.none() | st.lists(rhs_value, min_size=4, max_size=4),
)
@verdict_examples
def test_check_agrees_with_a_fraction_reference(problem, change, new_rhs):
    # an optimum perturbed once, cold or warm from fractional right sides
    c, rows = problem
    res = solve_lp(c, sparse(rows))
    assume(res.status == "optimal")
    if new_rhs is not None:
        rows = [(a, sense, b) for (a, sense, _), b in zip(rows, new_rhs)]
        res = resolve_lp(res, [b for _, _, b in rows], [0] * len(rows))
        assume(res.status == "optimal")
    x, duals, value = perturbed(res, *change)
    verdict = reference_check(c, rows, x, duals, value)
    if verdict is None:
        res._tableau._check(x, duals, value)
    else:
        with pytest.raises(LpError, match=f"^{re.escape(verdict)}$"):
            res._tableau._check(x, duals, value)
