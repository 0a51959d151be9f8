"""Exact simplex: known optima, edge statuses, pinned pivots, scipy cross-check."""

from __future__ import annotations

import hashlib
import logging
import re
from fractions import Fraction as F
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
        res = resolve_lp(start, [4, 5])
    assert (res.status, res.value, res.x) == ("optimal", 12, [4, 0])
    assert caplog.messages == [
        "optimal: 2 rows, 2 columns, 0 dual + 2 primal pivots",
        "warm optimal: 2 rows, 2 columns, 1 dual + 0 primal pivots",
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
        resolve_lp(start, [4, 5])


def test_walk_logs_its_size_pivots_pieces_and_end(caplog):
    # max x + 2y with x + y <= 4 and y <= 1 + t: y rises with t until x
    # reaches 0 at t = 3, then x + y <= 4 holds the value at 8 for good
    rows = sparse([([1, 1], "<=", 4), ([0, 1], "<=", 1)])
    start = solve_lp([1, 2], rows)
    with caplog.at_level(logging.DEBUG, logger="cqap.exactlp"):
        pieces = walk_rhs(start, [0, 1])
    assert [(p.lo, p.hi, p.intercept, p.slope) for p in pieces] == [(0, 3, 5, 1), (3, None, 8, 0)]
    assert caplog.messages == ["walk: 2 rows, 2 columns, 1 pivots (0 at 0), 2 pieces, end None"]
    # each piece's basis warm-starts the same program at other right sides
    res = resolve_lp(pieces[0], [4, 2])
    assert (res.status, res.value, res.x) == ("optimal", 6, [2, 2])


def test_walk_ends_where_the_program_turns_infeasible():
    # max x with x <= 2 and x >= t: x stays 2 up to t = 2, then no x fits
    start = solve_lp([1], sparse([([1], "<=", 2), ([1], ">=", 0)]))
    pieces = walk_rhs(start, [0, 1])
    assert [(p.lo, p.hi, p.intercept, p.slope) for p in pieces] == [(0, 2, 2, 0)]
    # x <= -t is infeasible beyond t = 0 at once
    start = solve_lp([1], sparse([([1], "<=", 0)]))
    assert walk_rhs(start, [-1]) == []


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
    res = resolve_lp(start, [4, F(1, 2)])
    assert (res.status, res.value, res.x) == ("optimal", 7, [F(1, 2), F(7, 2)])


def test_equality_sense_is_unknown():
    with pytest.raises(ValueError, match=r"^unknown sense '=='$"):
        solve_lp([1, 1], sparse([([1, 1], "==", 3)]))


def test_warm_start_needs_an_optimal_start_and_a_right_side_per_row():
    infeasible = solve_lp([-1], sparse([([1], "<=", -1)]))
    with pytest.raises(ValueError) as e:
        resolve_lp(infeasible, [1])
    assert str(e.value) == "a warm start needs an optimal result, not 'infeasible'"
    start = solve_lp([3, 2], sparse([([1, 1], "<=", 4), ([1, 0], "<=", 2)]))
    for rhs in ([4], [4, 2, 1]):
        with pytest.raises(ValueError) as e:
            resolve_lp(start, rhs)
        assert str(e.value) == f"the right sides have {len(rhs)} entries for 2 rows"


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
THREE_REACH_SOLVES = "b83cff87825b71309515fed04fbc554b63b282e7a8fd77f96ba101b0469d8404"
THREE_REACH_PIVOTS = 261


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

    def recording_resolve(start, rhs):
        # the start's tableau holds the program: costs over cscale and each
        # scaled row over its signed scale give back the rows as posed
        before = pivots
        res = real_resolve(start, rhs)
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
        pieces = real_walk(start, direction)
        out = repr([(p.lo, p.hi, p.intercept, p.slope) for p in pieces])
        # keyed on the start's scaled rows and its point, which name the program
        lp = start._tableau
        rows = [(coeffs, sense, b) for (coeffs, sense), b in zip(lp.rows_in, lp.b)]
        program = repr((rows, start.x, direction))
        key = hashlib.sha256(program.encode()).hexdigest()
        solves[key + " walk"] = (out, pivots - before)
        return pieces

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
    program = dict(A_ub=a_ub or None, b_ub=b_ub or None, bounds=(0, None), method="highs")
    # HiGHS presolve can call an unbounded program infeasible; without it
    # HiGHS can stop on numerical difficulties (status 4), which presolve settles
    ref = linprog([-v for v in c], options={"presolve": False}, **program)
    if ref.status == 4:
        ref = linprog([-v for v in c], **program)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status)
    assert status is not None, f"scipy status {ref.status}"
    return status, -ref.fun if status == "optimal" else None


@settings(max_examples=150, deadline=None)
@given(random_lp())
@example(([0, 1, 0], [([1, -1, 1], "<=", 1), ([0, 0, 0], "<=", 0), ([1, -1, 1], ">=", 0)]))
@example(([-2, 3, -3], [([-3, -1, -2], "<=", 5), ([-1, -2, 3], "<=", 2)]))
def test_matches_scipy(problem):
    c, rows = problem
    res = solve_lp(c, sparse(rows))
    status, value = highs(c, rows)
    assert res.status == status
    if status == "optimal":
        assert abs(float(res.value) - value) < 1e-7


rhs_value = st.fractions(min_value=-2, max_value=5, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(random_lp(), st.lists(rhs_value, min_size=10, max_size=10))
def test_warm_start_matches_a_cold_solve(problem, new_rhs):
    # b1 -> b2 -> b3, each step warm from the last optimal solve; a box row
    # keeps most programs bounded, so that most draws get a start.  A moved
    # right side may leave no feasible slack basis, so HiGHS solves it cold
    c, rows = problem
    rows = rows + [([1] * len(c), "<=", 4)]
    start = solve_lp(c, sparse(rows))
    assume(start.status == "optimal")
    for bs in (new_rhs[:5], new_rhs[5:]):
        moved = [(a, sense, b) for (a, sense, _), b in zip(rows, bs)]
        warm = resolve_lp(start, [b for _, _, b in moved])
        status, value = highs(c, moved)
        assert warm.status == status
        if warm.status != "optimal":
            break
        assert abs(float(warm.value) - value) < 1e-7
        assert sum(d * b for d, (_, _, b) in zip(warm.duals, moved)) == warm.value
        start = warm


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
    start = resolve_lp(start, [b for _, _, b in rows])
    assume(start.status == "optimal")
    direction = direction[: len(rows)]
    pieces = walk_rhs(start, direction)
    for left, right in zip(pieces, pieces[1:]):
        assert left.lo < left.hi == right.lo
        assert (left.intercept, left.slope) != (right.intercept, right.slope)
    moved = [b + s * d for (_, _, b), d in zip(rows, direction)]
    warm = resolve_lp(start, moved)
    on = [p for p in pieces if p.lo <= s and (p.hi is None or s <= p.hi)]
    if on:
        assert pieces[0].lo == 0
        assert warm.status == "optimal"
        assert warm.value == on[0].intercept + on[0].slope * s
        assert resolve_lp(on[0], moved).value == warm.value
    elif s == 0:  # feasible at t = 0 alone
        assert pieces == [] and warm.value == start.value
    else:
        assert warm.status == "infeasible"


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
        res = resolve_lp(res, [b for _, _, b in rows])
        assume(res.status == "optimal")
    x, duals, value = perturbed(res, *change)
    verdict = reference_check(c, rows, x, duals, value)
    if verdict is None:
        res._tableau._check(x, duals, value)
    else:
        with pytest.raises(LpError, match=f"^{re.escape(verdict)}$"):
            res._tableau._check(x, duals, value)
