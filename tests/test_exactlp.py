"""Exact simplex: known optima, edge statuses, scipy cross-check."""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqap.exactlp import LpError, _Simplex, solve_lp


def test_small_maximization_with_duals():
    res = solve_lp([3, 2], [([1, 1], "<=", 4), ([1, 0], "<=", 2)])
    assert res.status == "optimal"
    assert res.value == 10
    assert res.x == [2, 2]
    assert res.duals == [F(2), F(1)]


def test_minimization_flips_duals():
    res = solve_lp([1, 1], [([1, 2], ">=", 4)], maximize=False)
    assert res.status == "optimal"
    assert res.value == 2
    assert res.x == [0, 2]
    assert res.duals == [F(1, 2)]
    assert sum(d * b for d, (_, _, b) in zip(res.duals, [([1, 2], ">=", 4)])) == 2


def test_equality_rows():
    res = solve_lp([1, 1], [([1, 1], "==", 3), ([1, -1], "==", 1)])
    assert res.status == "optimal"
    assert res.value == 3
    assert res.x == [2, 1]


def test_infeasible():
    res = solve_lp([1], [([1], "<=", -1)])
    assert res.status == "infeasible"


def test_unbounded():
    assert solve_lp([1], []).status == "unbounded"
    assert solve_lp([1], [([-1], "<=", 1)]).status == "unbounded"


def test_beale_cycling_example_terminates():
    # a classic tableau that cycles under naive pivoting
    res = solve_lp(
        [F(3, 4), -150, F(1, 50), -6],
        [
            ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    assert res.status == "optimal"
    assert res.value == F(1, 20)
    assert res.x == [F(1, 25), 0, 1, 0]


def test_redundant_equality_row_gets_zero_dual():
    res = solve_lp([1, 0], [([1, 1], "==", 2), ([2, 2], "==", 4)])
    assert res.status == "optimal"
    assert res.value == 2
    assert sum(d * b for d, b in zip(res.duals, [2, 4])) == 2


@pytest.mark.parametrize(
    "c,rows,value",
    [
        ([2, -3], [([2, -1], "==", 0), ([1, 2], ">=", 1), ([-3, 1], "==", -1), ([3, 0], "==", 3)], -4),
        ([1, 1], [([-2, 3], "==", 4), ([1, -1], "==", -1), ([2, 2], ">=", 5), ([2, -1], "==", 0)], 3),
        ([1, -2], [([-1, 2], "==", 5), ([3, 1], ">=", -2), ([0, 1], "==", 3), ([-2, 0], "==", -2)], -5),
    ],
)
def test_retired_row_holding_another_rows_artificial(c, rows, value):
    # phase 1 retires a dependent tableau row whose basic artificial belongs
    # to a different input row; both rows still get their multipliers
    res = solve_lp(c, rows)
    assert res.status == "optimal"
    assert res.value == value
    assert sum(d * b for d, (_, _, b) in zip(res.duals, rows)) == value


def test_negative_rhs_on_every_sense():
    # x >= 1 written three ways, minimize x
    for row in [([-1], "<=", -1), ([1], ">=", 1), ([-1, ], "==", -1)]:
        res = solve_lp([1], [row], maximize=False)
        assert res.status == "optimal", row
        assert res.value == 1
        assert res.x == [1]


def test_zero_rhs_ge_rows_start_on_their_slack():
    # phase 1 has nothing to do: the >= row with right side 0 needs no artificial
    c = [1, 2]
    rows = [([1, 1], "<=", 4), ([F(1, 2), F(-1, 2)], ">=", 0)]
    lp = _Simplex([F(v) for v in c], rows)
    lp._build()
    assert lp.first_art == lp.ncols
    res = solve_lp(c, rows)
    assert res.status == "optimal"
    assert res.value == 6
    assert res.x == [2, 2]
    assert res.duals == [F(3, 2), F(-1)]
    assert sum(d * b for d, (_, _, b) in zip(res.duals, rows)) == res.value


def test_rejects_malformed_rows():
    with pytest.raises(ValueError):
        solve_lp([1, 2], [([1], "<=", 3)])
    with pytest.raises(ValueError):
        solve_lp([1], [([1], "<", 3)])


# ----------------------------------------------------------------------------
# Randomized cross-check against scipy's HiGHS backend
# ----------------------------------------------------------------------------

coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def random_lp(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    c = [draw(coeff) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [draw(coeff) for _ in range(n)]
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(st.integers(min_value=-2, max_value=5))
        rows.append((coeffs, sense, rhs))
    return c, rows


@settings(max_examples=150, deadline=None)
@given(random_lp())
@example(([0, 1, 0], [([1, -1, 1], "<=", 1), ([0, 0, 0], "<=", 0), ([1, -1, 1], ">=", 0)]))
@example(([-2, 3, -3], [([-3, -1, -2], "<=", 5), ([-1, -2, 3], "<=", 2)]))
def test_matches_scipy(problem):
    from scipy.optimize import linprog

    c, rows = problem
    res = solve_lp(c, rows)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in rows:
        if sense == "<=":
            a_ub.append(coeffs)
            b_ub.append(rhs)
        elif sense == ">=":
            a_ub.append([-v for v in coeffs])
            b_ub.append(-rhs)
        else:
            a_eq.append(coeffs)
            b_eq.append(rhs)
    program = dict(
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=(0, None),
        method="highs",
    )
    # HiGHS presolve can call an unbounded program infeasible; without it
    # HiGHS can stop on numerical difficulties (status 4), which presolve settles
    ref = linprog([-v for v in c], options={"presolve": False}, **program)
    if ref.status == 4:
        ref = linprog([-v for v in c], **program)
    expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status)
    assert expected is not None, f"scipy status {ref.status}"
    assert res.status == expected
    if expected == "optimal":
        assert abs(float(res.value) - (-ref.fun)) < 1e-7
