"""Polymatroid checks, samplers, and pair-inequality verification."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqap.polymatroids import (
    JointInequality,
    SetFunction,
    check_polymatroid,
    sample_conic,
    sample_entropic,
    verify_joint_inequality,
)
from cqap.relalg import size


def modular(n):
    return SetFunction(n, [size(s) for s in range(1 << n)])


def test_check_polymatroid_examples():
    assert check_polymatroid(modular(3))
    two_fair_bits = SetFunction(2, [0, 1, 1, 2])
    assert check_polymatroid(two_fair_bits)
    assert not check_polymatroid(SetFunction.from_dict(2, {1: 2, 3: 1}))


def test_check_polymatroid_rejects_each_axiom_violation():
    assert not check_polymatroid(SetFunction.from_dict(1, {1: -1}))
    assert not check_polymatroid(SetFunction(2, [0, 1, 1, 3]))  # supermodular
    assert not check_polymatroid(SetFunction(2, [0, 2, 1, 1]))  # not monotone


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_samplers_produce_polymatroids(n):
    rng = random.Random(7 * n)
    for _ in range(15):
        assert check_polymatroid(sample_entropic(n, rng))
        assert check_polymatroid(sample_conic(n, rng))


def fraction_verdict(h):
    """Nonnegativity, monotonicity and submodularity over all 4^n pairs, on the Fractions."""
    v, every = h.values, range(1 << h.n)
    return (
        all(x >= 0 for x in v)
        and all(v[x] <= v[y] for x in every for y in every if x & ~y == 0)
        and all(v[i] + v[j] >= v[i | j] + v[i & j] for i in every for j in every)
    )


BIG_PRIME = 2**61 - 1


def test_exact_check_sees_a_violation_of_one_over_a_large_prime():
    thirds_fifths = [F(0), F(1, 3), F(1, 5), F(1, 3) + F(1, 5)]
    assert check_polymatroid(SetFunction(2, thirds_fifths))
    tighter = thirds_fifths[:3] + [thirds_fifths[3] - F(1, BIG_PRIME)]
    assert check_polymatroid(SetFunction(2, tighter))
    looser = thirds_fifths[:3] + [thirds_fifths[3] + F(1, BIG_PRIME)]
    assert not check_polymatroid(SetFunction(2, looser))  # supermodular by 1/p
    weights = [F(1, 3), F(1, 5), F(1, 7)]
    modular3 = [sum(w for i, w in enumerate(weights) if s >> i & 1) for s in range(8)]
    assert check_polymatroid(SetFunction(3, modular3))
    modular3[7] += F(1, BIG_PRIME)
    assert not check_polymatroid(SetFunction(3, modular3))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, 10**6),
    st.lists(
        st.tuples(st.integers(-1, 1), st.sampled_from([3, 5, 7, 11, 13, BIG_PRIME])),
        min_size=(1 << n) - 1, max_size=(1 << n) - 1,
    ),
)))
def test_exact_check_matches_the_fraction_verdict(case):
    # polymatroids nudged by k/p with coprime p: some stay, some break
    n, seed, nudges = case
    base = sample_conic(n, random.Random(seed))
    h = SetFunction(n, [F(0)] + [v + F(k, p) for v, (k, p) in zip(base.values[1:], nudges)])
    assert check_polymatroid(h) == fraction_verdict(h)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, 10**6),
    st.booleans(),
    st.lists(
        st.sampled_from([F(0)] * 6 + [F(-1), F(1), F(-1, 2), F(1, 3)]),
        min_size=(1 << n) - 1, max_size=(1 << n) - 1,
    ),
)))
def test_elemental_check_matches_the_exhaustive_check(case):
    # a polymatroid or a flat start, with a few values moved up or down
    n, seed, flat, moves = case
    base = [F(0)] * (1 << n) if flat else sample_conic(n, random.Random(seed)).values
    h = SetFunction(n, [F(0)] + [v + m for v, m in zip(base[1:], moves)])
    assert check_polymatroid(h) == fraction_verdict(h)


def test_sum_of_polymatroids_is_polymatroid():
    rng = random.Random(3)
    a, b = sample_conic(4, rng), sample_conic(4, rng)
    s = SetFunction(4, [x + y for x, y in zip(a.values, b.values)])
    assert check_polymatroid(s)


# ----------------------------------------------------------------------------
# Pair inequalities
# ----------------------------------------------------------------------------

# variables x1, x2, x3 as bits 0, 1, 2
X1, X2, X3 = 1, 2, 4


def two_reach_inequality() -> JointInequality:
    # hS(1) + hS(3) + hT(2|1) + hT(2|3) + 2 hT(13)  >=  hS(13) + 2 hT(123)
    return JointInequality(
        lhs_s={(0, X1): F(1), (0, X3): F(1)},
        lhs_t={(X1, X1 | X2): F(1), (X3, X2 | X3): F(1), (0, X1 | X3): F(2)},
        rhs_s={(0, X1 | X3): F(1)},
        rhs_t={(0, X1 | X2 | X3): F(2)},
    )


def test_two_reach_inequality_verifies():
    res = verify_joint_inequality(two_reach_inequality(), trials=1000)
    assert res.ok and res.witness is None


def test_inflated_rhs_fails_with_witness():
    bad = two_reach_inequality()
    bad.rhs_s = {k: 2 * v for k, v in bad.rhs_s.items()}
    bad.rhs_t = {k: 2 * v for k, v in bad.rhs_t.items()}
    res = verify_joint_inequality(bad, trials=1000)
    assert not res.ok
    hs, ht = res.witness
    assert check_polymatroid(hs) and check_polymatroid(ht)
    assert res.margin < 0


def test_empty_inequality_holds():
    assert verify_joint_inequality(JointInequality(), trials=10).ok


def test_margin_is_exact_on_rational_pairs():
    ineq = two_reach_inequality()
    rng = random.Random(11)
    for _ in range(25):
        hs, ht = sample_conic(3, rng), sample_conic(3, rng)
        m = ineq.margin(hs, ht)
        assert isinstance(m, F) or m == int(m)
        assert m >= 0


def test_pretty_uses_variable_names():
    s = two_reach_inequality().pretty(["x1", "x2", "x3"])
    assert "hT({x1,x2}|{x1})" in s
    assert "2*hT({x1,x2,x3})" in s
    assert ">=" in s
