"""Data-layer behavior: relations, degree stats, the oracle, persistence."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from cqap.relalg import (
    Database,
    DegreeConstraint,
    Dictionary,
    Relation,
    best_constraints,
    degree,
    join,
    load_relation_tsv,
    members,
    oracle_join,
    positions,
    project,
    save_relation_tsv,
    semijoin,
    submasks,
    vs,
)

# ----------------------------------------------------------------------------
# bitmask helpers
# ----------------------------------------------------------------------------


def test_varset_basics():
    s = vs(0, 2, 3)
    assert members(s) == (0, 2, 3)
    assert s.bit_count() == 3
    assert positions(vs(0, 2, 3), vs(2)) == (1,)
    assert positions(vs(0, 2, 3), vs(0, 3)) == (0, 2)
    assert submasks(s) == sorted(t for t in range(s + 1) if t & ~s == 0)
    assert submasks(0) == [0]


# ----------------------------------------------------------------------------
# core operators
# ----------------------------------------------------------------------------


def r_edges(name, schema, pairs):
    return Relation(name, schema, pairs)


def test_project_dedups():
    r = Relation("R", vs(0, 1), {(1, 2), (1, 3)})
    p = project(r, vs(0))
    assert p.rows == {(1,)}


def test_semijoin_matches_shared_vars():
    r = Relation("R", vs(0, 1), {(1, 2), (2, 3)})
    s = Relation("S", vs(1, 2), {(2, 9)})
    out = semijoin(r, s)
    assert out.rows == {(1, 2)}


def test_semijoin_disjoint_schemas():
    r = Relation("R", vs(0), {(1,), (2,)})
    nonempty = Relation("S", vs(1), {(5,)})
    empty = Relation("S", vs(1), ())
    assert semijoin(r, nonempty).rows == r.rows
    assert semijoin(r, empty).rows == frozenset()


def test_join_alignment():
    r = Relation("R", vs(0, 1), {(1, 2)})
    s = Relation("S", vs(1, 2), {(2, 3), (4, 5)})
    out = join(r, s)
    assert out.schema == vs(0, 1, 2)
    assert out.rows == {(1, 2, 3)}


def test_degree_counts():
    r = Relation("R", vs(0, 1), {(1, 2), (1, 3), (2, 3)})
    d = degree(r, vs(0), vs(0, 1))
    assert d.counts == {(1,): 2, (2,): 1}
    assert d.max_degree == 2


rows_strategy = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    max_size=40,
)


@given(rows_strategy, rows_strategy)
@settings(max_examples=60, deadline=None)
def test_semijoin_contained_and_idempotent(rows_r, rows_s):
    r = Relation("R", vs(0, 1, 2), rows_r)
    s = Relation("S", vs(1, 2, 3), {t for t in rows_s})
    once = semijoin(r, s)
    assert once.rows <= r.rows
    assert semijoin(once, s).rows == once.rows


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_degree_total_is_projection_size(rows):
    if not rows:
        return
    r = Relation("R", vs(0, 1, 2), rows)
    d = degree(r, vs(0), vs(0, 1))
    assert sum(d.counts.values()) == len(project(r, vs(0, 1)))


@given(rows_strategy, rows_strategy)
@settings(max_examples=40, deadline=None)
def test_join_matches_nested_loop(rows_r, rows_s):
    r = Relation("R", vs(0, 1, 2), rows_r)
    s = Relation("S", vs(1, 2, 3), rows_s)
    expected = set()
    for a in rows_r:
        for b in rows_s:
            if a[1] == b[0] and a[2] == b[1]:
                expected.add((a[0], a[1], a[2], b[2]))
    assert join(r, s).rows == expected


# ----------------------------------------------------------------------------
# constraints and databases
# ----------------------------------------------------------------------------


def test_best_constraints_keeps_minimum():
    cs = [
        DegreeConstraint(vs(0), vs(0, 1), 10, "R"),
        DegreeConstraint(vs(0), vs(0, 1), 4, "S"),
        DegreeConstraint(0, vs(0, 1), 100, "R"),
    ]
    kept = best_constraints(cs)
    assert len(kept) == 2
    assert {(c.x, c.y, c.bound) for c in kept} == {
        (vs(0), vs(0, 1), 4),
        (0, vs(0, 1), 100),
    }


def test_validate_guards_reports_violations():
    db = Database()
    db.add(Relation("R", vs(0, 1), {(1, 2), (1, 3)}))
    db.dc = [
        DegreeConstraint(vs(0), vs(0, 1), 1, "R"),
        DegreeConstraint(0, vs(0, 1), 10, "R"),
    ]
    problems = db.validate_guards()
    assert len(problems) == 1
    assert "actual 2" in problems[0]


# ----------------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------------


def test_oracle_three_reach_path():
    # edges 1->2->3->4; asking (1, 4) must return it, (1, 3) must not
    edges = {(1, 2), (2, 3), (3, 4)}
    atoms = [
        Relation("R1", vs(0, 1), edges),
        Relation("R2", vs(1, 2), edges),
        Relation("R3", vs(2, 3), edges),
    ]
    req = Relation("Q", vs(0, 3), {(1, 4), (1, 3)})
    out = oracle_join(req, atoms, vs(0, 3))
    assert out.rows == {(1, 4)}


def test_oracle_keeps_witness_variable():
    # R(y, x) = element y in set x; schema order is ascending variable index
    # with y = var 2, x1 = var 0, x2 = var 1.
    e, s1, s2 = 7, 1, 2
    r1 = Relation("Ra", vs(0, 2), {(s1, e)})
    r2 = Relation("Rb", vs(1, 2), {(s2, e)})
    req = Relation("Q", vs(0, 1), {(s1, s2)})
    out = oracle_join(req, [r1, r2], vs(0, 1, 2))
    assert out.rows == {(s1, s2, e)}


@given(rows_strategy, rows_strategy)
@settings(max_examples=40, deadline=None)
def test_oracle_monotone_in_request(rows_r, rows_s):
    r = Relation("R", vs(0, 1, 2), rows_r)
    s = Relation("S", vs(1, 2, 3), rows_s)
    pairs = sorted({(a[0], b[2]) for a in rows_r for b in rows_s})
    small = Relation("Q", vs(0, 3), pairs[: len(pairs) // 2])
    big = Relation("Q", vs(0, 3), pairs)
    out_small = oracle_join(small, [r, s], vs(0, 3))
    out_big = oracle_join(big, [r, s], vs(0, 3))
    assert out_small.rows <= out_big.rows


# ----------------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------------


def test_tsv_round_trip_is_byte_deterministic(tmp_path):
    d = Dictionary()
    rows = {("b", "x"), ("a", "y"), ("a", "x")}
    r = Relation("R", vs(0, 2), {(d.intern(u), d.intern(v)) for u, v in rows})
    p1 = tmp_path / "r1.tsv"
    p2 = tmp_path / "r2.tsv"
    names = ["x1", "x2", "x3"]
    save_relation_tsv(p1, r, names, d)
    r2 = load_relation_tsv(p1, "R", {"x1": 0, "x3": 2}, d)
    assert r2.rows == r.rows
    save_relation_tsv(p2, r2, names, d)
    assert p1.read_bytes() == p2.read_bytes()


def test_tsv_reorders_columns(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("#schema x3 x1\nb\ta\n", encoding="utf-8")
    d = Dictionary()
    r = load_relation_tsv(p, "R", {"x1": 0, "x3": 2}, d)
    assert r.schema == vs(0, 2)
    # columns are stored ascending by variable index: (x1, x3)
    assert r.rows == {(d.intern("a"), d.intern("b"))}


def test_dictionary_round_trip(tmp_path):
    d = Dictionary()
    for s in ["zebra", "alpha", "alpha", "mid"]:
        d.intern(s)
    path = tmp_path / "dict.tsv"
    d.save(path)
    d2 = Dictionary.load(path)
    assert len(d2) == 3
    assert d2.lookup(d2.intern("zebra")) == "zebra"
    assert d2.intern("alpha") == d.intern("alpha")
