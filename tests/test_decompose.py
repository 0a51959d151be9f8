"""Plan enumeration: pinned plan sets for the corpus queries."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqap import decompose
from cqap.decompose import (
    DecompositionError,
    Pmtd,
    TreeDecomp,
    enumerate_pmtds,
    enumerate_tds,
    is_free_connex,
    make_pmtd,
    pmtds_from_json,
    pmtds_to_json,
)
from cqap.queries import QueryError, load_query, parse_query
from cqap.relalg import names_of, vs

from support import random_cqap

ROOT = Path(__file__).resolve().parent.parent / "corpus"


def q(name):
    return load_query(ROOT / "queries" / f"{name}.cqap")


def plan_names(plans: list[Pmtd], query) -> set[tuple[frozenset, frozenset]]:
    """Each plan as (T view name-sets, S view name-sets)."""
    def names(side):
        return frozenset(frozenset(names_of(v, query.var_names)) for v in side)

    return {(names(p.t_targets), names(p.s_targets)) for p in plans}


def fs(*groups):
    return frozenset(frozenset(g) for g in groups)


# ----------------------------------------------------------------------------
# structural checks
# ----------------------------------------------------------------------------


def test_tree_validate_catches_problems():
    td = TreeDecomp((vs(0, 1), vs(2, 3)), (-1, 0))
    problems = td.validate([vs(0, 1), vs(1, 2)])
    assert any("not covered" in p for p in problems)

    # variable 0 sits in bags 0 and 2 but the connecting bag 1 lacks it
    td2 = TreeDecomp((vs(0, 1), vs(1, 2), vs(0, 2)), (-1, 0, 1))
    assert any("disconnected" in p for p in td2.validate([vs(0, 1)]))


@st.composite
def trees_with_m(draw):
    """A random preorder tree over at most 7 nodes, bags over 4 variables,
    and a random node set M."""
    n = draw(st.integers(1, 7))
    parent = (-1,) + tuple(draw(st.integers(0, i - 1)) for i in range(1, n))
    bags = tuple(draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)))
    in_m = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return TreeDecomp(bags, parent), in_m


def _connected(td, nodes):
    """Brute force: grow from one node along tree edges inside `nodes`."""
    reach, todo = set(), [nodes[-1]]
    while todo:
        t = todo.pop()
        if t not in reach:
            reach.add(t)
            todo += [u for u in nodes if td.parent[u] == t or td.parent[t] == u]
    return reach == set(nodes)


def _depth(td, t):
    return 0 if td.parent[t] == -1 else 1 + _depth(td, td.parent[t])


def _subtree(td, t):
    """t and every node below it; parents come before children in preorder."""
    out = [t]
    for i in range(t + 1, len(td)):
        if td.parent[i] in out:
            out.append(i)
    return out


@settings(max_examples=300, deadline=None)
@given(trees_with_m())
def test_tree_questions_match_brute_force(tree):
    td, in_m = tree
    disconnected = {p.split()[1] for p in td.validate([]) if "disconnected" in p}
    for v in range(4):
        holders = [i for i, b in enumerate(td.bags) if b >> v & 1]
        if not holders:
            with pytest.raises(DecompositionError):
                td.top(v)
            continue
        assert (str(v) in disconnected) == (not _connected(td, holders))
        if _connected(td, holders):
            assert td.top(v) == min(holders, key=lambda t: _depth(td, t))
    closed = all(in_m[s] for t in range(len(td)) if in_m[t] for s in _subtree(td, t))
    assert td.is_downward_closed(in_m) == closed


def test_free_connex_rejects_mid_path_roots():
    # bags {x1,x2} root and {x2,x3} child: the non-head x2 tops at the root,
    # strictly above the head x3's top
    td = TreeDecomp((vs(0, 2), vs(2, 1)), (-1, 0))
    assert not is_free_connex(td, head=vs(0, 1))
    assert is_free_connex(td, head=vs(0, 1, 2))


def test_m_must_be_downward_closed():
    query = q("three_reach")
    td = TreeDecomp((vs(0, 1, 3), vs(0, 2, 3)), (-1, 0))
    assert make_pmtd(td, (True, False), query) is None  # root in M, child out
    assert make_pmtd(td, (False, True), query) is not None


# ----------------------------------------------------------------------------
# pinned corpus plan sets
# ----------------------------------------------------------------------------


def test_two_reach_has_two_plans():
    query = q("two_reach")
    plans = enumerate_pmtds(query)
    assert plan_names(plans, query) == {
        (fs(["x1", "x2", "x3"]), fs()),
        (fs(), fs(["x1", "x3"])),
    }


def test_three_reach_has_five_plans():
    query = q("three_reach")
    plans = enumerate_pmtds(query)
    assert plan_names(plans, query) == {
        (fs(["x1", "x3", "x4"], ["x1", "x2", "x3"]), fs()),
        (fs(["x1", "x3", "x4"]), fs(["x1", "x3"])),
        (fs(["x1", "x2", "x4"], ["x2", "x3", "x4"]), fs()),
        (fs(["x1", "x2", "x4"]), fs(["x2", "x4"])),
        (fs(), fs(["x1", "x4"])),
    }


def test_square_has_two_plans():
    query = q("square")
    plans = enumerate_pmtds(query)
    assert plan_names(plans, query) == {
        (fs(["x1", "x3", "x4"], ["x1", "x2", "x3"]), fs()),
        (fs(), fs(["x1", "x3"])),
    }


def test_hierarchical_has_five_plans():
    query = q("hierarchical")
    plans = enumerate_pmtds(query)
    z = ["z1", "z2", "z3", "z4"]
    t0 = ["x"] + z
    t1 = ["x", "y1", "z1", "z2"]
    t2 = ["x", "y2", "z3", "z4"]
    s12 = ["x", "z1", "z2"]
    s34 = ["x", "z3", "z4"]
    assert plan_names(plans, query) == {
        (fs(t0, t1, t2), fs()),
        (fs(t0, t2), fs(s12)),
        (fs(t0, t1), fs(s34)),
        (fs(t0), fs(s12, s34)),
        (fs(), fs(z)),
    }


@pytest.mark.parametrize("k", [2, 3, 4])
def test_set_disjointness_has_two_plans(k):
    query = q(f"set_disjointness_k{k}")
    plans = enumerate_pmtds(query)
    full = [f"x{i}" for i in range(1, k + 1)] + ["y"]
    assert plan_names(plans, query) == {
        (fs(full), fs()),
        (fs(), fs(full)),
    }


def test_boolean_set_disjointness_has_two_plans():
    query = q("bool_two_sd")
    plans = enumerate_pmtds(query)
    assert plan_names(plans, query) == {
        (fs(["x1", "x2", "y"]), fs()),
        (fs(), fs(["x1", "x2"])),
    }


# ----------------------------------------------------------------------------
# pinned four-reach plan file
# ----------------------------------------------------------------------------


def test_four_reach_pinned_plans_load():
    query = q("four_reach")
    text = (ROOT / "pmtds" / "four_reach.json").read_text()
    plans = pmtds_from_json(text, query)
    assert len(plans) == 11
    got = plan_names(plans, query)
    assert (fs(), fs(["x1", "x5"])) in got
    assert (fs(["x1", "x2", "x3", "x5"], ["x3", "x4", "x5"]), fs()) in got
    assert (fs(["x1", "x2", "x3", "x5"]), fs(["x3", "x5"])) in got
    assert (fs(["x1", "x4", "x5"]), fs(["x1", "x4"])) in got
    assert (fs(["x1", "x2", "x5"]), fs(["x2", "x5"])) in got
    # all eleven are distinct as view sets
    assert len(got) == 11


def test_enumeration_past_its_cap_raises(monkeypatch):
    assert len(enumerate_tds(q("three_reach"))) > 3
    monkeypatch.setattr(decompose, "TD_CAP", 3)
    with pytest.raises(DecompositionError, match="exceeded its resource cap$"):
        enumerate_tds(q("three_reach"))


def test_four_reach_enumeration_covers_chains():
    query = q("four_reach")
    plans = enumerate_pmtds(query)
    got = plan_names(plans, query)
    assert (fs(), fs(["x1", "x5"])) in got
    # finer chains dominate the two-bag plans, e.g. {145}-{124}-{234}
    assert (
        fs(["x1", "x4", "x5"], ["x1", "x2", "x4"], ["x2", "x3", "x4"]),
        fs(),
    ) in got


# ----------------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------------


def test_plan_json_round_trip():
    query = q("three_reach")
    plans = enumerate_pmtds(query)
    text = pmtds_to_json(plans, query)
    back = pmtds_from_json(text, query)
    assert [p.key() for p in back] == [p.key() for p in plans]


def test_plan_json_needs_one_in_m_flag_per_bag():
    query = q("two_reach")
    doc = json.loads(pmtds_to_json(enumerate_pmtds(query), query))
    entry = next(e for e in doc["pmtds"] if len(e["bags"]) == 2)
    for in_m in ([True, True, True], [True]):
        entry["in_m"] = in_m
        with pytest.raises(QueryError, match=f"{len(in_m)} in_m flags for 2 bags: ") as exc:
            pmtds_from_json(json.dumps(doc), query)
        assert repr(entry["bags"]) in str(exc.value)


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("parent", [-1], "bad parent list"),
        ("parent", [-1, 1], "bad parent list"),
        ("parent", [-1, "x"], "parent that is not an integer"),
        ("parent", [-1, True], "parent that is not an integer"),
        ("in_m", [True, "false"], "in_m flag that is not a boolean"),
        ("in_m", [1, 0], "in_m flag that is not a boolean"),
        ("bags", None, r"^plan in file .* has no 'bags'$"),
        ("parent", None, r"^plan in file .* has no 'parent'$"),
        ("in_m", None, r"^plan in file .* has no 'in_m'$"),
        ("bags", 3, r"^plan in file .* has 'bags' that is not a list$"),
        ("parent", 3, r"^plan in file .* has 'parent' that is not a list$"),
        ("in_m", 3, r"^plan in file .* has 'in_m' that is not a list$"),
        ("bags", [3, ["x2", "x3"]], r"^3 in plan in file .* is not a list of variable names$"),
        # no bag covers R1(x1, x2); the root bag lacks the access variable x3
        ("bags", [["x1", "x3"], ["x1", "x3"]], r"^plan in file has a bad decomposition \(edge "),
        ("bags", [["x1", "x2"], ["x2", "x3"]], r"^invalid or redundant plan in file: "),
    ],
    ids=[
        "short-parent", "child-before-parent", "string-parent", "bool-parent", "string-flag",
        "int-flag", "no-bags", "no-parent", "no-flags", "int-bags", "int-parent", "int-flags",
        "int-bag", "uncovered-edge", "root-without-access",
    ],
)
def test_plan_json_names_the_entry_with_a_malformed_parent_or_flag(field, value, problem):
    # a value of None deletes the key
    query = q("two_reach")
    doc = json.loads(pmtds_to_json(enumerate_pmtds(query), query))
    entry = next(e for e in doc["pmtds"] if len(e["bags"]) == 2)
    if value is None:
        del entry[field]
    else:
        entry[field] = value
    with pytest.raises(QueryError, match=problem) as exc:
        pmtds_from_json(json.dumps(doc), query)
    assert repr(entry) in str(exc.value)


def test_plan_json_names_a_missing_plan_list_or_another_query():
    query = q("two_reach")
    with pytest.raises(QueryError, match=r"^plan file has no 'pmtds'$"):
        pmtds_from_json(json.dumps({"query": "two_reach"}), query)
    with pytest.raises(QueryError, match=r"^plan file has 'pmtds' that is not a list$"):
        pmtds_from_json(json.dumps({"pmtds": 5}), query)
    with pytest.raises(QueryError, match=r"^plan file is for query 'square', not 'two_reach'$"):
        pmtds_from_json(json.dumps({"query": "square", "pmtds": []}), query)


def sibling_free_shape(td: TreeDecomp, t: int = 0) -> tuple:
    """The subtree at node t as (bag, sorted child shapes): equal exactly
    for trees that differ only in the order of siblings."""
    kids = [c for c, p in enumerate(td.parent) if p == t]
    return (td.bags[t], tuple(sorted(sibling_free_shape(td, c) for c in kids)))


def test_enumerated_plans_are_valid():
    # every corpus query and the first 40 generated ones; enumeration never
    # yields one tree twice, even with its siblings reordered, so the trees
    # need no relabelling to a canonical form
    queries = [q(path.stem) for path in sorted((ROOT / "queries").glob("*.cqap"))]
    queries += [parse_query(random_cqap(random.Random(seed))) for seed in range(40)]
    for query in queries:
        tds = enumerate_tds(query)
        for td in tds:
            assert td.validate(query.edge_sets()) == [], (query.name, td)
            assert all(0 <= p < i for i, p in enumerate(td.parent) if i), (query.name, td)
            assert query.access & ~td.bags[0] == 0, (query.name, td)
        shapes = [sibling_free_shape(td) for td in tds]
        assert len(set(shapes)) == len(shapes), query.name
        for p in enumerate_pmtds(query):
            assert p.td.validate(query.edge_sets()) == []
            assert is_free_connex(p.td, query.head)
            assert query.access & ~p.td.bags[0] == 0
