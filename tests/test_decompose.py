"""Plan enumeration: pinned plan sets for the corpus queries."""

from __future__ import annotations

import hashlib
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
        connected = not holders or _connected(td, holders)
        assert (str(v) in disconnected) == (not connected)
    closed = all(in_m[s] for t in range(len(td)) if in_m[t] for s in _subtree(td, t))
    assert td.is_downward_closed(in_m) == closed


@st.composite
def valid_trees_with_head(draw):
    """A random preorder tree over at most 7 nodes whose bags over 4
    variables are a valid decomposition (each variable's holders are a
    subtree, grown down from a random top), and a random head."""
    n = draw(st.integers(1, 7))
    parent = (-1,) + tuple(draw(st.integers(0, i - 1)) for i in range(1, n))
    bags = [0] * n
    for v in range(4):
        top = draw(st.integers(-1, n - 1))  # -1: v is in no bag
        holders = {top} if top >= 0 else set()
        for t in range(top + 1, n):
            if parent[t] in holders and draw(st.booleans()):
                holders.add(t)
        for t in holders:
            bags[t] |= 1 << v
    return TreeDecomp(tuple(bags), parent), draw(st.integers(0, 15))


def _is_proper_ancestor(td, a, t):
    return td.parent[t] != -1 and (td.parent[t] == a or _is_proper_ancestor(td, a, td.parent[t]))


@settings(max_examples=300, deadline=None)
@given(valid_trees_with_head())
def test_free_connex_matches_its_definition(tree):
    # brute force: each variable's top is its holder nearest the root, and
    # no non-head variable may top out strictly above a head variable
    td, head = tree
    assert td.validate([]) == []
    tops = {}
    for v in range(4):
        holders = [i for i, b in enumerate(td.bags) if b >> v & 1]
        if holders:
            tops[v] = min(holders, key=lambda t: _depth(td, t))
    free_connex = not any(
        _is_proper_ancestor(td, tops[y], tops[x])
        for x in tops
        if head >> x & 1
        for y in tops
        if not head >> y & 1
    )
    assert is_free_connex(td, head) == free_connex


def test_free_connex_rejects_mid_path_roots():
    # bags {x1,x2} root and {x2,x3} child: the non-head x2 tops at the root,
    # strictly above the head x3's top
    td = TreeDecomp((vs(0, 2), vs(2, 1)), (-1, 0))
    assert not is_free_connex(td, head=vs(0, 1))
    assert is_free_connex(td, head=vs(0, 1, 2))


def test_m_must_be_downward_closed():
    # M is closed by construction, so only a plan file can break it
    query = q("three_reach")
    entry = {"bags": [["x1", "x3", "x4"], ["x1", "x2", "x3"]], "parent": [-1, 0]}
    entry["in_m"] = [True, False]  # root in M, child out
    with pytest.raises(QueryError, match=r"^plan in file has an M that is not downward closed: "):
        pmtds_from_json(json.dumps({"pmtds": [entry]}), query)
    entry["in_m"] = [False, True]
    assert len(pmtds_from_json(json.dumps({"pmtds": [entry]}), query)) == 1


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
    # the writer writes only what the reader reads
    assert all(entry.keys() == {"bags", "parent", "in_m"} for entry in json.loads(text)["pmtds"])


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
        ("bags", [["x1", "x2"], ["x2", "x3"]], r"^plan in file has a root bag without access \{x3\}"),
        ("bags", [["x1", "x3"], ["x1", "x3"]], r"\(edge \{x1,x2\} not covered by any bag\)"),
        # the T views {x1,x3} and {x1,x2,x3}: the first lies in the second
        ("in_m", [False, False], r"^plan in file is redundant \(a view lies in another\): "),
    ],
    ids=[
        "short-parent", "child-before-parent", "string-parent", "bool-parent", "string-flag",
        "int-flag", "no-bags", "no-parent", "no-flags", "int-bags", "int-parent", "int-flags",
        "int-bag", "uncovered-edge", "root-without-access", "edge-in-names", "redundant",
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


def test_plan_json_names_a_tree_that_is_not_free_connex_or_disconnected():
    # x2 is projected away, yet it tops out at the root, above the head's x3
    query = parse_query("q(x1, x3 | x1) :- R1(x1, x2), R2(x2, x3).")
    entry = {"bags": [["x1", "x2"], ["x2", "x3"]], "parent": [-1, 0], "in_m": [False, False]}
    problem = r"^plan in file has a tree not free-connex for head \{x1,x3\}: "
    with pytest.raises(QueryError, match=problem) as exc:
        pmtds_from_json(json.dumps({"pmtds": [entry]}), query)
    assert repr(entry) in str(exc.value)
    # with x3 in the root too, x2 tops out beside it, not above it
    entry["bags"][0].append("x3")
    entry["in_m"] = [False, True]
    assert len(pmtds_from_json(json.dumps({"pmtds": [entry]}), query)) == 1
    # x1 sits in the root and in node 2, but not in node 1 between them
    entry = {"bags": [["x1", "x2", "x3"], ["x3"], ["x1"]], "parent": [-1, 0, 1]}
    entry["in_m"] = [False] * 3
    with pytest.raises(QueryError, match=r"\(variable x1 induces a disconnected bag set\): "):
        pmtds_from_json(json.dumps({"pmtds": [entry]}), query)


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
            assert p.td.is_downward_closed(p.in_m)


# enumerate_pmtds over every corpus query and the first 200 generated ones:
# each plan's (query, key, bags, parent, in_m, nu), in order, hashed
PLANS_DIGEST = "38bea579b5bb0347"


def test_enumerated_plans_match_their_digest():
    queries = [q(path.stem) for path in sorted((ROOT / "queries").glob("*.cqap"))]
    queries += [parse_query(random_cqap(random.Random(seed))) for seed in range(200)]
    h = hashlib.sha256()
    for query in queries:
        for p in enumerate_pmtds(query):
            h.update(repr((query.name, p.key(), p.td.bags, p.td.parent, p.in_m, p.nu)).encode())
    assert h.hexdigest()[:16] == PLANS_DIGEST


# every tree of `enumerate_tds`, in order: `PLANS_DIGEST` keeps only the
# first tree per plan key, so it cannot show that tree order is kept
TREES_DIGEST = "4cc8ebc3c7c711bd"


def test_enumerated_trees_match_their_digest():
    queries = [q(path.stem) for path in sorted((ROOT / "queries").glob("*.cqap"))]
    queries += [parse_query(random_cqap(random.Random(seed))) for seed in range(200)]
    h = hashlib.sha256()
    for query in queries:
        for td in enumerate_tds(query):
            h.update(repr((td.bags, td.parent)).encode())
    assert h.hexdigest()[:16] == TREES_DIGEST
