"""Rooted tree decompositions and their materialization plans.

A plan is a pair (decomposition, M): a rooted tree decomposition whose root
bag contains the access variables, together with a downward-closed node set M
(every node in M has its whole subtree in M).  Nodes inside M become
preprocessed views (S-views), nodes outside stay as online views (T-views);
each node t contributes a view over the variable set nu(t):

    t not in M            -> chi(t)
    t root, in M          -> chi(t) & head
    t in M, parent not    -> chi(t) & (head | chi(parent))
    t in M, parent in M   -> chi(t) & head, unless that is already contained
                             in the parent's, in which case nothing

Plans whose surviving views repeat or contain one another on the same side
are redundant and dropped.  Among the rest only the minimal ones under
per-side target containment (domination) are kept: smaller views always give
at least as good space/time behavior.

The decomposition must be free-connex with respect to the head: no non-head
variable may top out strictly above a head variable (a variable's top is the
node nearest the root whose bag contains it), otherwise answers cannot be
emitted without re-expanding eliminated variables.  In a valid decomposition
a variable tops out at node t exactly when it is in t's bag and not in its
parent's, so one preorder pass decides it (`is_free_connex`).

Construction trusts its invariants: `enumerate_tds` puts the access
variables in the root, `_downward_closed_sets` yields only closed M,
`enumerate_pmtds` skips a tree that is not free-connex before it tries any
M, and `make_pmtd` only rejects redundancy.  `pmtds_from_json` checks all
three conditions and names the one a plan breaks.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import permutations, product
from typing import Sequence

from .queries import Cqap, QueryError, fields_of, json_object, varset_of
from .relalg import VarSet, members, names_of, submasks, subset, vs_str

log = logging.getLogger(__name__)

# partial decompositions `enumerate_tds` may build before it gives up
TD_CAP = 200_000


class DecompositionError(ValueError):
    pass


# ═══════════════════════════════════════════════════════════════════════════
# Tree decompositions
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class TreeDecomp:
    """A rooted tree of bags; node 0 is the root, parent[0] == -1.

    Nodes are in preorder (`parent[i] < i`), so of any connected node set
    the first node is its top and every other node has its parent in the set.
    """

    bags: tuple[VarSet, ...]
    parent: tuple[int, ...]

    def __post_init__(self):
        if len(self.bags) != len(self.parent) or not self.bags:
            raise DecompositionError("bags and parent must align and be nonempty")
        if self.parent[0] != -1 or any(
            not 0 <= p < i for i, p in enumerate(self.parent) if i
        ):
            raise DecompositionError("parent must be preorder with root first")

    def __len__(self) -> int:
        return len(self.bags)

    def is_downward_closed(self, in_m: tuple[bool, ...]) -> bool:
        """Every child of a node in M is in M too."""
        return all(in_m[c] or not in_m[p] for c, p in enumerate(self.parent) if c)

    def validate(self, edges: list[VarSet], names: Sequence[str] | None = None) -> list[str]:
        """Edge cover + running intersection, as human-readable problems
        naming variables as `vs_str` does.  A variable's holders are
        connected exactly when it tops out at one node only."""
        problems = [
            f"edge {vs_str(e, names)} not covered by any bag"
            for e in edges
            if not any(subset(e, b) for b in self.bags)
        ]
        tops = twice = 0
        for t, b in enumerate(self.bags):
            top = b & ~self.bags[self.parent[t]] if t else b
            twice |= tops & top
            tops |= top
        for v in members(twice):
            problems.append(f"variable {names[v] if names else v} induces a disconnected bag set")
        return problems


def is_free_connex(td: TreeDecomp, head: VarSet) -> bool:
    """On a valid decomposition: no non-head variable tops out strictly
    above a head variable.  `above[t]` holds t's proper ancestors' variables."""
    above = [0] * len(td)
    for t in range(1, len(td)):
        p = td.parent[t]
        above[t] = above[p] | td.bags[p]
        if td.bags[t] & ~td.bags[p] & head and above[t] & ~head:
            return False
    return True


# ═══════════════════════════════════════════════════════════════════════════
# Plans (decomposition + M), their views, redundancy, domination
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class Pmtd:
    """A plan: decomposition, membership flags for M, and per-node views.

    `nu[t] == 0` marks a node that contributes no view (it stays in the tree
    for traversal but is neither materialized nor scanned).
    """

    td: TreeDecomp
    in_m: tuple[bool, ...]
    nu: tuple[VarSet, ...]

    @property
    def s_targets(self) -> frozenset[VarSet]:
        return frozenset(
            v for v, m in zip(self.nu, self.in_m) if m and v
        )

    @property
    def t_targets(self) -> frozenset[VarSet]:
        return frozenset(
            v for v, m in zip(self.nu, self.in_m) if not m and v
        )

    def key(self) -> tuple[tuple[VarSet, ...], tuple[VarSet, ...]]:
        return (tuple(sorted(self.t_targets)), tuple(sorted(self.s_targets)))


def make_pmtd(td: TreeDecomp, in_m: tuple[bool, ...], q: Cqap) -> Pmtd | None:
    """Build a plan, its views nu(t) as the module docstring lists them, or
    None when it is redundant: a surviving view's variable set is contained
    in another view on the same side (a repeated view included).  The caller
    ensures the other plan conditions."""
    nu = []
    for t, bag in enumerate(td.bags):
        p = td.parent[t]
        if not in_m[t]:
            nu.append(bag)
        elif t and not in_m[p]:
            nu.append(bag & (q.head | td.bags[p]))
        elif t and subset(bag & q.head, td.bags[p]):
            nu.append(0)
        else:
            nu.append(bag & q.head)
    for side in (True, False):
        views = [v for v, m in zip(nu, in_m) if m == side and v]
        if any(subset(a, b) for a, b in permutations(views, 2)):
            return None
    return Pmtd(td, in_m, tuple(nu))


def dominates(p: tuple, r: tuple) -> bool:
    """Every view of plan key r fits inside a same-side view of plan key p."""
    return all(any(subset(v, w) for w in ps) for ps, rs in zip(p, r) for v in rs)


def minimal_pmtds(plans: list[Pmtd]) -> list[Pmtd]:
    """Dedup by view sets, then keep plans not strictly above another.

    Plans are compared by their `key()`s, each built once.
    """
    by_key: dict = {}
    for p in plans:
        by_key.setdefault(p.key(), p)
    kept = [
        k for k in by_key if not any(k2 != k and dominates(k, k2) and not dominates(k2, k) for k2 in by_key)
    ]
    return [by_key[k] for k in sorted(kept)]


# ═══════════════════════════════════════════════════════════════════════════
# Enumeration
# ═══════════════════════════════════════════════════════════════════════════


def _components(edges: list[VarSet], bag: VarSet) -> list[tuple[list[VarSet], VarSet]]:
    """Group uncovered edges connected through variables outside `bag`, each
    group with its variables."""
    comps: list[tuple[list[VarSet], VarSet]] = []
    for e in edges:
        out = e & ~bag
        merged = ([e], e)
        for i in reversed([i for i, (_, cv) in enumerate(comps) if cv & out]):
            es, cv = comps.pop(i)
            merged = (es + merged[0], cv | merged[1])
        comps.append(merged)
    return comps


def _grow(bag: VarSet, uncovered: list[VarSet], budget: list[int]):
    """Yield child forests: tuples of (bag, child forest), one child per
    component of `uncovered`."""
    per_comp = []
    for comp_edges, comp_vars in _components(uncovered, bag):
        interface = comp_vars & bag
        options = []
        for inner in submasks(comp_vars & ~bag)[1:]:
            child = interface | inner
            rest = [e for e in comp_edges if not subset(e, child)]
            if len(rest) == len(comp_edges):
                continue
            for forest in _grow(child, rest, budget):
                budget[0] -= 1
                if budget[0] < 0:
                    raise DecompositionError(
                        "decomposition enumeration exceeded its resource cap"
                    )
                options.append((child, forest))
        per_comp.append(options)
    yield from product(*per_comp)


def _preorder(forest, parent_index: int, bags: list[VarSet], parent: list[int]) -> None:
    """Append the forest's nodes in preorder, its roots under `parent_index`."""
    for bag, children in forest:
        bags.append(bag)
        parent.append(parent_index)
        _preorder(children, len(bags) - 1, bags, parent)


def enumerate_tds(q: Cqap) -> list[TreeDecomp]:
    """All rooted decompositions with the access variables in the root.

    Root bags are the access set plus any other variables; children are grown
    per connected component of uncovered edges, always containing the
    component's interface and at least one newly covered edge.  Each tree is
    grown as a nested forest and flattened once, in preorder.  No tree
    comes twice, even up to sibling order.  Raises `DecompositionError` once
    more than `TD_CAP` partial decompositions have been built.
    """
    edges = sorted(set(q.edge_sets()))
    budget = [TD_CAP]
    out = []
    for extra in submasks(q.vars_all & ~q.access):
        root = q.access | extra
        if root == 0:
            continue
        rest = [e for e in edges if not subset(e, root)]
        for forest in _grow(root, rest, budget):
            bags, parent = [root], [-1]
            _preorder(forest, 0, bags, parent)
            out.append(TreeDecomp(tuple(bags), tuple(parent)))
    return out


def _downward_closed_sets(td: TreeDecomp):
    n = len(td)
    for bits in range(1 << n):
        in_m = tuple(bits >> t & 1 == 1 for t in range(n))
        if td.is_downward_closed(in_m):
            yield in_m


def enumerate_pmtds(q: Cqap) -> list[Pmtd]:
    """All minimal plans for the query, canonically ordered."""
    plans = []
    for td in enumerate_tds(q):
        if not is_free_connex(td, q.head):
            continue
        for in_m in _downward_closed_sets(td):
            p = make_pmtd(td, in_m, q)
            if p is not None:
                plans.append(p)
    kept = minimal_pmtds(plans)
    log.debug("%s: %d plans (%d before domination)", q.name, len(kept), len(plans))
    return kept


# ═══════════════════════════════════════════════════════════════════════════
# JSON
# ═══════════════════════════════════════════════════════════════════════════


def pmtds_to_json(plans: list[Pmtd], q: Cqap) -> str:
    names = q.var_names
    doc = {
        "query": q.name,
        "pmtds": [
            {
                "bags": [names_of(b, names) for b in p.td.bags],
                "parent": list(p.td.parent),
                "in_m": list(p.in_m),
            }
            for p in plans
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def pmtds_from_json(text: str, q: Cqap) -> list[Pmtd]:
    doc = json_object(text, "plan file")
    [entries] = fields_of(doc, "plan file", "pmtds", lists=True)
    if doc.get("query") not in (None, q.name):
        raise QueryError(f"plan file is for query {doc.get('query')!r}, not {q.name!r}")
    plans = []
    for entry in entries:
        what = f"plan in file {entry}"
        bags, parent, in_m = fields_of(entry, what, "bags", "parent", "in_m", lists=True)
        bags = [varset_of(bag, q.var_names, what) for bag in bags]
        if len(in_m) != len(bags):
            raise QueryError(
                f"plan in file has {len(in_m)} in_m flags for {len(bags)} bags: {entry}"
            )
        if not all(type(b) is bool for b in in_m):
            raise QueryError(f"plan in file has an in_m flag that is not a boolean: {entry}")
        if not all(type(t) is int for t in parent):
            raise QueryError(f"plan in file has a parent that is not an integer: {entry}")
        try:
            td = TreeDecomp(tuple(bags), tuple(parent))
        except DecompositionError as e:
            raise QueryError(f"plan in file has a bad parent list ({e}): {entry}") from None
        if problems := td.validate(q.edge_sets(), q.var_names):
            raise QueryError(f"plan in file has a bad decomposition ({problems[0]}): {entry}")
        if not subset(q.access, td.bags[0]):
            missing = vs_str(q.access & ~td.bags[0], q.var_names)
            raise QueryError(f"plan in file has a root bag without access {missing}: {entry}")
        if not td.is_downward_closed(in_m):
            raise QueryError(f"plan in file has an M that is not downward closed: {entry}")
        if not is_free_connex(td, q.head):
            head = vs_str(q.head, q.var_names)
            raise QueryError(f"plan in file has a tree not free-connex for head {head}: {entry}")
        if (p := make_pmtd(td, tuple(in_m), q)) is None:
            raise QueryError(f"plan in file is redundant (a view lies in another): {entry}")
        plans.append(p)
    return plans
