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
variable may top out strictly above a head variable (tops are the nodes
nearest the root containing a variable), otherwise answers cannot be emitted
without re-expanding eliminated variables.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import product

from .queries import Cqap, QueryError, fields_of, file_entries, varset_of
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

    Nodes are in preorder with siblings ordered by bag value, so equal trees
    compare equal structurally.  Preorder puts every parent before its
    children (`parent[i] < i`), so of any connected node set the first node
    is its top, and every other node has its parent in the set.
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

    def is_ancestor(self, a: int, t: int) -> bool:
        """True when a is a proper ancestor of t."""
        while t != -1:
            t = self.parent[t]
            if t == a:
                return True
        return False

    def top(self, v: int) -> int:
        """The node nearest the root whose bag contains variable v: in a
        valid decomposition v's holders form a subtree, whose top comes
        first in preorder."""
        for i, b in enumerate(self.bags):
            if b >> v & 1:
                return i
        raise DecompositionError(f"variable {v} appears in no bag")

    def validate(self, edges: list[VarSet]) -> list[str]:
        """Edge cover + running intersection, as human-readable problems."""
        problems = []
        for e in edges:
            if not any(subset(e, b) for b in self.bags):
                problems.append(f"edge {vs_str(e)} not covered by any bag")
        all_vars = 0
        for b in self.bags:
            all_vars |= b
        for v in members(all_vars):
            holders = [i for i, b in enumerate(self.bags) if b >> v & 1]
            # connected exactly when every holder but the first (in preorder
            # the top) hangs from another holder
            if any(not self.bags[self.parent[t]] >> v & 1 for t in holders[1:]):
                problems.append(f"variable {v} induces a disconnected bag set")
        return problems


def canonical_tree(bags: list[VarSet], parent: list[int]) -> TreeDecomp:
    """Relabel to preorder with sibling order by bag value."""
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        kids.setdefault(p, []).append(i)

    order: list[int] = []

    def walk(t: int) -> None:
        order.append(t)
        for c in sorted(kids.get(t, []), key=lambda c: (bags[c], c)):
            walk(c)

    walk(kids[-1][0] if -1 in kids else 0)
    new_of = {old: new for new, old in enumerate(order)}
    return TreeDecomp(
        tuple(bags[o] for o in order),
        tuple(-1 if parent[o] == -1 else new_of[parent[o]] for o in order),
    )


def is_free_connex(td: TreeDecomp, head: VarSet) -> bool:
    """No non-head variable tops out strictly above some head variable."""
    all_vars = 0
    for b in td.bags:
        all_vars |= b
    head_tops = [td.top(v) for v in members(head & all_vars)]
    for y in members(all_vars & ~head):
        ty = td.top(y)
        if any(td.is_ancestor(ty, tx) for tx in head_tops):
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



def compute_nu(td: TreeDecomp, in_m: tuple[bool, ...], head: VarSet) -> tuple[VarSet, ...]:
    nu = []
    for t, bag in enumerate(td.bags):
        if not in_m[t]:
            nu.append(bag)
        elif t == 0:
            nu.append(bag & head)
        else:
            p = td.parent[t]
            if not in_m[p]:
                nu.append(bag & (head | td.bags[p]))
            elif not subset(bag & head, td.bags[p] & head):
                nu.append(bag & head)
            else:
                nu.append(0)
    return tuple(nu)


def make_pmtd(td: TreeDecomp, in_m: tuple[bool, ...], q: Cqap) -> Pmtd | None:
    """Build a plan, or None when it is invalid or redundant.

    Redundant: a surviving view's variable set is contained in another view
    on the same side (including duplicates).
    """
    if not subset(q.access, td.bags[0]):
        return None
    if not td.is_downward_closed(in_m):
        return None
    if not is_free_connex(td, q.head):
        return None
    nu = compute_nu(td, in_m, q.head)
    for side in (True, False):
        views = [v for v, m in zip(nu, in_m) if m == side and v]
        for i, a in enumerate(views):
            for j, b in enumerate(views):
                if i != j and subset(a, b) and (a != b or i < j):
                    return None
    return Pmtd(td, in_m, nu)


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
    """Group uncovered edges connected through variables outside `bag`."""
    comps: list[tuple[list[VarSet], VarSet]] = []  # (edges, outside-vars seen)
    for e in edges:
        out = e & ~bag
        hits = [i for i, (_, ov) in enumerate(comps) if ov & out]
        merged = ([e], out)
        for i in reversed(hits):
            es, ov = comps.pop(i)
            merged = (es + merged[0], ov | merged[1])
        comps.append(merged)
    result = []
    for es, _ in comps:
        cv = 0
        for e in es:
            cv |= e
        result.append((es, cv))
    return result


def _grow(bag: VarSet, uncovered: list[VarSet], budget: list[int]):
    """Yield child forests: lists of (bag, parent-offset) in preorder."""
    if not uncovered:
        yield []
        return
    per_comp = []
    for comp_edges, comp_vars in _components(uncovered, bag):
        interface = comp_vars & bag
        options = []
        for inner in submasks(comp_vars & ~bag)[1:]:
            child = interface | inner
            newly = [e for e in comp_edges if subset(e, child)]
            if not newly:
                continue
            rest = [e for e in comp_edges if not subset(e, child)]
            for forest in _grow(child, rest, budget):
                budget[0] -= 1
                if budget[0] < 0:
                    raise DecompositionError(
                        "decomposition enumeration exceeded its resource cap"
                    )
                options.append([(child, -1)] + [(b, o + 1) for b, o in forest])
        per_comp.append(options)
    for combo in product(*per_comp):
        forest = []
        for sub in combo:
            base = len(forest)
            forest.extend(
                (b, -1 if o == -1 else o + base) for b, o in sub
            )
        yield forest


def enumerate_tds(q: Cqap) -> list[TreeDecomp]:
    """All rooted decompositions with the access variables in the root.

    Root bags are the access set plus any other variables; children are grown
    per connected component of uncovered edges, always containing the
    component's interface and at least one newly covered edge.  Raises
    `DecompositionError` once more than `TD_CAP` partial decompositions
    have been built.
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
            bags = [root] + [b for b, _ in forest]
            parent = [-1] + [0 if o == -1 else o + 1 for _, o in forest]
            out.append(canonical_tree(bags, parent))
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
                "views": [
                    {"side": "S" if m else "T", "vars": names_of(v, names)}
                    for v, m in zip(p.nu, p.in_m)
                    if v
                ],
            }
            for p in plans
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def pmtds_from_json(text: str, q: Cqap) -> list[Pmtd]:
    plans = []
    for entry in file_entries(text, q, "plan file", "pmtds"):
        what = f"plan in file {entry}"
        bags, parent, in_m = fields_of(entry, what, "bags", "parent", "in_m")
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
        problems = td.validate(q.edge_sets())
        if problems:
            raise QueryError(f"bad decomposition in plan file: {problems[0]}")
        p = make_pmtd(td, tuple(in_m), q)
        if p is None:
            raise QueryError(f"invalid or redundant plan in file: {entry}")
        plans.append(p)
    return plans
