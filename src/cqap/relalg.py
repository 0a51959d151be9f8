"""Finite relations over integer variable indices.

This module is the data layer everything else stands on:

  * variable sets are int bitmasks over indices 0..n-1 (n <= 16),
  * tuples are plain Python tuples of 64-bit value identifiers, positionally
    aligned to the ascending variable indices of the owning schema,
  * relations are deduplicated tuple sets with lazy hash indexes,
  * degree statistics deg(Y | t_X) are computed exactly,
  * `oracle_answer` is the brute-force ground truth for query answering.

Design principles
-----------------
- Relations are immutable after construction (indexes are cached, never
  invalidated); all operations return new relations.
- Set semantics everywhere: duplicates are dropped at load.
- External string values are interned through `Dictionary` so relation files
  round-trip byte-identically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

MAX_VARS = 16

# ═══════════════════════════════════════════════════════════════════════════
# Variable sets (bitmasks)
# ═══════════════════════════════════════════════════════════════════════════

VarSet = int  # bitmask; bit i set  <=>  variable i is a member


def vs(*indices: int) -> VarSet:
    m = 0
    for i in indices:
        if not 0 <= i < MAX_VARS:
            raise ValueError(f"variable index {i} out of range 0..{MAX_VARS - 1}")
        m |= 1 << i
    return m


def vs_from(indices: Iterable[int]) -> VarSet:
    return vs(*indices)


def members(s: VarSet) -> tuple[int, ...]:
    """Ascending variable indices of the set."""
    return tuple(i for i in range(MAX_VARS) if s >> i & 1)


def size(s: VarSet) -> int:
    return s.bit_count()


def submasks(s: VarSet) -> list[VarSet]:
    """Every subset of the set in increasing order, from 0 to the set itself."""
    out = [0]
    t = 0
    while t != s:
        t = (t - s) & s
        out.append(t)
    return out


def subset(a: VarSet, b: VarSet) -> bool:
    return a & ~b == 0


def proper_subset(a: VarSet, b: VarSet) -> bool:
    return a != b and a & ~b == 0


def vs_str(s: VarSet, names: list[str] | None = None) -> str:
    if names is None:
        return "{" + ",".join(str(i) for i in members(s)) + "}"
    return "{" + ",".join(names[i] for i in members(s)) + "}"


def positions(schema: VarSet, s: VarSet) -> tuple[int, ...]:
    """Column positions of the variables of `s` inside a row over `schema`."""
    cols = members(schema)
    want = set(members(s))
    return tuple(p for p, v in enumerate(cols) if v in want)


# ═══════════════════════════════════════════════════════════════════════════
# Relations
# ═══════════════════════════════════════════════════════════════════════════


class Relation:
    """A named, deduplicated finite table over a VarSet schema.

    Rows are tuples of value ids aligned with `members(schema)`. Instances
    are treated as immutable; hash indexes are built lazily per key set and
    cached for reuse.
    """

    __slots__ = ("name", "schema", "rows", "_indexes")

    def __init__(self, name: str, schema: VarSet, rows: Iterable[tuple[int, ...]]):
        self.name = name
        self.schema = schema
        width = size(schema)
        rs = set()
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"relation {name}: row {row!r} has arity {len(row)}, "
                    f"schema needs {width}"
                )
            rs.add(tuple(row))
        self.rows: frozenset[tuple[int, ...]] = frozenset(rs)
        self._indexes: dict[VarSet, dict] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, vars={vs_str(self.schema)}, |rows|={len(self.rows)})"

    def index(self, key: VarSet) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Hash index keyed on the projection onto `key` (must be a subset)."""
        if not subset(key, self.schema):
            raise ValueError("index key must be a subset of the schema")
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        pos = positions(self.schema, key)
        idx: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for row in self.rows:
            idx.setdefault(tuple(row[p] for p in pos), []).append(row)
        self._indexes[key] = idx
        return idx

    def key_set(self, key: VarSet) -> set[tuple[int, ...]]:
        """Distinct projections onto `key`, as a set (for membership probes)."""
        return set(self.index(key).keys())


def project(r: Relation, s: VarSet, name: str | None = None) -> Relation:
    """Deduplicated projection onto s ⊆ schema."""
    if not subset(s, r.schema):
        raise ValueError(f"projection target {vs_str(s)} not within {vs_str(r.schema)}")
    pos = positions(r.schema, s)
    return Relation(name or r.name, s, {tuple(row[p] for p in pos) for row in r.rows})


def semijoin(r: Relation, s: Relation) -> Relation:
    """Rows of r whose shared-variable projection appears in s.

    Probes a hash index on s keyed by the common variables; never iterates s.
    """
    common = r.schema & s.schema
    if common == 0:
        return r if len(s) > 0 else Relation(r.name, r.schema, ())
    keys = s.key_set(common)
    pos = positions(r.schema, common)
    kept = [row for row in r.rows if tuple(row[p] for p in pos) in keys]
    return Relation(r.name, r.schema, kept)


def join(r: Relation, s: Relation, name: str = "join") -> Relation:
    """Natural join; r is scanned, s is probed through its index."""
    common = r.schema & s.schema
    out_schema = r.schema | s.schema
    out_cols = members(out_schema)
    r_cols = members(r.schema)
    s_cols = members(s.schema)
    r_pos = {v: p for p, v in enumerate(r_cols)}
    s_pos = {v: p for p, v in enumerate(s_cols)}
    idx = s.index(common)
    key_pos = positions(r.schema, common)
    rows = set()
    for row in r.rows:
        for srow in idx.get(tuple(row[p] for p in key_pos), ()):
            rows.add(
                tuple(
                    row[r_pos[v]] if v in r_pos else srow[s_pos[v]] for v in out_cols
                )
            )
    return Relation(name, out_schema, rows)


@dataclass(frozen=True)
class DegreeStats:
    counts: dict
    max_degree: int


def degree(r: Relation, x: VarSet, y: VarSet) -> DegreeStats:
    """deg(Y | t_X) for every X-value present in r: the number of distinct
    Y-projections extending it. Requires x ⊂ y ⊆ schema."""
    if not (proper_subset(x, y) and subset(y, r.schema)):
        raise ValueError("degree requires x ⊂ y ⊆ schema")
    x_pos = positions(r.schema, x)
    y_pos = positions(r.schema, y)
    seen: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for row in r.rows:
        seen.setdefault(tuple(row[p] for p in x_pos), set()).add(
            tuple(row[p] for p in y_pos)
        )
    counts = {k: len(v) for k, v in seen.items()}
    return DegreeStats(counts, max(counts.values(), default=0))


# ═══════════════════════════════════════════════════════════════════════════
# Degree constraints and databases
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True, order=True)
class DegreeConstraint:
    """(X, Y, N_{Y|X}): every X-value extends to at most N distinct
    Y-projections in the guard relation. X = 0 gives a cardinality bound."""

    x: VarSet
    y: VarSet
    bound: int
    guard: str = ""

    def __post_init__(self):
        if not proper_subset(self.x, self.y):
            raise ValueError("degree constraint requires x ⊂ y")
        if self.bound < 1:
            raise ValueError("degree constraint bound must be >= 1")

    def pretty(self, names: list[str] | None = None) -> str:
        return f"({vs_str(self.x, names)} -> {vs_str(self.y, names)}) <= {self.bound}"


def best_constraints(cs: Iterable[DegreeConstraint]) -> list[DegreeConstraint]:
    """Keep the smallest bound per (x, y) pair."""
    best: dict[tuple[VarSet, VarSet], DegreeConstraint] = {}
    for c in cs:
        k = (c.x, c.y)
        if k not in best or c.bound < best[k].bound:
            best[k] = c
    return sorted(best.values())


@dataclass
class Database:
    relations: dict[str, Relation] = field(default_factory=dict)
    dc: list[DegreeConstraint] = field(default_factory=list)

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]

    def add(self, r: Relation) -> None:
        self.relations[r.name] = r

    def validate_guards(self) -> list[str]:
        """Check every declared constraint against its guard by direct scan;
        returns human-readable violations (empty = all guarded)."""
        problems = []
        for c in self.dc:
            guard = self.relations.get(c.guard)
            if guard is None:
                problems.append(f"constraint {c.pretty()} names unknown guard {c.guard!r}")
                continue
            if not subset(c.y, guard.schema):
                problems.append(f"constraint {c.pretty()} not within guard {c.guard}")
                continue
            if c.x == 0:
                actual = len(project(guard, c.y))
            else:
                actual = degree(guard, c.x, c.y).max_degree
            if actual > c.bound:
                problems.append(
                    f"constraint {c.pretty()} violated by {c.guard}: actual {actual}"
                )
        return problems


# ═══════════════════════════════════════════════════════════════════════════
# Brute-force oracle
# ═══════════════════════════════════════════════════════════════════════════


def oracle_join(request: Relation, atoms: list[Relation], head: VarSet) -> Relation:
    """Ground truth: Π_head of request joined with every (pre-bound) atom.

    Atoms are joined in a greedy shared-variables-first order; correctness is
    the only goal here, plans are judged elsewhere.
    """
    current = Relation("acc", request.schema, request.rows)
    remaining = list(atoms)
    while remaining:
        # prefer the atom sharing the most variables with what we have
        remaining.sort(key=lambda a: -size(a.schema & current.schema))
        current = join(current, remaining.pop(0), name="acc")
    return project(current, head, name="answer")


# ═══════════════════════════════════════════════════════════════════════════
# Persistence: TSV relations and the value dictionary
# ═══════════════════════════════════════════════════════════════════════════


class Dictionary:
    """Interns external string values to dense integer ids (and back)."""

    def __init__(self):
        self._by_str: dict[str, int] = {}
        self._by_id: list[str] = []

    def intern(self, value: str) -> int:
        vid = self._by_str.get(value)
        if vid is None:
            vid = len(self._by_id)
            self._by_str[value] = vid
            self._by_id.append(value)
        return vid

    def lookup(self, vid: int) -> str:
        return self._by_id[vid]

    def __len__(self) -> int:
        return len(self._by_id)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for vid, s in enumerate(self._by_id):
                f.write(f"{vid}\t{s}\n")

    @classmethod
    def load(cls, path) -> "Dictionary":
        d = cls()
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                vid_s, _, s = line.partition("\t")
                vid = d.intern(s)
                if vid != int(vid_s):
                    raise ValueError(f"dictionary ids out of order at {vid_s}")
        return d


def load_relation_tsv(path, name: str, varmap: dict[str, int], dictionary: Dictionary) -> Relation:
    """Read a `#schema x1 x3`-headed TSV, interning values.

    `varmap` translates the header's variable names to query variable indices.
    """
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if not header.startswith("#schema"):
            raise ValueError(f"{path}: first line must be '#schema <vars>'")
        var_names = header.split()[1:]
        try:
            idxs = [varmap[v] for v in var_names]
        except KeyError as e:
            raise ValueError(f"{path}: unknown variable {e.args[0]!r}") from None
        schema = vs(*idxs)
        # file column order may differ from ascending index order
        order = sorted(range(len(idxs)), key=lambda p: idxs[p])
        rows = []
        for ln, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(idxs):
                raise ValueError(f"{path}:{ln}: expected {len(idxs)} cells")
            rows.append(tuple(dictionary.intern(cells[p]) for p in order))
    log.debug("loaded %s: %d rows over %s", name, len(rows), var_names)
    return Relation(name, schema, rows)


def save_relation_tsv(path, r: Relation, names: list[str], dictionary: Dictionary) -> None:
    """Write sorted TSV with a `#schema` header (byte-deterministic)."""
    cols = members(r.schema)
    with open(path, "w", encoding="utf-8") as f:
        f.write("#schema " + " ".join(names[i] for i in cols) + "\n")
        out = sorted(tuple(dictionary.lookup(v) for v in row) for row in r.rows)
        for row in out:
            f.write("\t".join(row) + "\n")
