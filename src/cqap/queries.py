"""Conjunctive queries with access patterns, and their constraint sets.

A query is written in a small datalog-style text form:

    three_reach(x1, x4 | x1, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4).
    dc R1: size = N^1
    dc R1: (x1 -> x1,x2) <= 100
    ac |Q| <= 1

Head variables left of `|`, access (bound-at-request-time) variables right of
it.  The head is normalized to include the access variables.  Relations may
appear in several atoms (self-joins); constraint declarations are written
against the relation's first occurrence and are re-bound positionally to every
occurrence.

Two constraint views coexist:

  * data view   -- numeric bounds checked against loaded relations,
  * analysis view -- exact log-scale bounds, rational multiples of log N and
    log Q, consumed by the bound/tradeoff machinery.  Numeric bounds enter the
    analysis view only when their base-2 log is exact (powers of two);
    everything else stays data-side.

Split constraints (X, Y | X, N_Z) are spanned from cardinality constraints:
one for every chain emptyset != X < Y <= Z.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .relalg import (
    MAX_VARS,
    Database,
    DegreeConstraint,
    Relation,
    VarSet,
    members,
    oracle_join,
    subset,
    vs,
    vs_str,
)

log = logging.getLogger(__name__)


class QueryError(ValueError):
    pass


# ═══════════════════════════════════════════════════════════════════════════
# Log-scale bounds
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True, order=True)
class LogBound:
    """An exact bound on a log2 quantity: n*logN + q*logQ."""

    n: Fraction = Fraction(0)
    q: Fraction = Fraction(0)

    def at(self, log_n: Fraction, log_q: Fraction) -> Fraction:
        return self.n * log_n + self.q * log_q

    def __str__(self) -> str:
        parts = []
        if self.n:
            parts.append(f"{self.n}*logN")
        if self.q:
            parts.append(f"{self.q}*logQ")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True, order=True)
class LogConstraint:
    """h(y | x) <= log, guarded by a named relation (or the request `Q`)."""

    x: VarSet
    y: VarSet
    log: LogBound
    guard: str

    def pretty(self, names: list[str] | None = None) -> str:
        if self.x == 0:
            return f"h({vs_str(self.y, names)}) <= {self.log}  [{self.guard}]"
        return (
            f"h({vs_str(self.y, names)} | {vs_str(self.x, names)})"
            f" <= {self.log}  [{self.guard}]"
        )


@dataclass(frozen=True, order=True)
class SplitConstraint:
    """(x, y | x, bound of z): a co-degree split spanned from a cardinality
    constraint on z; requires emptyset != x < y <= z."""

    x: VarSet
    y: VarSet
    z: VarSet
    log: LogBound
    guard: str


def span_split_constraints(cardinality: list[LogConstraint]) -> list[SplitConstraint]:
    """All (X, Y|X) splits chargeable to some cardinality constraint.

    For each (emptyset, Z, N_Z) and each pair emptyset != X < Y <= Z we may
    split a table on its X-projection and bound |pieces| * piece-degree by
    N_Z.  Chains are enumerated by brute force over subsets of Z.
    """
    out: list[SplitConstraint] = []
    seen: set[tuple[VarSet, VarSet, VarSet]] = set()
    for c in cardinality:
        if c.x != 0:
            continue
        z = c.y
        mem = members(z)
        k = len(mem)
        for ybits in range(1, 1 << k):
            y = 0
            for p in range(k):
                if ybits >> p & 1:
                    y |= 1 << mem[p]
            for xbits in range(1, 1 << k):
                if xbits == ybits or xbits & ~ybits:
                    continue
                x = 0
                for p in range(k):
                    if xbits >> p & 1:
                        x |= 1 << mem[p]
                if (x, y, z) in seen:
                    continue
                seen.add((x, y, z))
                out.append(SplitConstraint(x, y, z, c.log, c.guard))
    return sorted(out)


# ═══════════════════════════════════════════════════════════════════════════
# Queries
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class Atom:
    """One body atom: a relation name applied to variables in text order."""

    rel: str
    args: tuple[int, ...]

    @property
    def varset(self) -> VarSet:
        return vs(*self.args)

    def arg_names(self, var_names: list[str]) -> list[str]:
        return [var_names[i] for i in self.args]


@dataclass(frozen=True)
class DcDecl:
    """A declared constraint on a relation, positional in its formal args.

    `x_pos`/`y_pos` index into the argument list of the relation's first
    occurrence; `num` is a checkable numeric bound, `sym` an exponent a with
    bound N^a.  Exactly the size declaration uses x_pos = ().
    """

    rel: str
    x_pos: tuple[int, ...]
    y_pos: tuple[int, ...]
    num: int | None = None
    sym: Fraction | None = None

    def __post_init__(self):
        if self.num is None and self.sym is None:
            raise QueryError(f"constraint on {self.rel} has no bound")
        if not set(self.x_pos) < set(self.y_pos):
            raise QueryError(f"constraint on {self.rel} needs x strictly inside y")


@dataclass
class Cqap:
    """A conjunctive query with an access pattern, plus declared constraints.

    `head` is normalized to contain `access`.  Variable indices are dense in
    0..n-1, in order of first appearance in the source text.
    """

    name: str
    var_names: list[str]
    atoms: list[Atom]
    head: VarSet
    access: VarSet
    decls: list[DcDecl] = field(default_factory=list)
    ac_cap: int | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.var_names)

    @property
    def vars_all(self) -> VarSet:
        m = 0
        for a in self.atoms:
            m |= a.varset
        return m

    def edge_sets(self) -> list[VarSet]:
        return [a.varset for a in self.atoms]

    def first_occurrence(self, rel: str) -> Atom:
        for a in self.atoms:
            if a.rel == rel:
                return a
        raise QueryError(f"no atom uses relation {rel!r}")

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise QueryError(f"unknown variable {name!r}") from None

    # -- constraint views ---------------------------------------------------

    def data_constraints(self) -> list[DegreeConstraint]:
        """Numeric declared constraints, bound to first-occurrence schemas."""
        out = []
        for d in self.decls:
            if d.num is None:
                continue
            args = self.first_occurrence(d.rel).args
            y = vs(*(args[p] for p in d.y_pos))
            x = vs(*(args[p] for p in d.x_pos))
            out.append(DegreeConstraint(x, y, d.num, d.rel))
        return out

    def analysis_constraints(self, db: Database | None = None) -> list[LogConstraint]:
        """Per-atom log-bounds: declared symbolic ones, exact-log numeric
        ones, and (when a database is supplied) actual sizes rounded up to
        the next power of two.  The smallest bound per (x, y) is kept."""
        rows: list[LogConstraint] = []
        for atom in self.atoms:
            for d in self.decls:
                if d.rel != atom.rel:
                    continue
                y = vs(*(atom.args[p] for p in d.y_pos))
                x = vs(*(atom.args[p] for p in d.x_pos))
                lg = _exact_log(d.num, d.sym)
                if lg is not None:
                    rows.append(LogConstraint(x, y, lg, atom.rel))
            if db is not None and atom.rel in db.relations:
                m = max(1, len(db.relations[atom.rel]))
                lg = LogBound(n=Fraction((m - 1).bit_length()))
                rows.append(LogConstraint(0, atom.varset, lg, atom.rel))
        best: dict[tuple[VarSet, VarSet], LogConstraint] = {}
        for r in rows:
            k = (r.x, r.y)
            if k not in best or (r.log.n, r.log.q) < (best[k].log.n, best[k].log.q):
                best[k] = r
        return sorted(best.values())

    def access_constraint(self) -> LogConstraint:
        """The request is a materialized relation of log-size logQ."""
        return LogConstraint(0, self.access, LogBound(q=Fraction(1)), "Q")

    def split_constraints(self, db: Database | None = None) -> list[SplitConstraint]:
        return span_split_constraints(self.analysis_constraints(db))


def _exact_log(num: int | None, sym: Fraction | None) -> LogBound | None:
    if sym is not None:
        return LogBound(n=sym)
    if num is not None and num >= 1 and num & (num - 1) == 0:
        return LogBound(n=Fraction(num.bit_length() - 1))
    return None


# ═══════════════════════════════════════════════════════════════════════════
# Binding atoms to stored relations
# ═══════════════════════════════════════════════════════════════════════════


def bind_atom(q: Cqap, db: Database, i: int) -> Relation:
    """The relation for atom i, columns re-bound for self-joins.

    Stored relations use the argument order of the relation's first
    occurrence; later occurrences permute values positionally.
    """
    atom = q.atoms[i]
    base = db[atom.rel]
    first = q.first_occurrence(atom.rel)
    if base.schema != first.varset:
        raise QueryError(
            f"relation {atom.rel} stored over {vs_str(base.schema, q.var_names)}, "
            f"expected {vs_str(first.varset, q.var_names)}"
        )
    if atom.args == first.args:
        return base
    src_cols = members(base.schema)
    src_of = {v: p for p, v in enumerate(src_cols)}
    tgt_cols = members(atom.varset)
    # formal position p carries first.args[p] in storage and atom.args[p] here
    carrier = {atom.args[p]: src_of[first.args[p]] for p in range(len(atom.args))}
    rows = [tuple(row[carrier[v]] for v in tgt_cols) for row in base.rows]
    return Relation(f"{atom.rel}@{i}", atom.varset, rows)


def bind_atoms(q: Cqap, db: Database) -> list[Relation]:
    return [bind_atom(q, db, i) for i in range(len(q.atoms))]


def oracle_answer(db: Database, q: Cqap, request: Relation) -> Relation:
    """Brute-force answers for a batch of requests (the executable spec)."""
    if request.schema != q.access:
        raise QueryError("request schema must equal the access pattern")
    return oracle_join(request, bind_atoms(q, db), q.head)


# ═══════════════════════════════════════════════════════════════════════════
# Parsing
# ═══════════════════════════════════════════════════════════════════════════

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RULE_RE = re.compile(
    rf"^({_NAME})\s*\(\s*([^|()]*)\|([^|()]*)\)\s*:-\s*(.*)\.$", re.S
)
_ATOM_RE = re.compile(rf"\s*({_NAME})\s*\(\s*([^()]*?)\s*\)")
_DC_SIZE_RE = re.compile(rf"^dc\s+({_NAME})\s*:\s*size\s*=\s*(.+)$")
_DC_DEG_RE = re.compile(
    rf"^dc\s+({_NAME})\s*:\s*\(\s*([^()]*?)\s*->\s*([^()]*?)\s*\)\s*<=\s*(.+)$"
)
_AC_RE = re.compile(r"^ac\s+\|Q\|\s*<=\s*(\d+)$")


def _split_names(text: str, where: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    for t in names:
        if not re.fullmatch(_NAME, t):
            raise QueryError(f"{where}: bad variable name {t!r}")
    return names


def _parse_bound(text: str, where: str) -> tuple[int | None, Fraction | None]:
    text = text.strip()
    m = re.fullmatch(r"N\s*\^\s*([0-9]+(?:/[0-9]+)?)", text)
    if m:
        return None, Fraction(m.group(1))
    if re.fullmatch(r"\d+", text):
        v = int(text)
        if v < 1:
            raise QueryError(f"{where}: bound must be >= 1")
        return v, None
    raise QueryError(f"{where}: bound must be an integer or N^a, got {text!r}")


def parse_query(text: str, name_hint: str = "query") -> Cqap:
    """Parse the text form.  `#` starts a comment; the rule may span lines."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            lines.append(line.strip())

    # stitch the rule (everything up to the first '.'-terminated statement)
    rule_parts: list[str] = []
    rest: list[str] = []
    for i, line in enumerate(lines):
        rule_parts.append(line)
        if line.endswith("."):
            rest = lines[i + 1 :]
            break
    else:
        raise QueryError("no '.'-terminated rule found")
    rule_text = " ".join(rule_parts)

    m = _RULE_RE.match(rule_text)
    if not m:
        raise QueryError(f"cannot parse rule: {rule_text!r}")
    qname, head_txt, access_txt, body_txt = m.groups()

    var_names: list[str] = []
    index: dict[str, int] = {}

    def intern(v: str) -> int:
        if v not in index:
            if len(var_names) >= MAX_VARS:
                raise QueryError(f"more than {MAX_VARS} variables")
            index[v] = len(var_names)
            var_names.append(v)
        return index[v]

    head_names = _split_names(head_txt, "head")
    access_names = _split_names(access_txt, "access pattern")
    head = vs(*(intern(v) for v in head_names))
    access = vs(*(intern(v) for v in access_names))

    atoms: list[Atom] = []
    body = body_txt.strip()
    pos = 0
    while pos < len(body):
        m = _ATOM_RE.match(body, pos)
        if not m:
            raise QueryError(f"cannot parse body at: {body[pos:pos + 40]!r}")
        rel, args_txt = m.groups()
        arg_names = _split_names(args_txt, f"atom {rel}")
        if not arg_names:
            raise QueryError(f"atom {rel} has no variables")
        if len(set(arg_names)) != len(arg_names):
            raise QueryError(f"atom {rel} repeats a variable")
        atoms.append(Atom(rel, tuple(intern(v) for v in arg_names)))
        pos = m.end()
        tail = body[pos:].lstrip()
        if tail.startswith(","):
            pos = len(body) - len(tail) + 1
        elif tail:
            raise QueryError(f"unexpected text after atom: {tail[:40]!r}")
        else:
            break
    if not atoms:
        raise QueryError("rule has no body atoms")

    # arity consistency across self-join occurrences
    arity: dict[str, int] = {}
    for a in atoms:
        if arity.setdefault(a.rel, len(a.args)) != len(a.args):
            raise QueryError(f"relation {a.rel} used with two arities")

    body_vars = 0
    for a in atoms:
        body_vars |= a.varset
    if not subset(head | access, body_vars):
        raise QueryError("head/access variables must appear in the body")

    q = Cqap(qname or name_hint, var_names, atoms, head | access, access)

    for line in rest:
        m = _DC_SIZE_RE.match(line)
        if m:
            rel, bound_txt = m.groups()
            first = q.first_occurrence(rel)
            num, sym = _parse_bound(bound_txt, line)
            q.decls.append(DcDecl(rel, (), tuple(range(len(first.args))), num, sym))
            continue
        m = _DC_DEG_RE.match(line)
        if m:
            rel, x_txt, y_txt, bound_txt = m.groups()
            first = q.first_occurrence(rel)
            formals = first.arg_names(q.var_names)
            x_names = _split_names(x_txt, line)
            y_names = _split_names(y_txt, line)
            for v in x_names + y_names:
                if v not in formals:
                    raise QueryError(f"{line}: {v!r} not in {rel}'s arguments")
            x_pos = tuple(sorted(formals.index(v) for v in x_names))
            y_pos = tuple(sorted(formals.index(v) for v in y_names))
            num, sym = _parse_bound(bound_txt, line)
            q.decls.append(DcDecl(rel, x_pos, y_pos, num, sym))
            continue
        m = _AC_RE.match(line)
        if m:
            q.ac_cap = int(m.group(1))
            continue
        raise QueryError(f"cannot parse constraint line: {line!r}")
    return q


def load_query(path) -> Cqap:
    with open(path, encoding="utf-8") as f:
        return parse_query(f.read())


# ═══════════════════════════════════════════════════════════════════════════
# Printing (parse . print == identity on normalized queries)
# ═══════════════════════════════════════════════════════════════════════════


def print_query(q: Cqap) -> str:
    nm = q.var_names
    head = ", ".join(nm[i] for i in members(q.head))
    acc = ", ".join(nm[i] for i in members(q.access))
    body = ", ".join(
        f"{a.rel}({', '.join(nm[i] for i in a.args)})" for a in q.atoms
    )
    out = [f"{q.name}({head} | {acc}) :- {body}."]
    for d in q.decls:
        first = q.first_occurrence(d.rel)
        bound = f"N^{d.sym}" if d.sym is not None else str(d.num)
        if not d.x_pos and set(d.y_pos) == set(range(len(first.args))):
            out.append(f"dc {d.rel}: size = {bound}")
        else:
            xs = ",".join(nm[first.args[p]] for p in d.x_pos)
            ys = ",".join(nm[first.args[p]] for p in d.y_pos)
            out.append(f"dc {d.rel}: ({xs} -> {ys}) <= {bound}")
    if q.ac_cap is not None:
        out.append(f"ac |Q| <= {q.ac_cap}")
    return "\n".join(out) + "\n"
