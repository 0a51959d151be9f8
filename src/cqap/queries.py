"""Conjunctive queries with access patterns, and their constraint sets.

A query is written in a small datalog-style text form:

    three_reach(x1, x4 | x1, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4).
    dc R1: size = N^1
    dc R1: (x1 -> x1,x2) <= 100

Head variables left of `|`, access (bound-at-request-time) variables right of
it.  The head is normalized to include the access variables, and must then
hold at least one variable: a yes/no question has no online phase.
Relations may appear in several atoms (self-joins); constraint declarations
are written against the relation's first occurrence and are re-bound
positionally to every occurrence.

The analysis reads the declared constraints as exact log-scale bounds,
rational multiples of log N and log Q (`analysis_constraints`).  Its bounds
are asymptotic in N, so a symbolic bound N^a reads as a*logN and a numeric
bound k >= 1 is a constant, O(1) = N^0, which reads as 0 whatever k is.  So
`dc R1: (x1 -> x1,x2) <= 1` is the functional dependency x1 -> x2, and
`<= 100` states the same up to a constant factor.  The request size logQ is
a parameter of the analysis, not a declared bound, so a request cap line
`ac |Q| <= k` is rejected.

Split constraints (X, Y | X, N_Z) are spanned from cardinality constraints:
one for every chain emptyset != X < Y <= Z, with the smallest N_Z per (X, Y).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Sequence

from .relalg import MAX_VARS, VarSet, names_of, submasks, subset, vs


class QueryError(ValueError):
    pass


def varset_of(names: Iterable[str], var_names: Sequence[str], what: str = "") -> VarSet:
    """The set of the named variables; a value that is not a list of names,
    or an unknown name, raises QueryError naming `what` (the entry that
    holds the names) when it is given."""
    where = f" in {what}" if what else ""
    if isinstance(names, (str, dict)) or not isinstance(names, Iterable):
        raise QueryError(f"{names!r}{where} is not a list of variable names")
    m = 0
    for name in names:
        try:
            m |= 1 << var_names.index(name)
        except ValueError:
            raise QueryError(f"unknown variable {name!r}{where}") from None
    return m


def fields_of(doc: dict, what: str, *keys: str, lists: bool = False) -> list:
    """doc's values under `keys`; a doc that is not a JSON object, a missing
    key, or with `lists` a value that is not a JSON list, raises QueryError
    naming `what` and the key."""
    if not isinstance(doc, dict):
        raise QueryError(f"{what} is not a JSON object")
    if missing := [k for k in keys if k not in doc]:
        raise QueryError(f"{what} has no {missing[0]!r}")
    if lists and (bad := [k for k in keys if not isinstance(doc[k], list)]):
        raise QueryError(f"{what} has {bad[0]!r} that is not a list")
    return [doc[k] for k in keys]


def json_object(text: str, what: str) -> dict:
    """The JSON object in `text`; anything else raises QueryError naming `what`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict):
        raise QueryError(f"{what} is not a JSON object")
    return doc


# ═══════════════════════════════════════════════════════════════════════════
# Log-scale bounds
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True, order=True)
class LogBound:
    """An exact bound on a log2 quantity: n*logN + q*logQ."""

    n: Fraction = Fraction(0)
    q: Fraction = Fraction(0)


@dataclass(frozen=True, order=True)
class LogConstraint:
    """h(y | x) <= log, or, from `span_split_constraints`, the split
    (x, y | x, log): a table split on its x-projection, whose piece count
    times piece degree is bounded by log."""

    x: VarSet
    y: VarSet
    log: LogBound


def span_split_constraints(cardinality: list[LogConstraint]) -> list[LogConstraint]:
    """All (X, Y|X) splits chargeable to some cardinality constraint.

    For each (emptyset, Z, N_Z) and each pair emptyset != X < Y <= Z we may
    split a table on its X-projection and bound |pieces| * piece-degree by
    N_Z.  Chains are enumerated by brute force over subsets of Z.  Only the
    smallest bound per (X, Y) is kept, as for degree constraints: a larger
    one gives the same rows with a weaker right side.
    """
    return _least_per_pair(
        LogConstraint(x, y, c.log)
        for c in cardinality
        if c.x == 0
        for y in submasks(c.y)[1:]
        for x in submasks(y)[1:-1]
    )


def _least_per_pair(constraints: Iterable[LogConstraint]) -> list[LogConstraint]:
    """The smallest bound per (x, y), sorted: sorting puts it first among
    the constraints on its (x, y)."""
    return [next(g) for _, g in groupby(sorted(constraints), key=lambda c: (c.x, c.y))]


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
    occurrence; `num` is a numeric bound, `sym` an exponent a with
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
        return varset_of([name], self.var_names).bit_length() - 1

    # -- constraint views ---------------------------------------------------

    def analysis_constraints(self) -> list[LogConstraint]:
        """Per-atom log-bounds from every declared `dc` line: a symbolic
        bound N^a as a*logN, a numeric bound k >= 1 as the constant N^0 (a
        degree bound of 1 is a functional dependency).  The smallest bound
        per (x, y) is kept."""
        return _least_per_pair(
            LogConstraint(
                vs(*(atom.args[p] for p in d.x_pos)),
                vs(*(atom.args[p] for p in d.y_pos)),
                LogBound(n=d.sym) if d.sym is not None else LogBound(),
            )
            for atom in self.atoms
            for d in self.decls
            if d.rel == atom.rel
        )

    def access_constraint(self) -> LogConstraint:
        """The request is a materialized relation of log-size logQ."""
        return LogConstraint(0, self.access, LogBound(q=Fraction(1)))


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
_AC_RE = re.compile(r"^ac\s+\|Q\|\s*<=\s*\d+$")


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
        try:
            return None, Fraction(m.group(1))
        except ZeroDivisionError:
            raise QueryError(f"{where}: exponent {m.group(1)} has a zero denominator") from None
    if re.fullmatch(r"\d+", text):
        v = int(text)
        if v < 1:
            raise QueryError(f"{where}: bound must be >= 1")
        return v, None
    raise QueryError(f"{where}: bound must be an integer or N^a, got {text!r}")


def parse_query(text: str) -> Cqap:
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

    def intern(v: str) -> int:
        if v not in var_names:
            if len(var_names) >= MAX_VARS:
                raise QueryError(f"more than {MAX_VARS} variables")
            var_names.append(v)
        return var_names.index(v)

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

    q = Cqap(qname, var_names, atoms, head | access, access)
    if not q.head:
        raise QueryError("query has no head variables: a yes/no question has no online phase")
    if not subset(q.head, q.vars_all):
        raise QueryError("head/access variables must appear in the body")

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
        if _AC_RE.match(line):
            raise QueryError(
                f"{line}: logQ is a parameter of the analysis, not a declared bound"
            )
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
    head = ", ".join(names_of(q.head, nm))
    acc = ", ".join(names_of(q.access, nm))
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
    return "\n".join(out) + "\n"
