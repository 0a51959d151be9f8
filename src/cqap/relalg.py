"""Variable sets as int bitmasks over variable indices 0..n-1 (n <= 16).

Bit i of a `VarSet` is set when variable i is a member.  Every layer of the
analysis -- decompositions, rules, LP columns and proofs -- names its
variable sets this way.

This module also owns their text form: a set is written as its members'
names in index order (`names_of`, in braces by `vs_str`), or as the indices
themselves when no names are given, and an entropy term h(Y|X) as
`term_str` writes it.  Every JSON writer and printer goes through these;
`queries.varset_of` is the one way back from names.
"""

from __future__ import annotations

from typing import Sequence

MAX_VARS = 16

VarSet = int  # bitmask; bit i set  <=>  variable i is a member


def vs(*indices: int) -> VarSet:
    m = 0
    for i in indices:
        if not 0 <= i < MAX_VARS:
            raise ValueError(f"variable index {i} out of range 0..{MAX_VARS - 1}")
        m |= 1 << i
    return m


def members(s: VarSet) -> tuple[int, ...]:
    """Ascending variable indices of the set."""
    return tuple(i for i in range(MAX_VARS) if s >> i & 1)


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


def names_of(s: VarSet, var_names: Sequence[str]) -> list[str]:
    """The names of the set's members, in index order."""
    return [var_names[i] for i in members(s)]


def vs_str(s: VarSet, names: Sequence[str] | None = None) -> str:
    """`{x1,x3}` with names, `{0,2}` without."""
    labels = names_of(s, names) if names else [str(i) for i in members(s)]
    return "{" + ",".join(labels) + "}"


def term_str(x: VarSet, y: VarSet, names: Sequence[str] | None = None) -> str:
    """The entropy term h(Y|X), written h(Y) when X is empty."""
    given = f"|{vs_str(x, names)}" if x else ""
    return f"h({vs_str(y, names)}{given})"
