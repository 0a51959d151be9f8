"""Variable sets as int bitmasks over variable indices 0..n-1 (n <= 16).

Bit i of a `VarSet` is set when variable i is a member.  Every layer of the
analysis -- decompositions, rules, LP columns and proofs -- names its
variable sets this way.
"""

from __future__ import annotations

from typing import Iterable

MAX_VARS = 16

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


def vs_str(s: VarSet, names: list[str] | None = None) -> str:
    if names is None:
        return "{" + ",".join(str(i) for i in members(s)) + "}"
    return "{" + ",".join(names[i] for i in members(s)) + "}"
