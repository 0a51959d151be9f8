"""Variable-set bitmask helpers."""

from __future__ import annotations

from cqap.relalg import members, submasks, vs


def test_varset_basics():
    s = vs(0, 2, 3)
    assert members(s) == (0, 2, 3)
    assert s.bit_count() == 3
    assert submasks(s) == sorted(t for t in range(s + 1) if t & ~s == 0)
    assert submasks(0) == [0]
