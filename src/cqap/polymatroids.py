"""Polymatroids, conditional-term vectors, and randomized inequality checks.

A set function h over subsets of [n] (h(empty) = 0) is a polymatroid when it
is nonnegative, monotone and submodular.  Entropies of joint distributions
are polymatroids but not conversely, so the random samplers below produce
both kinds: marginal entropies of random joint distributions on small
supports, and nonnegative combinations of modular weights and matroid ranks.

A conditional-term vector assigns rational coefficients to pairs (X, Y) with
X a proper subset of Y; its pairing with h is sum of coeff * (h(Y) - h(X)).
An inequality over a *pair* of polymatroids (one "preprocessing" function hS
and one "online" function hT) is checked numerically on random pairs; a
violation is reported together with the witness pair.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .relalg import VarSet, size, submasks, vs_str

log = logging.getLogger(__name__)

CondVec = dict[tuple[VarSet, VarSet], Fraction]


# ═══════════════════════════════════════════════════════════════════════════
# Set functions
# ═══════════════════════════════════════════════════════════════════════════


@dataclass
class SetFunction:
    """Values indexed by variable-set bitmask; values[0] is always 0."""

    n: int
    values: list

    def __post_init__(self):
        if len(self.values) != 1 << self.n:
            raise ValueError("need one value per subset")
        if self.values[0] != 0:
            raise ValueError("the empty set must map to 0")

    @classmethod
    def from_dict(cls, n: int, d: dict) -> "SetFunction":
        vals = [d.get(s, 0) for s in range(1 << n)]
        return cls(n, vals)

    def __call__(self, s: VarSet):
        return self.values[s]


def check_polymatroid(h: SetFunction) -> bool:
    """Monotonicity and submodularity, checked on the elemental inequalities.

    These are h(N) >= h(N - i) for each variable i, and
    h(K + i) + h(K + j) >= h(K + i + j) + h(K) for each pair i < j and each K
    avoiding both.  They imply every monotonicity and submodularity
    inequality, and with h(empty) = 0 monotonicity implies nonnegativity,
    so the verdict is the exhaustive check's.  With exact values (ints and
    Fractions) the checks run on the values scaled to integers by the lcm of
    their denominators: the verdict is the same, since every inequality is
    homogeneous, and integers compare far faster than Fractions.
    """
    v = h.values
    if all(isinstance(x, (int, Fraction)) for x in v):
        scale = math.lcm(*(x.denominator for x in v))
        v = [x.numerator * (scale // x.denominator) for x in v]
    full = (1 << h.n) - 1
    if any(v[full] < v[full & ~(1 << i)] for i in range(h.n)):
        return False
    for i in range(h.n):
        for j in range(i + 1, h.n):
            bi, bj = 1 << i, 1 << j
            for k in submasks(full & ~(bi | bj)):
                if v[k | bi] + v[k | bj] < v[k | bi | bj] + v[k]:
                    return False
    return True


# ═══════════════════════════════════════════════════════════════════════════
# Random samplers
# ═══════════════════════════════════════════════════════════════════════════


def sample_entropic(n: int, rng: random.Random) -> SetFunction:
    """Marginal entropies (base 2) of a random joint distribution, exactly.

    Each entropy is computed in floating point and read as the exact Fraction
    of that float.  Rounding can break a tight polymatroid inequality, so a
    draw whose Fractions are not an exact polymatroid is replaced by a fresh
    one: the result is always an exact polymatroid.

    The marginals are taken from the full table down: each subset's marginal
    sums its lowest missing variable out of the one-larger subset's marginal,
    so every subset costs one pass over a table no larger than its parent's.
    """
    full = (1 << n) - 1
    while True:
        domains = [rng.choice([2, 3, 4]) for _ in range(n)]
        cells = list(product(*[range(d) for d in domains]))
        weights = [rng.random() + 1e-9 for _ in cells]
        total = sum(weights)
        margs = {full: {cell: w / total for cell, w in zip(cells, weights)}}
        for s in range(full - 1, 0, -1):
            out = ~s & (s + 1)  # the lowest variable not in s
            pos = size(s & (out - 1))  # its position in the parent's keys
            marg: dict = {}
            for key, p in margs[s | out].items():
                key = key[:pos] + key[pos + 1 :]
                marg[key] = marg.get(key, 0.0) + p
            margs[s] = marg
        vals = [Fraction(0)] * (1 << n)
        for s, marg in margs.items():
            vals[s] = Fraction(-sum(p * math.log2(p) for p in marg.values() if p > 0))
        h = SetFunction(n, vals)
        if check_polymatroid(h):
            return h


def sample_conic(n: int, rng: random.Random) -> SetFunction:
    """Nonnegative combination of modular and matroid-rank functions."""
    full = (1 << n) - 1
    vals = [Fraction(0)] * (1 << n)

    def add(fn, coeff):
        for s in range(1, 1 << n):
            vals[s] += coeff * fn(s)

    for i in range(n):  # modular part
        w = Fraction(rng.randint(0, 3))
        if w:
            add(lambda s, i=i, w=w: w if s >> i & 1 else 0, 1)
    for _ in range(rng.randint(0, 3)):  # rank-one steps: 1 if s meets W
        w_set = rng.randint(1, full)
        add(lambda s, w=w_set: 1 if s & w else 0, Fraction(rng.randint(1, 3)))
    if rng.random() < 0.7:  # a uniform matroid rank min(|s|, k)
        k = rng.randint(1, n)
        add(lambda s, k=k: min(size(s), k), Fraction(rng.randint(1, 2)))
    return SetFunction(n, vals)


def sample_polymatroid(n: int, rng: random.Random) -> SetFunction:
    if rng.random() < 0.5:
        return sample_entropic(n, rng)
    return sample_conic(n, rng)


# ═══════════════════════════════════════════════════════════════════════════
# Inequalities over pairs
# ═══════════════════════════════════════════════════════════════════════════


def eval_cond_vec(vec: CondVec, h: SetFunction):
    return sum(c * (h.values[y] - h.values[x]) for (x, y), c in vec.items())


def cond_vec_str(vec: CondVec, tag: str, names=None) -> str:
    parts = []
    for (x, y), c in sorted(vec.items()):
        if not c:
            continue
        coeff = "" if c == 1 else f"{c}*"
        if x:
            parts.append(f"{coeff}{tag}({vs_str(y, names)}|{vs_str(x, names)})")
        else:
            parts.append(f"{coeff}{tag}({vs_str(y, names)})")
    return " + ".join(parts) if parts else "0"


@dataclass
class JointInequality:
    """lhs_s . hS + lhs_t . hT >= rhs_s . hS + rhs_t . hT for all pairs."""

    lhs_s: CondVec = field(default_factory=dict)
    lhs_t: CondVec = field(default_factory=dict)
    rhs_s: CondVec = field(default_factory=dict)
    rhs_t: CondVec = field(default_factory=dict)

    def margin(self, hs: SetFunction, ht: SetFunction):
        """LHS minus RHS at a specific pair."""
        return (
            eval_cond_vec(self.lhs_s, hs)
            + eval_cond_vec(self.lhs_t, ht)
            - eval_cond_vec(self.rhs_s, hs)
            - eval_cond_vec(self.rhs_t, ht)
        )

    def nvars(self) -> int:
        m = 0
        for vec in (self.lhs_s, self.lhs_t, self.rhs_s, self.rhs_t):
            for x, y in vec:
                m |= x | y
        return m.bit_length() if m else 1

    def pretty(self, names=None) -> str:
        lhs = [cond_vec_str(self.lhs_s, "hS", names), cond_vec_str(self.lhs_t, "hT", names)]
        rhs = [cond_vec_str(self.rhs_s, "hS", names), cond_vec_str(self.rhs_t, "hT", names)]
        join = lambda ps: " + ".join(p for p in ps if p != "0") or "0"
        return f"{join(lhs)} >= {join(rhs)}"


@dataclass
class VerifyResult:
    ok: bool
    witness: tuple[SetFunction, SetFunction] | None = None
    margin: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_joint_inequality(
    ineq: JointInequality, trials: int = 1000, *, seed: int = 0, tol: float = 1e-9
) -> VerifyResult:
    """Check the inequality on random polymatroid pairs."""
    n = ineq.nvars()
    if n > 8:
        raise ValueError("pair verification is limited to 8 variables")
    rng = random.Random(seed)
    for t in range(trials):
        hs = sample_polymatroid(n, rng)
        ht = sample_polymatroid(n, rng)
        m = ineq.margin(hs, ht)
        if m < -tol:
            log.debug("inequality violated at trial %d margin %s", t, m)
            return VerifyResult(False, (hs, ht), float(m))
    return VerifyResult(True)
