"""Reference code the tests check the pipeline against.

Nothing in `cqap` calls these; each is a second, independent route to
something the pipeline computes, or a sampler that probes it:

- Set functions and polymatroids (`SetFunction`, `check_polymatroid`) and
  random polymatroids (`sample_entropic`, `sample_conic`): the primal points
  of the joint program are checked to be polymatroid pairs, and proofs are
  replayed on random polymatroids (`replay_values` must never rise).
- `JointInequality` and `verify_joint_inequality`: every certifying
  inequality (`joint_inequality` of a term's provenance) is checked on
  random polymatroid pairs, apart from its stepwise proofs.
- `derive_witness` and `prove`: the least-weight witness over the elemental
  inequalities, solved for exactly.  Hand-written inequalities carry no
  witness of their own, so `prove` spends this one, and the closed-form
  terms below carry it in their provenance in place of the LP's.
- `tradeoff_from_edge_cover` and `tradeoff_from_path`: the paper's closed
  forms from fractional edge covers, of the whole query or bag by bag along
  a root-to-node path of a decomposition.  They pin the LP's terms where the
  two must agree (two_reach, set disjointness).
- `curve_at`: the envelope's curve read between its breakpoints, the
  reference its max-of-mins definition is checked against.
- `joint_solve_at`: a joint solve at logS > 0, warm-started afresh from
  the rule's cold solve at logS = 0: the tests' fresh-probe oracle, where
  `rule_tradeoff` walks the right sides and probes from the walk's pieces.
- `dense_tableau` and `gauss_jordan_pivot`: the real values of the exact
  simplex's fraction-free sparse tableau, and a dense Fraction pivot on
  them, the reference its `_pivot` kernel is checked against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from cqap.decompose import TreeDecomp
from cqap.exactlp import LpError, solve_lp
from cqap.proofs import CondVec, ConstructionError, ProofSequence, _excess, construct
from cqap.queries import Cqap, LogBound
from cqap.relalg import VarSet, members, submasks, vs_str
from cqap.rules import TwoPhaseRule
from cqap.shannon import ExtractedInequality, JointSolution, JointSystem, solve_joint_lp
from cqap.tradeoffs import TradeoffTerm, rule_tradeoff

ZERO = Fraction(0)
ONE = Fraction(1)


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
            pos = (s & (out - 1)).bit_count()  # its position in the parent's keys
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
        add(lambda s, k=k: min(s.bit_count(), k), Fraction(rng.randint(1, 2)))
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
            return VerifyResult(False, (hs, ht), float(m))
    return VerifyResult(True)


def joint_inequality(ext: ExtractedInequality) -> JointInequality:
    """The inequality a term's provenance certifies, without its witness."""
    return JointInequality(ext.g_s, ext.g_t, ext.theta, ext.lam)


def replay_values(ps: ProofSequence, h: SetFunction) -> list[Fraction]:
    """<delta_i, h> after each prefix; non-increasing when h is a polymatroid."""
    cur = dict(ps.initial)
    values = [eval_cond_vec(cur, h)]
    for st in ps.steps:
        for c, dv in st.delta().items():
            cur[c] = cur.get(c, ZERO) + dv
        values.append(eval_cond_vec(cur, h))
    return values


# ═══════════════════════════════════════════════════════════════════════════
# Derived witnesses
# ═══════════════════════════════════════════════════════════════════════════


def derive_witness(initial: CondVec, target: CondVec) -> tuple[CondVec, CondVec]:
    """The least-weight witness (sigma, mu) over the elemental inequalities.

    Raises `ConstructionError`, with the target weight `initial` does not
    cover as its residual, when no witness exists.
    """
    initial = {k: Fraction(v) for k, v in initial.items() if v}
    target = {k: Fraction(v) for k, v in target.items() if v}
    vmask = 0
    for _, y in (*initial, *target):
        vmask |= y
    bits = [1 << i for i in members(vmask)]
    subs = [
        (x | bi, x | bj)
        for a, bi in enumerate(bits)
        for bj in bits[a + 1:]
        for x in submasks(vmask & ~(bi | bj))
    ]
    monos = [(vmask & ~b, vmask) for b in bits if vmask & ~b]
    cols = [_excess({}, {}, {p: ONE}, {}) for p in subs]
    cols += [_excess({}, {}, {}, {p: ONE}) for p in monos]
    # every excess, base plus the multipliers' share, must stay >= 0
    base = _excess(initial, target, {}, {})
    share: dict[VarSet, list] = {z: [] for z in submasks(vmask)[1:]}
    for k, col in enumerate(cols):
        for z, v in col.items():
            share[z].append((k, -v))
    rows = [(pairs, "<=", base.get(z, ZERO)) for z, pairs in share.items()]
    res = solve_lp([-ONE] * len(cols), rows)
    if res.status != "optimal":
        residual = {
            c: v - initial.get(c, ZERO) for c, v in target.items() if v > initial.get(c, ZERO)
        }
        raise ConstructionError("no witness exists: the inequality is not Shannon-provable", residual)
    sigma = {p: v for p, v in zip(subs, res.x) if v}
    return sigma, {p: v for p, v in zip(monos, res.x[len(subs):]) if v}


def prove(initial: CondVec, target: CondVec, *, sigma=None, mu=None, name="") -> ProofSequence:
    """`proofs.construct`, spending the derived witness when none is given."""
    if sigma is None and mu is None:
        sigma, mu = derive_witness(initial, target)
    return construct(initial, target, sigma=sigma, mu=mu, name=name)


# ═══════════════════════════════════════════════════════════════════════════
# Closed-form generators
# ═══════════════════════════════════════════════════════════════════════════


def _acc(vec: dict, key, w: Fraction) -> None:
    if w:
        vec[key] = vec.get(key, ZERO) + w


def _atom_cardinalities(q: Cqap) -> dict[VarSet, LogBound]:
    cards: dict[VarSet, LogBound] = {}
    for c in q.analysis_constraints():
        if c.x == 0:
            cards.setdefault(c.y, c.log)
    return cards


def _check_cover(q: Cqap, u, need: VarSet) -> list[Fraction]:
    weights = [Fraction(w) for w in u]
    if len(weights) != len(q.atoms):
        raise ValueError("need one cover weight per body atom")
    if any(w < 0 for w in weights):
        raise ValueError("cover weights must be nonnegative")
    for i in members(need):
        if sum(w for a, w in zip(q.atoms, weights) if a.varset >> i & 1) < 1:
            raise ValueError(
                f"weights do not cover variable {q.var_names[i]!r}"
            )
    return weights


def _cover_term(q: Cqap, bags, a_sets, covers) -> TradeoffTerm:
    """One term from per-bag covers along bags with hand-off sets `a_sets`.

    Each bag contributes its cover, scaled down by its slack (the spare
    coverage on the bag's non-hand-off variables); the online side pays one
    full traversal plus the request row.
    """
    cards = _atom_cardinalities(q)
    ac = q.access_constraint()
    g_s: CondVec = {}
    g_t: CondVec = {}
    theta: CondVec = {}
    n_tot, q_tot = ac.log.n, ac.log.q
    space = ZERO
    _acc(g_t, (0, ac.y), ONE)
    for bag, a_set, u in zip(bags, a_sets, covers):
        weights = _check_cover(q, u, bag)
        free = bag & ~a_set
        if not free:
            raise ValueError("a path step must introduce at least one variable")
        alpha = min(
            sum(w for a, w in zip(q.atoms, weights) if a.varset >> i & 1)
            for i in members(free)
        )
        if alpha < 1:  # pragma: no cover - cover of `free` forces alpha >= 1
            raise LpError("slack below one on a covered bag")
        for atom, w in zip(q.atoms, weights):
            if not w:
                continue
            f = atom.varset
            if f not in cards:
                raise ValueError(f"no cardinality bound for {atom.rel!r}")
            scaled = w / alpha
            stored = a_set & f
            if stored != f:
                _acc(g_t, (stored, f), scaled)
            if stored:
                _acc(g_s, (0, stored), scaled)
            n_tot += scaled * cards[f].n
            q_tot += scaled * cards[f].q
        _acc(theta, (0, a_set), ONE / alpha)
        space += ONE / alpha
    lam = {(0, bags[-1]): ONE}
    # a closed form comes with no dual, so each side carries the derived witness
    sigma_s, mu_s = derive_witness(g_s, theta)
    sigma_t, mu_t = derive_witness(g_t, lam)
    prov = ExtractedInequality(
        g_s, g_t, theta, lam, LogBound(n_tot, q_tot), sigma_s, mu_s, sigma_t, mu_t
    )
    return TradeoffTerm(
        space_exp=space, rhs=LogBound(n_tot, q_tot), provenance=prov
    )


def tradeoff_from_edge_cover(q: Cqap, u) -> TradeoffTerm:
    """The two-plan tradeoff implied by a fractional edge cover of the query.

    With a lookup-shaped head the bound is closed form: storing answerable
    requests leaves slack alpha on the remaining variables, and the term is
    S^(1/alpha) * T ~ Q * prod |R_F|^(u_F/alpha).  When the head keeps
    witness variables the stored object is the head projection instead, and
    the steepest piece of that rule's exact tradeoff is returned.
    """
    full = q.vars_all
    weights = _check_cover(q, u, full)
    if q.access == full:
        storage = sum(
            w * _atom_cardinalities(q)[a.varset].n
            for a, w in zip(q.atoms, weights)
        )
        return TradeoffTerm(
            space_exp=ZERO,
            rhs=LogBound(q=ONE),
            note=(
                "degenerate: the access set covers every variable; storing "
                f"the requested projection needs at most N^{storage}"
            ),
        )
    if q.head == q.access:
        return _cover_term(q, [full], [q.access], [weights])
    system = JointSystem(q)
    rule = TwoPhaseRule(
        s_targets=frozenset({q.head}), t_targets=frozenset({full})
    )
    return rule_tradeoff(rule, system).terms[-1]


def tradeoff_from_path(
    q: Cqap, d: TreeDecomp, covers, path: list[int]
) -> TradeoffTerm:
    """One term from a root-to-node path of a decomposition.

    `covers` gives one per-atom weight sequence per path node; each must
    cover its bag.  Hand-off sets are the access set at the root and the
    intersection with the parent bag below it.
    """
    if not path or path[0] != 0:
        raise ValueError("the path must start at the root")
    for prev, node in zip(path, path[1:]):
        if not 0 <= node < len(d):
            raise ValueError(f"node {node} is not in the decomposition")
        if d.parent[node] != prev:
            raise ValueError("path nodes must follow parent links")
    if len(covers) != len(path):
        raise ValueError("need one cover per path node")
    bags = [d.bags[t] for t in path]
    a_sets = [q.access] + [
        d.bags[t] & d.bags[p] for p, t in zip(path, path[1:])
    ]
    return _cover_term(q, bags, a_sets, covers)


def curve_at(points: list[tuple[Fraction, Fraction]], log_s) -> Fraction:
    """logT at `log_s` on the piecewise-linear curve through `points`,
    constant before the first point and after the last."""
    s = Fraction(log_s)
    if s <= points[0][0]:
        return points[0][1]
    for (s0, t0), (s1, t1) in zip(points, points[1:]):
        if s <= s1:
            return t0 + (t1 - t0) * (s - s0) / (s1 - s0)
    return points[-1][1]


# ═══════════════════════════════════════════════════════════════════════════
# Joint solves
# ═══════════════════════════════════════════════════════════════════════════


def joint_solve_at(rule: TwoPhaseRule, system: JointSystem, log_s, *, log_q=ZERO) -> JointSolution:
    """The rule's solve at (1, logQ, logS), warm-started from its cold solve
    at logS = 0 and the same logQ; that solve itself when logS = 0."""
    low = solve_joint_lp(rule, system, ZERO, log_q=log_q)
    return solve_joint_lp(rule, system, log_s, log_q=log_q, start=low) if log_s else low


# ═══════════════════════════════════════════════════════════════════════════
# Exact LP reference
# ═══════════════════════════════════════════════════════════════════════════


def dense_tableau(lp, obj: list[int]) -> list[list[Fraction]]:
    """The real values of a `_Simplex` tableau: its rows, then `obj`.

    Each row is dense over the structural and slack columns and both
    right-side keys (ncols and ncols + 1); every stored integer is its real
    value times `lp.div`, the fraction-free tableau's common denominator.
    """
    width = lp.ncols + 2
    rows = [[Fraction(row.get(j, 0), lp.div) for j in range(width)] for row in lp.tab]
    return rows + [[Fraction(v, lp.div) for v in obj] + [ZERO] * (width - len(obj))]


def gauss_jordan_pivot(rows: list[list[Fraction]], r: int, col: int) -> list[list[Fraction]]:
    """A dense Fraction Gauss-Jordan pivot on rows[r][col], every row included.

    The pivot row is divided by its entry, and each other row loses its
    entry in `col` times that row, so `col` becomes the unit vector e_r.
    """
    prow = [v / rows[r][col] for v in rows[r]]
    return [prow if i == r else [a - row[col] * b for a, b in zip(row, prow)] for i, row in enumerate(rows)]
