"""Stepwise proofs of entropic inequalities over conditional vectors.

A conditional vector assigns nonnegative weights to coordinates (X, Y) with
X ⊂ Y, each standing for the conditional entropy term h(Y|X).  Four rewrite
rules move weight between coordinates without ever increasing the vector's
value under a polymatroid:

    submodularity   h(I | I∩J)        ->  h(I∪J | J)        (I, J incomparable)
    monotonicity    h(Y)              ->  h(X)              (X ⊂ Y)
    composition     h(X) + h(Y|X)     ->  h(Y)
    decomposition   h(Y)              ->  h(X) + h(Y|X)

A proof sequence applies such steps to an initial vector delta so that every
intermediate vector stays nonnegative and the final vector dominates a target
lambda; replaying it shows <delta, h> >= <lambda, h> for every polymatroid h.
`validate` replays a sequence exactly.  `construct` builds one from a witness:
the submodularity and monotonicity multipliers of the linear program that
certified the inequality (solved for exactly when none is given).  It spends
the witness step by step as in PANDA's proof-sequence theorem (Abo Khamis,
Ngo & Suciu, PODS 2017), with no search.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlp import solve_lp
from .polymatroids import CondVec, SetFunction, eval_cond_vec
from .relalg import VarSet, members, size, submasks, vs_str

log = logging.getLogger(__name__)

ZERO = Fraction(0)
ONE = Fraction(1)

SUBMODULARITY = "submodularity"
MONOTONICITY = "monotonicity"
COMPOSITION = "composition"
DECOMPOSITION = "decomposition"
KINDS = (SUBMODULARITY, MONOTONICITY, COMPOSITION, DECOMPOSITION)

Coord = tuple[VarSet, VarSet]


# ═══════════════════════════════════════════════════════════════════════════
# Steps and sequences
# ═══════════════════════════════════════════════════════════════════════════


@dataclass(frozen=True)
class ProofStep:
    """One weighted rewrite.

    For submodularity `x` and `y` are the incomparable sets I and J; the step
    consumes weight on (I∩J, I) and produces it on (J, I∪J).  For the other
    kinds `x` is the proper subset and `y` the superset.
    """

    kind: str
    x: VarSet
    y: VarSet
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.kind not in KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.weight <= 0:
            raise ValueError("step weight must be positive")
        if self.kind == SUBMODULARITY:
            if not (self.x & ~self.y) or not (self.y & ~self.x):
                raise ValueError("submodularity needs incomparable sets")
        else:
            if self.x == 0 or (self.x & ~self.y) or self.x == self.y:
                raise ValueError(f"{self.kind} needs a proper nonempty subset")

    def delta(self) -> CondVec:
        """The step's effect: consumed coordinates negative, produced positive."""
        w = self.weight
        if self.kind == SUBMODULARITY:
            return {(self.x & self.y, self.x): -w, (self.y, self.x | self.y): w}
        if self.kind == MONOTONICITY:
            return {(0, self.y): -w, (0, self.x): w}
        if self.kind == COMPOSITION:
            return {(0, self.x): -w, (self.x, self.y): -w, (0, self.y): w}
        return {(0, self.y): -w, (self.x, self.y): w, (0, self.x): w}

    def pretty(self, names: list[str] | None = None) -> str:
        def term(c: Coord) -> str:
            x, y = c
            body = vs_str(y, names) if names else f"{{{y:b}}}"
            if x:
                return f"h({body}|{vs_str(x, names) if names else f'{{{x:b}}}'})"
            return f"h({body})"

        d = self.delta()
        used = " + ".join(term(c) for c, v in sorted(d.items()) if v < 0)
        made = " + ".join(term(c) for c, v in sorted(d.items()) if v > 0)
        return f"{self.kind:<14} {used} -> {made}  (w={self.weight})"


def submodularity(i: VarSet, j: VarSet, weight) -> ProofStep:
    return ProofStep(SUBMODULARITY, i, j, Fraction(weight))


def monotonicity(x: VarSet, y: VarSet, weight) -> ProofStep:
    return ProofStep(MONOTONICITY, x, y, Fraction(weight))


def composition(x: VarSet, y: VarSet, weight) -> ProofStep:
    return ProofStep(COMPOSITION, x, y, Fraction(weight))


def decomposition(y: VarSet, x: VarSet, weight) -> ProofStep:
    """Split h(Y) into h(X) + h(Y|X); the inverse of composition."""
    return ProofStep(DECOMPOSITION, x, y, Fraction(weight))


@dataclass
class ProofSequence:
    initial: CondVec
    target: CondVec
    steps: list[ProofStep] = field(default_factory=list)
    name: str = ""

    def states(self):
        """Yield the vector after 0, 1, ... steps (fresh dicts)."""
        cur = {k: Fraction(v) for k, v in self.initial.items() if v}
        yield dict(cur)
        for st in self.steps:
            for c, dv in st.delta().items():
                nv = cur.get(c, ZERO) + dv
                if nv:
                    cur[c] = nv
                else:
                    cur.pop(c, None)
            yield dict(cur)

    def final(self) -> CondVec:
        for cur in self.states():
            pass
        return cur

    def pretty(self, names: list[str] | None = None) -> str:
        head = self.name or "proof sequence"
        lines = [f"{head}: {len(self.steps)} step(s)"]
        lines += ["  " + st.pretty(names) for st in self.steps]
        return "\n".join(lines)


# ═══════════════════════════════════════════════════════════════════════════
# Validation
# ═══════════════════════════════════════════════════════════════════════════


@dataclass
class ValidationReport:
    ok: bool
    step: int | None = None  # index of the first offending step, if any
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _coord_str(c: Coord, names=None) -> str:
    x, y = c
    if names:
        return f"h({vs_str(y, names)}|{vs_str(x, names)})" if x else f"h({vs_str(y, names)})"
    return f"h({y}|{x})" if x else f"h({y})"


def validate(ps: ProofSequence, names: list[str] | None = None) -> ValidationReport:
    """Replay a sequence with exact arithmetic.

    Checks that the initial and target vectors are nonnegative, that no step
    drives any coordinate negative, and that the final vector dominates the
    target.  The report carries the index of the first offending step.
    """
    for c, v in ps.initial.items():
        if v < 0:
            return ValidationReport(False, None, f"initial weight of {_coord_str(c, names)} is negative")
    for c, v in ps.target.items():
        if v < 0:
            return ValidationReport(False, None, f"target weight of {_coord_str(c, names)} is negative")
    cur = {k: Fraction(v) for k, v in ps.initial.items() if v}
    for idx, st in enumerate(ps.steps):
        for c, dv in st.delta().items():
            nv = cur.get(c, ZERO) + dv
            if nv < 0:
                return ValidationReport(
                    False, idx, f"step {idx} overdraws {_coord_str(c, names)} by {-nv}"
                )
            if nv:
                cur[c] = nv
            else:
                cur.pop(c, None)
    for c, v in ps.target.items():
        short = v - cur.get(c, ZERO)
        if short > 0:
            return ValidationReport(
                False, len(ps.steps), f"final vector is short of {_coord_str(c, names)} by {short}"
            )
    return ValidationReport(True)


def replay_values(ps: ProofSequence, h: SetFunction) -> list[Fraction]:
    """<delta_i, h> after each prefix; non-increasing when h is a polymatroid."""
    return [eval_cond_vec(state, h) for state in ps.states()]


# ═══════════════════════════════════════════════════════════════════════════
# Normalisation
# ═══════════════════════════════════════════════════════════════════════════


def normalize(vec: CondVec, target: CondVec, sigma=None, mu=None):
    """Divide an inequality and its multipliers by the target's total weight.

    Returns (vec, target, sigma, mu) scaled so the target weights sum to 1.
    Raises ValueError when the target carries no weight.
    """
    w = sum(target.values(), ZERO)
    if w <= 0:
        raise ValueError("cannot normalize: target has no positive weight")
    scale = lambda d: {k: Fraction(v) / w for k, v in d.items() if v}
    return (
        scale(vec),
        scale(target),
        None if sigma is None else scale(sigma),
        None if mu is None else scale(mu),
    )


# ═══════════════════════════════════════════════════════════════════════════
# Construction
# ═══════════════════════════════════════════════════════════════════════════


class ConstructionError(RuntimeError):
    """The witness breaks its identity, or no witness exists.

    `residual` holds the target weight the initial vector does not cover.
    """

    def __init__(self, msg: str, residual: CondVec):
        super().__init__(msg)
        self.residual = residual


def _excess(initial: CondVec, target: CondVec, sigma, mu) -> dict[VarSet, Fraction]:
    """Coefficient of each h(Z) in  <initial - target, h> - witness terms."""
    e: dict[VarSet, Fraction] = {}

    def add(z, v):
        if z:
            e[z] = e.get(z, ZERO) + v

    for vec, sign in ((initial, 1), (target, -1)):
        for (x, y), v in vec.items():
            add(y, sign * v)
            add(x, -sign * v)
    for (i, j), w in sigma.items():
        for z, v in ((i, -w), (j, -w), (i | j, w), (i & j, w)):
            add(z, v)
    for (x, y), w in mu.items():
        add(y, -w)
        add(x, w)
    return e


def _derive_witness(initial: CondVec, target: CondVec):
    """The least-weight witness over the elemental inequalities, or None."""
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
    rows = [
        ([-col.get(z, ZERO) for col in cols], "<=", base.get(z, ZERO))
        for z in submasks(vmask)[1:]
    ]
    res = solve_lp([-ONE] * len(cols), rows)
    if res.status != "optimal":
        return None
    sigma = {p: v for p, v in zip(subs, res.x) if v}
    return sigma, {p: v for p, v in zip(monos, res.x[len(subs):]) if v}


def _take(pool: dict, key, w: Fraction):
    pool[key] -= w
    if not pool[key]:
        del pool[key]


class _Prover:
    """Emits steps that spend an exact witness (sigma, mu) down to nothing.

    Invariant: for every nonempty Z the coefficient of h(Z) in
    <cur, h> - sum sigma*sub - sum mu*mono  is at least the target's.
    Composition and decomposition leave that form unchanged; submodularity
    and monotonicity steps spend their multiplier by the step's weight.

    A multiplier can be spent when the term it consumes is held, or can be
    carved out of a set reachable by composition (`_tops`).  When none can,
    let W be the nonempty unreachable sets: W is closed upwards and no held
    term leaves the reachable sets, so summing the invariant over W gives
    0 <= targets on W <= form on W = -(sigma with I∩J outside W) - (mu with
    X outside W) <= 0.  All that is left then lies inside W, where the form
    is zero and nothing is targeted: it cancels, and is dropped.
    """

    def __init__(self, initial: CondVec, sigma, mu):
        self.cur = dict(initial)
        self.sigma = sigma
        self.mu = mu
        self.steps: list[ProofStep] = []

    def _emit(self, step: ProofStep):
        for c, dv in step.delta().items():
            nv = self.cur.get(c, ZERO) + dv
            if nv < 0:  # pragma: no cover - every caller checks availability
                raise AssertionError(f"step overdraws {_coord_str(c)}")
            if nv:
                self.cur[c] = nv
            else:
                self.cur.pop(c, None)
        self.steps.append(step)

    def _submodularity(self, i: VarSet, j: VarSet, w: Fraction):
        """h(I|I∩J) -> h(I∪J|J), then compose with h(J) where it is held."""
        self._emit(submodularity(i, j, w))
        _take(self.sigma, (min(i, j), max(i, j)), w)
        held = self.cur.get((0, j), ZERO)
        if held:
            self._emit(composition(j, i | j, min(held, w)))

    def _monotonicity(self, x: VarSet, y: VarSet, w: Fraction):
        self._emit(monotonicity(x, y, w))
        _take(self.mu, (x, y), w)

    def _tops(self) -> dict[VarSet, tuple | None]:
        """Sets whose unconditional term composition alone can make.

        Each maps to the (previous set, conditional term) it is composed
        from, or to None when it is held.  Breadth first, so routes are
        shortest; a set is reachable when it lies inside one of these.
        """
        tops = {y: None for (x, y) in sorted(self.cur) if not x}
        arcs = sorted(c for c in self.cur if c[0])
        queue = list(tops)
        for top in queue:
            for x, y in arcs:
                if not (x & ~top) and y not in tops:
                    tops[y] = (top, (x, y))
                    queue.append(y)
        return tops

    def _route(self, tops, z: VarSet, want: Fraction) -> Fraction:
        """Make up to `want` of h(Z) held; returns the amount made."""
        top = next((t for t in tops if not (z & ~t)), None)
        if top is None:
            return ZERO
        path = []
        while tops[top] is not None:
            top, arc = tops[top]
            path.append(arc)
        path.reverse()
        w = min(want, self.cur[(0, top)], *(self.cur[arc] for arc in path))
        for x, y in path:
            if x != top:
                self._emit(decomposition(top, x, w))
            self._emit(composition(x, y, w))
            top = y
        if z != top:
            self._emit(decomposition(top, z, w))
        return w

    def fire(self) -> bool:
        """Spend part of one multiplier; False when none can be spent."""
        for (i, j), w in sorted(self.sigma.items()):
            for a, b in ((i, j), (j, i)):
                held = self.cur.get((a & b, a), ZERO)
                if held:
                    self._submodularity(a, b, min(w, held))
                    return True
        for (x, y), w in sorted(self.mu.items()):
            held = self.cur.get((0, y), ZERO)
            if held:
                self._monotonicity(x, y, min(w, held))
                return True
        tops = self._tops()
        for (i, j), w in sorted(self.sigma.items()):
            for a, b in ((i, j), (j, i)):
                got = self._route(tops, a, w)
                if got:
                    if a & b:
                        self._emit(decomposition(a, a & b, got))
                    self._submodularity(a, b, got)
                    return True
        for (x, y), w in sorted(self.mu.items()):
            got = self._route(tops, y, w)
            if got:
                self._monotonicity(x, y, got)
                return True
        return False

    def compose(self, target: CondVec):
        """Compose conditional terms into the targets, largest sets first.

        With the witness spent or cancelled, the invariant says the net
        inflow of `cur` covers the target at every reachable set, and the
        demand pushed down incoming terms only reaches such sets.
        """
        demand = {y: v for (_, y), v in target.items()}
        plan: list[tuple[VarSet, VarSet, Fraction]] = []
        for z in sorted({y for _, y in self.cur} | set(demand), key=lambda s: (-size(s), s)):
            need = demand.get(z, ZERO) - self.cur.get((0, z), ZERO)
            for (x, y), v in sorted(self.cur.items()):
                if need <= 0:
                    break
                if y == z and x:
                    t = min(v, need)
                    plan.append((x, z, t))
                    demand[x] = demand.get(x, ZERO) + t
                    need -= t
            if need > 0:  # pragma: no cover - the invariant rules this out
                raise AssertionError(f"{_coord_str((0, z))} cannot be composed")
        for x, y, t in sorted(plan, key=lambda p: (size(p[0]), p[0], p[1])):
            self._emit(composition(x, y, t))


def construct(
    initial: CondVec,
    target: CondVec,
    *,
    sigma: dict | None = None,
    mu: dict | None = None,
    name: str = "",
) -> ProofSequence:
    """Build a proof sequence from `initial` to the unconditional `target`.

    `sigma` (incomparable pairs (I, J)) and `mu` (pairs (X, Y), X ⊂ Y) are
    the submodularity and monotonicity multipliers of the certifying linear
    program.  They must satisfy the witness identity exactly:
    <initial - target, h> = sum sigma*sub + sum mu*mono + a nonnegative
    multiple of each h(Z).  When both are None, the least-weight witness
    over the elemental inequalities of the variables in play is solved for.

    Every multiplier is spent by a step of its own kind, reached by
    composing and decomposing held terms, then the held terms are composed
    into the targets (see `_Prover`).  This cannot fail, so ConstructionError
    means only that the given witness breaks the identity (the message names
    the coordinate) or that no witness exists.
    """
    initial = {k: Fraction(v) for k, v in initial.items() if v}
    target = {k: Fraction(v) for k, v in target.items() if v}
    if any(x for x, _ in target):
        raise ValueError("construct needs unconditional targets")
    if any(v < 0 for vec in (initial, target, sigma or {}, mu or {}) for v in vec.values()):
        raise ValueError("construct needs nonnegative weights and multipliers")
    if any(not (i & ~j and j & ~i) for i, j in sigma or {}):
        raise ValueError("sigma needs incomparable pairs")
    if any(x & ~y or x == y for x, y in mu or {}):
        raise ValueError("mu needs pairs (X, Y) with X a proper subset of Y")
    residual = {c: v - initial.get(c, ZERO) for c, v in target.items() if v > initial.get(c, ZERO)}
    if sigma is None and mu is None:
        witness = _derive_witness(initial, target)
        if witness is None:
            raise ConstructionError("no witness exists: the inequality is not Shannon-provable", residual)
        sigma, mu = witness
    pairs: dict[tuple[VarSet, VarSet], Fraction] = {}
    for (i, j), w in (sigma or {}).items():
        if w:
            key = (min(i, j), max(i, j))
            pairs[key] = pairs.get(key, ZERO) + Fraction(w)
    # h(Y) >= h(∅) is covered by the nonnegative slack, so it needs no step
    monos = {(x, y): Fraction(w) for (x, y), w in (mu or {}).items() if w and x}
    for z, slack in sorted(_excess(initial, target, pairs, monos).items()):
        if slack < 0:
            raise ConstructionError(
                f"witness identity breaks at {_coord_str((0, z))}: short by {-slack}", residual
            )
    prover = _Prover(initial, pairs, monos)
    while (prover.sigma or prover.mu) and prover.fire():
        pass
    if prover.sigma or prover.mu:
        log.debug("dropping %d cancelling multiplier(s)", len(prover.sigma) + len(prover.mu))
    prover.compose(target)
    log.debug("constructed %d step(s) for %s", len(prover.steps), name or "sequence")
    return ProofSequence(initial=initial, target=target, steps=prover.steps, name=name)


# ═══════════════════════════════════════════════════════════════════════════
# Serialisation
# ═══════════════════════════════════════════════════════════════════════════


def _names_of(mask: VarSet, var_names: list[str]) -> list[str]:
    return [var_names[i] for i in members(mask)]


def _mask_of(names, var_names: list[str]) -> VarSet:
    m = 0
    for nm in names:
        try:
            m |= 1 << var_names.index(nm)
        except ValueError:
            raise ValueError(f"unknown variable {nm!r}") from None
    return m


def vec_to_json(vec: CondVec, var_names: list[str]) -> list[dict]:
    out = []
    for (x, y), w in sorted(vec.items()):
        if not w:
            continue
        out.append(
            {"given": _names_of(x, var_names), "set": _names_of(y, var_names), "coeff": str(Fraction(w))}
        )
    return out


def vec_from_json(items, var_names: list[str]) -> CondVec:
    vec: CondVec = {}
    for it in items:
        x = _mask_of(it.get("given", []), var_names)
        y = _mask_of(it["set"], var_names)
        if x & ~y:
            raise ValueError("conditioning set must lie inside the set")
        vec[(x, y)] = vec.get((x, y), ZERO) + Fraction(it["coeff"])
    return vec


def step_to_json(step: ProofStep, var_names: list[str]) -> dict:
    return {
        "kind": step.kind,
        "x": _names_of(step.x, var_names),
        "y": _names_of(step.y, var_names),
        "weight": str(step.weight),
    }


def step_from_json(doc: dict, var_names: list[str]) -> ProofStep:
    return ProofStep(
        doc["kind"],
        _mask_of(doc["x"], var_names),
        _mask_of(doc["y"], var_names),
        Fraction(doc["weight"]),
    )


def sequence_to_json(ps: ProofSequence, var_names: list[str]) -> dict:
    return {
        "name": ps.name,
        "initial": vec_to_json(ps.initial, var_names),
        "target": vec_to_json(ps.target, var_names),
        "steps": [step_to_json(st, var_names) for st in ps.steps],
    }


def sequence_from_json(doc: dict, var_names: list[str]) -> ProofSequence:
    return ProofSequence(
        initial=vec_from_json(doc["initial"], var_names),
        target=vec_from_json(doc["target"], var_names),
        steps=[step_from_json(s, var_names) for s in doc.get("steps", [])],
        name=doc.get("name", ""),
    )


def bundle_to_json(sequences, *, query: str, var_names: list[str]) -> str:
    doc = {
        "query": query,
        "vars": list(var_names),
        "sequences": [sequence_to_json(ps, var_names) for ps in sequences],
    }
    return json.dumps(doc, indent=2) + "\n"


def bundle_from_json(text: str) -> tuple[str, list[str], list[ProofSequence]]:
    doc = json.loads(text)
    var_names = list(doc["vars"])
    seqs = [sequence_from_json(d, var_names) for d in doc.get("sequences", [])]
    return doc.get("query", ""), var_names, seqs
