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
`validate` replays a sequence exactly.  `construct` builds one from a given
witness: the submodularity and monotonicity multipliers of the linear program
that certified the inequality, read off its optimal dual with the tradeoff
term (`shannon.ExtractedInequality`).  It spends the witness step by step as
in PANDA's proof-sequence theorem (Abo Khamis, Ngo & Suciu, PODS 2017), with
no search and no solve of its own.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm

from .queries import QueryError, fields_of, json_object, varset_of
from .relalg import VarSet, names_of, term_str

log = logging.getLogger(__name__)

ZERO = Fraction(0)

SUBMODULARITY = "submodularity"
MONOTONICITY = "monotonicity"
COMPOSITION = "composition"
DECOMPOSITION = "decomposition"
KINDS = (SUBMODULARITY, MONOTONICITY, COMPOSITION, DECOMPOSITION)

Coord = tuple[VarSet, VarSet]
# rational weights on pairs of variable sets: (X, Y) with X ⊂ Y for the term
# h(Y|X), or an incomparable (I, J) for a submodularity multiplier
CondVec = dict[Coord, Fraction]


# ═══════════════════════════════════════════════════════════════════════════
# Steps and sequences
# ═══════════════════════════════════════════════════════════════════════════


def _moves(kind: str, x: VarSet, y: VarSet) -> tuple[tuple[Coord, int], ...]:
    """A step's effect per unit of weight: each coordinate it consumes (-1)
    or produces (+1), consumed first."""
    if kind == SUBMODULARITY:
        return ((x & y, x), -1), ((y, x | y), 1)
    if kind == MONOTONICITY:
        return ((0, y), -1), ((0, x), 1)
    if kind == COMPOSITION:
        return ((0, x), -1), ((x, y), -1), ((0, y), 1)
    return ((0, y), -1), ((x, y), 1), ((0, x), 1)


def _apply(
    cur: dict, kind: str, x: VarSet, y: VarSet, w: int | Fraction
) -> tuple[Coord, int | Fraction] | None:
    """Move w of a step on the sparse vector `cur` in place, consumed
    coordinates first.  Returns the first coordinate it would drive below 0
    with the shortfall, or None."""
    for c, sign in _moves(kind, x, y):
        nv = cur.get(c, 0) + sign * w
        if nv < 0:
            return c, -nv
        if nv:
            cur[c] = nv
        else:
            cur.pop(c, None)
    return None


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
        return {c: sign * self.weight for c, sign in _moves(self.kind, self.x, self.y)}

    def pretty(self, names: list[str] | None = None) -> str:
        d = self.delta()
        used = " + ".join(term_str(x, y, names) for (x, y), v in sorted(d.items()) if v < 0)
        made = " + ".join(term_str(x, y, names) for (x, y), v in sorted(d.items()) if v > 0)
        return f"{self.kind:<14} {used} -> {made}  (w={self.weight})"


@dataclass
class ProofSequence:
    initial: CondVec
    target: CondVec
    steps: list[ProofStep] = field(default_factory=list)
    name: str = ""

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


def validate(ps: ProofSequence, names: list[str] | None = None) -> ValidationReport:
    """Replay a sequence with exact arithmetic.

    Checks that the initial and target vectors are nonnegative, that no step
    drives any coordinate negative, and that the final vector dominates the
    target.  The report carries the index of the first offending step.
    """
    for c, v in ps.initial.items():
        if v < 0:
            return ValidationReport(False, None, f"initial weight of {term_str(*c, names)} is negative")
    for c, v in ps.target.items():
        if v < 0:
            return ValidationReport(False, None, f"target weight of {term_str(*c, names)} is negative")
    cur = {k: Fraction(v) for k, v in ps.initial.items() if v}
    for idx, st in enumerate(ps.steps):
        if over := _apply(cur, st.kind, st.x, st.y, st.weight):
            c, short = over
            return ValidationReport(False, idx, f"step {idx} overdraws {term_str(*c, names)} by {short}")
    for c, v in ps.target.items():
        short = v - cur.get(c, ZERO)
        if short > 0:
            return ValidationReport(
                False, len(ps.steps), f"final vector is short of {term_str(*c, names)} by {short}"
            )
    return ValidationReport(True)


# ═══════════════════════════════════════════════════════════════════════════
# Normalisation
# ═══════════════════════════════════════════════════════════════════════════


def normalize(vec: CondVec, target: CondVec, sigma: CondVec, mu: CondVec):
    """Divide an inequality and its multipliers by the target's total weight.

    Returns (vec, target, sigma, mu) scaled so the target weights sum to 1.
    Raises ValueError when the target carries no weight.
    """
    w = sum(target.values(), ZERO)
    if w <= 0:
        raise ValueError("cannot normalize: target has no positive weight")
    scale = lambda d: {k: Fraction(v) / w for k, v in d.items() if v}
    return scale(vec), scale(target), scale(sigma), scale(mu)


# ═══════════════════════════════════════════════════════════════════════════
# Construction
# ═══════════════════════════════════════════════════════════════════════════


class ConstructionError(RuntimeError):
    """The witness breaks its identity.

    `residual` holds the target weight the initial vector does not cover.
    """

    def __init__(self, msg: str, residual: CondVec):
        super().__init__(msg)
        self.residual = residual


def _excess(initial, target, sigma, mu) -> dict[VarSet, int | Fraction]:
    """Coefficient of each h(Z) in  <initial - target, h> - witness terms.

    A multiplier's term, subtracted, is what its own step moves (`_moves`)
    times its weight, each h(Y|X) read as h(Y) - h(X).  Exact in whatever
    the weights are: `construct` passes integers over one common denominator.
    """
    moved = [*initial.items(), *((c, -v) for c, v in target.items())]
    for kind, vec in ((SUBMODULARITY, sigma), (MONOTONICITY, mu)):
        moved += [(c, sign * w) for (x, y), w in vec.items() for c, sign in _moves(kind, x, y)]
    e: dict[VarSet, int | Fraction] = {}
    for (x, y), v in moved:
        for z, dv in ((y, v), (x, -v)):
            if z:
                e[z] = e.get(z, 0) + dv
    return e


def _take(pool: dict, key, w: int):
    pool[key] -= w
    if not pool[key]:
        del pool[key]


class _Prover:
    """Emits steps that spend an exact witness (sigma, mu) down to nothing.

    Every weight is an integer over the common denominator `den`, and each
    emitted `ProofStep` carries its weight as Fraction(w, den).

    Invariant: for every nonempty Z the coefficient of h(Z) in
    <cur, h> - sum sigma*sub - sum mu*mono  is at least the target's.
    Composition and decomposition leave that form unchanged; submodularity
    and monotonicity steps spend their multiplier by the step's weight.

    A multiplier consumes h(I|I∩J) (submodularity, either orientation) or
    h(Y) (monotonicity), and `fire` takes it from one of two makers: `_held`
    as held, `_route` by a route composed from a held set (`_tops`), then
    decomposed.  It spends held sigma, held mu, routed sigma, routed mu, in
    that order.  When none can be spent, let W be the nonempty unreachable
    sets: W is closed upwards and no held term leaves the reachable sets,
    so summing the invariant over W gives 0 <= targets on W <= form on W =
    -(sigma with I∩J outside W) - (mu with X outside W) <= 0.  All that is
    left then lies inside W, where the form is zero and nothing is
    targeted: it cancels, and is dropped.
    """

    def __init__(self, initial: dict[Coord, int], sigma, mu, den: int):
        self.cur = dict(initial)
        self.sigma = sigma
        self.mu = mu
        self.den = den
        self.steps: list[ProofStep] = []

    def _emit(self, kind: str, x: VarSet, y: VarSet, w: int):
        if over := _apply(self.cur, kind, x, y, w):  # pragma: no cover - callers check availability
            raise AssertionError(f"step overdraws {term_str(*over[0])}")
        self.steps.append(ProofStep(kind, x, y, Fraction(w, self.den)))

    def _submodularity(self, i: VarSet, j: VarSet, w: int):
        """h(I|I∩J) -> h(I∪J|J), then compose with h(J) where it is held."""
        self._emit(SUBMODULARITY, i, j, w)
        _take(self.sigma, (min(i, j), max(i, j)), w)
        held = self.cur.get((0, j), 0)
        if held:
            self._emit(COMPOSITION, j, i | j, min(held, w))

    def _monotonicity(self, x: VarSet, y: VarSet, w: int):
        self._emit(MONOTONICITY, x, y, w)
        _take(self.mu, (x, y), w)

    def _tops(self) -> dict[VarSet, tuple[VarSet, list[Coord]]]:
        """Sets whose unconditional term composition alone can make.

        Each maps to the held set its route starts from and the conditional
        terms composed onto it in turn.  Breadth first, so routes are
        shortest; a set is reachable when it lies inside one of these.
        """
        tops = {y: (y, []) for (x, y) in sorted(self.cur) if not x}
        arcs = sorted(c for c in self.cur if c[0])
        queue = list(tops)
        for top in queue:
            for x, y in arcs:
                if not (x & ~top) and y not in tops:
                    tops[y] = (tops[top][0], tops[top][1] + [(x, y)])
                    queue.append(y)
        return tops

    def _held(self, x: VarSet, y: VarSet, want: int) -> int:
        """Up to `want` of h(Y|X) as held; emits nothing."""
        return min(want, self.cur.get((x, y), 0))

    def _route(self, tops, x: VarSet, y: VarSet, want: int) -> int:
        """Make up to `want` of h(Y|X) held by a route to h(Y), decomposed
        into h(X) + h(Y|X) when X is nonempty; returns the amount made."""
        top = next((t for t in tops if not (y & ~t)), None)
        if top is None:
            return 0
        at, path = tops[top]
        w = min(want, self.cur[(0, at)], *(self.cur[arc] for arc in path))
        for u, v in path:
            if u != at:
                self._emit(DECOMPOSITION, u, at, w)
            self._emit(COMPOSITION, u, v, w)
            at = v
        if y != at:
            self._emit(DECOMPOSITION, y, at, w)
        if x:
            self._emit(DECOMPOSITION, x, y, w)
        return w

    def fire(self) -> bool:
        """Spend part of one multiplier; False when none can be spent."""
        for routed in (False, True):
            make = partial(self._route, self._tops()) if routed else self._held
            for (i, j), w in sorted(self.sigma.items()):
                for a, b in ((i, j), (j, i)):
                    if got := make(a & b, a, w):
                        self._submodularity(a, b, got)
                        return True
            for (x, y), w in sorted(self.mu.items()):
                if got := make(0, y, w):
                    self._monotonicity(x, y, got)
                    return True
        return False

    def compose(self, target: dict[Coord, int]):
        """Compose conditional terms into the targets, largest sets first.

        With the witness spent or cancelled, the invariant says the net
        inflow of `cur` covers the target at every reachable set, and the
        demand pushed down incoming terms only reaches such sets.
        """
        demand = {y: v for (_, y), v in target.items()}
        plan: list[tuple[VarSet, VarSet, int]] = []
        for z in sorted({y for _, y in self.cur} | set(demand), key=lambda s: (-s.bit_count(), s)):
            need = demand.get(z, 0) - self.cur.get((0, z), 0)
            for (x, y), v in sorted(self.cur.items()):
                if need <= 0:
                    break
                if y == z and x:
                    t = min(v, need)
                    plan.append((x, z, t))
                    demand[x] = demand.get(x, 0) + t
                    need -= t
            if need > 0:  # pragma: no cover - the invariant rules this out
                raise AssertionError(f"{term_str(0, z)} cannot be composed")
        for x, y, t in sorted(plan, key=lambda p: (p[0].bit_count(), p[0], p[1])):
            self._emit(COMPOSITION, x, y, t)


def construct(
    initial: CondVec,
    target: CondVec,
    *,
    sigma: CondVec,
    mu: CondVec,
    name: str = "",
) -> ProofSequence:
    """Build a proof sequence from `initial` to the unconditional `target`.

    `sigma` (incomparable pairs (I, J)) and `mu` (pairs (X, Y), X ⊂ Y) are
    the submodularity and monotonicity multipliers of the certifying linear
    program.  They must satisfy the witness identity exactly:
    <initial - target, h> = sum sigma*sub + sum mu*mono + a nonnegative
    multiple of each h(Z).

    Every multiplier is spent by a step of its own kind on the term it
    consumes, taken as held or else made by a route (`_Prover` gives the
    makers and the spending order); then the held terms are composed into
    the targets.  The witness is spent as integers over the least common
    denominator of every weight, and each step's weight goes back to a
    Fraction.  This cannot fail, so ConstructionError means only that the
    witness breaks the identity (the message names the coordinate).
    """
    initial = {k: Fraction(v) for k, v in initial.items() if v}
    target = {k: Fraction(v) for k, v in target.items() if v}
    if any(x for x, _ in target):
        raise ValueError("construct needs unconditional targets")
    if any(v < 0 for vec in (initial, target, sigma, mu) for v in vec.values()):
        raise ValueError("construct needs nonnegative weights and multipliers")
    if any(not (i & ~j and j & ~i) for i, j in sigma):
        raise ValueError("sigma needs incomparable pairs")
    if any(x & ~y or x == y for x, y in mu):
        raise ValueError("mu needs pairs (X, Y) with X a proper subset of Y")
    residual = {c: v - initial.get(c, ZERO) for c, v in target.items() if v > initial.get(c, ZERO)}
    pairs: dict[tuple[VarSet, VarSet], Fraction] = {}
    for (i, j), w in sigma.items():
        if w:
            key = (min(i, j), max(i, j))
            pairs[key] = pairs.get(key, ZERO) + Fraction(w)
    # h(Y) >= h(∅) is covered by the nonnegative slack, so it needs no step
    monos = {(x, y): Fraction(w) for (x, y), w in mu.items() if w and x}
    vecs = (initial, target, pairs, monos)
    den = lcm(*(v.denominator for vec in vecs for v in vec.values()))
    initial_n, target_n, pairs_n, monos_n = (
        {k: v.numerator * (den // v.denominator) for k, v in vec.items()} for vec in vecs
    )
    for z, slack in sorted(_excess(initial_n, target_n, pairs_n, monos_n).items()):
        if slack < 0:
            raise ConstructionError(
                f"witness identity breaks at {term_str(0, z)}: short by {Fraction(-slack, den)}",
                residual,
            )
    prover = _Prover(initial_n, pairs_n, monos_n, den)
    while (prover.sigma or prover.mu) and prover.fire():
        pass
    if prover.sigma or prover.mu:
        log.debug("dropping %d cancelling multiplier(s)", len(prover.sigma) + len(prover.mu))
    prover.compose(target_n)
    log.debug("constructed %d step(s) for %s", len(prover.steps), name or "sequence")
    return ProofSequence(initial=initial, target=target, steps=prover.steps, name=name)


# ═══════════════════════════════════════════════════════════════════════════
# Serialisation
# ═══════════════════════════════════════════════════════════════════════════


def vec_to_json(vec: CondVec, var_names: list[str]) -> list[dict]:
    out = []
    for (x, y), w in sorted(vec.items()):
        if not w:
            continue
        out.append(
            {"given": names_of(x, var_names), "set": names_of(y, var_names), "coeff": str(Fraction(w))}
        )
    return out


def vec_from_json(items, var_names: list[str], what: str = "vector") -> CondVec:
    vec: CondVec = {}
    for it in items:
        entry = f"term {it} in {what}"
        names, coeff = fields_of(it, entry, "set", "coeff")
        x = varset_of(it.get("given", []), var_names, entry)
        y = varset_of(names, var_names, entry)
        if x & ~y:
            raise QueryError(f"{entry} has a 'given' outside its 'set'")
        try:
            vec[(x, y)] = vec.get((x, y), ZERO) + Fraction(coeff)
        except (TypeError, ValueError, ArithmeticError):
            raise QueryError(f"{entry} has 'coeff' that is not a number") from None
    return vec


def step_to_json(step: ProofStep, var_names: list[str]) -> dict:
    return {
        "kind": step.kind,
        "x": names_of(step.x, var_names),
        "y": names_of(step.y, var_names),
        "weight": str(step.weight),
    }


def step_from_json(doc: dict, var_names: list[str], what: str = "step") -> ProofStep:
    kind, x, y, weight = fields_of(doc, what, "kind", "x", "y", "weight")
    x, y = (varset_of(names, var_names, what) for names in (x, y))
    try:
        return ProofStep(kind, x, y, weight)
    except (TypeError, ValueError, ArithmeticError) as e:
        raise QueryError(f"{e} in {what}") from None


def sequence_to_json(ps: ProofSequence, var_names: list[str]) -> dict:
    return {
        "name": ps.name,
        "initial": vec_to_json(ps.initial, var_names),
        "target": vec_to_json(ps.target, var_names),
        "steps": [step_to_json(st, var_names) for st in ps.steps],
    }


def sequence_from_json(doc: dict, var_names: list[str], what: str = "sequence") -> ProofSequence:
    initial, target = fields_of(doc, what, "initial", "target", lists=True)
    [steps] = fields_of({"steps": [], **doc}, what, "steps", lists=True)
    if not isinstance(name := doc.get("name", ""), str):
        raise QueryError(f"{what} has 'name' that is not a string")
    return ProofSequence(
        initial=vec_from_json(initial, var_names, f"the initial of {what}"),
        target=vec_from_json(target, var_names, f"the target of {what}"),
        steps=[step_from_json(s, var_names, f"step {s} of {what}") for s in steps],
        name=name,
    )


def bundle_to_json(sequences, *, query: str, var_names: list[str]) -> str:
    doc = {
        "query": query,
        "vars": list(var_names),
        "sequences": [sequence_to_json(ps, var_names) for ps in sequences],
    }
    return json.dumps(doc, indent=2) + "\n"


def bundle_from_json(text: str) -> tuple[str, list[str], list[ProofSequence]]:
    doc = json_object(text, "bundle")
    var_names, sequences = fields_of(doc, "bundle", "vars", "sequences", lists=True)
    if not all(isinstance(v, str) for v in var_names) or len(set(var_names)) < len(var_names):
        raise QueryError("bundle has 'vars' that is not a list of distinct names")
    if not isinstance(query := doc.get("query", ""), str):
        raise QueryError("bundle has 'query' that is not a string")
    seqs = [
        sequence_from_json(d, var_names, f"sequence {i} of the bundle")
        for i, d in enumerate(sequences)
    ]
    return query, var_names, seqs
