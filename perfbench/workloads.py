"""The benchmark's workloads, driven through the public `cqap` API.

One caller analyses one query at a time in this process (a closed loop with
a single client).  Every call into a layer goes through its module attribute
(`tradeoffs.rule_tradeoff`, not a name imported from it), so the traced run
sees the benchmark's own calls as well as the calls between layers.

`run_pass` returns the outputs of one pass in a plain form that the
reference file uses too: variable-name sets as sorted lists and Fractions as
strings.  The seed permutes the order in which each query's rules are
analysed, and in rule_enumeration the order of the plans the rules are
generated from; the outputs must not depend on it.  (`generate_rules` sorts
its output, so `prune_rules` always sees the order a caller would give it:
its running time depends strongly on that order.)
"""

from __future__ import annotations

import random
from pathlib import Path
from time import perf_counter

from cqap import decompose, proofs, queries, rules, shannon, tradeoffs

# Each analysis job is (query, plan file or None).  Without a plan file the
# plans are enumerated; with one they are read from corpus/pmtds/.
REACH_TRADEOFFS = (("two_reach", None), ("three_reach", None), ("four_reach", "four_reach.json"))
SET_DISJOINTNESS = (
    ("set_disjointness_k2", None),
    ("set_disjointness_k3", None),
    ("set_disjointness_k4", None),
    ("bool_two_sd", None),
)
# Every corpus query.  Hierarchical appears only here: its enumeration is
# quick, but its first exact probe runs for more than ten minutes.
ENUMERATED = (
    "bool_two_sd",
    "four_reach",
    "hierarchical",
    "set_disjointness_k2",
    "set_disjointness_k3",
    "set_disjointness_k4",
    "square",
    "three_reach",
    "two_reach",
)
# The four_reach rule analysed: the tier-1 fixture's "deep" rule, picked from
# the pruned rules of the pinned plans by its online targets.  The fixture's
# "wide" and "single" rules would double the pass time (see README.md).
FOUR_REACH_DEEP = (("x3", "x4", "x5"), ("x2", "x3", "x4"))


def _mask(q, names) -> int:
    return sum(1 << q.var_index(v) for v in names)


def _names(q, mask: int) -> list[str]:
    return sorted(q.var_names[i] for i in range(q.n) if mask >> i & 1)


def _sets(q, masks) -> list[list[str]]:
    return sorted(_names(q, m) for m in masks)


def _frac(x) -> str | None:
    return None if x is None else str(x)


def _prove(term, label: str) -> list[dict]:
    """Construct and re-validate the proof of each side of one term."""
    ext = term.provenance
    sides = [("T", (ext.g_t, ext.lam, ext.sigma_t, ext.mu_t))]
    if ext.theta:
        sides.append(("S", ext.scaled_s_side()))
    out = []
    for side, (g, target, sigma, mu) in sides:
        name = f"{label} {side}"
        try:
            ps = proofs.construct(g, target, sigma=sigma, mu=mu, name=name)
        except proofs.ConstructionError:
            out.append({"side": name, "certified": False, "valid": None})
            continue
        out.append({"side": name, "certified": True, "valid": bool(proofs.validate(ps))})
    return out


def analyse_query(corpus: Path, name: str, plan_file: str | None, rng: random.Random) -> dict:
    """Text to envelope plus every proof side, for one query."""
    q = queries.parse_query((corpus / "queries" / f"{name}.cqap").read_text())
    if plan_file is None:
        plans = decompose.enumerate_pmtds(q)
    else:
        text = (corpus / "pmtds" / plan_file).read_text()
        plans = decompose.pmtds_from_json(text, q)
    generated = rules.generate_rules(plans)
    kept = rules.prune_rules(generated)
    if name == "four_reach":
        deep = frozenset(_mask(q, g) for g in FOUR_REACH_DEEP)
        chosen = [r for r in kept if r.t_targets == deep][:1]
    else:
        chosen = list(kept)
    rng.shuffle(chosen)
    system = shannon.JointSystem(q)
    curves = [tradeoffs.rule_tradeoff(r, system) for r in chosen]
    curve = tradeoffs.envelope([rt.with_scratch() for rt in curves])
    sides = []
    for rt in curves:
        for term in rt.terms:
            sides += _prove(term, f"{name} {rt.rule.pretty(q.var_names)} {term.pretty()}")
    return {
        "plans": len(plans),
        "generated": len(generated),
        "kept": len(kept),
        "rules": sorted(
            (
                {
                    "t": _sets(q, rt.rule.t_targets),
                    "s": _sets(q, rt.rule.s_targets),
                    "s_cap": _frac(rt.s_cap),
                    "pieces": [
                        [[_frac(v) for v in t.line()], [_frac(v) for v in t.span]]
                        for t in rt.terms
                    ],
                }
                for rt in curves
            ),
            key=lambda r: r["t"],
        ),
        "envelope": [[_frac(s), _frac(t)] for s, t in curve.points],
        "sides": sorted(sides, key=lambda side: side["side"]),
    }


def enumerate_query(corpus: Path, name: str, rng: random.Random) -> dict:
    """Text to pruned rules, for one query."""
    q = queries.parse_query((corpus / "queries" / f"{name}.cqap").read_text())
    plans = decompose.enumerate_pmtds(q)
    rng.shuffle(plans)
    generated = rules.generate_rules(plans)
    kept = rules.prune_rules(generated)
    return {
        "plans": len(plans),
        "generated": len(generated),
        "kept": len(kept),
        "kept_rules": [
            {"t": _sets(q, r.t_targets), "s": _sets(q, r.s_targets)} for r in kept
        ],
    }


def run_pass(workload: str, corpus: Path, seed: int, tracer=None) -> tuple[float, dict]:
    """One timed pass over the workload's queries: (seconds, outputs by query).

    With a tracer, each query is one request and its span is the root of
    every layer span it causes.
    """
    rng = random.Random(seed)
    if workload == "rule_enumeration":
        jobs = [(name, lambda name=name: enumerate_query(corpus, name, rng)) for name in ENUMERATED]
    else:
        table = {"reach_tradeoffs": REACH_TRADEOFFS, "set_disjointness": SET_DISJOINTNESS}[workload]
        jobs = [
            (name, lambda name=name, pf=pf: analyse_query(corpus, name, pf, rng))
            for name, pf in table
        ]
    outputs = {}
    start = perf_counter()
    for name, job in jobs:
        if tracer is None:
            outputs[name] = job()
        else:
            with tracer.span("query", request=name):
                outputs[name] = job()
    return perf_counter() - start, outputs


def count_tds(corpus: Path, name: str) -> int:
    """Tree decompositions behind one query's plans (not part of a timed pass)."""
    q = queries.parse_query((corpus / "queries" / f"{name}.cqap").read_text())
    return len(decompose.enumerate_tds(q))


# ═══════════════════════════════════════════════════════════════════════════
# Checking against the references
# ═══════════════════════════════════════════════════════════════════════════


def check(outputs: dict, reference: dict, tds: dict[str, int]) -> tuple[int, list[str]]:
    """Compare one pass with the reference: (operations checked, mismatches).

    An operation is one reference item compared (a count, a rule's piece
    table, a query's envelope or rule set) or one constructed proof side
    re-validated.  Keys starting with "_" in the reference are notes.
    """
    checked, bad = 0, []
    for name, ref in reference.items():
        if name.startswith("_"):
            continue
        got = outputs.get(name)
        if got is None:
            checked += 1
            bad.append(f"{name}: no output")
            continue
        got = dict(got, tds=tds.get(name))
        for key, want in ref.items():
            if key.startswith("_"):
                continue
            if key == "rules":
                by_t = {tuple(map(tuple, r["t"])): r for r in got["rules"]}
                checked += 1
                if len(by_t) != len(want):
                    bad.append(f"{name}: {len(by_t)} rules analysed, expected {len(want)}")
                for wr in want:
                    checked += 1
                    gr = by_t.get(tuple(map(tuple, wr["t"])))
                    diff = [k for k in wr if gr is None or gr.get(k) != wr[k]]
                    if diff:
                        bad.append(f"{name} rule T{wr['t']}: {', '.join(diff)} differ: {gr}")
            elif key == "kept_rules":
                checked += 1
                canon = lambda rs: sorted((r["t"], r["s"]) for r in rs)
                if canon(got[key]) != canon(want):
                    bad.append(f"{name}: pruned rules differ: {got[key]}")
            else:
                checked += 1
                if got.get(key) != want:
                    bad.append(f"{name}: {key} is {got.get(key)}, expected {want}")
        for side in got.get("sides", ()):
            if side["certified"]:
                checked += 1
                if not side["valid"]:
                    bad.append(f"constructed proof fails validate: {side['side']}")
    return checked, bad
