"""Which `cqap` functions the traced run wraps, and the per-layer metrics.

Each wrapper goes where the caller looks the name up, because the modules
import each other's functions by name: `tradeoffs` calls its own global
`solve_joint_lp`, `shannon` its own `solve_lp_guided`, and `exactlp` its own
`solve_lp`.  Span names follow the module that defines the function.
"""

from __future__ import annotations

from cqap import decompose, exactlp, proofs, queries, rules, shannon, tradeoffs

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "queries.parse_s": "s",
    "decompose.enumerate_pmtds_s": "s",
    "decompose.tds": "count",
    "decompose.plans": "count",
    "decompose.domination_kept_ratio": "ratio",
    "rules.generate_rules_s": "s",
    "rules.prune_rules_s": "s",
    "rules.generated": "count",
    "rules.kept": "count",
    "rules.kept_ratio": "ratio",
    "shannon.solve_joint_lp_s": "s",
    "shannon.solve_joint_lp_self_s": "s",
    "shannon.joint_solves": "count",
    "shannon.log_size_bound_s": "s",
    "shannon.lp_cols": "count",
    "shannon.lp_rows": "count",
    "exactlp.solve_lp_guided_s": "s",
    "exactlp.solve_lp_guided_self_s": "s",
    "exactlp.guided_calls": "count",
    "exactlp.solve_lp_s": "s",
    "exactlp.solve_lp_calls": "count",
    "exactlp.exact_solves_per_lp": "ratio",
    "exactlp.rows_kept_ratio": "ratio",
    "tradeoffs.rule_tradeoff_s": "s",
    "tradeoffs.rule_tradeoff_self_s": "s",
    "tradeoffs.terms": "count",
    "tradeoffs.probes_per_term": "ratio",
    "tradeoffs.envelope_s": "s",
    "proofs.construct_s": "s",
    "proofs.validate_s": "s",
    "proofs.sides": "count",
    "proofs.sides_failed": "count",
    "proofs.steps": "count",
    "trace.analysis_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# per-request counts printed by the traced run
REQUEST_COUNTS = (
    "decompose.tds",
    "decompose.plans",
    "rules.generated",
    "rules.kept",
    "shannon.solve_joint_lp.calls",
    "tradeoffs.terms",
    "proofs.construct.calls",
    "proofs.construct.errors",
)


def _count_len(key):
    return lambda tr, args, kwargs, result: tr.count(key, len(result))


def _domination(tr, args, kwargs, result):
    tr.count("decompose.plans_in", len(args[0]))
    tr.count("decompose.plans", len(result))


def _pruning(tr, args, kwargs, result):
    tr.count("rules.pruned_in", len(args[0]))
    tr.count("rules.kept", len(result))


def _guided(tr, args, kwargs, result):
    c, rows = args[0], args[1]
    tr.count("exactlp.guided_rows", len(rows))
    tr.peak("shannon.lp_cols", len(c))
    tr.peak("shannon.lp_rows", len(rows))


def _exact(tr, args, kwargs, result):
    tr.count("exactlp.exact_rows", len(args[1]))


def _terms(tr, args, kwargs, result):
    tr.count("tradeoffs.terms", len(result.terms))


def _steps(tr, args, kwargs, result):
    tr.count("proofs.steps", len(result.steps))


def install(tr) -> None:
    """Wrap every traced function; undo with `tr.uninstall()`."""
    tr.wrap(queries, "parse_query", "queries.parse")
    tr.wrap(decompose, "enumerate_pmtds", "decompose.enumerate_pmtds")
    tr.wrap(decompose, "enumerate_tds", "decompose.enumerate_tds", _count_len("decompose.tds"))
    tr.wrap(decompose, "minimal_pmtds", "decompose.minimal_pmtds", _domination)
    tr.wrap(rules, "generate_rules", "rules.generate_rules", _count_len("rules.generated"))
    tr.wrap(rules, "prune_rules", "rules.prune_rules", _pruning)
    tr.wrap(tradeoffs, "rule_tradeoff", "tradeoffs.rule_tradeoff", _terms)
    tr.wrap(tradeoffs, "solve_joint_lp", "shannon.solve_joint_lp")
    tr.wrap(tradeoffs, "envelope", "tradeoffs.envelope")
    tr.wrap(shannon.JointSystem, "log_size_bound", "shannon.log_size_bound")
    tr.wrap(shannon, "solve_lp_guided", "exactlp.solve_lp_guided", _guided)
    tr.wrap(exactlp, "solve_lp", "exactlp.solve_lp", _exact)
    tr.wrap(proofs, "construct", "proofs.construct", _steps)
    tr.wrap(proofs, "validate", "proofs.validate")


def _ratio(num, den) -> float:
    """num/den, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def metrics(tr, analysis_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, keyed as in METRICS."""
    n = tr.totals()
    peak = lambda key: max((c[key] for c in tr.counts.values()), default=0)
    joint = tr.calls("shannon.solve_joint_lp")
    guided = tr.calls("exactlp.solve_lp_guided")
    exact = tr.calls("exactlp.solve_lp")
    return {
        "queries.parse_s": tr.seconds("queries.parse"),
        "decompose.enumerate_pmtds_s": tr.seconds("decompose.enumerate_pmtds"),
        "decompose.tds": n["decompose.tds"],
        "decompose.plans": n["decompose.plans"],
        "decompose.domination_kept_ratio": _ratio(n["decompose.plans"], n["decompose.plans_in"]),
        "rules.generate_rules_s": tr.seconds("rules.generate_rules"),
        "rules.prune_rules_s": tr.seconds("rules.prune_rules"),
        "rules.generated": n["rules.generated"],
        "rules.kept": n["rules.kept"],
        "rules.kept_ratio": _ratio(n["rules.kept"], n["rules.pruned_in"]),
        "shannon.solve_joint_lp_s": tr.seconds("shannon.solve_joint_lp"),
        "shannon.solve_joint_lp_self_s": tr.self_seconds("shannon.solve_joint_lp"),
        "shannon.joint_solves": joint,
        "shannon.log_size_bound_s": tr.seconds("shannon.log_size_bound"),
        "shannon.lp_cols": peak("shannon.lp_cols"),
        "shannon.lp_rows": peak("shannon.lp_rows"),
        "exactlp.solve_lp_guided_s": tr.seconds("exactlp.solve_lp_guided"),
        "exactlp.solve_lp_guided_self_s": tr.self_seconds("exactlp.solve_lp_guided"),
        "exactlp.guided_calls": guided,
        "exactlp.solve_lp_s": tr.seconds("exactlp.solve_lp"),
        "exactlp.solve_lp_calls": exact,
        "exactlp.exact_solves_per_lp": _ratio(exact, guided),
        "exactlp.rows_kept_ratio": _ratio(n["exactlp.exact_rows"], n["exactlp.guided_rows"]),
        "tradeoffs.rule_tradeoff_s": tr.seconds("tradeoffs.rule_tradeoff"),
        "tradeoffs.rule_tradeoff_self_s": tr.self_seconds("tradeoffs.rule_tradeoff"),
        "tradeoffs.terms": n["tradeoffs.terms"],
        "tradeoffs.probes_per_term": _ratio(joint, n["tradeoffs.terms"]),
        "tradeoffs.envelope_s": tr.seconds("tradeoffs.envelope"),
        "proofs.construct_s": tr.seconds("proofs.construct"),
        "proofs.validate_s": tr.seconds("proofs.validate"),
        "proofs.sides": tr.calls("proofs.construct"),
        "proofs.sides_failed": n["proofs.construct.errors"],
        "proofs.steps": n["proofs.steps"],
        "trace.analysis_s": analysis_s,
        "trace.overhead_s": tr.overhead_s,
        "trace.spans": len(tr.spans),
    }
