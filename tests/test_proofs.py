"""Replay and construction of stepwise entropy proofs.

The short goldens here mirror the bundles under corpus/proofs/; the
construction tests build proofs from the multipliers extracted alongside
each tradeoff term, which is the path the analyzer itself uses, and, for
hand-written and closed-form inequalities, from the least-weight witness
`support.derive_witness` solves for.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction as F
import json
from pathlib import Path
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqap.proofs import (
    COMPOSITION,
    DECOMPOSITION,
    MONOTONICITY,
    SUBMODULARITY,
    ConstructionError,
    ProofSequence,
    ProofStep,
    bundle_from_json,
    bundle_to_json,
    construct,
    normalize,
    sequence_from_json,
    sequence_to_json,
    validate,
)
from cqap.queries import QueryError, load_query
from cqap.relalg import vs_str

from support import derive_witness, eval_cond_vec, prove, replay_values, sample_polymatroid

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
BUNDLES = sorted((CORPUS / "proofs").glob("*.json"))


def q(name):
    return load_query(CORPUS / "queries" / f"{name}.cqap")


def storage_merge():
    """hS(x1) + hS(x3) >= hS(x1 x3), as two steps over masks 1, 2."""
    return ProofSequence(
        initial={(0, 1): F(1), (0, 2): F(1)},
        target={(0, 3): F(1)},
        steps=[ProofStep(SUBMODULARITY, 1, 2, 1), ProofStep(COMPOSITION, 2, 3, 1)],
    )


# ═══════════════════════════════════════════════════════════════════════════
# Steps
# ═══════════════════════════════════════════════════════════════════════════


def test_step_shapes_are_checked():
    with pytest.raises(ValueError, match="incomparable"):
        ProofStep(SUBMODULARITY, 1, 3, 1)
    with pytest.raises(ValueError, match="subset"):
        ProofStep(MONOTONICITY, 3, 3, 1)
    with pytest.raises(ValueError, match="subset"):
        ProofStep(COMPOSITION, 4, 3, 1)
    with pytest.raises(ValueError, match="subset"):
        ProofStep(DECOMPOSITION, 0, 3, 1)
    with pytest.raises(ValueError, match="positive"):
        ProofStep(MONOTONICITY, 1, 3, 0)
    with pytest.raises(ValueError, match="kind"):
        ProofStep("merge", 1, 2, F(1))


def test_step_effects():
    assert ProofStep(SUBMODULARITY, 0b011, 0b110, F(1, 2)).delta() == {
        (0b010, 0b011): F(-1, 2),
        (0b110, 0b111): F(1, 2),
    }
    assert ProofStep(MONOTONICITY, 1, 3, 1).delta() == {(0, 3): -1, (0, 1): 1}
    assert ProofStep(COMPOSITION, 1, 3, 1).delta() == {(0, 1): -1, (1, 3): -1, (0, 3): 1}
    assert ProofStep(DECOMPOSITION, 1, 3, 1).delta() == {(0, 3): -1, (1, 3): 1, (0, 1): 1}


# ═══════════════════════════════════════════════════════════════════════════
# Validation
# ═══════════════════════════════════════════════════════════════════════════


def test_two_step_merge_replays_clean():
    rep = validate(storage_merge())
    assert rep and rep.step is None and rep.reason == ""


def test_overdrawn_composition_is_flagged():
    ps = storage_merge()
    ps.steps[1] = ProofStep(COMPOSITION, 2, 3, 2)
    rep = validate(ps)
    assert not rep and rep.step == 1 and "overdraws" in rep.reason


def test_empty_sequence_must_already_dominate():
    assert validate(ProofSequence(initial={(0, 3): F(2)}, target={(0, 3): F(1)}))
    rep = validate(ProofSequence(initial={(0, 1): F(1)}, target={(0, 3): F(1)}))
    assert not rep and rep.step == 0 and "short" in rep.reason


def test_negative_inputs_are_rejected():
    rep = validate(ProofSequence(initial={(0, 1): F(-1)}, target={}))
    assert not rep and rep.step is None and "negative" in rep.reason
    rep = validate(ProofSequence(initial={(0, 1): F(1)}, target={(0, 1): F(-1)}), ["x1"])
    assert not rep and rep.step is None and rep.reason == "target weight of h({x1}) is negative"


def test_validation_reports_name_variables():
    ps = storage_merge()
    ps.steps[1] = ProofStep(COMPOSITION, 2, 3, 2)
    rep = validate(ps, ["x1", "x3", "x2"])
    assert "x3" in rep.reason


# ═══════════════════════════════════════════════════════════════════════════
# Construction
# ═══════════════════════════════════════════════════════════════════════════


def test_construct_reproduces_the_two_step_merge():
    ps = construct(
        {(0, 1): F(1), (0, 2): F(1)}, {(0, 3): F(1)}, sigma={(1, 2): F(1)}, mu={}
    )
    assert [(s.kind, s.x, s.y, s.weight) for s in ps.steps] == [
        ("submodularity", 1, 2, F(1)),
        ("composition", 2, 3, F(1)),
    ]


def test_construct_online_merge_uses_four_steps():
    ps = construct(
        {(1, 5): F(1), (2, 6): F(1), (0, 3): F(2)},
        {(0, 7): F(2)},
        sigma={(3, 5): F(1), (3, 6): F(1)},
        mu={},
    )
    assert len(ps.steps) == 4
    assert Counter(s.kind for s in ps.steps) == {
        "submodularity": 2,
        "composition": 2,
    }
    assert validate(ps)


def test_construct_without_work_is_empty():
    ps = construct({(0, 7): F(1)}, {(0, 7): F(1)}, sigma={}, mu={})
    assert ps.steps == []
    assert validate(ps)


def test_construct_routes_held_terms_to_a_monotonicity():
    # h(xy) is not held, so h(x) + h(xy|x) compose into it before mu is spent
    x, y = 1, 2
    initial, target = {(0, x): F(1), (x, x | y): F(1)}, {(0, y): F(1)}
    ps = construct(initial, target, sigma={}, mu={(y, x | y): F(1)})
    assert [(s.kind, s.x, s.y, s.weight) for s in ps.steps] == [
        ("composition", x, x | y, F(1)),
        ("monotonicity", y, x | y, F(1)),
    ]
    assert validate(ps)


@pytest.mark.parametrize(
    "initial, target, sigma, mu, message",
    [
        ({}, {(1, 3): 1}, {}, {}, "construct needs unconditional targets"),
        ({(0, 1): -1}, {}, {}, {}, "construct needs nonnegative weights and multipliers"),
        ({}, {}, {}, {(1, 3): -1}, "construct needs nonnegative weights and multipliers"),
        ({}, {}, {(1, 3): 1}, {}, "sigma needs incomparable pairs"),
        ({}, {}, {}, {(3, 3): 1}, "mu needs pairs (X, Y) with X a proper subset of Y"),
        ({}, {}, {}, {(2, 1): 1}, "mu needs pairs (X, Y) with X a proper subset of Y"),
    ],
    ids=[
        "conditional-target", "negative-weight", "negative-mu", "nested-sigma", "equal-mu", "crossed-mu",
    ],
)
def test_construct_checks_its_input(initial, target, sigma, mu, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        construct(initial, target, sigma=sigma, mu=mu)


def test_construct_needs_a_witness():
    # construct spends a given witness and never solves for one
    with pytest.raises(TypeError, match="sigma"):
        construct({(0, 1): F(1), (0, 2): F(1)}, {(0, 3): F(1)})


def test_construct_failure_reports_residual():
    with pytest.raises(ConstructionError, match="no witness exists") as exc:
        prove({(0, 1): F(1)}, {(0, 3): F(1)})
    assert exc.value.residual == {(0, 3): F(1)}


def test_construct_names_where_a_broken_witness_fails(two_reach):
    ext = two_reach[2].terms[0].provenance
    (i, j), w = min(ext.sigma_t.items())
    assert i & j  # the first coordinate left short is h(I∩J)
    sigma = {k: v for k, v in ext.sigma_t.items() if k != (i, j)}
    with pytest.raises(ConstructionError, match=rf"breaks at h\({re.escape(vs_str(i & j))}\): short by {w}$") as exc:
        construct(ext.g_t, ext.lam, sigma=sigma, mu=ext.mu_t)
    assert exc.value.residual == ext.lam


def test_nameless_output_writes_sets_as_vs_str():
    assert ProofStep(SUBMODULARITY, 0b011, 0b110, 1).pretty() == (
        "submodularity  h({0,1}|{1}) -> h({0,1,2}|{1,2})  (w=1)"
    )
    short = ProofSequence(initial={}, target={(0, 0b101): F(1)})
    assert validate(short).reason == "final vector is short of h({0,2}) by 1"
    with pytest.raises(ConstructionError) as exc:
        construct({}, {(0, 0b101): F(1)}, sigma={}, mu={})
    assert str(exc.value) == "witness identity breaks at h({0,2}): short by 1"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 15), st.integers(1, 15))
def test_construct_merges_any_incomparable_pair(a, b):
    assume(a & ~b and b & ~a)
    ps = prove({(0, a): F(1), (0, b): F(1)}, {(0, a | b): F(1)})
    assert validate(ps)
    assert any(s.kind == "submodularity" for s in ps.steps)


def test_construct_respects_pledged_target_mass():
    # Both targets draw on the same pool; neither may cannibalise the other.
    ps = prove(
        {(0, 1): F(2), (0, 2): F(1), (0, 4): F(1)},
        {(0, 3): F(1), (0, 5): F(1)},
    )
    assert validate(ps)


def test_derived_witness_is_pinned(generator_terms):
    # the least-weight (sigma, mu) recorded from the dense-row program, so the
    # sparse rows built for the LP must reproduce the same vertex
    pool = {(0, 1): F(2), (0, 2): F(1), (0, 4): F(1)}
    assert derive_witness(pool, {(0, 3): F(1), (0, 5): F(1)}) == (
        {(1, 2): F(1), (1, 4): F(1)}, {}
    )
    ext = generator_terms["path4"].provenance
    g, th, _, _ = normalize(ext.g_s, ext.theta, ext.sigma_s, ext.mu_s)
    assert derive_witness(g, th) == ({(1, 2): F(2, 3), (4, 16): F(1, 3)}, {})


# ═══════════════════════════════════════════════════════════════════════════
# Normalisation
# ═══════════════════════════════════════════════════════════════════════════


def test_normalize_scales_everything():
    g, th, sg, mus = normalize(
        {(0, 1): F(2)}, {(0, 3): F(2)}, sigma={(1, 2): F(2)}, mu={(1, 3): F(4)}
    )
    assert th == {(0, 3): F(1)} and g == {(0, 1): F(1)}
    assert sg == {(1, 2): F(1)} and mus == {(1, 3): F(2)}


def test_normalize_is_identity_at_unit_weight():
    g, th, sg, mus = normalize(
        {(0, 1): F(1, 2)}, {(0, 3): F(1)}, sigma={(1, 2): F(1, 2)}, mu={}
    )
    assert g == {(0, 1): F(1, 2)} and th == {(0, 3): F(1)}
    assert sg == {(1, 2): F(1, 2)} and mus == {}


def test_normalize_rejects_weightless_targets():
    with pytest.raises(ValueError, match="no positive weight"):
        normalize({(0, 1): F(1)}, {}, {}, {})


def test_normalize_two_entry_target_then_construct(generator_terms):
    ext = generator_terms["path4"].provenance
    assert len(ext.theta) == 2
    g, th, sg, mus = normalize(ext.g_s, ext.theta, ext.sigma_s, ext.mu_s)
    assert sum(th.values()) == 1
    ps = prove(g, th, sigma=sg, mu=mus)
    assert validate(ps)


# ═══════════════════════════════════════════════════════════════════════════
# Every extracted inequality yields a checked sequence
# ═══════════════════════════════════════════════════════════════════════════


def _discharge_both_sides(ext, label):
    """Construct and validate the proof of each side; the total step count.

    Every term carries its witness: the LP's, or a closed form's derived one.
    """
    ps = construct(ext.g_t, ext.lam, sigma=ext.sigma_t, mu=ext.mu_t, name=label)
    rep = validate(ps)
    assert rep, (label, "T", rep.reason)
    steps = len(ps.steps)
    if ext.theta:
        g, th, sg, mus = ext.scaled_s_side()
        ps = construct(g, th, sigma=sg, mu=mus, name=label)
        rep = validate(ps)
        assert rep, (label, "S", rep.reason)
        steps += len(ps.steps)
    return steps


# the proof steps over every side of the fixtures' terms; a ceiling, so that
# certificates may get shorter but never longer
FIXTURE_PROOF_STEPS = 243


def test_construct_discharges_every_extracted_piece(
    two_reach, three_reach, four_reach
):
    _, _, rt2 = two_reach
    _, _, c3 = three_reach
    _, _, c4 = four_reach
    checked = steps = 0
    for tag, curve in [("2r", rt2), *c3.items(), *c4.items()]:
        for t in curve.terms:
            steps += _discharge_both_sides(t.provenance, f"{tag} {t.pretty()}")
            checked += 1
    assert checked >= 12
    assert steps <= FIXTURE_PROOF_STEPS


def test_construct_discharges_generator_inequalities(generator_terms):
    for key, t in generator_terms.items():
        if t.provenance is None:
            continue
        _discharge_both_sides(t.provenance, key)


# ═══════════════════════════════════════════════════════════════════════════
# Corpus bundles
# ═══════════════════════════════════════════════════════════════════════════


def test_corpus_bundles_exist_for_the_worked_queries():
    names = {p.stem for p in BUNDLES}
    assert {"two_reach", "square", "three_reach", "four_reach"} <= names


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: p.stem)
def test_corpus_bundle_validates(path):
    qname, var_names, seqs = bundle_from_json(path.read_text())
    query = q(qname)
    assert var_names == query.var_names
    assert seqs
    for ps in seqs:
        rep = validate(ps, var_names)
        assert rep, (ps.name, rep.reason)


@pytest.mark.parametrize("path", BUNDLES, ids=lambda p: p.stem)
def test_corpus_bundle_serialization_is_stable(path):
    qname, var_names, seqs = bundle_from_json(path.read_text())
    assert bundle_to_json(seqs, query=qname, var_names=var_names) == path.read_text()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "bundle has no 'vars'"),
        ({"vars": ["x1"]}, "bundle has no 'sequences'"),
        ({"vars": ["x1"], "sequences": [{"target": []}]}, "sequence 0 of the bundle has no 'initial'"),
        (
            {"vars": ["x1"], "sequences": [{"initial": [{"set": ["x1"]}], "target": []}]},
            "term {'set': ['x1']} in the initial of sequence 0 of the bundle has no 'coeff'",
        ),
        (
            {"vars": ["x1"], "sequences": [{"initial": [], "target": [], "steps": [{"kind": "m"}]}]},
            "step {'kind': 'm'} of sequence 0 of the bundle has no 'x'",
        ),
        ({"vars": ["x1"], "sequences": [[]]}, "sequence 0 of the bundle is not a JSON object"),
    ],
    ids=["no-vars", "no-sequences", "no-initial", "no-coeff", "no-step-x", "list-sequence"],
)
def test_bundle_reader_names_a_missing_key(doc, message):
    with pytest.raises(QueryError, match=f"^{re.escape(message)}$"):
        bundle_from_json(json.dumps(doc))


def test_sequence_round_trips_through_json():
    ps = storage_merge()
    names = ["x1", "x3", "x2"]
    back = sequence_from_json(sequence_to_json(ps, names), names)
    assert back.initial == ps.initial
    assert back.target == ps.target
    assert back.steps == ps.steps


# ═══════════════════════════════════════════════════════════════════════════
# Replay soundness on random polymatroids
# ═══════════════════════════════════════════════════════════════════════════


def _all_corpus_sequences():
    out = []
    for path in BUNDLES:
        _, var_names, seqs = bundle_from_json(path.read_text())
        out += [(len(var_names), ps) for ps in seqs]
    return out


SEQS = _all_corpus_sequences()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, len(SEQS) - 1))
@example(seed=3, pick=3)
def test_replay_is_monotone_on_random_polymatroids(seed, pick):
    n, ps = SEQS[pick]
    h = sample_polymatroid(n, random.Random(seed))
    values = replay_values(ps, h)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] >= eval_cond_vec(ps.target, h)


def test_pretty_prints_the_rewrites():
    text = storage_merge().pretty(["x1", "x3", "x2"])
    assert "->" in text and "submodularity" in text
