"""Variable-set bitmask helpers and their text form."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqap.decompose import enumerate_pmtds, pmtds_from_json, pmtds_to_json
from cqap.proofs import bundle_from_json
from cqap.queries import QueryError, load_query, varset_of
from cqap.relalg import MAX_VARS, members, names_of, submasks, term_str, vs, vs_str

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_varset_basics():
    s = vs(0, 2, 3)
    assert members(s) == (0, 2, 3)
    assert s.bit_count() == 3
    assert submasks(s) == sorted(t for t in range(s + 1) if t & ~s == 0)
    assert submasks(0) == [0]
    with pytest.raises(ValueError, match=r"^variable index 16 out of range 0\.\.15$"):
        vs(MAX_VARS)


def test_text_form_with_and_without_names():
    names = ["x1", "x3", "x2"]
    assert names_of(vs(0, 2), names) == ["x1", "x2"]
    assert (vs_str(vs(0, 2)), vs_str(vs(0, 2), names), vs_str(0, names)) == ("{0,2}", "{x1,x2}", "{}")
    assert term_str(0, vs(0, 2)) == "h({0,2})"
    assert term_str(vs(1), vs(0, 1), names) == "h({x1,x3}|{x3})"


@given(st.permutations([f"v{i}" for i in range(MAX_VARS)]), st.integers(1, MAX_VARS), st.data())
def test_names_round_trip(perm, n, data):
    names = perm[:n]
    mask = data.draw(st.integers(0, (1 << n) - 1))
    got = names_of(mask, names)
    assert got == [names[i] for i in range(n) if mask >> i & 1]
    assert varset_of(got, names) == mask
    assert varset_of(reversed(got), names) == mask


# each maker spoils one variable list of a reader's file: its first name
# becomes "w", or the whole list becomes `names` when that is given


def _plan_doc(names=None):
    query = load_query(CORPUS / "queries" / "two_reach.cqap")
    doc = json.loads(pmtds_to_json(enumerate_pmtds(query), query))
    entry = doc["pmtds"][0]
    entry["bags"][0] = ["w", *entry["bags"][0][1:]] if names is None else names
    return pmtds_from_json, json.dumps(doc), query, f"plan in file {entry}"


def _bundle_doc(names=None):
    doc = json.loads((CORPUS / "proofs" / "two_reach.json").read_text())
    entry = doc["sequences"][0]["initial"][0]
    entry["set"] = ["w", *entry["set"][1:]] if names is None else names
    where = f"term {entry} in the initial of sequence 0 of the bundle"
    return (lambda text, _: bundle_from_json(text)), json.dumps(doc), None, where


READERS = [_plan_doc, _bundle_doc]
READER_IDS = ["plans", "bundle"]


@pytest.mark.parametrize("make", READERS, ids=READER_IDS)
def test_readers_name_an_unknown_variable(make):
    read, text, query, where = make()
    with pytest.raises(QueryError) as exc:
        read(text, query)
    assert str(exc.value) == f"unknown variable 'w' in {where}"


@pytest.mark.parametrize("names", [3, "x1", {"x1": 1}], ids=["int", "string", "object"])
@pytest.mark.parametrize("make", READERS, ids=READER_IDS)
def test_readers_name_a_variable_list_that_is_not_a_list(make, names):
    # neither a string's characters nor an object's keys are read as names
    read, text, query, where = make(names)
    with pytest.raises(QueryError) as exc:
        read(text, query)
    assert str(exc.value).endswith(f" in {where} is not a list of variable names")


@pytest.mark.parametrize("text", ["[]", '"pmtds"', "1", "{"])
@pytest.mark.parametrize("make", READERS, ids=READER_IDS)
def test_readers_reject_a_file_that_is_not_a_json_object(make, text):
    read, _, query, _ = make()
    with pytest.raises(QueryError, match=r"^(plan file|bundle) is not a JSON object$"):
        read(text, query)
