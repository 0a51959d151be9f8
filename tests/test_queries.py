"""Query text form, normalization, constraint views."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest

from cqap.queries import (
    DcDecl,
    LogBound,
    QueryError,
    load_query,
    parse_query,
    print_query,
    span_split_constraints,
)
from cqap.relalg import vs

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "queries"


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------


def test_parse_two_reach():
    q = load_query(CORPUS / "two_reach.cqap")
    assert q.name == "two_reach"
    assert q.var_names == ["x1", "x3", "x2"]
    assert [(a.rel, a.args) for a in q.atoms] == [("R1", (0, 2)), ("R2", (2, 1))]
    assert q.head == vs(0, 1)
    assert q.access == vs(0, 1)
    assert len(q.decls) == 2


def test_parse_normalizes_boolean_head():
    q = parse_query("phi( | x1, x3) :- R1(x1, x2), R2(x2, x3).")
    assert q.head == q.access == vs(0, 1)


def test_parse_self_join():
    q = load_query(CORPUS / "set_disjointness_k2.cqap")
    assert [a.rel for a in q.atoms] == ["R", "R"]
    assert q.atoms[0].args != q.atoms[1].args
    assert q.head == vs(0, 1, 2)
    assert q.access == vs(0, 1)


def test_parse_numeric_and_symbolic_bounds():
    q = parse_query(
        """
        phi(x1, x2 | x1) :- R(x1, x2).
        dc R: size = N^3/2
        dc R: (x1 -> x1,x2) <= 100
        """
    )
    assert q.decls[0].sym == Fraction(3, 2)
    assert q.decls[1].num == 100
    # the parser always sets a bound, so only a direct construction lacks one
    with pytest.raises(QueryError, match="^constraint on R has no bound$"):
        DcDecl("R", (), (0,), None, None)


ONE_ATOM = "phi(x1 | x1) :- R(x1, x2)."
SEVENTEEN = ", ".join(f"v{i}" for i in range(17))
LOGQ = ": logQ is a parameter of the analysis, not a declared bound"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("phi(x1 | x1) :- R(x1, x1).", "atom R repeats a variable"),
        ("phi(x9 | x9) :- R(x1, x2).", "head/access variables must appear in the body"),
        ("phi(x1 | x1) :- R(x1, x2), R(x1).", "relation R used with two arities"),
        ("phi(x1 | x1) :- R(x1, x2)", "no '.'-terminated rule found"),
        (ONE_ATOM + "\ndc S: size = N^1", "no atom uses relation 'S'"),
        (ONE_ATOM + "\ndc R: (x1 -> x9) <= 4", "dc R: (x1 -> x9) <= 4: 'x9' not in R's arguments"),
        (ONE_ATOM + "\ndc R: size = N^1/0", "dc R: size = N^1/0: exponent 1/0 has a zero denominator"),
        # logQ is a parameter of the analysis, whatever cap the line declares
        (ONE_ATOM + "\nac |Q| <= 0", "ac |Q| <= 0" + LOGQ),
        (ONE_ATOM + "\nac |Q| <= 1", "ac |Q| <= 1" + LOGQ),
        ("phi(x1 | x1) :- R(x1, 2x).", "atom R: bad variable name '2x'"),
        ("phi(x1 | x1) :- R(x1, x2), S().", "atom S has no variables"),
        ("phi(x1 | x1) :- R(x1, x2) S(x2).", "unexpected text after atom: 'S(x2)'"),
        ("phi(x1 | x1) :- .", "rule has no body atoms"),
        (ONE_ATOM + "\ndc R: width = 3", "cannot parse constraint line: 'dc R: width = 3'"),
        (ONE_ATOM + "\ndc R: size = 0", "dc R: size = 0: bound must be >= 1"),
        (ONE_ATOM + "\ndc R: size = M^2", "dc R: size = M^2: bound must be an integer or N^a, got 'M^2'"),
        (ONE_ATOM + "\ndc R: (x1 -> x1) <= 4", "constraint on R needs x strictly inside y"),
        (f"phi(v0 | v0) :- R({SEVENTEEN}).", "more than 16 variables"),
        ("q(x) :- R(x).", "cannot parse rule: 'q(x) :- R(x).'"),
        ("q(x | x) :- R(x), 5.", "cannot parse body at: ' 5'"),
        ("b( | ) :- R(x).\ndc R: size = N^1", "query has no head variables: a yes/no question has no online phase"),
    ],
)
def test_parse_rejects(bad, message):
    with pytest.raises(QueryError, match=f"^{re.escape(message)}$"):
        parse_query(bad)


def test_print_parse_round_trip():
    for path in sorted(CORPUS.glob("*.cqap")):
        q = load_query(path)
        q2 = parse_query(print_query(q))
        assert q2 == q, path.name
    # no corpus query declares a degree bound
    degrees = ["dc R: (x1 -> x1,x2) <= 100", "dc S: (x3 -> x3,x1) <= N^1/2"]
    q = parse_query("\n".join(["phi(x1, x2 | x1) :- R(x1, x2), S(x3, x1).", *degrees]))
    assert print_query(q).splitlines()[1:] == degrees
    assert parse_query(print_query(q)) == q


# ----------------------------------------------------------------------------
# constraint views
# ----------------------------------------------------------------------------


def test_analysis_constraints_self_join_covers_both_atoms():
    q = load_query(CORPUS / "set_disjointness_k2.cqap")
    rows = q.analysis_constraints()
    assert {(r.x, r.y) for r in rows} == {(0, vs(0, 2)), (0, vs(1, 2))}
    assert all(r.log == LogBound(n=Fraction(1)) for r in rows)


def test_analysis_constraints_prefer_smaller_and_exact_logs():
    q = parse_query(
        """
        phi(x1, x2, x3 | x1) :- R(x1, x2), S(x2, x3).
        dc R: size = N^2
        dc R: size = N^1
        dc R: (x1 -> x1,x2) <= 8
        dc R: (x2 -> x1,x2) <= 100
        dc S: (x2 -> x2,x3) <= 1
        dc S: (x3 -> x2,x3) <= 1024
        """
    )
    rows = q.analysis_constraints()
    by_key = {(r.x, r.y): r.log for r in rows}
    assert by_key[(0, vs(0, 1))] == LogBound(n=Fraction(1))
    # a number is O(1) in N, whatever its size: N^0
    for key in [(vs(0), vs(0, 1)), (vs(1), vs(0, 1)), (vs(1), vs(1, 2)), (vs(2), vs(1, 2))]:
        assert by_key[key] == LogBound(), key
    assert len(by_key) == 5


def test_access_constraint_is_symbolic_q():
    q = load_query(CORPUS / "two_reach.cqap")
    ac = q.access_constraint()
    assert ac.x == 0 and ac.y == q.access
    assert ac.log == LogBound(q=Fraction(1))


def test_span_split_constraints_ternary():
    q = parse_query("phi(a, b, c | a) :- R(a, b, c).\ndc R: size = N^1")
    sc = span_split_constraints(q.analysis_constraints())
    assert len(sc) == 12
    assert sum(1 for c in sc if c.y.bit_count() == 2) == 6
    assert all(0 != c.x and c.x & ~c.y == 0 and c.x != c.y for c in sc)
    # every split lies inside a set some cardinality constraint bounds
    cards = [c.y for c in q.analysis_constraints() if c.x == 0]
    assert all(any(c.y & ~z == 0 for z in cards) for c in sc)


def test_span_split_constraints_includes_full_edge():
    q = load_query(CORPUS / "two_reach.cqap")
    sc = span_split_constraints(q.analysis_constraints())
    assert any(c.x == vs(0) and c.y == vs(0, 2) for c in sc)


def test_span_split_constraints_keep_the_smallest_bound_per_pair():
    q = parse_query("phi(a | a) :- R(a, b), S(a, b, c).\ndc R: size = N^1\ndc S: size = N^2")
    sc = span_split_constraints(q.analysis_constraints())
    (ab,) = [c for c in sc if (c.x, c.y) == (vs(0), vs(0, 1))]
    assert ab.log == LogBound(n=Fraction(1))


def test_corpus_split_constraints_repeat_no_pair():
    counts = {}
    for path in sorted(CORPUS.glob("*.cqap")):
        sc = span_split_constraints(load_query(path).analysis_constraints())
        assert len({(c.x, c.y) for c in sc}) == len(sc), path.stem
        counts[path.stem] = len(sc)
    # R and S share {x, y1}, T and U share {x, y2}: four pairs spanned twice
    assert counts["hierarchical"] == 44
