"""Text formats: parse/serialize round trips and malformed-input reporting."""
import numpy as np
import pytest

from fglift import (
    ParseError,
    PotentialTable,
    RangeSpec,
    parse_background,
    parse_evidence,
    parse_model,
    parse_queries,
    serialize_background,
    serialize_evidence,
    serialize_model,
    serialize_queries,
)
from conftest import epidemic_four, epidemic_with_eve, eve_dave_bk, random_graph

MODEL = """\
# a two-variable model
rv A false,true
rv B low,mid,high   # trailing comment
factor f known A,B 1,2,3,4,5,6
factor g unknown B
"""


def test_parse_model_basics():
    g = parse_model(MODEL)
    assert g.rv_ids == ("A", "B")
    assert g.rv("B").range.values == ("low", "mid", "high")
    f = g.factor("f")
    assert f.args == ("A", "B")
    assert f.table == PotentialTable((2, 3), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    assert g.factor("g").is_unknown
    assert g.unknown_factor_ids == ("g",)


def test_parse_model_empty_text():
    g = parse_model("# nothing but comments\n\n")
    assert g.rvs == () and g.factors == ()


def test_model_round_trip_is_bit_exact():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_graph(rng, n_unknown=2)
        text = serialize_model(g)
        back = parse_model(text)
        assert back.rv_ids == g.rv_ids
        assert back.factor_ids == g.factor_ids
        for f in g.factors:
            assert back.factor(f.id).args == f.args
            assert back.factor(f.id).table == f.table  # None == None for unknowns
        assert serialize_model(back) == text


def test_model_round_trip_awkward_floats():
    # 0.1 and 1/3 have no short decimal form; 17 digits must reproduce them
    g = parse_model(f"rv A false,true\nfactor f known A {0.1!r},{1 / 3!r}\n")
    t = parse_model(serialize_model(g)).factor("f").table
    assert t.entries == (0.1, 1 / 3)


def test_serialize_omits_evidence():
    g = parse_model(MODEL)
    observed = g.with_evidence({"A": "true"})
    assert serialize_model(observed) == serialize_model(g)
    assert parse_model(serialize_model(observed)).rv("A").evidence is None


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("rv A\n", 1, "expected 'rv"),
        ("rv A false,true\nrv A x,y\n", 2, "duplicate"),
        ("rv A false\n", 1, "at least two"),
        ("rv A false,,true\n", 1, "empty entry"),
        ("factor f known A 1,2\n", 1, "undeclared"),
        ("rv A false,true\nfactor f unknown A,Z\n", 2, "undeclared RV 'Z'"),
        ("rv A false,true\nfactor f maybe Y,A,Z 1,2\n", 2, "factor 'f' references undeclared RV 'Y'"),
        ("rv A false,true\nfactor f known A,A 1,2,3,4\n", 2, "repeats"),
        ("rv A false,true\nfactor f known A 1,2,3\n", 2, "needs 2 entries"),
        ("rv A false,true\nfactor f known A 1,x\n", 2, "non-numeric"),
        ("rv A false,true\nfactor f unknown A 1,2\n", 2, "no entries"),
        ("rv A false,true\nfactor f maybe A 1,2\n", 2, "'known' or 'unknown'"),
        ("rv A false,true\nfactor f known A\n", 2, "factor"),
        ("widget w\n", 1, "unrecognised"),
        ("rv A false,true\nfactor A known A 1,2\n", 2, "duplicate"),
    ],
)
def test_parse_model_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)


def test_serialize_rejects_unwritable_names():
    g = parse_model("rv A false,true\n")
    from fglift import Factor, FactorGraph, RandomVariable

    bad = FactorGraph(
        tuple(g.rvs) + (RandomVariable("has space", g.rv("A").range),), g.factors
    )
    with pytest.raises(ValueError):
        serialize_model(bad)
    comma = FactorGraph((RandomVariable("a,b", g.rv("A").range),), ())
    with pytest.raises(ValueError):
        serialize_model(comma)
    # a range is checked where it first appears, whichever RVs share it
    spaced = RangeSpec(("no", "a b"))
    shared = FactorGraph((RandomVariable("x y", spaced), RandomVariable("z", spaced)), ())
    with pytest.raises(ValueError, match="rv name 'x y'"):
        serialize_model(shared)
    with pytest.raises(ValueError, match="range value 'a b'"):
        serialize_model(FactorGraph(shared.rvs[1:], ()))


def test_evidence_round_trip():
    ev = {"B": "mid", "A": "false"}
    text = serialize_evidence(ev)
    assert text == "A false\nB mid\n"  # sorted by RV
    assert parse_evidence(text) == ev
    assert parse_evidence("") == {}
    assert serialize_evidence({}) == ""


def test_evidence_duplicates():
    assert parse_evidence("A true\nA true\n") == {"A": "true"}
    with pytest.raises(ParseError) as exc:
        parse_evidence("A true\nA false\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_evidence("A\n")


def test_background_round_trip():
    bk = eve_dave_bk()
    text = serialize_background(bk)
    back = parse_background(text)
    assert back == bk
    assert serialize_background(back) == text
    assert parse_background("") .groups == ()


def test_background_errors():
    with pytest.raises(ParseError) as exc:
        parse_background("individual eve f1\nindividual eve f2\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_background("person eve f1\n")
    # factor ids are deduplicated and sorted inside a group
    bk = parse_background("individual eve b,a,b\n")
    assert bk.groups == (("eve", ("a", "b")),)


def test_queries_round_trip():
    qs = ["Epid", "Sick.eve"]
    text = serialize_queries(qs)
    assert text == "Epid\nSick.eve\n"
    assert parse_queries(text) == qs
    assert parse_queries("# none\n") == []
    with pytest.raises(ParseError):
        parse_queries("two tokens\n")


def test_round_trip_of_fixture_graphs():
    for g in (epidemic_with_eve(), epidemic_four()):
        back = parse_model(serialize_model(g))
        assert back.rv_ids == g.rv_ids
        assert back.factor_ids == g.factor_ids
        assert back.unknown_factor_ids == g.unknown_factor_ids
        for f in g.factors:
            assert back.factor(f.id).table == f.table
