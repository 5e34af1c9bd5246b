"""Core model types, structural validation, and the exact joint distribution."""
import numpy as np
import pytest

from fglift import (
    BOOL_RANGE,
    BackgroundKnowledge,
    Factor,
    FactorGraph,
    PotentialTable,
    RandomVariable,
    RangeSpec,
    StateSpaceTooLarge,
    UnknownFactorPresent,
    UnknownNode,
    joint_distribution,
    state_space_size,
    validate,
    validate_background,
)
from conftest import (
    ASYMMETRIC_2x2,
    SYMMETRIC_2x2,
    chain_graph,
    epidemic_four,
    eve_dave_bk,
    malformed_graphs,
    oracle_joint,
    random_graph,
)


def test_range_spec_basics():
    r = RangeSpec(("low", "mid", "high"))
    assert len(r) == 3
    assert r.index("mid") == 1
    assert "high" in r and "huge" not in r
    # value order is part of the identity
    assert RangeSpec(("a", "b")) != RangeSpec(("b", "a"))
    assert BOOL_RANGE.values == ("false", "true")
    assert RangeSpec(("a", 1)).values == ("a", "1")  # values coerce to str


@pytest.mark.parametrize("values", [(), ("only",), ("a", "a"), ("a", "")])
def test_range_spec_rejects(values):
    with pytest.raises(ValueError):
        RangeSpec(values)


def test_range_spec_rejects_one_string():
    # a bare string would be split into one-character values
    with pytest.raises(TypeError, match="not one string 'yes'"):
        RangeSpec("yes")
    with pytest.raises(TypeError):
        RandomVariable("A", RangeSpec("ab"))


def test_factor_unknown_flag():
    known = Factor("f", ("A",), PotentialTable((2,), (1.0, 2.0)))
    unknown = Factor("g", ("A", "B"))
    assert not known.is_unknown
    assert unknown.is_unknown
    assert unknown.args == ("A", "B")


def test_one_string_is_not_a_sequence_of_ids():
    # a str is a sequence of one-character ids, which is never what is meant
    with pytest.raises(TypeError, match="factor 'f': args must be a sequence of RV ids"):
        Factor("f", "AB")
    with pytest.raises(TypeError, match="individual 'eve': factors must be a sequence"):
        BackgroundKnowledge.from_dict({"eve": "f1"})


def test_graph_lookups():
    g = chain_graph()
    assert g.rv_ids == ("A", "B", "C")
    assert g.factor_ids == ("f1", "f2")
    assert g.has_rv("A") and not g.has_rv("f1")
    assert g.has_factor("f2") and not g.has_factor("B")
    assert g.rv("B").range is BOOL_RANGE
    assert g.factors_of("B") == ("f1", "f2")
    assert g.degree("B") == 2 and g.degree("A") == 1
    assert g.unknown_factor_ids == ()
    assert g.is_complete
    for bad in (g.rv, g.factors_of, g.degree):
        with pytest.raises(UnknownNode):
            bad("nope")
    with pytest.raises(UnknownNode):
        g.factor("nope")


def test_degree_counts_parallel_factors_once_each():
    t = PotentialTable((2, 2), ASYMMETRIC_2x2)
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (Factor("f", ("A", "B"), t), Factor("g", ("B",)), Factor("h", ("B", "A"), t)),
    )
    assert g.factors_of("A") == ("f", "h") and g.degree("A") == 2
    assert g.factors_of("B") == ("f", "g", "h") and g.degree("B") == 3
    # a repeated argument, which would count one factor twice, cannot be built
    with pytest.raises(ValueError, match="factor 'f' repeats arguments"):
        Factor("f", ("A", "A", "B"), PotentialTable((2, 2, 2), range(1, 9)))


def _forest_by_union_find(fg):
    """Reference: add the edges one at a time; one closing a cycle joins
    two nodes that already share a root."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for f in fg.factors:
        for a in f.args:
            ra, rf = find(("rv", a)), find(("factor", f.id))
            if ra == rf:
                return False
            parent[ra] = rf
    return True


def test_is_forest_matches_a_union_find_reference():
    rng = np.random.default_rng(503)
    forests = 0
    for _ in range(400):
        g = random_graph(
            rng, n_rvs=int(rng.integers(1, 10)), n_factors=int(rng.integers(0, 10)), max_arity=3
        )
        assert g.incidence.is_forest == _forest_by_union_find(g)
        forests += g.incidence.is_forest
    assert 50 < forests < 350
    # long chains, numbered from either end, then closed into a cycle
    for ids in (range(300), range(299, -1, -1)):
        rvs = [RandomVariable(f"x{i}", BOOL_RANGE) for i in ids]
        chain = [Factor(f"f{i}", (f"x{i}", f"x{i + 1}")) for i in range(299)]
        assert FactorGraph(rvs, chain).incidence.is_forest
        assert not FactorGraph(rvs, chain + [Factor("c", ("x299", "x0"))]).incidence.is_forest
    # parallel factors close a cycle; the empty graph is a forest
    t = PotentialTable((2, 2), ASYMMETRIC_2x2)
    ab = (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE))
    assert not FactorGraph(ab, (Factor("f", ("A", "B"), t), Factor("h", ("B", "A"), t))).incidence.is_forest
    assert FactorGraph((), ()).incidence.is_forest


def test_with_tables_fills_unknowns_without_mutating():
    rvs = (RandomVariable("A", BOOL_RANGE),)
    g = FactorGraph(rvs, (Factor("f", ("A",)),))
    assert not g.is_complete
    t = PotentialTable((2,), (1.0, 3.0))
    g2 = g.with_tables({"f": t})
    assert g2.is_complete and g2.factor("f").table == t
    assert g.factor("f").table is None


@pytest.mark.parametrize("target", ["nosuch", "A"])
def test_with_tables_rejects_ids_that_are_not_factors(target):
    g = FactorGraph((RandomVariable("A", BOOL_RANGE),), (Factor("f", ("A",)),))
    t = PotentialTable((2,), (1.0, 3.0))
    with pytest.raises(UnknownNode, match=repr(target)):
        g.with_tables({"f": t, target: t})


def test_with_tables_rejects_a_table_of_the_wrong_shape():
    g = FactorGraph((RandomVariable("A", BOOL_RANGE),), (Factor("f", ("A",)),))
    with pytest.raises(ValueError, match=r"factor 'f': table shape \(3,\) != argument ranges \(2,\)"):
        g.with_tables({"f": PotentialTable((3,), (1.0, 2.0, 3.0))})
    with pytest.raises(ValueError, match="factor 'f': table arity 2 != 1 arguments"):
        g.with_tables({"f": PotentialTable((2, 2), ASYMMETRIC_2x2)})


def test_with_evidence_set_clear_and_reject():
    g = chain_graph()
    g2 = g.with_evidence({"A": "true"})
    assert g2.rv("A").evidence == "true"
    assert g.rv("A").evidence is None
    g3 = g2.with_evidence({"A": None})
    assert g3.rv("A").evidence is None
    with pytest.raises(ValueError, match="evidence 'maybe' not in range of 'A'"):
        g.with_evidence({"A": "maybe"})
    with pytest.raises(UnknownNode):
        g.with_evidence({"Z": "true"})


def test_validate_clean_graphs():
    assert validate(chain_graph()) == []
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert validate(random_graph(rng, n_unknown=2)) == []


def _kinds(fg):
    return sorted(v.kind for v in validate(fg))


def test_constructor_rejects_duplicate_ids():
    a, b = RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)
    unary = Factor("f", ("A",), PotentialTable((2,), (1.0, 1.0)))
    pair = Factor("f", ("A", "B"), PotentialTable((2, 2), ASYMMETRIC_2x2))
    three = RandomVariable("A", RangeSpec(("x", "y", "z")))
    cases = [
        ((a, a), (unary,)),
        ((a, b, three), (pair,)),  # once Boolean, once 3-valued
        ((a, b), (unary, pair)),  # two factors named f
        ((a,), (Factor("A", ("A",), unary.table),)),  # an RV and a factor
    ]
    for rvs, factors in cases:
        with pytest.raises(ValueError, match="node id '(A|f)' used more than once"):
            FactorGraph(rvs, factors)


def test_rv_rejects_evidence_outside_its_range():
    with pytest.raises(ValueError, match="evidence 'nope' not in range of 'A'"):
        RandomVariable("A", BOOL_RANGE, evidence="nope")
    assert RandomVariable("A", BOOL_RANGE, evidence="true").evidence == "true"


def test_constructors_reject_malformed_graphs():
    for build, error, message in malformed_graphs():
        with pytest.raises(error, match=message):
            build()


def test_validate_table_problems():
    a = RandomVariable("A", BOOL_RANGE)
    for bad in ((0.0, 1.0), (-1.0, 1.0), (float("inf"), 1.0), (float("nan"), 1.0)):
        f = Factor("f", ("A",), PotentialTable((2,), bad))
        assert _kinds(FactorGraph((a,), (f,))) == ["non-positive-potential"]


def test_state_space_size():
    assert state_space_size(chain_graph()) == 8
    g = FactorGraph((RandomVariable("X", RangeSpec(("a", "b", "c"))),), ())
    assert state_space_size(g) == 3


def test_joint_single_unary_factor():
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE),),
        (Factor("f", ("A",), PotentialTable((2,), (1.0, 3.0))),),
    )
    assert np.allclose(joint_distribution(g), (0.25, 0.75))


def test_joint_independent_uniform():
    rvs = (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE))
    fs = tuple(
        Factor(f"f{i}", (rv.id,), PotentialTable((2,), (2.0, 2.0)))
        for i, rv in enumerate(rvs)
    )
    assert np.allclose(joint_distribution(FactorGraph(rvs, fs)), np.full((2, 2), 0.25))


def test_joint_chain_frozen_values():
    # weights of the symmetric chain sum to 89; P(A=B=C=false) = 2*2/89
    j = joint_distribution(chain_graph())
    assert j.shape == (2, 2, 2)
    assert j[0, 0, 0] == pytest.approx(4 / 89, rel=1e-15)
    assert j[1, 1, 1] == pytest.approx(25 / 89, rel=1e-15)
    assert np.allclose(j.sum(axis=(0, 2)), (25 / 89, 64 / 89))


def test_joint_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = random_graph(rng)
        j = joint_distribution(g)
        _, probs = oracle_joint(g)
        assert all(abs(j[a] - p) <= 1e-12 for a, p in probs.items())


def test_joint_ignores_table_scaling():
    g = chain_graph()
    scaled = g.with_tables(
        {
            "f1": PotentialTable((2, 2), tuple(7.0 * x for x in SYMMETRIC_2x2)),
            "f2": PotentialTable((2, 2), tuple(0.001 * x for x in SYMMETRIC_2x2)),
        }
    )
    assert np.allclose(joint_distribution(g), joint_distribution(scaled), atol=1e-12)


def test_joint_refuses_unknowns_and_large_graphs():
    g = FactorGraph((RandomVariable("A", BOOL_RANGE),), (Factor("f", ("A",)),))
    with pytest.raises(UnknownFactorPresent):
        joint_distribution(g)
    with pytest.raises(StateSpaceTooLarge):
        joint_distribution(FactorGraph((RandomVariable(f"x{i}", BOOL_RANGE) for i in range(21)), ()))


def test_background_knowledge_lookup():
    bk = eve_dave_bk()
    assert bk.individual_ids == ("eve", "dave")  # insertion order
    assert "f2_eve_m1" in bk.factors_of("eve")
    assert bk.individual_of("f1_dave") == "dave"
    assert bk.individual_of("f0") is None
    with pytest.raises(UnknownNode):
        bk.factors_of("mallory")


def test_validate_background():
    g = epidemic_four()
    assert validate_background(g, eve_dave_bk()) == []
    bad = BackgroundKnowledge.from_dict({"eve": ["f1_eve", "ghost"]})
    assert [v.kind for v in validate_background(g, bad)] == ["bk-unknown-factor"]
    overlap = BackgroundKnowledge.from_dict({"a": ["f1_eve"], "b": ["f1_eve"]})
    assert [v.kind for v in validate_background(g, overlap)] == ["bk-overlap"]
