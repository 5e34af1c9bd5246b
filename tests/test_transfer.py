"""Potential transfer: candidate discovery, donor selection, completion."""
import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fglift import (
    BOOL_RANGE,
    BackgroundKnowledge,
    CandidateSet,
    ExperimentConfig,
    Factor,
    FactorGraph,
    PotentialTable,
    RandomVariable,
    Selection,
    canonical_table,
    candidate_sets,
    complete_and_lift,
    compression_ratio,
    indistinguishable,
    initial_colouring,
    possibly_identical,
    generate_instance,
    grouping_report,
    run_colour_passing,
    select_transfer_class,
    tables_equal,
    transfer_report_text,
)
from fglift import colours, transfer
from fglift.tables import table_classes
from conftest import (
    ASYMMETRIC_2x2,
    T1,
    T2,
    T3,
    chain_graph,
    completion_cases,
    epidemic_base,
    epidemic_four,
    epidemic_with_eve,
    eve_dave_bk,
    per_core_rv,
    random_graph,
)


def test_indistinguishable_goldens():
    g = epidemic_with_eve()
    assert indistinguishable(g, "f1_eve", "f1_alice")
    assert indistinguishable(g, "f3_eve", "f3_bob")
    assert indistinguishable(g, "f2_eve_m1", "f2_bob_m2")
    # degree of the shared RV differs between the roles
    assert not indistinguishable(g, "f1_eve", "f2_alice_m1")
    assert not indistinguishable(g, "f3_eve", "f0")


def test_indistinguishable_respects_evidence():
    g = epidemic_with_eve().with_evidence({"Travel.eve": "true"})
    assert not indistinguishable(g, "f3_eve", "f3_alice")
    same = epidemic_with_eve().with_evidence(
        {"Travel.eve": "true", "Travel.alice": "true"}
    )
    assert indistinguishable(same, "f3_eve", "f3_alice")
    other_value = epidemic_with_eve().with_evidence(
        {"Travel.eve": "true", "Travel.alice": "false"}
    )
    assert not indistinguishable(other_value, "f3_eve", "f3_alice")


def test_indistinguishable_is_an_equivalence_relation():
    rng = np.random.default_rng(53)
    for _ in range(6):
        g = random_graph(rng, n_rvs=6, n_factors=6, n_unknown=2)
        fids = g.factor_ids
        rel = {(a, b): indistinguishable(g, a, b) for a in fids for b in fids}
        for a in fids:
            assert rel[(a, a)]
            for b in fids:
                assert rel[(a, b)] == rel[(b, a)]
                for c in fids:
                    if rel[(a, b)] and rel[(b, c)]:
                        assert rel[(a, c)]


def test_possibly_identical():
    g = epidemic_four()
    # unknown factors never contradict a candidate
    assert possibly_identical(g, "f2_eve_m1", "f2_alice_m1")
    assert possibly_identical(g, "f2_eve_m1", "f2_dave_m1")
    # known factors with different tables do
    assert indistinguishable(g, "f2_alice_m1", "f2_dave_m1")
    assert not possibly_identical(g, "f2_alice_m1", "f2_dave_m1")
    assert possibly_identical(g, "f2_alice_m1", "f2_bob_m2")
    # distinguishable factors are never possibly identical
    assert not possibly_identical(g, "f2_eve_m1", "f1_alice")


def test_possibly_identical_with_tolerance():
    jitter = tuple(x * (1.0 + 1e-9) for x in T3)
    g = chain_graph()
    rvs = g.rvs + (RandomVariable("D", BOOL_RANGE), RandomVariable("E", BOOL_RANGE))
    fs = (
        Factor("ua", ("D",), PotentialTable((2,), T3)),
        Factor("ub", ("E",), PotentialTable((2,), jitter)),
    )
    g = FactorGraph(rvs, g.factors + fs)
    assert not possibly_identical(g, "ua", "ub")
    assert possibly_identical(g, "ua", "ub", rtol=1e-6)


def test_candidate_sets_on_eve_graph():
    g = epidemic_with_eve()
    css = candidate_sets(g)
    assert [cs.unknown_factor for cs in css] == [
        "f1_eve",
        "f2_eve_m1",
        "f2_eve_m2",
        "f3_eve",
    ]
    by_id = {cs.unknown_factor: cs for cs in css}
    assert by_id["f1_eve"].candidates == ("f1_alice", "f1_bob")
    assert by_id["f3_eve"].candidates == ("f3_alice", "f3_bob")
    assert by_id["f2_eve_m1"].candidates == (
        "f2_alice_m1",
        "f2_alice_m2",
        "f2_bob_m1",
        "f2_bob_m2",
    )
    # all alike, so one class covering everything
    for cs in css:
        assert cs.classes == (cs.candidates,)
        assert cs.chosen is None


def test_candidate_sets_on_complete_graph():
    assert candidate_sets(epidemic_base()) == []


def test_candidate_sets_split_by_table():
    css = candidate_sets(epidemic_four())
    assert [cs.unknown_factor for cs in css] == ["f2_eve_m1", "f2_eve_m2"]
    for cs in css:
        assert cs.classes == (
            ("f2_alice_m1", "f2_alice_m2", "f2_bob_m1", "f2_bob_m2"),
            ("f2_dave_m1", "f2_dave_m2"),
        )


def test_candidate_set_can_be_empty():
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (Factor("u", ("A",)), Factor("k", ("A", "B"), PotentialTable((2, 2), ASYMMETRIC_2x2))),
    )
    css = candidate_sets(g)
    assert len(css) == 1
    assert css[0].candidates == () and css[0].classes == ()
    assert select_transfer_class(g, css[0], theta=0.0) is None


def _tie_graph():
    """One unknown unary factor plus six known ones, three per table."""
    rvs = tuple(RandomVariable(f"A{i}", BOOL_RANGE) for i in range(7))
    fs = [Factor("u", ("A0",))]
    for i in range(1, 7):
        t = (1.0, 2.0) if i <= 3 else (2.0, 1.0)
        fs.append(Factor(f"k{i}", (f"A{i}",), PotentialTable((2,), t)))
    return FactorGraph(rvs, tuple(fs))


def test_select_transfer_class_threshold_and_ties():
    g = _tie_graph()
    (cs,) = candidate_sets(g)
    assert [len(c) for c in cs.classes] == [3, 3]
    sel = select_transfer_class(g, cs, theta=0.6)
    assert not sel.accepted and sel.alignment is None
    assert sel.ratio == 0.5
    # ties go to the class with the smallest member id
    assert sel.members == ("k1", "k2", "k3")
    assert select_transfer_class(g, cs, theta=0.5).accepted


@pytest.mark.parametrize("theta", [float("nan"), 1.5, -3.0, -1e-3, float("inf")])
def test_theta_outside_unit_interval_is_rejected(theta):
    g = _tie_graph()
    (cs,) = candidate_sets(g)
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
        select_transfer_class(g, cs, theta)
    empty = replace(cs, candidates=(), classes=())
    with pytest.raises(ValueError, match="theta"):
        select_transfer_class(g, empty, theta)
    # also where there is nothing to complete
    for fg in (g, chain_graph()):
        with pytest.raises(ValueError, match="theta"):
            complete_and_lift(fg, theta)


# Each public entry point that takes rtol, called where it would otherwise
# never compare two tables: a graph with no unknowns, an empty candidate set,
# a pair that is not indistinguishable, or an unknown factor.
_RTOL_ENTRY_POINTS = {
    "tables_equal": lambda g, cs, bk, rtol: tables_equal(
        g.factor("f0").table, g.factor("f0").table, rtol
    ),
    "possibly_identical": lambda g, cs, bk, rtol: possibly_identical(g, "f1_alice", "f1_alice", rtol),
    "possibly_identical_unknown": lambda g, cs, bk, rtol: possibly_identical(g, "f2_eve_m1", "f2_eve_m1", rtol),
    "possibly_identical_distinguishable": lambda g, cs, bk, rtol: possibly_identical(g, "f0", "f3_eve", rtol),
    "candidate_sets": lambda g, cs, bk, rtol: candidate_sets(g, rtol),
    "candidate_sets_no_unknowns": lambda g, cs, bk, rtol: candidate_sets(epidemic_base(), rtol),
    "select_transfer_class": lambda g, cs, bk, rtol: select_transfer_class(g, cs, 0.5, bk, rtol),
    "select_transfer_class_empty": lambda g, cs, bk, rtol: select_transfer_class(
        g, replace(cs, candidates=(), classes=()), 0.5, bk, rtol
    ),
    "complete_and_lift": lambda g, cs, bk, rtol: complete_and_lift(g, 0.5, bk, rtol),
    "complete_and_lift_no_unknowns": lambda g, cs, bk, rtol: complete_and_lift(epidemic_base(), 0.5, bk, rtol),
    "initial_colouring": lambda g, cs, bk, rtol: initial_colouring(epidemic_base(), rtol),
    "run_colour_passing": lambda g, cs, bk, rtol: run_colour_passing(epidemic_base(), rtol),
    "table_classes": lambda g, cs, bk, rtol: table_classes([], rtol),
}


@pytest.mark.parametrize("entry", sorted(_RTOL_ENTRY_POINTS))
@pytest.mark.parametrize("with_bk", [False, True], ids=["no_bk", "bk"])
@pytest.mark.parametrize("rtol", [-1.0, float("nan")])
def test_negative_or_nan_rtol_is_rejected_at_every_entry_point(entry, with_bk, rtol):
    g = epidemic_four()
    cs = candidate_sets(g)[0]
    bk = eve_dave_bk() if with_bk else None
    with pytest.raises(ValueError, match="rtol must be non-negative"):
        _RTOL_ENTRY_POINTS[entry](g, cs, bk, rtol)


def test_select_transfer_class_with_background_knowledge():
    g = epidemic_four()
    (cs, _) = candidate_sets(g)
    plain = select_transfer_class(g, cs, theta=0.0)
    assert plain.donor == "f2_alice_m1" and plain.bk_state == "n/a"
    assert plain.ratio == pytest.approx(4 / 6)

    preferred = select_transfer_class(g, cs, theta=0.0, bk=eve_dave_bk())
    assert preferred.donor == "f2_dave_m1" and preferred.bk_state == "yes"
    assert preferred.ratio == pytest.approx(2 / 6)

    # without dave there is no individual mirroring eve's known tables
    bk = BackgroundKnowledge.from_dict(
        {
            "eve": ["f1_eve", "f2_eve_m1", "f2_eve_m2", "f3_eve"],
            "alice": ["f1_alice", "f2_alice_m1", "f2_alice_m2", "f3_alice"],
            "bob": ["f1_bob", "f2_bob_m1", "f2_bob_m2", "f3_bob"],
        }
    )
    fallback = select_transfer_class(g, cs, theta=0.0, bk=bk)
    assert fallback.donor == "f2_alice_m1" and fallback.bk_state == "no"


def test_background_knowledge_ignored_for_unlisted_factors():
    g = epidemic_four()
    (cs, _) = candidate_sets(g)
    bk = BackgroundKnowledge.from_dict({"dave": ["f1_dave"]})
    sel = select_transfer_class(g, cs, theta=0.0, bk=bk)
    assert sel.bk_state == "n/a" and sel.donor == "f2_alice_m1"


def test_transfer_aligns_permuted_arguments():
    t = PotentialTable((2, 2), ASYMMETRIC_2x2)
    unary = PotentialTable((2,), (1.0, 3.0))
    rvs = tuple(
        RandomVariable(n, BOOL_RANGE) for n in ("X1", "Y1", "X2", "Y2")
    )
    fs = (
        Factor("hx1", ("X1",), unary),
        Factor("hx2", ("X2",), unary),
        Factor("k", ("X1", "Y1"), t),
        Factor("w", ("Y2", "X2")),  # same shape, arguments listed the other way
    )
    g = FactorGraph(rvs, fs)
    res = complete_and_lift(g, theta=0.0)
    sel = res.report.rows[0].chosen
    assert sel.donor == "k" and sel.alignment == (1, 0)
    assert res.completed.factor("w").table == PotentialTable.from_array(t.array.T)
    assert res.report.unresolved == ()


def test_complete_and_lift_recovers_ground_truth():
    g = epidemic_with_eve()
    res = complete_and_lift(g, theta=0.0)
    assert res.completed.is_complete
    assert res.completed.factor("f1_eve").table == PotentialTable((2, 2, 2), T1)
    assert res.completed.factor("f2_eve_m1").table == PotentialTable((2, 2, 2), T2)
    assert res.completed.factor("f2_eve_m2").table == PotentialTable((2, 2, 2), T2)
    assert res.completed.factor("f3_eve").table == PotentialTable((2,), T3)
    assert res.report.unresolved == ()
    assert len(res.report.rows) == 4
    # the original graph is untouched
    assert g.unknown_factor_ids == ("f1_eve", "f2_eve_m1", "f2_eve_m2", "f3_eve")

    assert len(res.grouping.rv_classes) == 4
    assert len(res.grouping.factor_classes) == 4
    assert res.grouping.factor_partition() == frozenset(
        {
            frozenset({"f0"}),
            frozenset({"f1_alice", "f1_bob", "f1_eve"}),
            frozenset(
                {
                    "f2_alice_m1",
                    "f2_alice_m2",
                    "f2_bob_m1",
                    "f2_bob_m2",
                    "f2_eve_m1",
                    "f2_eve_m2",
                }
            ),
            frozenset({"f3_alice", "f3_bob", "f3_eve"}),
        }
    )
    assert compression_ratio(res.grouping, res.completed) == (4 / 13, 4 / 13)


def test_complete_and_lift_unanimous_candidates_pass_any_theta():
    res = complete_and_lift(epidemic_with_eve(), theta=1.0)
    assert res.completed.is_complete and res.report.unresolved == ()


def test_complete_and_lift_threshold_leaves_unknowns_grouped():
    g = epidemic_four()
    res = complete_and_lift(g, theta=0.5, bk=eve_dave_bk())
    assert res.report.unresolved == ("f2_eve_m1", "f2_eve_m2")
    assert not res.completed.is_complete
    # the two unresolved factors are indistinguishable, so they share a class
    assert frozenset({"f2_eve_m1", "f2_eve_m2"}) in res.grouping.factor_partition()


def test_complete_and_lift_with_background_knowledge_merges_mirror():
    g = epidemic_four()
    res = complete_and_lift(g, theta=0.0, bk=eve_dave_bk())
    from conftest import T2P

    assert res.completed.factor("f2_eve_m1").table == PotentialTable((2, 2, 2), T2P)
    assert frozenset(
        {"f2_dave_m1", "f2_dave_m2", "f2_eve_m1", "f2_eve_m2"}
    ) in res.grouping.factor_partition()
    assert len(res.grouping.factor_classes) == 7


def test_unresolvable_factor_is_reported():
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (Factor("u", ("A",)), Factor("k", ("A", "B"), PotentialTable((2, 2), ASYMMETRIC_2x2))),
    )
    res = complete_and_lift(g, theta=0.0)
    assert res.report.unresolved == ("u",)
    assert transfer_report_text(res.report) == (
        "unknown u candidates=0 classes=- chosen=none ratio=0 bk=n/a\n"
    )


def test_a_donor_of_the_wrong_shape_is_rejected_before_completion():
    # completion would copy k's (3,) table onto the Boolean u as it stands
    with pytest.raises(ValueError, match=r"factor 'k': table shape \(3,\) != argument ranges \(2,\)"):
        FactorGraph(
            (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
            (Factor("k", ("A",), PotentialTable((3,), (1.0, 2.0, 3.0))), Factor("u", ("B",))),
        )


def test_transfer_report_text_goldens():
    g = epidemic_four()
    assert transfer_report_text(complete_and_lift(g, theta=0.0).report) == (
        "unknown f2_eve_m1 candidates=6 classes=4,2 chosen=f2_alice_m1 ratio=0.666667 bk=n/a\n"
        "unknown f2_eve_m2 candidates=6 classes=4,2 chosen=f2_alice_m1 ratio=0.666667 bk=n/a\n"
    )
    assert transfer_report_text(
        complete_and_lift(g, theta=0.0, bk=eve_dave_bk()).report
    ) == (
        "unknown f2_eve_m1 candidates=6 classes=4,2 chosen=f2_dave_m1 ratio=0.333333 bk=yes\n"
        "unknown f2_eve_m2 candidates=6 classes=4,2 chosen=f2_dave_m1 ratio=0.333333 bk=yes\n"
    )
    # a rejected selection prints chosen=none but keeps the ratio
    rejected = complete_and_lift(g, theta=0.9).report
    assert transfer_report_text(rejected) == (
        "unknown f2_eve_m1 candidates=6 classes=4,2 chosen=none ratio=0.666667 bk=n/a\n"
        "unknown f2_eve_m2 candidates=6 classes=4,2 chosen=none ratio=0.666667 bk=n/a\n"
    )
    assert transfer_report_text(complete_and_lift(epidemic_base(), theta=0.0).report) == ""


def test_completion_is_deterministic():
    from fglift import serialize_model

    a = complete_and_lift(epidemic_four(), theta=0.0, bk=eve_dave_bk())
    b = complete_and_lift(epidemic_four(), theta=0.0, bk=eve_dave_bk())
    assert serialize_model(a.completed) == serialize_model(b.completed)
    assert a.grouping == b.grouping


# -- key-based completion against the pairwise definitions ----------------------


def _oracle_profile(fg, fid):
    f = fg.factor(fid)
    triples = []
    for arg in f.args:
        rv = fg.rv(arg)
        triples.append(
            (rv.evidence is not None, rv.evidence or "", rv.range.values, fg.degree(arg))
        )
    return len(f.args), sorted(triples)


def _oracle_classes(fg, rtol):
    """Class of each known factor, as a set of ids: every pair of known
    factors compared, and the classes of each matching pair merged."""
    canon = {f.id: canonical_table(f.table) for f in fg.factors if not f.is_unknown}
    class_of = {fid: frozenset([fid]) for fid in canon}
    for a in canon:
        for b in canon:
            if class_of[a] != class_of[b] and tables_equal(canon[a], canon[b], rtol):
                merged = class_of[a] | class_of[b]
                class_of.update((m, merged) for m in merged)
    return class_of


def _oracle_candidate_sets(fg, rtol):
    """Every (unknown, known) pair compared; candidates split by their class."""
    class_of = _oracle_classes(fg, rtol)
    out = []
    for uid in sorted(fg.unknown_factor_ids):
        cands = sorted(k for k in class_of if _oracle_profile(fg, uid) == _oracle_profile(fg, k))
        groups = {}
        for fid in cands:
            groups.setdefault(class_of[fid], []).append(fid)
        classes = sorted((tuple(m) for m in groups.values()), key=lambda c: (-len(c), c))
        out.append(CandidateSet(uid, tuple(cands), tuple(classes)))
    return out


def _oracle_mirrors(fg, uid, bk, rtol):
    """Every individual mirroring the unknown's own, by a full scan; None if it has none."""
    own = bk.individual_of(uid)
    if own is None:
        return None

    def known(fids):
        return [g for g in fids if fg.has_factor(g) and not fg.factor(g).is_unknown]

    class_of = _oracle_classes(fg, rtol)
    return [
        frozenset(fids)
        for other, fids in bk.groups
        if other != own
        and all(
            any(class_of[fl] == class_of[g] for g in known(fids))
            for fl in known(bk.factors_of(own))
        )
    ]


def _oracle_rows(fg, theta, bk, rtol):
    rows = []
    for cs in _oracle_candidate_sets(fg, rtol):
        sel = None
        if cs.candidates:
            pool, state = cs.classes, "n/a"
            mirrors = None if bk is None else _oracle_mirrors(fg, cs.unknown_factor, bk, rtol)
            if mirrors is not None:
                mirror = mirrors[0] if len(mirrors) == 1 else frozenset()
                supported = tuple(c for c in cs.classes if set(c) & mirror)
                pool, state = (supported, "yes") if supported else (pool, "no")
            chosen = pool[0]
            ratio = len(chosen) / len(cs.candidates)
            alignment = (
                transfer._transfer_alignment(fg, chosen[0], cs.unknown_factor)
                if ratio >= theta
                else None
            )
            sel = Selection(chosen, ratio, ratio >= theta, state, alignment)
        rows.append(replace(cs, chosen=sel))
    return rows


def test_key_based_completion_matches_pairwise_scan():
    rng = np.random.default_rng(2024)
    mirror_counts = set()
    for fg, bk, theta in completion_cases(rng):
        for rtol in (0.0, 1e-6):
            assert candidate_sets(fg, rtol) == _oracle_candidate_sets(fg, rtol)
            expected = _oracle_rows(fg, theta, bk, rtol)
            result = complete_and_lift(fg, theta, bk, rtol)
            rows = result.report.rows
            assert list(rows) == expected
            for row in rows:
                alone = select_transfer_class(fg, replace(row, chosen=None), theta, bk, rtol)
                assert alone == row.chosen
                if bk is not None:
                    mirrors = _oracle_mirrors(fg, row.unknown_factor, bk, rtol)
                    if mirrors is not None:
                        mirror_counts.add(min(len(mirrors), 2))
            factors = list(fg.factors)
            rng.shuffle(factors)
            shuffled = complete_and_lift(FactorGraph(fg.rvs, factors), theta, bk, rtol)
            assert shuffled.report == result.report and shuffled.grouping == result.grouping
    assert mirror_counts == {0, 1, 2}


def test_completion_cost_is_linear_in_known_factors(monkeypatch):
    """rtol 0: no table comparison and at most one canonicalisation per
    distinct known table, before colour passing takes over the completed
    graph. Each run gets a fresh graph, since table classes are kept per graph."""
    cfg = ExperimentConfig(
        d=64, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=1
    )
    incomplete = generate_instance(cfg).incomplete
    n_tables = len({f.table for f in incomplete.factors if not f.is_unknown})
    for bk in (None, per_core_rv(incomplete)):
        fg = FactorGraph(incomplete.rvs, incomplete.factors)
        calls = Counter()
        counting = [True]

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += counting[0]
                return fn(*args, **kwargs)

            return wrapper

        def uncounted(fn):
            def wrapper(*args, **kwargs):
                counting[0] = False
                try:
                    return fn(*args, **kwargs)
                finally:
                    counting[0] = True

            return wrapper

        with monkeypatch.context() as m:
            for module in (transfer, colours):
                m.setattr(module, "canonical_info", counted("canonical", module.canonical_info))
                m.setattr(module, "canonical_table", counted("canonical", module.canonical_table))
                m.setattr(module, "tables_equal", counted("equal", module.tables_equal))
            m.setattr(transfer, "run_colour_passing", uncounted(transfer.run_colour_passing))
            result = complete_and_lift(fg, 0.0, bk, 0.0)
        assert not result.report.unresolved
        assert calls["equal"] == 0
        assert 0 < calls["canonical"] <= n_tables < len(fg.factors) - len(fg.unknown_factor_ids)


def _near_tables_graph(order):
    """Unary tables fa, fb, fc, each 0.9e-6 from the next, so that only
    neighbours lie within rtol 1e-6, plus one unknown unary factor; the
    known factors enter in ``order``."""
    near = {
        f"f{c}": PotentialTable((2,), (1.0 + k * 9e-7, 2.0 + k * 1.8e-6))
        for k, c in enumerate("abc")
    }
    factors = [Factor(fid, (f"X{fid}",), near[fid]) for fid in order] + [Factor("u", ("Xu",))]
    return FactorGraph(tuple(RandomVariable(f"X{f.id}", BOOL_RANGE) for f in factors), factors)


def test_tolerance_classes_do_not_depend_on_insertion_order():
    colourings, sets, completions = [], [], []
    for order in itertools.permutations(["fa", "fb", "fc"]):
        g = _near_tables_graph(order)
        assert tables_equal(g.factor("fa").table, g.factor("fb").table, 1e-6)
        assert not tables_equal(g.factor("fa").table, g.factor("fc").table, 1e-6)
        colourings.append(initial_colouring(g, 1e-6, {"u": 0}))
        sets.append(candidate_sets(g, 1e-6))
        result = complete_and_lift(g, 0.0, None, 1e-6)
        completions.append((result.report, result.grouping))
    assert all(c == colourings[0] for c in colourings)
    assert all(cs == sets[0] for cs in sets)
    assert all(c == completions[0] for c in completions)
    # the chain closes into one class, and the unknown joins all its donors
    assert sets[0][0].classes == (("fa", "fb", "fc"),)
    report, grouping = completions[0]
    donors = set(report.rows[0].chosen.members)
    assert any(donors | {"u"} <= c for c in grouping.factor_partition())


def test_grouping_report_flags_classes_merged_within_rtol():
    g = _near_tables_graph(["fa", "fb", "fc"])
    loose = complete_and_lift(g, 0.0, None, 1e-6)
    report = grouping_report(loose.grouping, loose.completed)
    assert report.splitlines()[-1].endswith("members=fa,fb,fc,u exact=no")
    assert report.replace(" exact=no", "") == grouping_report(loose.grouping)
    # identical tables, at either rtol, and rtol 0 leave the report as it was
    exact = complete_and_lift(g, 0.0, None, 0.0)
    assert grouping_report(exact.grouping, exact.completed) == grouping_report(exact.grouping)
    truth = complete_and_lift(epidemic_four(), 0.0, eve_dave_bk(), 1e-6)
    assert "exact=no" not in grouping_report(truth.grouping, truth.completed)


def test_selection_alone_matches_completion_with_table_classes_built_once(monkeypatch):
    cfg = ExperimentConfig(
        d=64, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=2
    )
    generated = generate_instance(cfg).incomplete
    states = set()
    for incomplete, bk in ((generated, per_core_rv(generated)), (epidemic_four(), eve_dave_bk())):
        for rtol in (0.0, 1e-6):
            built = Counter()

            def counted(keys, rtol):
                built[rtol] += 1
                return table_classes(keys, rtol)

            monkeypatch.setattr(colours, "table_classes", counted)
            fg = FactorGraph(incomplete.rvs, incomplete.factors)
            rows = [
                replace(cs, chosen=select_transfer_class(fg, cs, 0.0, bk, rtol))
                for cs in candidate_sets(fg, rtol)
            ]
            assert built == {rtol: 1}
            result = complete_and_lift(fg, 0.0, bk, rtol)
            assert tuple(rows) == result.report.rows
            states |= {row.chosen.bk_state for row in rows}
            # one more for the completed graph
            assert built == {rtol: 2}
            with pytest.raises(TypeError):
                colours.known_table_classes(fg, rtol)[fg.factors[0].id] = None
    assert states == {"yes", "no"}


def _first_appearance_tags(fg, unresolved):
    """Unknown tags numbered by the first appearance of each neighbour profile
    among all unknown factors in id order, kept for the unresolved ones only:
    the integer tags completion passed to colour passing before it passed the
    profiles themselves."""
    numbers, profile = {}, transfer._argument_profiles
    tags = {
        uid: numbers.setdefault(transfer._neighbour_profile(profile(fg, uid)), len(numbers))
        for uid in sorted(fg.unknown_factor_ids)
    }
    return {uid: tags[uid] for uid in unresolved}


def test_profile_tags_group_unresolved_unknowns_as_numbered_tags():
    rng = np.random.default_rng(613)
    unresolved = shared = 0
    for trial in range(150):
        fg = random_graph(
            rng, n_rvs=5 + trial % 5, n_factors=6 + trial % 7, max_arity=2 + trial % 3,
            pool_size=2 + trial % 2, evidence_frac=0.3 * (trial % 2), n_unknown=1 + trial % 5,
        )
        for theta in (0.6, 0.8, 1.0):
            rtol = 1e-6 if trial % 3 == 0 else 0.0
            res = complete_and_lift(fg, theta, None, rtol)
            tags = _first_appearance_tags(fg, res.report.unresolved)
            assert res.grouping == run_colour_passing(res.completed, rtol, tags)
            unresolved += len(tags)
            shared += len(tags) - len(set(tags.values()))
    assert unresolved > 500 and shared > 30
