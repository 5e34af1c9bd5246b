"""Colour passing: initial colours, refinement, groupings, grounded checks.

The chain and epidemic fixtures have hand-derived partitions; the random
graphs are checked against invariants instead (soundness of classes,
insertion-order and relabelling invariance, grounded reconstruction). Four
reference implementations are kept here: colour passing that reads argument
positions through canonical slots, slot blocks and the inverse permutation,
with a fixpoint that compares whole partitions (the library must give the
same colour ids and groupings), initial colours numbered by separate
group-and-number loops for RVs, known factors and tags (the library must
give the same colour ids), a grounded check that compares the two
enumerated joints, and one that rebuilds every member from its class table
by an alignment computed here (the library's canonical-key check, and the
``exact=no`` flags of its report, must agree with both). The library's own
round loop (``refine_to_fixpoint``), checked against the first reference,
is in turn the reference for the splitter worklist that
``run_colour_passing`` and evidence refinement run: their groupings must
be the same, tables included.
"""
import numpy as np
import pytest

from fglift import (
    BOOL_RANGE,
    ExperimentConfig,
    Factor,
    FactorGraph,
    PotentialTable,
    RandomVariable,
    RangeSpec,
    StateSpaceTooLarge,
    UnknownFactorPresent,
    UnknownNode,
    canonical_info,
    canonical_table,
    colour_passing_step,
    complete_and_lift,
    compression_ratio,
    generate_instance,
    grounded_equivalence_check,
    grouping_from_colouring,
    grouping_report,
    initial_colouring,
    joint_distribution,
    refine_to_fixpoint,
    run_colour_passing,
    state_space_size,
    tables_equal,
)
from fglift import transfer
from fglift.colours import Colouring, FactorClass, Grouping, _grouping, _stable_colours
from fglift.inference import _ground_marginals
from fglift.synth import max_cohorts
from fglift.tables import MAX_CANONICAL_ARITY, invert_axes
from conftest import (
    ASYMMETRIC_2x2,
    SYMMETRIC_2x2,
    chain_graph,
    completion_cases,
    cyclic_pair,
    cyclic_table,
    epidemic_base,
    hub_graph,
    jittered,
    permuted,
    random_graph,
    range_of,
)
from test_lifted import criterion_6_graphs


def parts(colouring):
    return colouring.rv_partition(), colouring.factor_partition()


def as_sets(partition):
    return {frozenset(c) for c in partition}


def test_chain_initial_colours_are_structural():
    g = chain_graph()
    c = initial_colouring(g)
    assert c.rv_partition() == frozenset({frozenset({"A", "B", "C"})})
    assert c.factor_partition() == frozenset({frozenset({"f1", "f2"})})


def test_chain_one_step_splits_middle_variable():
    g = chain_graph()
    c = colour_passing_step(g, initial_colouring(g))
    assert c.rv_partition() == frozenset({frozenset({"A", "C"}), frozenset({"B"})})
    assert c.factor_partition() == frozenset({frozenset({"f1", "f2"})})


def test_chain_fixpoint_keeps_ends_together():
    # the symmetric table makes both argument slots interchangeable, so the
    # ends A and C receive identical messages and stay one class
    g = chain_graph()
    grouping = run_colour_passing(g)
    assert grouping.rv_partition() == frozenset(
        {frozenset({"A", "C"}), frozenset({"B"})}
    )
    assert grouping.factor_partition() == frozenset({frozenset({"f1", "f2"})})
    assert grounded_equivalence_check(g, grouping)


def test_chain_asymmetric_tables_split_everything():
    g = chain_graph(t1=ASYMMETRIC_2x2, t2=ASYMMETRIC_2x2)
    grouping = run_colour_passing(g)
    assert grouping.rv_partition() == frozenset(
        {frozenset({"A"}), frozenset({"B"}), frozenset({"C"})}
    )
    assert grouping.factor_partition() == frozenset(
        {frozenset({"f1"}), frozenset({"f2"})}
    )
    assert grounded_equivalence_check(g, grouping)


def test_evidence_splits_initial_colours():
    g = chain_graph(evidence={"A": "true"})
    c = initial_colouring(g)
    assert c.rv_partition() == frozenset({frozenset({"A"}), frozenset({"B", "C"})})
    # different observed values split too
    g2 = chain_graph(evidence={"A": "true", "C": "false"})
    assert len(initial_colouring(g2).rv_partition()) == 3


def test_reversed_arguments_group_when_tables_agree_canonically():
    t = PotentialTable((2, 2), ASYMMETRIC_2x2)
    flipped = PotentialTable.from_array(t.array.T)
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (Factor("fa", ("A", "B"), t), Factor("fb", ("B", "A"), flipped)),
    )
    grouping = run_colour_passing(g)
    assert grouping.factor_partition() == frozenset({frozenset({"fa", "fb"})})
    cls = grouping.factor_classes[0]
    assert cls.members == ("fa", "fb") and cls.table == t
    assert np.array_equal(np.transpose(t.array, _alignment(t, flipped)), flipped.array)
    assert grounded_equivalence_check(g, grouping)
    assert "exact=no" not in grouping_report(grouping, g)


def test_epidemic_initial_and_final_partitions():
    g = epidemic_base()
    init = initial_colouring(g)
    assert as_sets(init.factor_partition()) == {
        frozenset({"f0"}),
        frozenset({"f1_alice", "f1_bob"}),
        frozenset({"f2_alice_m1", "f2_alice_m2", "f2_bob_m1", "f2_bob_m2"}),
        frozenset({"f3_alice", "f3_bob"}),
    }
    assert len(init.rv_partition()) == 1

    grouping = run_colour_passing(g)
    assert as_sets(grouping.rv_partition()) == {
        frozenset({"Epid"}),
        frozenset({"Sick.alice", "Sick.bob"}),
        frozenset({"Travel.alice", "Travel.bob"}),
        frozenset({"Treat.alice.m1", "Treat.alice.m2", "Treat.bob.m1", "Treat.bob.m2"}),
    }
    assert as_sets(grouping.factor_partition()) == as_sets(init.factor_partition())
    assert compression_ratio(grouping, g) == (4 / 9, 4 / 9)
    assert grounded_equivalence_check(g, grouping)


def test_identical_satellites_collapse_to_one_class():
    t = PotentialTable((2,), (1.0, 3.0))
    rvs = tuple(RandomVariable(f"x{i}", BOOL_RANGE) for i in range(5))
    fs = tuple(Factor(f"u{i}", (f"x{i}",), t) for i in range(5))
    odd = Factor("u_odd", ("x0",), PotentialTable((2,), (3.0, 1.0)))
    g = FactorGraph(rvs, fs)
    grouping = run_colour_passing(g)
    assert len(grouping.rv_classes) == 1 and len(grouping.factor_classes) == 1

    g2 = FactorGraph(rvs, fs + (odd,))
    grouping2 = run_colour_passing(g2)
    assert frozenset({"u_odd"}) in grouping2.factor_partition()
    assert frozenset({"x0"}) in grouping2.rv_partition()


def test_insertion_order_invariance():
    rng = np.random.default_rng(13)
    for _ in range(8):
        g = random_graph(rng)
        grouping = run_colour_passing(g)
        shuffled = FactorGraph(tuple(reversed(g.rvs)), tuple(reversed(g.factors)))
        assert run_colour_passing(shuffled) == grouping


def test_relabelling_equivariance():
    rng = np.random.default_rng(29)
    for _ in range(8):
        g = random_graph(rng)
        ren = {rid: f"zz_{rid}" for rid in g.rv_ids}
        ren.update({fid: f"qq_{fid}" for fid in g.factor_ids})
        mapped = FactorGraph(
            tuple(RandomVariable(ren[rv.id], rv.range, rv.evidence) for rv in g.rvs),
            tuple(
                Factor(ren[f.id], tuple(ren[a] for a in f.args), f.table)
                for f in g.factors
            ),
        )
        a = run_colour_passing(g)
        b = run_colour_passing(mapped)
        relabel = lambda part: {frozenset(ren[x] for x in c) for c in part}
        assert as_sets(b.rv_partition()) == relabel(a.rv_partition())
        assert as_sets(b.factor_partition()) == relabel(a.factor_partition())


def test_fixpoint_is_stable():
    rng = np.random.default_rng(37)
    for _ in range(5):
        g = random_graph(rng)
        fix = refine_to_fixpoint(g, initial_colouring(g))
        again = colour_passing_step(g, fix)
        assert parts(again) == parts(fix)


def test_classes_are_sound():
    # same class implies same range/degree for RVs, same canonical table and
    # argument count for factors
    from fglift import canonical_table

    rng = np.random.default_rng(43)
    for _ in range(10):
        g = random_graph(rng, n_rvs=7, n_factors=8)
        grouping = run_colour_passing(g)
        for members in grouping.rv_classes:
            ranges = {g.rv(m).range.values for m in members}
            degrees = {g.degree(m) for m in members}
            assert len(ranges) == 1 and len(degrees) == 1
        for cls in grouping.factor_classes:
            tables = {canonical_table(g.factor(m).table) for m in cls.members}
            arities = {len(g.factor(m).args) for m in cls.members}
            assert len(tables) == 1 and len(arities) == 1
        assert grounded_equivalence_check(g, grouping)


def test_grounded_check_rejects_wrong_merges():
    g = chain_graph(t2=ASYMMETRIC_2x2)  # f1 and f2 genuinely differ
    good = run_colour_passing(g)
    assert grounded_equivalence_check(g, good)

    merged = Grouping(good.rv_classes, (FactorClass(("f1", "f2"), g.factor("f1").table),))
    assert not grounded_equivalence_check(g, merged)


def test_grounded_check_rejects_structural_mangles():
    g = chain_graph()
    good = run_colour_passing(g)
    # missing RV
    assert not grounded_equivalence_check(
        g, Grouping(good.rv_classes[:-1], good.factor_classes)
    )
    # doubly grouped RV
    assert not grounded_equivalence_check(
        g, Grouping(good.rv_classes + (good.rv_classes[0],), good.factor_classes)
    )
    # missing factor class
    assert not grounded_equivalence_check(g, Grouping(good.rv_classes, ()))
    cls = good.factor_classes[0]
    # doubly grouped factor
    assert not grounded_equivalence_check(
        g, Grouping(good.rv_classes, good.factor_classes + (cls,))
    )
    # table withheld
    assert not grounded_equivalence_check(
        g, Grouping(good.rv_classes, (FactorClass(cls.members, None),))
    )


def test_initial_colouring_rejects_bad_unknown_tags():
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE),),
        (Factor("f", ("A",)), Factor("k", ("A",), PotentialTable((2,), (1.0, 2.0)))),
    )
    with pytest.raises(UnknownFactorPresent):
        initial_colouring(g)
    with pytest.raises(ValueError):
        initial_colouring(g, unknown_tags={"f": 0, "k": 1})
    with pytest.raises(ValueError):
        initial_colouring(g, unknown_tags={"f": 0, "ghost": 1})


def test_unknown_tags_control_grouping():
    rvs = (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE))
    fs = (Factor("u1", ("A",)), Factor("u2", ("B",)))
    g = FactorGraph(rvs, fs)
    shared = refine_to_fixpoint(g, initial_colouring(g, unknown_tags={"u1": 7, "u2": 7}))
    assert shared.factor_partition() == frozenset({frozenset({"u1", "u2"})})
    split = refine_to_fixpoint(g, initial_colouring(g, unknown_tags={"u1": 0, "u2": 1}))
    assert split.factor_partition() == frozenset({frozenset({"u1"}), frozenset({"u2"})})
    grouping = grouping_from_colouring(g, shared)
    assert grouping.factor_classes == (FactorClass(("u1", "u2"), None),)
    # a class of unknown factors rebuilds nothing, but is not reported inexact
    assert not grounded_equivalence_check(g, grouping)
    assert "exact=no" not in grouping_report(grouping, g)


def test_rtol_groups_nearly_equal_tables():
    base = (2.0, 3.0, 3.0, 5.0)
    jittered = tuple(x * (1.0 + 1e-9) for x in base)
    g = chain_graph(t1=base, t2=jittered)
    exact = run_colour_passing(g)
    assert frozenset({"f1"}) in exact.factor_partition()
    loose = run_colour_passing(g, rtol=1e-6)
    assert loose.factor_partition() == frozenset({frozenset({"f1", "f2"})})


def test_grouping_report_golden():
    report = grouping_report(run_colour_passing(epidemic_base()))
    assert report == (
        "class 0 kind=rv size=1 members=Epid\n"
        "class 1 kind=rv size=2 members=Sick.alice,Sick.bob\n"
        "class 2 kind=rv size=2 members=Travel.alice,Travel.bob\n"
        "class 3 kind=rv size=4 members=Treat.alice.m1,Treat.alice.m2,Treat.bob.m1,Treat.bob.m2\n"
        "class 4 kind=factor size=1 members=f0\n"
        "class 5 kind=factor size=2 members=f1_alice,f1_bob\n"
        "class 6 kind=factor size=4 members=f2_alice_m1,f2_alice_m2,f2_bob_m1,f2_bob_m2\n"
        "class 7 kind=factor size=2 members=f3_alice,f3_bob\n"
    )


# -- reference colour passing: slots, orbits of slots, partition fixpoint ----------


def _ref_slot_info(factor):
    n = len(factor.args)
    if factor.table is None or factor.table.arity != n or n > MAX_CANONICAL_ARITY:
        ident = tuple(range(n))
        return ident, ident
    info = canonical_info(factor.table)
    return info.slot_of_position, info.orbit_of_slot


def _ref_step(fg, colouring):
    rv_col, fac_col = colouring.rv_colours, colouring.factor_colours
    slots = [_ref_slot_info(f) for f in fg.factors]
    factor_sigs = {}
    for f, (slot_of_pos, orbit_of_slot) in zip(fg.factors, slots):
        pos_of_slot = invert_axes(slot_of_pos)
        per_orbit = {}
        for slot in range(len(f.args)):
            arg = f.args[pos_of_slot[slot]]
            per_orbit.setdefault(orbit_of_slot[slot], []).append(rv_col[arg])
        sig = tuple((o, tuple(sorted(cols))) for o, cols in sorted(per_orbit.items()))
        factor_sigs[f.id] = (fac_col[f.id], sig)
    fac_order = {sig: i for i, sig in enumerate(sorted(set(factor_sigs.values())))}
    new_fac = {fid: fac_order[sig] for fid, sig in factor_sigs.items()}
    messages = {rv.id: [] for rv in fg.rvs}
    for f, (slot_of_pos, orbit_of_slot) in zip(fg.factors, slots):
        for pos, arg in enumerate(f.args):
            if arg in messages:
                messages[arg].append((new_fac[f.id], orbit_of_slot[slot_of_pos[pos]]))
    rv_sigs = {rv.id: (rv_col[rv.id], tuple(sorted(messages[rv.id]))) for rv in fg.rvs}
    rv_order = {sig: i for i, sig in enumerate(sorted(set(rv_sigs.values())))}
    new_rv = {rid: len(fac_order) + rv_order[sig] for rid, sig in rv_sigs.items()}
    return Colouring(new_rv, new_fac)


def _ref_groups(colours):
    out = {}
    for node, colour in colours.items():
        out.setdefault(colour, []).append(node)
    return out.values()


def _ref_parts(colouring):
    return tuple(
        frozenset(frozenset(m) for m in _ref_groups(colours))
        for colours in (colouring.rv_colours, colouring.factor_colours)
    )


def _ref_fixpoint(fg, colouring):
    current = colouring
    while True:
        nxt = _ref_step(fg, current)
        if _ref_parts(nxt) == _ref_parts(current):
            return nxt
        current = nxt


def _ref_grouping(fg, colouring):
    rv_groups = (tuple(sorted(m)) for m in _ref_groups(colouring.rv_colours))
    rv_classes = tuple(sorted(rv_groups, key=lambda c: c[0]))
    classes = []
    for members in _ref_groups(colouring.factor_colours):
        members = tuple(sorted(members))
        classes.append(FactorClass(members, fg.factor(members[0]).table))
    return Grouping(rv_classes, tuple(sorted(classes, key=lambda c: c.members[0])))


def _with_symmetries(g, rng):
    """Make about half the tables symmetric in their first two axes (where
    their sizes agree) and nudge a third by a relative 3e-7; repeated tables
    stay repeated, so classes of several members survive."""
    cache = {}

    def variant(table, kind):
        key = (table, kind)
        if key not in cache:
            arr = table.array
            if kind & 1 and arr.ndim >= 2 and arr.shape[0] == arr.shape[1]:
                arr = arr + np.swapaxes(arr, 0, 1)
            if kind & 2:
                arr = arr * (1.0 + 3e-7)
            cache[key] = PotentialTable.from_array(arr)
        return cache[key]

    factors = []
    for f in g.factors:
        if f.table is not None:
            kind = int(rng.integers(2)) | 2 * int(rng.random() < 0.3)
            f = Factor(f.id, f.args, variant(f.table, kind))
        factors.append(f)
    return FactorGraph(g.rvs, factors)


def _differential_cases(rng):
    for trial in range(40):
        g = random_graph(
            rng, n_rvs=5 + trial % 4, n_factors=6 + trial % 6, max_arity=3 + trial % 2,
            pool_size=2, evidence_frac=0.2 if trial % 2 else 0.0, n_unknown=int(rng.integers(4)),
        )
        yield _with_symmetries(g, rng)
    for d, seed in [(8, 1), (16, 2), (32, 3), (64, 4)]:
        cfg = ExperimentConfig(
            d=d, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0,
            seed=seed,
        )
        inst = generate_instance(cfg)
        yield inst.truth
        yield _with_symmetries(inst.incomplete, rng)


def test_colour_passing_matches_slot_orbit_reference():
    rng = np.random.default_rng(811)
    rounds = 0
    for g in _differential_cases(rng):
        unknown = g.unknown_factor_ids
        tags = {fid: int(rng.integers(max(1, len(unknown) // 2))) for fid in unknown}
        for rtol in (0.0, 1e-6):
            start = initial_colouring(g, rtol, tags)
            current = start
            while True:
                nxt = _ref_step(g, current)
                assert colour_passing_step(g, current) == nxt
                rounds += 1
                if _ref_parts(nxt) == _ref_parts(current):
                    break
                current = nxt
            fix = refine_to_fixpoint(g, start)
            assert fix == _ref_fixpoint(g, start) == nxt
            assert grouping_from_colouring(g, fix) == _ref_grouping(g, fix)
            assert run_colour_passing(g, rtol, tags) == _ref_grouping(g, fix)
    assert rounds > 200


def _overlapping(colouring):
    """The colouring renumbered so that its RV and factor colour ids overlap
    (both count from 0), are sparse (even numbers only) and run against the
    old order, each dict filled in reverse."""

    def renumber(colours):
        old = sorted(set(colours.values()))
        new = {c: 2 * (len(old) - 1 - i) for i, c in enumerate(old)}
        return {node: new[colours[node]] for node in reversed(list(colours))}

    return Colouring(renumber(colouring.rv_colours), renumber(colouring.factor_colours))


def test_colourings_with_overlapping_rv_and_factor_ids():
    rng = np.random.default_rng(815)
    graphs = 0
    for g in _differential_cases(rng):
        unknown = g.unknown_factor_ids
        tags = {fid: int(rng.integers(max(1, len(unknown) // 2))) for fid in unknown}
        start = initial_colouring(g, 0.0, tags)
        for colouring in (start, refine_to_fixpoint(g, start)):
            overlapping = _overlapping(colouring)
            assert grouping_from_colouring(g, overlapping) == _ref_grouping(g, overlapping)
            assert _ref_grouping(g, overlapping) == _ref_grouping(g, colouring)
            assert parts(refine_to_fixpoint(g, overlapping)) == parts(refine_to_fixpoint(g, colouring))
        graphs += 1
    assert graphs == 40 + 8


def test_graphs_without_factors():
    rvs = (
        RandomVariable("b", BOOL_RANGE),
        RandomVariable("c", RangeSpec(("x", "y", "z"))),
        RandomVariable("a", BOOL_RANGE),
        RandomVariable("d", BOOL_RANGE, "true"),
    )
    cases = [(FactorGraph((), ()), ()), (FactorGraph(rvs, ()), (("a", "b"), ("c",), ("d",)))]
    for g, rv_classes in cases:
        expected = Grouping(rv_classes, ())
        assert run_colour_passing(g) == expected
        assert grouping_from_colouring(g, refine_to_fixpoint(g, initial_colouring(g))) == expected
        result = complete_and_lift(g, 0.5)
        assert result.completed == g and result.grouping == expected and not result.report.rows


def test_grouping_report_of_no_classes_is_empty():
    g = FactorGraph((), ())
    assert grouping_report(run_colour_passing(g)) == grouping_report(run_colour_passing(g), g) == ""


def _ref_initial_colouring(fg, rtol, unknown_tags):
    """Group and number RVs, known factors and tagged unknowns in three loops."""
    rv_groups = {}
    for rv in fg.rvs:
        key = (rv.range.values, rv.evidence is not None, rv.evidence or "")
        rv_groups.setdefault(key, []).append(rv.id)
    rv_colours, factor_colours, next_colour = {}, {}, 0
    for _, members in sorted(rv_groups.items()):
        rv_colours.update((m, next_colour) for m in members)
        next_colour += 1
    # known factors: every pair of canonical tables compared, the classes of
    # each matching pair merged, and each class named by its smallest key
    canon = {f.id: canonical_table(f.table) for f in fg.factors if not f.is_unknown}
    class_of = {fid: frozenset([fid]) for fid in canon}
    for a in canon:
        for b in canon:
            if class_of[a] != class_of[b] and tables_equal(canon[a], canon[b], rtol):
                merged = class_of[a] | class_of[b]
                class_of.update((m, merged) for m in merged)
    groups = sorted(
        (min(canonical_info(fg.factor(m).table).key for m in c), sorted(c))
        for c in set(class_of.values())
    )
    for _, members in groups:
        factor_colours.update((m, next_colour) for m in members)
        next_colour += 1
    tag_groups = {}
    for fid, tag in unknown_tags.items():
        tag_groups.setdefault(tag, []).append(fid)
    for _, members in sorted(tag_groups.items()):
        factor_colours.update((m, next_colour) for m in members)
        next_colour += 1
    return Colouring(rv_colours, factor_colours)


def test_initial_colouring_matches_three_loop_reference():
    rng = np.random.default_rng(812)
    cases = 0
    for g in _differential_cases(rng):
        unknown = g.unknown_factor_ids
        tags = {fid: int(rng.integers(max(1, len(unknown) // 2))) for fid in unknown}
        for rtol in (0.0, 1e-6):
            assert initial_colouring(g, rtol, tags) == _ref_initial_colouring(g, rtol, tags)
            cases += 1
    assert cases == 2 * (40 + 8)


def _index_cases(rng):
    """Generated instances at d = 128, 256 and 1024, complete and with tagged
    unknowns, each without and with evidence on about a tenth of its RVs;
    one small graph with parallel factors over one pair of RVs; deep refinement: a
    uniform 300-RV chain, which splits by distance from its ends over about
    150 rounds, without and with evidence at one end; a d = 128
    instance with its own random table on every factor, whose RV classes
    split into many siblings at once; and hub graphs (``hub_graph``) of
    arity 5 and 9, where factors and hubs differ only in the multiplicity
    of the colours they see."""
    for d in (128, 256, 1024):
        cfg = ExperimentConfig(
            d=d, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0,
            seed=d, standard_grids=False,
        )
        inst = generate_instance(cfg)
        for g in (inst.truth, _with_symmetries(inst.incomplete, rng)):
            yield g
            observed = rng.choice(len(g.rvs), len(g.rvs) // 10, replace=False)
            yield g.with_evidence(
                {g.rvs[i].id: str(rng.choice(g.rvs[i].range.values)) for i in observed}
            )
    t = PotentialTable((2, 2), ASYMMETRIC_2x2)
    rvs = tuple(RandomVariable(x, BOOL_RANGE) for x in "ABCD")
    yield FactorGraph(
        rvs,
        (
            Factor("ab", ("A", "B"), PotentialTable((2, 2), SYMMETRIC_2x2)),
            Factor("ab2", ("A", "B"), t),
            Factor("ba", ("B", "A"), t),
            Factor("cd", ("C", "D")),
            Factor("dc", ("D", "C")),
            Factor("c", ("C",), PotentialTable((2,), (1.0, 2.0))),
        ),
    )
    link = PotentialTable((2, 2), (1.0, 2.0, 2.0, 1.0))
    chain = FactorGraph(
        (RandomVariable(f"x{i}", BOOL_RANGE) for i in range(300)),
        (Factor(f"f{i}", (f"x{i}", f"x{i + 1}"), link) for i in range(299)),
    )
    yield chain
    yield chain.with_evidence({"x0": "true"})
    cfg = ExperimentConfig(
        d=128, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0,
        seed=7, standard_grids=False,
    )
    truth = generate_instance(cfg).truth
    yield truth.with_tables(
        {f.id: PotentialTable.from_array(rng.uniform(0.5, 2.0, f.table.shape)) for f in truth.factors}
    )
    yield hub_graph(rng, 5)
    yield hub_graph(rng, 9)


def test_index_colour_passing_matches_reference_on_large_graphs():
    rng = np.random.default_rng(813)
    graphs = 0
    for g in _index_cases(rng):
        unknown = g.unknown_factor_ids
        tags = {fid: int(rng.integers(max(1, len(unknown) // 2))) for fid in unknown}
        for rtol in (0.0, 1e-6):
            start = initial_colouring(g, rtol, tags)
            current = start
            while True:
                nxt = colour_passing_step(g, current)
                assert nxt == _ref_step(g, current)
                if _ref_parts(nxt) == _ref_parts(current):
                    break
                current = nxt
            assert refine_to_fixpoint(g, start) == _ref_fixpoint(g, start) == nxt
        graphs += 1
    assert graphs == 3 * 4 + 1 + 3 + 2


def test_derived_graphs_share_the_index_but_not_ports_or_signatures():
    # two symmetric pairs: all four ends share a class until a table or an
    # observation tells them apart
    rvs = tuple(RandomVariable(x, BOOL_RANGE) for x in "ABCD")
    sym = PotentialTable((2, 2), SYMMETRIC_2x2)
    g = FactorGraph(rvs, (Factor("f1", ("A", "B"), sym), Factor("f2", ("C", "D"), sym)))
    assert as_sets(run_colour_passing(g).rv_partition()) == {frozenset("ABCD")}
    asym = PotentialTable((2, 2), ASYMMETRIC_2x2)
    derived = {
        g.with_tables({"f1": asym, "f2": asym}): {frozenset("AC"), frozenset("BD")},
        g.with_evidence({"A": "true"}): {frozenset("A"), frozenset("B"), frozenset("CD")},
    }
    for d, expected in derived.items():
        assert d.incidence is g.incidence
        fresh = FactorGraph(d.rvs, d.factors)
        assert fresh.incidence is not g.incidence
        start = initial_colouring(d)
        assert start == initial_colouring(fresh)
        assert refine_to_fixpoint(d, start) == _ref_fixpoint(fresh, start)
        assert run_colour_passing(d) == run_colour_passing(fresh)
        assert as_sets(run_colour_passing(d).rv_partition()) == expected
    ev = list(derived)[1]
    assert transfer._profile_ids(ev) == transfer._profile_ids(FactorGraph(ev.rvs, ev.factors))
    assert transfer._profile_ids(ev) != transfer._profile_ids(g)


def test_dangling_argument_raises():
    # the constructor rejects the graph, so colour passing and candidate
    # sets never meet an argument that names no RV
    with pytest.raises(UnknownNode, match="factor 'f' references missing RV 'Z'"):
        FactorGraph(
            (RandomVariable("A", BOOL_RANGE),),
            (Factor("f", ("A", "Z"), PotentialTable((2, 2), ASYMMETRIC_2x2)),),
        )


# -- reference grounded checks: enumerated joints, members rebuilt one by one -------


def _alignment(rep, member):
    """Axes with ``member == transpose(rep, axes)`` when the two tables share a
    canonical form, from their canonical permutations."""
    p, q = canonical_info(rep).perm, invert_axes(canonical_info(member).perm)
    return tuple(p[q[i]] for i in range(len(p)))


def _joint_check(fg, grouping, tol=1e-12):
    """Structural checks, then the joint of the rebuilt graph against the original."""
    if sorted(m for c in grouping.rv_classes for m in c) != sorted(fg.rv_ids):
        return False
    if sorted(m for c in grouping.factor_classes for m in c.members) != sorted(fg.factor_ids):
        return False
    rebuilt = {}
    for cls in grouping.factor_classes:
        if cls.table is None:
            return False
        for member in cls.members:
            original = fg.factor(member)
            if original.table is None or original.table.arity != cls.table.arity:
                return False
            expanded = np.transpose(cls.table.array, _alignment(cls.table, original.table))
            if expanded.shape != original.table.shape:
                return False
            rebuilt[member] = PotentialTable.from_array(expanded)
    truth = joint_distribution(fg)
    regrounded = joint_distribution(fg.with_tables(rebuilt))
    return bool(np.max(np.abs(truth - regrounded)) <= tol)


def test_grounded_check_agrees_with_joint_oracle(monkeypatch):
    check = grounded_equivalence_check
    verdicts = []

    def agreeing(fg, grouping):
        verdict = check(fg, grouping)
        assert verdict == _joint_check(fg, grouping)
        verdicts.append(verdict)
        return verdict

    # every grouping the rejection tests build, mangled or not
    monkeypatch.setitem(globals(), "grounded_equivalence_check", agreeing)
    test_grounded_check_rejects_wrong_merges()
    test_grounded_check_rejects_structural_mangles()
    assert verdicts == [True] + [False] * 6

    rng = np.random.default_rng(307)
    graphs = 0
    while graphs < 40:
        big = graphs % 10 == 9
        g = random_graph(
            rng,
            n_rvs=(12 + int(rng.integers(4))) if big else 4 + int(rng.integers(6)),
            n_factors=(13 + int(rng.integers(4))) if big else 5 + int(rng.integers(6)),
        )
        if state_space_size(g) > 2**16:
            continue
        graphs += 1
        grouping = run_colour_passing(g)
        assert check(g, grouping) and _joint_check(g, grouping)


def test_grounded_check_rejects_a_scaled_member():
    t = PotentialTable((2,), (1.0, 3.0))
    g = FactorGraph(
        (RandomVariable("A", BOOL_RANGE), RandomVariable("B", BOOL_RANGE)),
        (Factor("u", ("A",), t), Factor("v", ("B",), PotentialTable((2,), (2.0, 6.0)))),
    )
    scaled = Grouping((("A", "B"),), (FactorClass(("u", "v"), t),))
    # normalisation hides the factor 2 from the joint, not from the tables
    assert _joint_check(g, scaled)
    assert not grounded_equivalence_check(g, scaled)


def test_grounded_check_runs_beyond_the_joint_cap():
    cfg = ExperimentConfig(
        d=256, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0,
        seed=1, standard_grids=False,
    )
    result = complete_and_lift(generate_instance(cfg).incomplete, cfg.theta)
    assert not result.report.unresolved
    with pytest.raises(StateSpaceTooLarge):
        joint_distribution(result.completed)
    assert grounded_equivalence_check(result.completed, result.grouping)


def _member_exact(fg, cls):
    """Every member rebuilt from the class table by its own alignment, bit for bit."""
    for member in cls.members:
        table = fg.factor(member).table
        if table is None or table.arity != cls.table.arity:
            return False
        rebuilt = PotentialTable.from_array(np.transpose(cls.table.array, _alignment(cls.table, table)))
        if rebuilt != table:
            return False
    return True


def _member_check(fg, grouping):
    """The grounded check that rebuilds every member from its class table."""
    if sorted(m for c in grouping.rv_classes for m in c) != sorted(fg.rv_ids):
        return False
    if sorted(m for c in grouping.factor_classes for m in c.members) != sorted(fg.factor_ids):
        return False
    return all(cls.table is not None and _member_exact(fg, cls) for cls in grouping.factor_classes)


def _lossless_cases():
    """754 (graph, grouping) pairs: the completion cases at rtol 0 and 1e-6,
    and 150 random graphs of arity up to 4 with permuted arguments, plain
    and jittered, each at rtol 0 and 1e-6."""
    for fg, bk, theta in completion_cases(np.random.default_rng(2024)):
        for rtol in (0.0, 1e-6):
            result = complete_and_lift(fg, theta, bk, rtol)
            yield result.completed, result.grouping
    rng = np.random.default_rng(1808)
    for trial in range(150):
        g = random_graph(rng, n_rvs=5 + trial % 4, n_factors=8 + trial % 5, max_arity=4, pool_size=2)
        g = permuted(g, rng)
        for graph in (g, jittered(g, rng)):
            for rtol in (0.0, 1e-6):
                yield graph, run_colour_passing(graph, rtol)


def test_lossless_rule_matches_member_by_member_rebuild():
    verdicts, inexact = [], 0
    for fg, grouping in _lossless_cases():
        verdict = grounded_equivalence_check(fg, grouping)
        assert verdict == _member_check(fg, grouping)
        verdicts.append(verdict)
        lines = grouping_report(grouping, fg).splitlines()[len(grouping.rv_classes) :]
        for cls, line in zip(grouping.factor_classes, lines, strict=True):
            flagged = cls.table is not None and not _member_exact(fg, cls)
            assert line.endswith(" exact=no") == flagged
            inexact += flagged
    assert len(verdicts) == 754
    assert 0 < sum(verdicts) < len(verdicts) and inexact


def test_a_table_holding_nan_is_never_exact():
    nan = PotentialTable((2,), (1.0, float("nan")))
    g = FactorGraph((RandomVariable("A", BOOL_RANGE),), (Factor("u", ("A",), nan),))
    grouping = Grouping((("A",),), (FactorClass(("u",), nan),))
    assert not grounded_equivalence_check(g, grouping)
    assert not _member_check(g, grouping)
    assert grouping_report(grouping, g).endswith("members=u exact=no\n")


# -- the splitter worklist against the round loop ---------------------------


def rounds_grouping(fg, rtol=0.0, tags=None):
    """The reference grouping: the round loop from the initial colours."""
    return grouping_from_colouring(fg, refine_to_fixpoint(fg, initial_colouring(fg, rtol, tags)))


def assert_colours_like_rounds(fg, rtol=0.0, tags=None):
    """``run_colour_passing`` gives the round loop's grouping, tables included."""
    grouping = run_colour_passing(fg, rtol, tags)
    assert grouping == rounds_grouping(fg, rtol, tags)
    return grouping


def chain_of(n, table):
    """A path of ``n`` boolean RVs, one ``table`` factor per link."""
    rvs = [RandomVariable(f"x{i}", BOOL_RANGE) for i in range(n)]
    return FactorGraph(rvs, [Factor(f"f{i}", (f"x{i}", f"x{i + 1}"), table) for i in range(n - 1)])


def ring_of(n, table):
    """A cycle of ``n`` boolean RVs, one ``table`` factor per link."""
    rvs = [RandomVariable(f"x{i}", BOOL_RANGE) for i in range(n)]
    return FactorGraph(rvs, [Factor(f"f{i}", (f"x{i}", f"x{(i + 1) % n}"), table) for i in range(n)])


def arity_3_stars(rng):
    """Two stars of five arity-3 factors around a hub ``h``: one table
    symmetric in all three axes, with the hub at a different position in
    every other factor, and one symmetric in its last two axes only."""
    weight = rng.uniform(0.5, 4.0, (2, 2, 2))
    cells = list(np.ndindex(2, 2, 2))
    full = PotentialTable((2, 2, 2), [float(weight[tuple(sorted(c))]) for c in cells])
    last_two = PotentialTable((2, 2, 2), [float(weight[(c[0], *sorted(c[1:]))]) for c in cells])
    for table in (full, last_two):
        rvs = [RandomVariable("h", BOOL_RANGE)]
        factors = []
        for i in range(5):
            rvs += [RandomVariable(f"a{i}", BOOL_RANGE), RandomVariable(f"b{i}", BOOL_RANGE)]
            args = ("h", f"a{i}", f"b{i}") if table is last_two or i % 2 else (f"a{i}", "h", f"b{i}")
            factors.append(Factor(f"g{i}", args, table))
        yield FactorGraph(rvs, factors)


def test_worklist_matches_rounds_on_generated_forests():
    # complete graphs, with stored evidence, and incomplete ones with their
    # unknowns tagged, from d = 4 to 2048
    rng = np.random.default_rng(887)
    for d, p, seed in [(4, 0.5, 1), (8, 0.3, 2), (16, 0.7, 3), (64, 0.5, 4), (256, 0.3, 5), (2048, 0.5, 1)]:
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.2, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
            queries_per_instance=3, theta=0.0, seed=seed, standard_grids=False,
        )
        inst = generate_instance(cfg)
        truth = inst.truth
        assert_colours_like_rounds(truth)
        observed = _observe(truth, rng.choice(truth.rv_ids, 5, replace=False), rng)
        assert_colours_like_rounds(truth.with_evidence(observed))
        unknown = inst.incomplete.unknown_factor_ids
        assert unknown
        for n_tags in (1, 3):
            tags = {u: int(rng.integers(n_tags)) for u in unknown}
            assert_colours_like_rounds(inst.incomplete, 0.0, tags)


def test_worklist_matches_rounds_where_unknowns_stay_unresolved():
    # theta = 1 leaves every unknown without a unanimous donor class
    # unresolved; complete_and_lift colours the completed graph with the
    # unresolved unknowns tagged by their neighbour profiles
    unresolved = 0
    for fg, bk, _ in completion_cases(np.random.default_rng(2029)):
        for rtol in (0.0, 1e-6):
            result = complete_and_lift(fg, 1.0, bk, rtol)
            profile = transfer._argument_profiles
            tags = {u: transfer._neighbour_profile(profile(fg, u)) for u in result.report.unresolved}
            assert result.grouping == rounds_grouping(result.completed, rtol, tags)
            unresolved += len(tags)
    assert unresolved > 100


def test_worklist_matches_rounds_within_rtol():
    # near-equal tables: steps of 0.6e-6 chain into one class within 1e-6,
    # steps of 1.2e-6 and more do not
    rng = np.random.default_rng(889)
    for trial in range(60):
        g = random_graph(rng, n_rvs=6 + trial % 5, n_factors=8 + trial % 7, max_arity=3, pool_size=2)
        for graph in (g, jittered(g, rng), jittered(permuted(g, rng), rng)):
            for rtol in (0.0, 1e-6):
                assert_colours_like_rounds(graph, rtol)
    truth = generate_instance(ExperimentConfig(
        d=128, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=9,
    )).truth
    near = jittered(truth, rng)
    assert len(assert_colours_like_rounds(near, 1e-6).factor_classes) < len(
        assert_colours_like_rounds(near).factor_classes
    )


def test_worklist_matches_rounds_on_the_criterion_6_graphs():
    for g in criterion_6_graphs():
        assert_colours_like_rounds(g)


def test_worklist_matches_rounds_on_a_long_chain_and_a_ring():
    for values in (SYMMETRIC_2x2, ASYMMETRIC_2x2):
        table = PotentialTable((2, 2), values)
        chain = chain_of(200, table)
        # the chain splits by distance from its ends, one link per round
        assert len(assert_colours_like_rounds(chain).rv_classes) == (100 if values == SYMMETRIC_2x2 else 200)
        assert len(assert_colours_like_rounds(chain.with_evidence({"x7": "true"})).rv_classes) == 200
        ring = ring_of(12, table)
        assert len(assert_colours_like_rounds(ring).rv_classes) == 1
        assert_colours_like_rounds(ring.with_evidence({"x0": "true"}))


def test_worklist_matches_rounds_with_symmetric_arity_3_tables():
    for fg in arity_3_stars(np.random.default_rng(863)):
        leaves = frozenset(r for r in fg.rv_ids if r != "h")
        assert assert_colours_like_rounds(fg).rv_partition() == {frozenset({"h"}), leaves}
        assert_colours_like_rounds(fg.with_evidence({"a0": "true", "b1": "false"}))


def test_worklist_tells_port_multisets_apart():
    # x sits at port 0 of two factors, y1 and y2 at port 1 of one each:
    # neither the degree nor the sum of port labels alone tells them apart
    table = PotentialTable((2, 2), ASYMMETRIC_2x2)
    rvs = [RandomVariable(r, BOOL_RANGE) for r in ("x", "y1", "y2")]
    fg = FactorGraph(rvs, [Factor("f1", ("x", "y1"), table), Factor("f2", ("x", "y2"), table)])
    assert assert_colours_like_rounds(fg).rv_partition() == {frozenset({"x"}), frozenset({"y1", "y2"})}


def test_worklist_is_independent_of_insertion_order():
    rng = np.random.default_rng(893)
    graphs = [chain_of(60, PotentialTable((2, 2), ASYMMETRIC_2x2))]
    graphs += list(arity_3_stars(rng))
    for d, seed in [(32, 2), (128, 7)]:
        inst = generate_instance(ExperimentConfig(
            d=d, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=seed,
        ))
        graphs += [inst.truth, inst.incomplete]
    for fg in graphs:
        tags = {u: len(fg.factor(u).args) for u in fg.unknown_factor_ids}
        backwards = FactorGraph(fg.rvs[::-1], fg.factors[::-1])
        assert assert_colours_like_rounds(backwards, 0.0, tags) == run_colour_passing(fg, 0.0, tags)


# -- refinement of the kept evidence-free colouring -------------------------


def refined_grouping(fg):
    """The grouping of ``fg``'s kept evidence-free colouring split by its stored evidence."""
    stored = {rv.id: rv.evidence for rv in fg.rvs if rv.evidence is not None}
    return _grouping(fg, _stable_colours(fg, stored))


def assert_refines_like_scratch(fg, evidence=None):
    """The grouping refined from the kept evidence-free colouring, for ``fg``
    with ``evidence`` stored, is the round loop's from the observed graph's
    initial colours, tables included."""
    observed = fg.with_evidence(evidence) if evidence else fg
    assert refined_grouping(observed) == rounds_grouping(observed)
    return observed


def _observe(fg, rvs, rng):
    """A random value for each of ``rvs``."""
    return {str(r): str(rng.choice(fg.rv(str(r)).range.values)) for r in rvs}


def test_refinement_matches_scratch_on_generated_forests():
    rng = np.random.default_rng(839)
    for d, p, seed in [(8, 0.5, 1), (32, 0.7, 3), (128, 0.3, 5), (512, 0.5, 2)]:
        cfg = ExperimentConfig(
            d=d, p=p, unknown_fraction=0.2, cohorts=min(3 + seed % 3, max_cohorts(d, p)),
            queries_per_instance=3, theta=0.0, seed=seed, standard_grids=False,
        )
        fg = generate_instance(cfg).truth
        degree = {r: fg.degree(r) for r in fg.rv_ids}
        leaves = [r for r in fg.rv_ids if degree[r] == 1]
        inner = [r for r in fg.rv_ids if degree[r] > 1]
        hub = max(fg.rv_ids, key=degree.__getitem__)
        assert degree[hub] > 2 and inner
        assert_refines_like_scratch(fg)
        for picked in (
            rng.choice(leaves, 3, replace=False),
            rng.choice(inner, min(3, len(inner)), replace=False),
            [hub],
            rng.choice(fg.rv_ids, 8, replace=False),
        ):
            assert_refines_like_scratch(fg, _observe(fg, picked, rng))


def test_refinement_matches_scratch_on_the_criterion_6_graphs():
    # cyclic graphs of two- and three-valued RVs, every other one with stored
    # evidence; passed evidence lands on top of it
    rng = np.random.default_rng(853)
    for g in criterion_6_graphs():
        free = [r.id for r in g.rvs if r.evidence is None]
        assert_refines_like_scratch(g)
        assert_refines_like_scratch(g, _observe(g, rng.choice(free, min(2, len(free)), replace=False), rng))


def test_refinement_matches_scratch_on_a_long_chain_and_a_ring():
    for values in (SYMMETRIC_2x2, ASYMMETRIC_2x2):
        table = PotentialTable((2, 2), values)
        fg = chain_of(200, table)
        for end in ("x0", "x199"):
            observed = assert_refines_like_scratch(fg, {end: "true"})
            # seen from one observed end, every RV is told apart
            assert len(run_colour_passing(observed).rv_classes) == 200
        # on a ring every RV sits at port 0 of one factor and port 1 of the
        # next, so where the table is asymmetric only the ports tell the two
        # directions from an observed RV apart
        ring = ring_of(12, table)
        assert len(run_colour_passing(ring).rv_classes) == 1
        observed = assert_refines_like_scratch(ring, {"x0": "true"})
        assert len(run_colour_passing(observed).rv_classes) == (7 if values == SYMMETRIC_2x2 else 12)


def test_refinement_matches_scratch_on_multi_valued_ranges():
    rng = np.random.default_rng(857)
    for _ in range(40):
        g = random_graph(rng, n_rvs=10, n_factors=12, max_arity=3, pool_size=2)
        assert_refines_like_scratch(g, _observe(g, rng.choice(g.rv_ids, 3, replace=False), rng))
    # a star of four-valued leaves around a three-valued hub
    four = RangeSpec(("a", "b", "c", "d"))
    rvs = [RandomVariable("h", RangeSpec(("x", "y", "z")))]
    rvs += [RandomVariable(f"l{i}", four) for i in range(6)]
    table = PotentialTable((3, 4), [float(k % 5 + 1) for k in range(12)])
    fg = FactorGraph(rvs, [Factor(f"f{i}", ("h", f"l{i}"), table) for i in range(6)])
    observed = assert_refines_like_scratch(fg, {"l0": "a", "l1": "b", "l2": "a", "l3": "d"})
    assert run_colour_passing(observed).rv_partition() == {
        frozenset({"h"}), frozenset({"l0", "l2"}), frozenset({"l1"}), frozenset({"l3"}),
        frozenset({"l4", "l5"}),
    }


def test_refinement_of_a_whole_class_observed():
    inst = generate_instance(ExperimentConfig(
        d=32, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=4,
    ))
    fg = inst.truth
    free = run_colour_passing(fg)
    largest = max(free.rv_classes, key=len)
    assert len(largest) > 4
    values = fg.rv(largest[0]).range.values
    # one value: the class stays whole, and so does every other class
    observed = assert_refines_like_scratch(fg, {r: values[0] for r in largest})
    assert run_colour_passing(observed).rv_partition() == free.rv_partition()
    # mixed values: the class splits by value
    mixed = {r: values[i % 2] for i, r in enumerate(largest)}
    observed = assert_refines_like_scratch(fg, mixed)
    by_value = {frozenset(r for r in largest if mixed[r] == v) for v in values[:2]}
    assert by_value <= run_colour_passing(observed).rv_partition()


def test_refinement_with_stored_and_passed_evidence():
    rng = np.random.default_rng(859)
    inst = generate_instance(ExperimentConfig(
        d=64, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=6,
    ))
    fg = inst.truth
    picked = [str(r) for r in rng.choice(fg.rv_ids, 6, replace=False)]
    stored = assert_refines_like_scratch(fg, _observe(fg, picked[:3], rng))
    assert_refines_like_scratch(stored, _observe(fg, picked[3:], rng))
    # clearing stored evidence is evidence too
    assert_refines_like_scratch(stored, {picked[0]: None})
    # stored and passed evidence of one value merge two RVs that the stored
    # evidence alone tells apart
    unary = PotentialTable((2,), (1.0, 2.0))
    pair = FactorGraph(
        [RandomVariable("a", BOOL_RANGE, "true"), RandomVariable("b", BOOL_RANGE)],
        [Factor("ua", ("a",), unary), Factor("ub", ("b",), unary)],
    )
    assert len(assert_refines_like_scratch(pair).rvs) == 2
    assert run_colour_passing(pair).rv_partition() == {frozenset({"a"}), frozenset({"b"})}
    both = assert_refines_like_scratch(pair, {"b": "true"})
    assert run_colour_passing(both).rv_partition() == {frozenset({"a", "b"})}


def cyclic_forests(rng):
    """Small random forests of arity-3 and arity-4 factors whose tables are
    axis permutations of a few cyclically symmetric ones. Each forest is
    three copies of one random tree. A copy lists every factor's arguments
    in a random order and permutes the table's axes to match, so the
    potential stays the same, except that some factors permute the table's
    axes once more; each RV keeps its unary table from a pool of two, or
    draws another."""
    for _ in range(30):
        k = int(rng.integers(2, 4))
        pool = {
            arity: [cyclic_table(k, arity, lambda c, w=rng.integers(1, 30, (k,) * arity): float(w[c]))
                    for _ in range(2)]
            for arity in (3, 4)
        }
        unary = [PotentialTable((k,), rng.integers(1, 9, k).astype(float)) for _ in range(2)]
        n_rvs, tree = 1, []
        for _ in range(int(rng.integers(1, 4))):
            arity = int(rng.choice((3, 4)))
            args = [int(rng.integers(n_rvs))] + list(range(n_rvs, n_rvs + arity - 1))
            tree.append((pool[arity][int(rng.integers(2))], args))
            n_rvs += arity - 1
        kind = rng.integers(2, size=n_rvs)
        rvs, factors = [], []
        for copy in range(3):
            rvs += [f"x{copy}_{v}" for v in range(n_rvs)]
            for i, (table, args) in enumerate(tree):
                perm = rng.permutation(table.arity)
                array = np.transpose(table.array, perm)
                if rng.random() < 0.3:
                    array = np.transpose(array, rng.permutation(table.arity))
                names = tuple(f"x{copy}_{args[p]}" for p in perm)
                factors.append(Factor(f"f{copy}_{i}", names, PotentialTable.from_array(array)))
            for v in range(n_rvs):
                pick = kind[v] if rng.random() < 0.8 else int(rng.integers(2))
                factors.append(Factor(f"u{copy}_{v}", (f"x{copy}_{v}",), unary[pick]))
        yield FactorGraph([RandomVariable(r, range_of(k)) for r in rvs], factors)


def test_the_rvs_of_a_class_have_equal_marginals():
    # ports are the blocks of a table's transpositions: a cyclic symmetry
    # alone puts a0 and a1 at one port, though their marginals differ
    fg = cyclic_pair()
    assert {frozenset({"a0"}), frozenset({"a1"})} <= run_colour_passing(fg).rv_partition()
    graphs = [fg] + list(cyclic_forests(np.random.default_rng(929)))
    merged = 0
    for g in graphs:
        assert g.incidence.is_forest
        marginal = {m.rv: m.probabilities for m in _ground_marginals(g, g.rv_ids)}
        for cls in run_colour_passing(g).rv_classes:
            for r in cls[1:]:
                assert np.allclose(marginal[r], marginal[cls[0]], rtol=0.0, atol=1e-12)
                merged += 1
    assert merged > 80


def test_refinement_with_symmetric_arity_3_tables():
    # ports are orbits (see arity_3_stars)
    for fg in arity_3_stars(np.random.default_rng(863)):
        leaves = frozenset(r for r in fg.rv_ids if r != "h")
        assert run_colour_passing(fg).rv_partition() == {frozenset({"h"}), leaves}
        for evidence in ({"a0": "true"}, {"a0": "true", "b1": "true"}, {"h": "false", "b2": "true"}):
            assert_refines_like_scratch(fg, evidence)


def test_refinement_is_independent_of_insertion_order():
    rng = np.random.default_rng(877)
    for d, seed in [(32, 2), (128, 7)]:
        fg = generate_instance(ExperimentConfig(
            d=d, p=0.5, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=seed,
        )).truth
        backwards = FactorGraph(fg.rvs[::-1], fg.factors[::-1])
        evidence = _observe(fg, rng.choice(fg.rv_ids, 5, replace=False), rng)
        grouping = refined_grouping(fg.with_evidence(evidence))
        assert_refines_like_scratch(backwards, evidence)
        assert refined_grouping(backwards.with_evidence(evidence)) == grouping
