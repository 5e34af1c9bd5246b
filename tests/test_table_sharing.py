"""One table object per distinct potential: differential and edge-case tests.

``parse_model`` shares one ``PotentialTable`` among factors that repeat an
entries list under the same shape, and one ``RangeSpec`` among RVs that
repeat a value list; ``serialize_model``, ``validate``,
``complete_and_lift`` and colour passing then work once per distinct table.
The reference functions below are the per-factor versions they replaced,
kept to check that every parse, every serialized byte, every violation and
every completion result stays the same.
"""
from __future__ import annotations

import sys
from math import prod
from pathlib import Path

import numpy as np
import pytest

from fglift import (
    ExperimentConfig,
    Factor,
    FactorGraph,
    ParseError,
    PotentialTable,
    RandomVariable,
    RangeSpec,
    Violation,
    complete_and_lift,
    generate_instance,
    grouping_report,
    parse_background,
    parse_model,
    serialize_model,
    transfer_report_text,
    validate,
)
from fglift.modelio import _SEPARATORS, _split_csv, _tokenize
from conftest import permuted, random_graph, range_of

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- reference: one table per factor line ------------------------------------


def reference_parse_model(text: str) -> FactorGraph:
    rvs: list[RandomVariable] = []
    factors: list[Factor] = []
    rv_by_id: dict[str, RandomVariable] = {}
    factor_ids: set[str] = set()
    for lineno, tokens in _tokenize(text):
        kind = tokens[0]
        if kind == "rv":
            if len(tokens) != 3:
                raise ParseError(lineno, f"expected 'rv <name> <values>', got {len(tokens)} tokens")
            name = tokens[1]
            if name in rv_by_id or name in factor_ids:
                raise ParseError(lineno, f"duplicate node name {name!r}")
            values = _split_csv(tokens[2], lineno, "range")
            try:
                spec = RangeSpec(values)
            except ValueError as e:
                raise ParseError(lineno, str(e)) from None
            rv = RandomVariable(name, spec)
            rvs.append(rv)
            rv_by_id[name] = rv
        elif kind == "factor":
            if len(tokens) < 4:
                raise ParseError(lineno, "expected 'factor <name> known|unknown <args> [<entries>]'")
            name, state = tokens[1], tokens[2]
            if name in rv_by_id or name in factor_ids:
                raise ParseError(lineno, f"duplicate node name {name!r}")
            args = _split_csv(tokens[3], lineno, "argument")
            for a in args:
                if a not in rv_by_id:
                    raise ParseError(lineno, f"factor {name!r} references undeclared RV {a!r}")
            if len(set(args)) != len(args):
                raise ParseError(lineno, f"factor {name!r} repeats an argument")
            if state == "unknown":
                if len(tokens) != 4:
                    raise ParseError(lineno, "unknown factor takes no entries")
                factors.append(Factor(name, tuple(args)))
            elif state == "known":
                if len(tokens) != 5:
                    raise ParseError(lineno, "known factor needs exactly one entries list")
                shape = tuple(len(rv_by_id[a].range) for a in args)
                raw = _split_csv(tokens[4], lineno, "entries")
                if len(raw) != prod(shape):
                    raise ParseError(
                        lineno,
                        f"factor {name!r} needs {prod(shape)} entries for shape {shape}, got {len(raw)}",
                    )
                try:
                    entries = [float(x) for x in raw]
                except ValueError:
                    raise ParseError(lineno, f"factor {name!r} has a non-numeric entry") from None
                factors.append(Factor(name, tuple(args), PotentialTable(shape, entries)))
            else:
                raise ParseError(lineno, f"factor state must be 'known' or 'unknown', got {state!r}")
            factor_ids.add(name)
        else:
            raise ParseError(lineno, f"unrecognised directive {kind!r}")
    return FactorGraph(rvs, factors)


def _reference_check_token(token: str, what: str) -> str:
    if token == "" or any(c in _SEPARATORS for c in token):
        raise ValueError(f"{what} {token!r} cannot be written to the text format")
    return token


def reference_serialize_model(fg: FactorGraph) -> str:
    lines: list[str] = []
    for rv in fg.rvs:
        _reference_check_token(rv.id, "rv name")
        values = ",".join(_reference_check_token(v, "range value") for v in rv.range.values)
        lines.append(f"rv {rv.id} {values}")
    for f in fg.factors:
        _reference_check_token(f.id, "factor name")
        args = ",".join(_reference_check_token(a, "argument") for a in f.args)
        if f.table is None:
            lines.append(f"factor {f.id} unknown {args}")
        else:
            entries = ",".join(format(x, ".17g") for x in f.table.entries)
            lines.append(f"factor {f.id} known {args} {entries}")
    return "\n".join(lines) + "\n"


def reference_validate(fg: FactorGraph) -> list[Violation]:
    out: list[Violation] = []
    rv_ids = {rv.id for rv in fg.rvs}
    for rv in fg.rvs:
        if rv.evidence is not None and rv.evidence not in rv.range:
            out.append(
                Violation("bad-evidence", rv.id, f"evidence {rv.evidence!r} not in range {rv.range.values}")
            )
    for f in fg.factors:
        if not f.args:
            out.append(Violation("empty-args", f.id, "factor has no arguments"))
            continue
        if len(set(f.args)) != len(f.args):
            out.append(Violation("repeated-arg", f.id, f"arguments repeat: {f.args}"))
        dangling = [a for a in f.args if a not in rv_ids]
        for a in dangling:
            out.append(Violation("dangling-arg", f.id, f"argument {a!r} is not an RV"))
        if f.table is None:
            continue
        if dangling or len(set(f.args)) != len(f.args):
            continue
        expected = tuple(len(fg.rv(a).range) for a in f.args)
        if f.table.shape != expected:
            out.append(
                Violation("shape-mismatch", f.id, f"table shape {f.table.shape} != arg ranges {expected}")
            )
            continue
        arr = f.table.array
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
            bad = int(np.sum(~(np.isfinite(arr) & (arr > 0.0))))
            out.append(
                Violation(
                    "non-positive-potential",
                    f.id,
                    f"{bad} entr{'y' if bad == 1 else 'ies'} not strictly positive and finite",
                )
            )
    return out


def _unshared(fg: FactorGraph) -> FactorGraph:
    """The same graph with a table object of its own for every known factor."""
    return FactorGraph(
        fg.rvs,
        tuple(Factor(f.id, f.args, None if f.table is None else PotentialTable(f.table.shape, f.table.entries))
              for f in fg.factors),
    )


# -- inputs ----------------------------------------------------------------------


def _generated(d: int, p: float, seed: int):
    cfg = ExperimentConfig(
        d=d, p=p, unknown_fraction=0.2, cohorts=3, queries_per_instance=3, theta=0.0, seed=seed
    )
    return generate_instance(cfg)


GENERATED = [(8, 0.5, 1), (16, 0.2, 2), (32, 0.9, 3), (64, 0.3, 4), (128, 0.7, 5), (256, 0.5, 6)]


def _pool(name: str, seed: int):
    """(model text, background text, rtol, truth) of each input in the
    benchmark's ``lift`` or ``lift-bk`` pool."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import Calls

    return [
        (inp.text, inp.bk_text, inp.rtol, inp.truth) for inp in workloads._lift_pool(name, seed, "full", Calls())
    ]


def _assert_parse_and_serialize_match(text: str) -> FactorGraph:
    fg = parse_model(text)
    assert fg == reference_parse_model(text)
    assert serialize_model(fg) == reference_serialize_model(fg) == text
    return fg


def _assert_tables_shared_by_token(text: str, fg: FactorGraph) -> None:
    """Known factors share a table object iff their shapes and entries tokens are equal."""
    by_key: dict[tuple, PotentialTable] = {}
    for _, tokens in _tokenize(text):
        if tokens[0] == "factor" and tokens[2] == "known":
            table = fg.factor(tokens[1]).table
            key = (table.shape, tokens[4])
            assert by_key.setdefault(key, table) is table
    assert len({id(t) for t in by_key.values()}) == len(by_key)


# -- differential tests -------------------------------------------------------------


@pytest.mark.parametrize("d,p,seed", GENERATED)
def test_generated_instances_parse_serialize_and_validate_as_before(d, p, seed):
    inst = _generated(d, p, seed)
    for g in (inst.truth, inst.incomplete):
        text = reference_serialize_model(g)
        assert serialize_model(g) == text
        fg = _assert_parse_and_serialize_match(text)
        _assert_tables_shared_by_token(text, fg)
        assert validate(fg) == reference_validate(fg) == []
        assert validate(_unshared(fg)) == []
    assert complete_and_lift(parse_model(serialize_model(inst.incomplete)), 0.0).completed == inst.truth


@pytest.mark.parametrize("name", ["lift", "lift-bk"])
def test_benchmark_pools_parse_serialize_and_complete_as_before(name):
    for seed in (1, 2):
        for text, bk_text, rtol, truth in _pool(name, seed):
            fg = _assert_parse_and_serialize_match(text)
            _assert_tables_shared_by_token(text, fg)
            # a generated model repeats one entries list per (cohort, role)
            assert len({id(f.table) for f in fg.factors if f.table is not None}) < len(fg.factors) / 20
            assert validate(fg) == reference_validate(fg) == []
            bk = None if bk_text is None else parse_background(bk_text)
            shared = complete_and_lift(fg, 0.0, bk, rtol)
            unshared = complete_and_lift(_unshared(fg), 0.0, bk, rtol)
            assert shared.completed == truth
            assert repr(shared) == repr(unshared)
            assert serialize_model(shared.completed) == reference_serialize_model(unshared.completed)
            assert transfer_report_text(shared.report) == transfer_report_text(unshared.report)
            assert grouping_report(shared.grouping) == grouping_report(unshared.grouping)


@pytest.mark.parametrize("rtol", [0.0, 1e-6])
def test_completion_of_random_graphs_does_not_depend_on_sharing(rtol):
    rng = np.random.default_rng(1404)
    realigned = 0
    for _ in range(30):
        g = permuted(random_graph(rng, n_rvs=7, n_factors=9, n_unknown=2), rng)
        fg = parse_model(serialize_model(g))
        shared = complete_and_lift(fg, 0.0, None, rtol)
        assert repr(shared) == repr(complete_and_lift(_unshared(fg), 0.0, None, rtol))
        # each unknown's table is its donor's table moved by its alignment
        for row in shared.report.rows:
            sel = row.chosen
            if sel is not None and sel.accepted:
                donor = fg.factor(sel.donor).table.array
                expected = PotentialTable.from_array(np.transpose(donor, sel.alignment))
                assert shared.completed.factor(row.unknown_factor).table == expected
                realigned += sel.alignment != tuple(range(len(sel.alignment)))
        # grouped members whose table is the class table under another axis order
        realigned += sum(
            shared.completed.factor(m).table != cls.table
            for cls in shared.grouping.factor_classes
            if cls.table is not None
            for m in cls.members
        )
    assert realigned


def test_completed_factors_share_their_donors_table():
    inst = _generated(16, 0.5, 3)
    fg = parse_model(serialize_model(inst.incomplete))
    done = complete_and_lift(fg, 0.0)
    assert not done.report.unresolved
    distinct = {id(f.table) for f in fg.factors if f.table is not None}
    assert {id(f.table) for f in done.completed.factors} <= distinct


def test_violations_match_the_reference_on_damaged_graphs():
    rng = np.random.default_rng(77)
    bad_values = (float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -1.5)
    for _ in range(40):
        g = random_graph(rng, n_rvs=6, n_factors=10, pool_size=2)
        damaged = {}
        for f in g.factors:
            if f.table is not None and rng.random() < 0.4:
                entries = list(f.table.entries)
                for i in rng.choice(len(entries), int(rng.integers(1, len(entries) + 1)), replace=False):
                    entries[int(i)] = bad_values[int(rng.integers(len(bad_values)))]
                damaged[f.id] = PotentialTable(f.table.shape, entries)
        # every damaged table is shared with the next factor of the same shape too
        for f, nxt in zip(g.factors, g.factors[1:]):
            if f.id in damaged and nxt.table is not None and nxt.table.shape == damaged[f.id].shape:
                damaged[nxt.id] = damaged[f.id]
        g = g.with_tables(damaged)
        for fg in (g, parse_model(reference_serialize_model(g))):
            assert validate(fg) == reference_validate(fg) == reference_validate(_unshared(fg))


# -- edge cases -------------------------------------------------------------------


def test_one_entries_token_under_two_shapes_gives_two_tables():
    fg = parse_model(
        "rv A x,y\nrv B x,y\nrv C a,b,c,d\n"
        "factor f known A,B 1,2,3,4\nfactor g known C 1,2,3,4\nfactor h known B,A 1,2,3,4\n"
    )
    f, g, h = (fg.factor(n).table for n in "fgh")
    assert f is h
    assert f is not g and f.shape == (2, 2) and g.shape == (4,)
    assert f.entries == g.entries


def test_equal_values_written_differently_give_equal_tables():
    fg = parse_model("rv A x,y\nrv B x,y\nfactor f known A 1,2\nfactor g known B 1.0,2e0\n")
    f, g = fg.factor("f").table, fg.factor("g").table
    assert f is not g
    assert f == g and hash(f) == hash(g)


def test_rvs_repeating_a_value_list_share_one_range():
    fg = parse_model("rv A x,y\nrv B x,y\nrv C y,x\n")
    assert fg.rv("A").range is fg.rv("B").range
    assert fg.rv("C").range is not fg.rv("A").range
    assert fg == reference_parse_model("rv A x,y\nrv B x,y\nrv C y,x\n")


def _reference_error(text: str) -> tuple[int, str]:
    with pytest.raises(ParseError) as exc:
        reference_parse_model(text)
    return exc.value.line, str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        # malformed entries tokens, repeated
        "rv A x,y\nfactor f known A 1,,2\nfactor g known A 1,,2\n",
        "rv A x,y\nfactor f known A 1,z\nrv B x,y\nfactor g known B 1,z\n",
        "rv A x,y\nfactor f known A 1,2,3\nfactor g known A 1,2,3\n",
        # a token that parsed under one shape is checked again under another
        "rv A x,y\nrv B x,y\nfactor f known A 1,2\nfactor g known A,B 1,2\n",
        # a token that parsed once, then a malformed one
        "rv A x,y\nfactor f known A 1,2\nfactor g known A 1,2\nfactor h known A 1,q\n",
        # malformed range tokens, repeated
        "rv A x,,y\nrv B x,,y\n",
        "rv A x,x\nrv B x,x\n",
        "rv A x,y\nrv B x,y\nrv C x\n",
    ],
)
def test_malformed_repeated_tokens_report_their_first_line(text):
    line, message = _reference_error(text)
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert (exc.value.line, str(exc.value)) == (line, message)


def test_shared_bad_table_gives_one_violation_per_factor():
    text = (
        "rv A x,y\nrv B x,y\nrv C x,y\n"
        "factor f known A nan,1\nfactor g known B 2,3\nfactor h known B nan,1\n"
        "factor i known C 0,-1\nfactor j known C nan,1\nfactor k known A 0,-1\n"
    )
    fg = parse_model(text)
    assert fg.factor("f").table is fg.factor("h").table is fg.factor("j").table
    assert fg.factor("i").table is fg.factor("k").table
    violations = validate(fg)
    assert [(v.subject, v.detail.split(" not")[0]) for v in violations] == [
        ("f", "1 entry"), ("h", "1 entry"), ("i", "2 entries"), ("j", "1 entry"), ("k", "2 entries")
    ]
    assert violations == reference_validate(fg) == reference_validate(_unshared(fg))


def test_shared_nan_table_equals_no_table():
    text = "rv A x,y\nrv B x,y\nfactor f known A nan,1\nfactor g known B nan,1\n"
    fg = parse_model(text)
    t = fg.factor("f").table
    assert fg.factor("g").table is t
    assert not t == t and t != t
    assert t != PotentialTable((2,), (float("nan"), 1.0))
    assert parse_model(text) != fg
    assert serialize_model(fg) == reference_serialize_model(fg) == text


@pytest.mark.parametrize("name", ["has space", "a,b", "tab\there", "hash#tag", "", "new\nline"])
def test_unwritable_names_raise_the_reference_message(name):
    fg = FactorGraph((RandomVariable(name, range_of(2)),), ())
    with pytest.raises(ValueError) as expected:
        reference_serialize_model(fg)
    with pytest.raises(ValueError) as exc:
        serialize_model(fg)
    assert str(exc.value) == str(expected.value)
