"""End-to-end CLI coverage, in process via main(argv)."""
import numpy as np
import pytest

from fglift import (
    ExperimentConfig,
    GenerationInfeasible,
    InconsistentEvidence,
    PotentialTable,
    parse_model,
    parse_queries,
    serialize_background,
    serialize_evidence,
    serialize_model,
    generate_instance,
    variable_elimination,
)
from fglift.cli import main
from conftest import (
    T1,
    T2P,
    chain_graph,
    epidemic_four,
    epidemic_with_eve,
    eve_dave_bk,
)

UNRESOLVABLE = """\
rv A false,true
rv B false,true
factor u unknown A
factor k known A,B 1,2,3,4
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def model_file(tmp_path, fg, name="model.txt"):
    return write(tmp_path / name, serialize_model(fg))


def test_lift_completes_and_writes_reports(tmp_path):
    model = model_file(tmp_path, epidemic_with_eve())
    out = tmp_path / "completed.txt"
    report = tmp_path / "transfer.txt"
    grouping = tmp_path / "grouping.txt"
    rc = main(
        [
            "lift",
            "--model",
            model,
            "--theta",
            "0",
            "--out",
            str(out),
            "--report",
            str(report),
            "--grouping",
            str(grouping),
        ]
    )
    assert rc == 0
    completed = parse_model(out.read_text())
    assert completed.is_complete
    assert completed.factor("f1_eve").table == PotentialTable((2, 2, 2), T1)
    assert " unknown " not in out.read_text()
    assert report.read_text().count("\n") == 4
    assert "chosen=f1_alice" in report.read_text()
    assert "class 0 kind=rv" in grouping.read_text()

    # byte-identical on a second run
    before = (out.read_bytes(), report.read_bytes(), grouping.read_bytes())
    assert main(["lift", "--model", model, "--theta", "0", "--out", str(out),
                 "--report", str(report), "--grouping", str(grouping)]) == 0
    assert (out.read_bytes(), report.read_bytes(), grouping.read_bytes()) == before


def test_lift_strict_exits_3_on_unresolved(tmp_path):
    model = write(tmp_path / "m.txt", UNRESOLVABLE)
    out = tmp_path / "completed.txt"
    rc = main(["lift", "--model", model, "--theta", "0", "--out", str(out), "--strict"])
    assert rc == 3
    # the partial completion is still written
    assert "factor u unknown A" in out.read_text()
    assert main(["lift", "--model", model, "--theta", "0", "--out", str(out)]) == 0


def test_lift_with_background_knowledge(tmp_path, capsys):
    model = model_file(tmp_path, epidemic_four())
    bk = write(tmp_path / "bk.txt", serialize_background(eve_dave_bk()))
    out = tmp_path / "completed.txt"
    rc = main(["lift", "--model", model, "--theta", "0", "--bk", bk, "--out", str(out)])
    assert rc == 0
    completed = parse_model(out.read_text())
    assert completed.factor("f2_eve_m1").table == PotentialTable((2, 2, 2), T2P)

    ghost = write(tmp_path / "bad_bk.txt", "individual eve f1_eve,ghost\n")
    rc = main(["lift", "--model", model, "--theta", "0", "--bk", ghost, "--out", str(out)])
    assert rc == 2
    assert "invalid background knowledge" in capsys.readouterr().err


def test_lift_rejects_negative_rtol(tmp_path, capsys):
    model = model_file(tmp_path, epidemic_four())
    out = tmp_path / "completed.txt"
    assert main(["lift", "--model", model, "--theta", "0", "--rtol=-1e-6",
                 "--out", str(out)]) == 2
    assert "rtol must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_lift_theta_changes_outcome(tmp_path):
    model = model_file(tmp_path, epidemic_four())
    out = tmp_path / "completed.txt"
    assert main(["lift", "--model", model, "--theta", "0.9", "--out", str(out),
                 "--strict"]) == 3
    assert main(["lift", "--model", model, "--theta", "0.5", "--out", str(out),
                 "--strict"]) == 0


def test_query_stdout_matches_library(tmp_path, capsys):
    g = chain_graph()
    model = model_file(tmp_path, g)
    rc = main(["query", "--model", model, "--rv", "A", "--rv", "B"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    for line, rv in zip(lines, ("A", "B")):
        name, csv = line.split(" ")
        assert name == rv
        got = tuple(float(x) for x in csv.split(","))
        expected = variable_elimination(g, rv).probabilities
        assert np.allclose(got, expected, atol=1e-12)


def test_query_with_evidence_order_and_outfile(tmp_path):
    g = chain_graph()
    model = model_file(tmp_path, g)
    evidence = write(tmp_path / "ev.txt", serialize_evidence({"C": "true"}))
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert main(["query", "--model", model, "--evidence", evidence, "--rv", "A",
                 "--out", str(out_a)]) == 0
    assert main(["query", "--model", model, "--evidence", evidence, "--rv", "A",
                 "--order", "reverse_id", "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
    got = tuple(float(x) for x in out_a.read_text().split(" ")[1].split(","))
    assert got == pytest.approx((21 / 55, 34 / 55), rel=1e-12)


def test_query_with_several_rvs_matches_per_rv_elimination(tmp_path, capsys):
    inst = generate_instance(ExperimentConfig(
        d=8, p=0.5, unknown_fraction=0.1, cohorts=3, queries_per_instance=3, theta=0.0, seed=1,
    ))
    g = inst.truth
    model = model_file(tmp_path, g)
    observed = next(r for r in g.rvs if r.id not in inst.queries)
    evidence = {observed.id: observed.range.values[1]}
    ev_path = write(tmp_path / "ev.txt", serialize_evidence(evidence))
    rv_args = [a for q in inst.queries for a in ("--rv", q)]
    for extra, ev in [([], None), (["--evidence", ev_path], evidence)]:
        for order in ("min_degree", "reverse_id"):
            assert main(["query", "--model", model, *rv_args, *extra, "--order", order]) == 0
            expected = "".join(
                f"{q} " + ",".join(format(p, ".12g") for p in
                                   variable_elimination(g, q, ev, order=order).probabilities) + "\n"
                for q in inst.queries
            )
            assert capsys.readouterr().out == expected


def test_query_error_paths(tmp_path, capsys):
    incomplete = write(tmp_path / "m.txt", UNRESOLVABLE)
    assert main(["query", "--model", incomplete, "--rv", "A"]) == 2
    model = model_file(tmp_path, chain_graph())
    assert main(["query", "--model", model, "--rv", "Missing"]) == 2
    assert main(["query", "--model", str(tmp_path / "absent.txt"), "--rv", "A"]) == 2
    capsys.readouterr()


def test_invalid_model_reports_violations(tmp_path, capsys):
    bad = write(tmp_path / "m.txt", "rv A false,true\nfactor f known A 1,0\n")
    assert main(["query", "--model", bad, "--rv", "A"]) == 2
    assert "invalid model" in capsys.readouterr().err


def test_generate_writes_deterministic_instance(tmp_path):
    args = [
        "generate", "--d", "4", "--p", "0.5", "--unknown-frac", "0.1",
        "--seed", "11", "--cohorts", "4",
        "--out-truth", str(tmp_path / "truth.txt"),
        "--out-incomplete", str(tmp_path / "incomplete.txt"),
        "--out-queries", str(tmp_path / "queries.txt"),
    ]
    assert main(args) == 0
    truth = parse_model((tmp_path / "truth.txt").read_text())
    incomplete = parse_model((tmp_path / "incomplete.txt").read_text())
    queries = parse_queries((tmp_path / "queries.txt").read_text())
    assert truth.is_complete and not incomplete.is_complete
    assert len(queries) == 3 and all(truth.has_rv(q) for q in queries)

    first = (tmp_path / "truth.txt").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "truth.txt").read_bytes() == first


def test_generate_parameter_errors(tmp_path, capsys):
    base = [
        "--out-truth", str(tmp_path / "t.txt"),
        "--out-incomplete", str(tmp_path / "i.txt"),
        "--out-queries", str(tmp_path / "q.txt"),
    ]
    assert main(["generate", "--d", "300", "--p", "0.5", "--unknown-frac", "0.1",
                 "--seed", "0"] + base) == 2
    # a feasible grid point that no cohort layout can satisfy
    assert main(["generate", "--d", "2", "--p", "0.5", "--unknown-frac", "0.1",
                 "--seed", "0", "--cohorts", "5"] + base) == 3
    capsys.readouterr()


def test_generate_free_mode_complete_instance(tmp_path):
    assert main([
        "generate", "--d", "3", "--p", "0.35", "--unknown-frac", "0",
        "--seed", "5", "--free-mode",
        "--out-truth", str(tmp_path / "t.txt"),
        "--out-incomplete", str(tmp_path / "i.txt"),
        "--out-queries", str(tmp_path / "q.txt"),
    ]) == 0
    assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "i.txt").read_bytes()


def test_evaluate_and_report_round_trip(tmp_path, capsys):
    tsv = tmp_path / "rows.tsv"
    rc = main(["evaluate", "--d", "2,4", "--p", "0.5", "--unknown-frac", "0.1",
               "--seeds", "2", "--out", str(tsv)])
    assert rc == 0
    lines = tsv.read_text().strip().split("\n")
    assert lines[0] == "d\tp\tunknown_frac\tseed\tquery\tkld"
    assert lines[-1].startswith("# summary instances=4 failed=0 ")
    data = [l.split("\t") for l in lines[1:-1]]
    assert all(len(row) == 6 for row in data)
    assert {row[0] for row in data} == {"2", "4"}
    assert all(float(row[5]) == 0.0 for row in data)

    assert main(["report", "--rows", str(tsv)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    assert out[0].startswith("d=2 p=0.5 queries=")
    assert "median_kld=0 max_kld=0" in out[0]
    assert out[1].startswith("d=4 p=0.5 queries=")

    report_file = tmp_path / "report.txt"
    assert main(["report", "--rows", str(tsv), "--out", str(report_file)]) == 0
    assert report_file.read_text().strip().split("\n") == out


def test_evaluate_counts_failing_instances_and_keeps_going(tmp_path, capsys, monkeypatch):
    import fglift.cli as cli

    real = cli.run_experiment
    failures = {
        (4, 0): InconsistentEvidence("distribution is identically zero under evidence"),
        (2, 1): GenerationInfeasible("no layout"),
    }

    def flaky(cfg):
        if (cfg.d, cfg.seed) in failures:
            raise failures[(cfg.d, cfg.seed)]
        return real(cfg)

    monkeypatch.setattr(cli, "run_experiment", flaky)
    tsv = tmp_path / "rows.tsv"
    rc = main(["evaluate", "--d", "2,4", "--p", "0.5", "--unknown-frac", "0.1",
               "--seeds", "2", "--out", str(tsv)])
    assert rc == 0
    lines = tsv.read_text().strip().split("\n")
    assert lines[0] == "d\tp\tunknown_frac\tseed\tquery\tkld"
    data = [l.split("\t") for l in lines[1:-1]]
    assert {(row[0], row[3]) for row in data} == {("2", "0"), ("4", "1")}
    assert all(float(row[5]) == 0.0 for row in data)
    assert lines[-1].startswith(f"# summary instances=4 failed=2 queries={len(data)} ")
    err = capsys.readouterr().err
    assert "d=4 p=0.5 unknown_frac=0.1 seed=0: distribution is identically zero" in err
    assert "d=2 p=0.5 unknown_frac=0.1 seed=1: no layout" in err


def test_evaluate_answers_the_largest_grid_cells(tmp_path):
    # d = 128 and 256 multiply hundreds of tables per marginal, far past
    # float64 range unless elimination rescales its messages
    tsv = tmp_path / "rows.tsv"
    rc = main(["evaluate", "--d", "128,256", "--p", "0.5", "--unknown-frac", "0.1",
               "--seeds", "3", "--out", str(tsv)])
    assert rc == 0
    lines = tsv.read_text().strip().split("\n")
    data = [l.split("\t") for l in lines[1:-1]]
    assert lines[-1].startswith(f"# summary instances=6 failed=0 queries={len(data)} ")
    assert {(row[0], row[3]) for row in data} == {(d, s) for d in ("128", "256") for s in "012"}
    assert all(float(row[5]) == 0.0 for row in data)


def test_evaluate_rejects_empty_sweep(tmp_path, capsys):
    assert main(["evaluate", "--d", "", "--p", "0.5", "--unknown-frac", "0.1",
                 "--out", str(tmp_path / "o.tsv")]) == 2
    capsys.readouterr()


def test_report_rejects_malformed_rows(tmp_path, capsys):
    bad = write(tmp_path / "bad.tsv", "2\t0.5\t0.1\t0\tq\n")
    assert main(["report", "--rows", bad]) == 2
    worse = write(tmp_path / "worse.tsv", "2\t0.5\t0.1\t0\tq\tnot-a-number\n")
    assert main(["report", "--rows", worse]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
