"""CLI subcommands: envelope schema, determinism, exit codes."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import boolebell
from boolebell import classical, cli, leggett_garg, pipeline, tables
from boolebell.cli import main
from boolebell.datasets import dataset_csv_text

UNIFORM_TABLE = {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25}
SCHEMA = json.loads(resources.files("boolebell.schemas")
                    .joinpath("report.schema.json").read_text())


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return envelope


def parse_error(capsys, argv):
    """The one `error:` line of an invocation refused at argument parsing."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    return errors[0]


class TestSubcommands:
    def test_dataset(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "ds.csv"
        path.write_text(dataset_csv_text(rng.choice([-1, 1], (20, 3))), newline="")
        env = run_json(capsys, ["dataset", "--input", str(path)])
        assert env["reports"]["boole_triple"]["all_satisfied"] is True

    def test_ebbi_check_names_violated_clause(self, capsys):
        env = run_json(capsys, ["ebbi", "check", "--e", "1", "-0.5", "0.5", "-0.5"])
        assert env["reports"]["ebbi"]["all_satisfied"] is True
        anti = env["reports"]["boole_anticorrelated"]
        assert anti["all_satisfied"] is False
        violated = [c for c in anti["clauses"] if not c["satisfied"]]
        assert violated and "F12" in violated[0]["description"]

    def test_theorem1(self, capsys):
        env = run_json(capsys, ["theorem", "--which", "1",
                                "--coeffs", "1", "0", "0", "-1.5"])
        assert env["reports"]["theorem1"]["all_satisfied"] is False

    def test_theorem_construct_rejects(self, capsys):
        code = main(["theorem", "--which", "construct",
                     "--coeffs", "1", "-1", "-1", "-1"])
        assert code == 2

    def test_theorem_reconstruct(self, capsys, tmp_path):
        from boolebell import ExpansionCoeffs2, synth2
        tabs = {name: synth2(ExpansionCoeffs2(1, 0, 0, e)).to_dict()
                for name, e in (("f", 0.5), ("fhat", 0.5), ("ftilde", 0.5))}
        path = tmp_path / "tabs.json"
        path.write_text(json.dumps(tabs))
        env = run_json(capsys, ["theorem", "--which", "reconstruct",
                                "--tables", str(path)])
        assert env["values"]["compatible"] is True
        assert "table" in env["values"]

    @pytest.mark.parametrize("e, compatible", [(0.5, True), (-0.9, False)])
    def test_theorem_reconstruct_expands_each_table_once(self, capsys, tmp_path,
                                                          monkeypatch, e, compatible):
        from boolebell import ExpansionCoeffs2, synth2, tables
        path = tmp_path / "tabs.json"
        path.write_text(json.dumps({name: synth2(ExpansionCoeffs2(1, 0, 0, e)).to_dict()
                                    for name in ("f", "fhat", "ftilde")}))
        calls = []
        expand2 = tables.expand2
        monkeypatch.setattr(tables, "expand2", lambda t: calls.append(t) or expand2(t))
        env = run_json(capsys, ["theorem", "--which", "reconstruct", "--tables", str(path)])
        assert len(calls) == 3
        assert env["values"]["compatible"] is compatible
        assert ("table" in env["values"]) is compatible
        assert bool(env["values"]["failures"]) is not compatible
        assert env["reports"]["compatibility"]["all_satisfied"] is compatible

    def test_quantum_singlet(self, capsys):
        env = run_json(capsys, ["quantum", "--scenario", "singlet",
                                "--a", "0", "0", "1", "--b", "1", "0", "0"])
        assert env["values"]["correlation"] == pytest.approx(0.0, abs=1e-12)

    def test_quantum_substitution_witness(self, capsys):
        env = run_json(capsys, ["quantum", "--scenario", "substitution",
                                "--angles", "0", "60", "120"])
        assert env["values"]["E"] == pytest.approx(-0.5, abs=1e-12)
        assert env["reports"]["boole_anticorrelated"]["all_satisfied"] is False

    def test_leggett_garg_closed_form(self, capsys):
        env = run_json(capsys, ["leggett-garg", "--omega", "1",
                                "--dt", "0", "0.5235987755982988",
                                "0.5235987755982988",
                                "--samples", "20000", "--seed", "7"])
        t = env["values"]["triple_correlations"]
        assert t["E12"] == pytest.approx(0.5, abs=1e-12)
        assert t["E13"] == pytest.approx(0.25, abs=1e-12)
        assert t["E23"] == pytest.approx(0.5, abs=1e-12)
        emp = env["values"]["empirical_correlations"]
        assert emp["E12"] == pytest.approx(0.5, abs=0.02)

    def test_extended_eprb_triple(self, capsys):
        env = run_json(capsys, ["extended-eprb", "--angles", "0", "60", "120"])
        assert env["values"]["coeffs"]["e12"] == pytest.approx(-0.5, abs=1e-12)
        assert env["reports"]["ebbi"]["all_satisfied"] is True

    @pytest.mark.parametrize("angles", [("0", "30", "200"), ("0", "150", "20"),
                                        ("10", "-100", "95")])
    def test_extended_eprb_triple_prints_no_negative_zero(self, capsys, angles):
        # c0 = 0 times a negative link of the chain is -0.0 in IEEE arithmetic
        assert main(["extended-eprb", "--angles", *angles]) == 0
        assert "-0.0" not in capsys.readouterr().out

    def test_extended_eprb_quadruple(self, capsys):
        env = run_json(capsys, ["extended-eprb",
                                "--angles", "0", "45", "90", "135"])
        assert env["reports"]["chsh"]["all_satisfied"] is True

    def test_allergy_pairs(self, capsys):
        env = run_json(capsys, ["allergy", "--variant", "pairs"])
        assert env["values"]["gamma"] == -3.0

    def test_allergy_triples(self, capsys):
        env = run_json(capsys, ["allergy", "--variant", "triples", "--days", "7"])
        assert env["values"]["gamma"] == -1.0

    def test_factorizable(self, capsys):
        env = run_json(capsys, ["factorizable", "--mu", "opposite",
                                "--angles", "0", "0", "--samples", "40000",
                                "--seed", "3"])
        assert env["values"]["analytic"] == pytest.approx(4 / np.pi - 1)
        assert abs(env["values"]["empirical"] - env["values"]["analytic"]) \
            <= env["values"]["four_sigma"]

    def test_epr_pipeline(self, capsys, tmp_path):
        events = tmp_path / "events.csv"
        env = run_json(capsys, ["epr-pipeline", "--source", "singlet",
                                "--angles", "0", "60", "120",
                                "--window", "inf", "--samples", "9000",
                                "--seed", "5", "--events-out", str(events)])
        assert env["reports"]["boole_anticorrelated"]["all_satisfied"] is False
        assert env["values"]["verdict_anticorrelated"] == \
            "triples hypothesis rejected"
        assert events.read_text().startswith("alpha,station,s,t,setting_id,angle")

    def test_sweep_factorizable(self, capsys):
        env = run_json(capsys, ["sweep", "--what", "factorizable",
                                "--mu", "uniform",
                                "--grid", "0", "360", "45"])
        assert env["values"]["bell_violations"] == 0

    def test_sweep_leggett_garg(self, capsys):
        env = run_json(capsys, ["sweep", "--what", "leggett-garg",
                                "--points", "12"])
        assert env["values"]["violations"] == 0

    def test_sweep_extended_eprb_reads_start_and_stop(self, capsys):
        env = run_json(capsys, ["sweep", "--what", "extended-eprb",
                                "--grid", "100", "120", "10"])
        assert env["values"]["points"] == 4   # [100, 120) holds 100 and 110
        assert env["params"] == {"grid": [100.0, 120.0, 10.0], "radians": False}
        env = run_json(capsys, ["sweep", "--what", "extended-eprb",
                                "--grid", "0", "360", "30"])
        assert env["values"]["points"] == 144
        assert env["values"]["violations"] == 0

    @pytest.mark.parametrize("log", [False, True])
    def test_event_times_are_generated_only_for_the_log(self, capsys, tmp_path,
                                                        monkeypatch, log):
        # the report counts the events without their times; the log's
        # --events-out generates them once
        from boolebell import pipeline
        calls = []
        generate = pipeline.generate_events
        monkeypatch.setattr(pipeline, "generate_events",
                            lambda *a, **k: calls.append(a) or generate(*a, **k))
        argv = ["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120",
                "--window", "0.3", "--jitter", "1", "--jitter-exponent", "2.7",
                "--samples", "3000", "--seed", "5"]
        env = run_json(capsys, argv + (["--events-out", str(tmp_path / "e.csv")] if log else []))
        assert len(calls) == (1 if log else 0)
        assert env == run_json(capsys, argv)

    def test_events_out_writes_the_events_of_the_run(self, capsys, tmp_path, monkeypatch):
        from boolebell import pipeline
        calls = []
        generate = pipeline.generate_events
        monkeypatch.setattr(pipeline, "generate_events",
                            lambda *a, **k: calls.append(a) or generate(*a, **k))
        events = tmp_path / "events.csv"
        run_json(capsys, ["epr-pipeline", "--source", "pair:opposite",
                          "--angles", "0", "60", "120", "--window", "0.5",
                          "--jitter", "1", "--jitter-exponent", "2",
                          "--samples", "600", "--seed", "11",
                          "--events-out", str(events)])
        assert len(calls) == 1
        # the log the CLI used to write, from a second generation of the schedule
        a, b, c = (pipeline.Setting(i, np.radians(v)) for i, v in zip("abc", (0, 60, 120)))
        schedule = [pipeline.SettingPair(a, b), pipeline.SettingPair(a, c),
                    pipeline.SettingPair(b, c)]
        reference = tmp_path / "reference.csv"
        generate(calls[0][0], schedule, 600, pipeline.TimingModel(1.0, 2.0), 11
                 ).write_csv(reference)
        assert events.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("window", ["inf", "0.3"])
    @pytest.mark.parametrize("source", ["singlet", "triple", "pair:uniform", "pair:equal",
                                        "pair:opposite"])
    def test_event_log_recounts_to_the_report(self, capsys, tmp_path, source, window):
        # the report counts without storing an event time, the log is written
        # by a second generation: reading the log back and keeping its pairs
        # with |t1 - t2| <= W gives the report's counts per setting pair
        events = tmp_path / "events.csv"
        env = run_json(capsys, ["epr-pipeline", "--source", source,
                                "--angles", "0", "60", "120", "--window", window,
                                "--jitter", "0.5", "--jitter-exponent", "1",
                                "--samples", "6000", "--seed", "7",
                                "--events-out", str(events)])
        with open(events, newline="") as fh:
            rows = csv.reader(fh)
            assert next(rows) == ["alpha", "station", "s", "t", "setting_id", "angle"]
            kept = [one[4] + two[4] for one, two in zip(rows, rows)
                    if abs(float(one[3]) - float(two[3])) <= float(window)]
        counts = env["values"]["counts"]
        assert counts == {key: kept.count(key) for key in ("ab", "ac", "bc")}
        assert sum(counts.values()) == len(kept) > 0

    def test_sweep_chsh_memory_is_cubic(self, tmp_path):
        # 73 angles: the n^4 tensor alone would take 227 MB
        probe = ("import resource, subprocess, sys\n"
                 "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
                 "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(boolebell.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", probe, sys.executable, "-m", "boolebell.cli",
             "sweep", "--what", "factorizable", "--grid", "0", "720", "10"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        assert int(out.stdout) < 100 * 1024   # ru_maxrss is in KiB on Linux


class TestCliBehavior:
    def test_violation_is_not_an_error_exit(self, capsys):
        code = main(["ebbi", "check", "--e", "1", "-1", "-1", "-1"])
        assert code == 0
        env = json.loads(capsys.readouterr().out)
        assert env["reports"]["ebbi"]["all_satisfied"] is False

    def test_missing_file_exit_code(self, capsys):
        assert main(["dataset", "--input", "/nonexistent.csv"]) == 2

    @pytest.mark.parametrize("under_file", [False, True], ids=["directory", "under-a-file"])
    @pytest.mark.parametrize("argv", [
        ["dataset", "--input"],
        ["theorem", "--which", "reconstruct", "--tables"],
        ["ebbi", "--e", "1", "0", "0", "0", "--out"],
        ["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120",
         "--samples", "10", "--seed", "1", "--events-out"],
    ], ids=lambda argv: argv[-1])
    def test_path_that_cannot_be_a_file_exits_2(self, capsys, tmp_path, argv, under_file):
        path = tmp_path
        if under_file:
            (tmp_path / "file").write_text("")
            path = tmp_path / "file" / "x"
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_seed_required_for_random_scenarios(self, capsys):
        with pytest.raises(SystemExit):
            main(["factorizable", "--mu", "uniform", "--angles", "0", "1"])

    def test_determinism(self, capsys):
        argv = ["leggett-garg", "--omega", "1", "--dt", "0", "0.4", "0.9",
                "--samples", "5000", "--seed", "42"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_table_format(self, capsys):
        code = main(["ebbi", "check", "--e", "1", "0", "0", "0",
                     "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario: ebbi" in out and "satisfied" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["allergy", "--variant", "pairs", "--out", str(path)])
        assert code == 0
        env = json.loads(path.read_text())
        jsonschema.validate(env, SCHEMA)

    def test_radians_flag(self, capsys):
        env = run_json(capsys, ["quantum", "--scenario", "substitution",
                                "--angles", "0", "1.0471975511965976",
                                "2.0943951023931953", "--radians"])
        assert env["values"]["E"] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--what", "leggett-garg", "--points", "0"],
        ["--what", "leggett-garg", "--points", "-3"],
        ["--what", "factorizable", "--grid", "0", "720", "0"],
        ["--what", "extended-eprb", "--grid", "0", "360", "-10"],
        ["--what", "factorizable", "--grid", "0", "720", "nan"],
        ["--what", "extended-eprb", "--grid", "0", "inf", "10"],
    ])
    def test_invalid_sweep_is_one_error_line(self, capsys, argv):
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_leggett_garg_sweep_does_not_read_the_grid(self, capsys):
        argv = ["sweep", "--what", "leggett-garg", "--points", "5"]
        assert run_json(capsys, [*argv, "--grid", "0", "1", "0"]) == run_json(capsys, argv)

    @pytest.mark.parametrize("argv", [
        ["--what", "factorizable", "--grid", "0", "1e6", "1"],
        ["--what", "factorizable", "--grid", "0", "300", "1"],
        ["--what", "extended-eprb", "--grid", "0", "1e12", "1"],
        ["--what", "extended-eprb", "--grid", "0", "1e308", "1e-300"],
        ["--what", "leggett-garg", "--points", "100000000"],
    ])
    def test_oversized_sweep_is_refused_before_allocating(self, capsys, monkeypatch, argv):
        from boolebell import classical, leggett_garg, quantum

        def boom(*args, **kwargs):
            raise AssertionError("allocated before the size check")
        for owner, name in ((np, "arange"), (np, "linspace"),
                            (classical, "model_inequality_sweep"),
                            (quantum, "extended_eprb_sweep"), (leggett_garg, "lg_sweep")):
            monkeypatch.setattr(owner, name, boom)
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "limited to" in lines[0]

    def test_sweep_limits_admit_their_largest_grid(self):
        from boolebell import cli
        assert cli.MAX_FACTORIZABLE_ANGLES == len(np.arange(0, 299 + 1e-9, 1))
        # a time limit of its own, not the grid kernel's block size
        assert cli.MAX_AXIS_POINTS == 1 << 15

    @pytest.mark.parametrize("which", ["1", "3", "construct"])
    def test_theorem_without_coeffs_is_one_error_line(self, capsys, which):
        assert main(["theorem", "--which", which]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --coeffs is required for --which {which}\n"

    @pytest.mark.parametrize("cell", ["257", "255"])
    def test_dataset_cell_out_of_int8_range_is_one_error_line(self, capsys, tmp_path, cell):
        path = tmp_path / "ds.csv"
        path.write_text(f"s1,s2\n1,-1\n{cell},1\n")
        assert main(["dataset", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: every entry must be exactly +1 or -1\n"

    @pytest.mark.parametrize("flag, value", [
        ("--jitter", "inf"), ("--jitter", "nan"), ("--jitter", "-1"),
        ("--jitter-exponent", "nan"), ("--jitter-exponent", "inf"),
        ("--jitter-exponent", "-inf"), ("--jitter", "x")])
    def test_pipeline_floats_are_checked_at_parse_time(self, capsys, monkeypatch, flag, value):
        from boolebell import pipeline

        def boom(*args, **kwargs):
            raise AssertionError("ran the pipeline")
        monkeypatch.setattr(pipeline, "run_three_settings", boom)
        with pytest.raises(SystemExit) as exc:
            main(["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120",
                  "--window", "0.3", "--seed", "1", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}:" in errors[0]
        assert captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["epr-pipeline", "--source", "singlet", "--angles", "nan", "60", "120", "--seed", "1",
          "--samples", "300", "--jitter", "1", "--window", "0.5"], "--angles"),
        (["quantum", "--scenario", "substitution", "--angles", "0", "inf", "120"], "--angles"),
        (["extended-eprb", "--angles", "0", "60", "inf"], "--angles"),
        (["factorizable", "--mu", "equal", "--angles", "nan", "0", "--seed", "1"], "--angles"),
        (["leggett-garg", "--omega", "nan", "--dt", "0", "1", "1", "--seed", "1"], "--omega"),
        (["leggett-garg", "--omega", "1", "--dt", "0", "inf", "1", "--seed", "1"], "--dt"),
        (["ebbi", "check", "--e", "1", "nan", "0", "0"], "--e"),
        (["theorem", "--which", "1", "--coeffs", "1", "0", "0", "inf"], "--coeffs"),
        (["quantum", "--scenario", "filter2", "--x", "nan", "0", "0"], "--x"),
        (["quantum", "--scenario", "singlet", "--a", "0", "nan", "1"], "--a"),
        (["quantum", "--scenario", "singlet", "--b", "inf", "0", "0"], "--b"),
        (["quantum", "--scenario", "commutators", "--c", "0", "nan", "0"], "--c"),
    ])
    def test_float_flags_are_checked_for_finiteness_at_parse_time(self, capsys, tmp_path,
                                                                  argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out"),
                  *(["--events-out", str(tmp_path / "events.csv")]
                    if argv[0] == "epr-pipeline" else [])])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: must be finite" in errors[0]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []   # neither the output nor the event log

    def test_json_output_is_strict(self, capsys):
        from argparse import Namespace
        from boolebell.cli import _emit
        with pytest.raises(ValueError):
            _emit({"values": {"x": float("inf")}}, Namespace(format="json", out=None))

    def test_csv_rejected_for_reports(self, capsys):
        error = parse_error(capsys, ["ebbi", "check", "--e", "1", "0", "0", "0",
                                     "--format", "csv"])
        assert "argument --format: invalid choice: 'csv'" in error

    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        from boolebell.cli import build_parser
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices

        def option(name, flag):
            return next((a for a in subparsers[name]._actions if flag in a.option_strings),
                        None)
        assert {name for name in subparsers if option(name, "--radians")} == {
            "quantum", "extended-eprb", "factorizable", "epr-pipeline", "sweep"}
        assert {name for name in subparsers
                if "csv" in option(name, "--format").choices} == {"factorizable"}

    def test_unread_csv_format_writes_no_event_log(self, capsys, tmp_path, monkeypatch):
        from boolebell import pipeline

        def boom(*args, **kwargs):
            raise AssertionError("ran the pipeline")
        monkeypatch.setattr(pipeline, "run_three_settings", boom)
        events = tmp_path / "e.csv"
        parse_error(capsys, ["epr-pipeline", "--source", "singlet", "--angles", "0", "60",
                             "120", "--samples", "300", "--seed", "1", "--format", "csv",
                             "--events-out", str(events)])
        assert not events.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["leggett-garg", "--omega", "1", "--dt", "0", "1", "1", "--samples", "1000000",
          "--seed", "1", "--radians"], "--radians"),
        (["ebbi", "check", "--e", "1", "0", "0", "0", "--radians"], "--radians"),
        (["sweep", "--what", "factorizable", "--format", "csv"], "--format"),
        (["sweep", "--what", "leggett-garg", "--format", "csv"], "--format"),
    ])
    def test_unread_flags_are_refused_before_any_work(self, capsys, monkeypatch, argv, flag):
        from boolebell import classical, leggett_garg, quantum

        def boom(*args, **kwargs):
            raise AssertionError("did the work")
        for owner, name in ((leggett_garg, "sample_triples"), (leggett_garg, "lg_sweep"),
                            (classical, "model_inequality_sweep"),
                            (quantum, "extended_eprb_sweep")):
            monkeypatch.setattr(owner, name, boom)
        error = parse_error(capsys, argv)
        assert (f"unrecognized arguments: {flag}" in error
                or f"argument {flag}: invalid choice" in error)

    @pytest.mark.parametrize("argv", [
        ["epr-pipeline", "--source", "pair:bogus", "--angles", "0", "1", "2", "--seed", "1"],
        ["epr-pipeline", "--source", "bogus", "--angles", "0", "1", "2", "--seed", "1"],
        ["sweep", "--what", "factorizable", "--mu", "delta_equal"],
    ])
    def test_unknown_models_are_bad_choices(self, capsys, argv):
        assert "invalid choice" in parse_error(capsys, argv)

    def test_negative_floats_in_exponent_form(self, capsys):
        env = run_json(capsys, ["extended-eprb", "--angles", "0", "60", "-1e2"])
        assert env["params"]["angles"] == [0.0, 60.0, -100.0]
        env = run_json(capsys, ["factorizable", "--mu", "equal", "--angles", "-1E-3", "-.5e1",
                                "--samples", "10", "--seed", "1"])
        assert env["params"]["angles"] == [-0.001, -5.0]
        assert parse_error(capsys, ["extended-eprb", "--angles", "0", "60", "-inf"]).endswith(
            "argument --angles: must be finite, got '-inf'")

    def test_csv_sample_dump(self, capsys):
        code = main(["factorizable", "--mu", "equal", "--angles", "10", "10",
                     "--samples", "50", "--seed", "1", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "s1,s2"
        assert len(out.splitlines()) == 51

    @pytest.mark.parametrize("argv, message", [
        (["quantum", "--scenario", "filter2", "--x", "1e200", "0", "0"],
         "polarization vector must satisfy |x| <= 1"),
        (["quantum", "--scenario", "singlet", "--a", "1e200", "0", "0"],
         "is not a unit vector (norm 1e+200)"),
        (["ebbi", "--e", "1", "2", "0", "0"], "--e E12/E0=2.0 outside [-1, 1]"),
        (["leggett-garg", "--omega", "1e308", "--dt", "0", "10", "0", "--seed", "1"],
         "total phase 2 omega (dt1 + dt2 + dt3) must be finite"),
        (["extended-eprb", "--angles", "1e308", "-1e308", "0", "--radians"],
         "differences must be finite"),
        (["epr-pipeline", "--source", "singlet", "--angles", "1e308", "-1e308", "0",
          "--radians", "--samples", "100", "--seed", "1"], "difference must be finite"),
        (["factorizable", "--mu", "uniform", "--angles", "1e308", "-1e308", "--radians",
          "--samples", "10", "--seed", "1"], "difference must be finite"),
        (["quantum", "--scenario", "singlet", "--a", "2", "0", "0"],
         "error: --a: [2. 0. 0.] is not a unit vector (norm 2.0)\n"),
        (["quantum", "--scenario", "filter2", "--x", "2", "0", "0"],
         "error: --x: polarization vector must satisfy |x| <= 1, got [2. 0. 0.]\n"),
        (["quantum", "--scenario", "commutators", "--b", "0", "2", "0"],
         "error: --b: [0. 2. 0.] is not a unit vector (norm 2.0)\n"),
        (["theorem", "--which", "3", "--coeffs", "2", "0", "0", "1"],
         "error: --coeffs: |e|=2.0 exceeds e0=1.0\n"),
        (["ebbi", "--e", "-1", "0", "0", "0"],
         "error: --e: e0 must be non-negative, got -1.0\n"),
        (["sweep", "--what", "factorizable", "--grid", "10", "0", "5"],
         "error: --grid: grid must contain at least one angle\n"),
        (["sweep", "--what", "extended-eprb", "--grid", "10", "10", "5"],
         "error: --grid: grid must contain at least one point\n"),
        (["sweep", "--what", "leggett-garg", "--points", "0"],
         "error: --points: need at least one grid point per axis, got 0\n"),
    ])
    def test_handler_refusals_write_one_stderr_line(self, capsys, argv, message):
        # RuntimeWarnings are errors in this suite, so a numpy warning on the
        # way to the refusal fails the test rather than being captured
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["leggett-garg", "--omega", "1", "--dt", "-1", "0", "0", "--seed", "1"],
         "argument --dt: must be non-negative, got '-1'"),
        (["leggett-garg", "--omega", "1", "--dt", "1", "0", "0", "--samples", "-1",
          "--seed", "1"], "argument --samples: must be at least 0, got '-1'"),
        (["allergy", "--variant", "pairs", "--days", "0"],
         "argument --days: must be at least 1, got '0'"),
        (["allergy", "--variant", "pairs", "--days", "1.5"],
         "argument --days: invalid int value: '1.5'"),
        (["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120",
          "--samples", "0", "--seed", "1"], "argument --samples: must be at least 1, got '0'"),
        (["factorizable", "--mu", "uniform", "--angles", "0", "60", "--samples", "0",
          "--seed", "1"], "argument --samples: must be at least 1, got '0'"),
        (["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120",
          "--samples", "10", "--seed", "-1"], "argument --seed: must be at least 0, got '-1'"),
        (["factorizable", "--mu", "uniform", "--angles", "0", "60", "--seed", "-5"],
         "argument --seed: must be at least 0, got '-5'"),
        (["allergy", "--variant", "triples", "--seed", "-1"],
         "argument --seed: must be at least 0, got '-1'"),
        (["leggett-garg", "--omega", "1", "--dt", "0", "1", "1", "--samples", "0",
          "--seed", "-1"], "argument --seed: must be at least 0, got '-1'"),
    ])
    def test_counts_and_intervals_are_checked_at_parse_time(self, capsys, argv, message):
        assert parse_error(capsys, argv).endswith(message)

    def test_overflowing_clause_is_one_error_line_naming_it(self, capsys):
        assert main(["ebbi", "--e", "1e308", "1e308", "1e308", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: clause '|e12 + e13| <= e0 + e23' is not finite: "
                                "lhs=inf, rhs=inf\n")

    @pytest.mark.parametrize("flag, value", [
        ("--window", "abc"), ("--window", "0"), ("--window", "-1"), ("--window", "nan"),
        ("--window", "-inf"), ("--jitter-exponent", "-400"), ("--jitter-exponent", "-1e-3")])
    def test_window_and_exponent_are_checked_at_parse_time(self, capsys, tmp_path,
                                                           monkeypatch, flag, value):
        from boolebell import pipeline

        def boom(*args, **kwargs):
            raise AssertionError("ran the pipeline")
        monkeypatch.setattr(pipeline, "run_three_settings", boom)
        events = tmp_path / "e.csv"
        error = parse_error(capsys, ["epr-pipeline", "--source", "singlet", "--angles", "0",
                                     "60", "120", "--seed", "1", "--jitter", "1",
                                     "--events-out", str(events), flag, value])
        assert f"argument {flag}:" in error
        assert not events.exists()

    @pytest.mark.parametrize("window, value", [("INF", math.inf), ("1e400", math.inf),
                                               ("0.30", 0.3)])
    def test_window_text_is_echoed_as_typed(self, capsys, monkeypatch, window, value):
        from boolebell import pipeline
        run = pipeline.run_three_settings
        windows = []
        monkeypatch.setattr(pipeline, "run_three_settings",
                            lambda *args: windows.append(args[6]) or run(*args))
        env = run_json(capsys, ["epr-pipeline", "--source", "singlet", "--angles", "0", "60",
                                "120", "--samples", "30", "--seed", "1", "--window", window])
        assert env["params"]["window"] == window and windows == [value]

    @pytest.mark.parametrize("spec", [
        {"f": {"++": 0.25}, "fhat": UNIFORM_TABLE, "ftilde": UNIFORM_TABLE},   # a sign key
        {"f": UNIFORM_TABLE, "ftilde": UNIFORM_TABLE},                        # a table
        [UNIFORM_TABLE] * 3,                                                  # not an object
        {"f": {}, "fhat": UNIFORM_TABLE, "ftilde": UNIFORM_TABLE},            # no keys
        {"f": dict(UNIFORM_TABLE, **{"+x": 0}), "fhat": UNIFORM_TABLE,
         "ftilde": UNIFORM_TABLE},                                            # an extra key
        {"f": [0.25] * 4, "fhat": UNIFORM_TABLE, "ftilde": UNIFORM_TABLE},    # a list table
        {"f": dict(UNIFORM_TABLE, **{"--": {}}), "fhat": UNIFORM_TABLE,
         "ftilde": UNIFORM_TABLE},                                            # not a number
    ])
    def test_malformed_tables_file_is_one_error_line(self, capsys, tmp_path, spec):
        path = tmp_path / "tabs.json"
        path.write_text(json.dumps(spec))
        assert main(["theorem", "--which", "reconstruct", "--tables", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    @pytest.mark.parametrize("name, text, argv, message", [
        ("ds.csv", 's1,s2\n"' + "1" * 200_000 + "\n", ["dataset", "--input"],
         "error: {path}:2: field larger than field limit (131072)\n"),
        ("tabs.json", "[" * 100_000 + "]" * 100_000,
         ["theorem", "--which", "reconstruct", "--tables"],
         "error: --tables: JSON nested too deeply to read\n"),
    ], ids=["csv field", "json depth"])
    def test_oversized_input_file_is_one_error_line(self, capsys, tmp_path, name, text,
                                                    argv, message):
        path = tmp_path / name
        path.write_text(text)
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message.format(path=path)

    def test_python_m_runs_the_cli(self, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(boolebell.__file__).parents[1]))
        argv = ["ebbi", "--e", "1", "-0.5", "0.5", "-0.5"]
        ok = subprocess.run([sys.executable, "-m", "boolebell", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
        assert main(argv) == 0
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, capsys.readouterr().out, "")
        for bad in (["ebbi", "--e", "1", "0", "0"],             # refused at parsing
                    ["ebbi", "--e", "1", "2", "0", "0"]):       # refused by the handler
            out = subprocess.run([sys.executable, "-m", "boolebell", *bad], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert out.returncode == 2 and out.stdout == ""
            assert len([line for line in out.stderr.splitlines() if "error:" in line]) == 1


class TestSharedParser:
    """main reuses one parser; no parse may see what an earlier one set."""

    def test_one_parser_per_process(self):
        from boolebell.cli import build_parser
        assert build_parser() is build_parser()

    def test_main_builds_no_parser_after_the_first_call(self, capsys, monkeypatch):
        from boolebell import cli
        argv = ["ebbi", "--e", "1", "0", "0", "0"]
        main(argv)
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        for _ in range(3):
            assert main(argv) == 0
        assert built == []

    def test_non_default_values_do_not_leak(self, capsys, tmp_path):
        env = run_json(capsys, ["sweep", "--what", "leggett-garg", "--points", "7"])
        assert env["params"]["points"] == 7
        env = run_json(capsys, ["sweep", "--what", "leggett-garg"])
        assert env["params"]["points"] == 50
        argv = ["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120",
                "--samples", "300", "--seed", "1"]
        events = tmp_path / "events.csv"
        run_json(capsys, [*argv, "--events-out", str(events)])
        events.unlink()
        run_json(capsys, argv)
        assert list(tmp_path.iterdir()) == []

    def test_parse_error_leaves_no_trace(self, capsys):
        argv = ["epr-pipeline", "--source", "pair:equal", "--angles", "0", "60", "120",
                "--window", "0.5", "--jitter", "1", "--samples", "300", "--seed", "4"]
        assert main(argv) == 0
        first = capsys.readouterr()
        # --samples and --jitter are parsed before --window is refused
        parse_error(capsys, [*argv, "--samples", "9", "--jitter", "2", "--window", "0"])
        assert main(argv) == 0
        assert capsys.readouterr() == first

    def test_a_rebound_handler_is_called(self, capsys, monkeypatch):
        from boolebell import cli
        main(["ebbi", "--e", "1", "0", "0", "0"])
        capsys.readouterr()
        calls = []
        handler = cli.cmd_ebbi
        monkeypatch.setattr(cli, "cmd_ebbi", lambda args: calls.append(args) or handler(args))
        run_json(capsys, ["ebbi", "--e", "1", "0", "0", "0"])
        assert len(calls) == 1


def _raises(exc):
    def boom(*args, **kwargs):
        raise exc
    return boom


_SWEEP_RAN = (classical, "model_inequality_sweep",
              _raises(AssertionError("the sweep ran past the size check")))
_HUGE = ["--seed", "1", "--samples", "100000000000000"]
_NO_MEMORY = _raises(MemoryError("Unable to allocate 728. TiB for an array with shape "
                                 "(100000000000000,) and data type float64"))
_REFUSED = _raises(ValueError("the draws are refused"))
_UNDECODABLE = b"\xff\xfe"
_DECODE_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


def _tables(**changed) -> bytes:
    spec = {"f": UNIFORM_TABLE, "fhat": UNIFORM_TABLE, "ftilde": UNIFORM_TABLE, **changed}
    return json.dumps(spec).encode()


_RECONSTRUCT = ["theorem", "--which", "reconstruct", "--tables", "{input}"]
_ONE_CORNER = {"++": 4e307, "+-": 0, "-+": 0, "--": 0}
_HUGE_CORNER = {"++": 1.5e308, "+-": 0, "-+": 0, "--": 0}


@pytest.mark.parametrize("argv, data, patch, message", [
    (["sweep", "--what", "factorizable", "--grid", "0", "1e-12", "1e-13"], None, _SWEEP_RAN,
     "error: --grid: the factorizable sweep is limited to 300 points per axis, "
     "asked for 10011\n"),
    (["sweep", "--what", "factorizable", "--grid", "0", "1e-11", "1e-12", "--no-chsh"], None,
     _SWEEP_RAN, "asked for 1010\n"),
    (["sweep", "--what", "factorizable", "--grid", "0", "1e-300", "1e-301"], None,
     _SWEEP_RAN, "error: --grid: the factorizable sweep is limited to 300 points per axis, "
                 "asked for 1e+292\n"),
    (["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120", *_HUGE], None,
     (pipeline, "run_three_settings", _NO_MEMORY),
     "error: --samples: Unable to allocate 728. TiB"),
    (["factorizable", "--mu", "uniform", "--angles", "0", "60", *_HUGE], None,
     (classical, "sample_pair", _NO_MEMORY), "error: --samples: Unable to allocate 728. TiB"),
    (["leggett-garg", "--omega", "1", "--dt", "0", "1", "1", *_HUGE], None,
     (leggett_garg, "sample_triples", _NO_MEMORY),
     "error: --samples: Unable to allocate 728. TiB"),
    # a library refusal from the same draws keeps its own text
    (["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120", *_HUGE], None,
     (pipeline, "run_three_settings", _REFUSED), "error: the draws are refused\n"),
    (["factorizable", "--mu", "uniform", "--angles", "0", "60", *_HUGE], None,
     (classical, "sample_pair", _REFUSED), "error: the draws are refused\n"),
    (["leggett-garg", "--omega", "1", "--dt", "0", "1", "1", *_HUGE], None,
     (leggett_garg, "sample_triples", _REFUSED), "error: the draws are refused\n"),
    # beyond the counts a CountTable holds exactly, and numpy's int64 binomial
    (["leggett-garg", "--omega", "1", "--dt", "0", "1", "1", "--samples", str(2 ** 53 + 1),
      "--seed", "1"], None, None, "error: need 1 to 2^53 samples, got 9007199254740993\n"),
    (["allergy", "--variant", "pairs", "--days", str(2 ** 63), "--seed", "1"], None, None,
     "error: a seeded schedule takes at most 2^63 - 1 days, got 9223372036854775808\n"),
    (_RECONSTRUCT, _tables(ftilde={"".join(k): 0.125 for k in product("+-", repeat=3)}),
     None, "error: --tables ftilde: FuncTable2 needs exactly the 4 sign keys of length 2: "),
    (_RECONSTRUCT, _tables(f=dict(UNIFORM_TABLE, **{"+-": "x"})), None,
     "error: --tables f: FuncTable2 entries must be numbers\n"),
    (_RECONSTRUCT, _tables(fhat=dict(UNIFORM_TABLE, **{"+-": True})), None,
     "error: --tables fhat: FuncTable2 entries must be numbers\n"),
    (_RECONSTRUCT, _tables(ftilde=dict(UNIFORM_TABLE, **{"+-": "1"})), None,
     "error: --tables ftilde: FuncTable2 entries must be numbers\n"),
    (_RECONSTRUCT, _tables(f={"++": 1e308, "+-": 1e308, "-+": 0, "--": 0}), None,
     "error: --tables f: FuncTable2 entries must have a finite absolute sum\n"),
    (_RECONSTRUCT, _tables(fhat={"++": 10 ** 400, "+-": 0, "-+": 0, "--": 0}), None,
     "error: --tables fhat: FuncTable2 entries must have a finite absolute sum\n"),
    # each table is in range, but the triple table they fix is not
    (_RECONSTRUCT, _tables(f=_ONE_CORNER, fhat=_ONE_CORNER, ftilde=_ONE_CORNER), None,
     "error: --tables: the triple table lies beyond the float range"),
    (_RECONSTRUCT, _tables(f=_HUGE_CORNER, fhat=_HUGE_CORNER, ftilde=_HUGE_CORNER), None,
     "error: --tables: clause '|e + ehat| <= e0 + etilde' is not finite: lhs=inf, "
     "rhs=inf\n"),
    (["theorem", "--which", "reconstruct"], None, None,
     "error: --tables FILE is required for reconstruct\n"),
    (["extended-eprb", "--angles", "0", "60"], None, None,
     "error: --angles takes 3 (triple) or 4 (quadruple) values\n"),
    (["dataset", "--input", "{input}"], b"", None,
     "error: {path}: empty file, header s1..sn is mandatory\n"),
    (["dataset", "--input", "{input}"], _UNDECODABLE, None,
     "error: {path}: " + _DECODE_ERROR),
    (_RECONSTRUCT, _UNDECODABLE, None, "error: --tables: {path}: " + _DECODE_ERROR),
    (_RECONSTRUCT, b"{", None, "error: --tables: {path}: Expecting property name"),
    # a library refusal reached through a handler: only +1 and -1 are signs
    (["ebbi", "--e", "1", "0", "0", "0"], None,
     (cli, "cmd_ebbi", lambda args: tables.FuncTable2([[1, 2], [3, 4]]).value(1, 0)),
     "error: expected 2 signs, each +1 or -1, got (1, 0)\n"),
], ids=["sweep 10011 angles", "sweep 1010 angles", "sweep 1e292 angles",
        "pipeline memory", "factorizable memory", "leggett-garg memory",
        "pipeline refusal", "factorizable refusal", "leggett-garg refusal",
        "leggett-garg beyond 2^53", "allergy beyond int64",
        "tables key length", "tables string entry", "tables bool entry",
        "tables numeric string", "tables overflow", "tables int overflow",
        "tables triple overflow", "tables clause overflow", "reconstruct without tables",
        "extended-eprb two angles", "dataset empty",
        "dataset undecodable", "tables undecodable", "tables not json", "value sign 0"])
def test_edge_invocations_exit_2_with_one_error_line(capsys, tmp_path, monkeypatch, argv,
                                                     data, patch, message):
    path = tmp_path / "input"
    if data is not None:
        path.write_bytes(data)
    if patch is not None:
        monkeypatch.setattr(*patch)
    assert main([str(path) if arg == "{input}" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message.format(path=path) in captured.err


def test_leggett_garg_draws_2_to_the_53_samples(capsys, monkeypatch):
    drawn, sample_triples = [], leggett_garg.sample_triples

    def recording(*args):
        drawn.append(sample_triples(*args))
        return drawn[-1]
    monkeypatch.setattr(leggett_garg, "sample_triples", recording)
    env = run_json(capsys, ["leggett-garg", "--omega", "1", "--dt", "0", "1", "1",
                            "--samples", str(2 ** 53), "--seed", "1"])
    assert [table.m for table in drawn] == [2 ** 53]
    assert env["params"]["samples"] == 2 ** 53
    assert all(abs(v) <= 1 for v in env["values"]["empirical_correlations"].values())


def test_reconstruct_keeps_tables_at_the_edge_of_the_float_range(capsys, tmp_path):
    path = tmp_path / "tabs.json"
    path.write_text(json.dumps({k: {key: 4e307 for key in UNIFORM_TABLE}
                                for k in ("f", "fhat", "ftilde")}))
    env = run_json(capsys, ["theorem", "--which", "reconstruct", "--tables", str(path)])
    assert env["values"]["compatible"] and env["values"]["e123"] == 0.0
    assert set(env["values"]["table"].values()) == {2e307}


def test_reconstruct_accepts_genuine_marginals_in_the_thousands(capsys, tmp_path):
    # the pair marginals of the non-negative table with 681.657 at +++, 980.619
    # at -+- and 430.791 at ---: an absolute 1e-12 found the admissible
    # interval of e123 empty, [1231.4850000000008, 1231.4849999999997]
    path = tmp_path / "tabs.json"
    path.write_text(json.dumps({
        "f": {"++": 681.657, "+-": 0.0, "-+": 980.619, "--": 430.791},
        "fhat": {"++": 681.657, "+-": 0.0, "-+": 0.0, "--": 1411.41},
        "ftilde": {"++": 681.657, "+-": 980.619, "-+": 0.0, "--": 430.791}}))
    env = run_json(capsys, ["theorem", "--which", "reconstruct", "--tables", str(path)])
    assert env["values"]["compatible"] is True and env["values"]["failures"] == []
    want = dict.fromkeys(("".join(k) for k in product("+-", repeat=3)), 0.0)
    want.update({"+++": 681.657, "-+-": 980.619, "---": 430.791})
    got = env["values"]["table"]
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12 * 2092.067


def test_table_format_marks_a_report_not_evaluated(capsys):
    # one pair cannot fill the three settings, so the pair bound is not evaluated
    assert main(["epr-pipeline", "--source", "singlet", "--angles", "0", "60", "120",
                 "--samples", "1", "--seed", "1", "--format", "table"]) == 0
    assert "report pair_bound: (not evaluated)\n" in capsys.readouterr().out


def test_failed_write_of_out_exits_1_with_one_error_line(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(Path, "write_text",
                        _raises(OSError(28, "No space left on device")))
    assert main(["allergy", "--variant", "pairs", "--out", str(tmp_path / "env.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"


def test_sweep_count_is_the_length_numpy_builds():
    rng = np.random.default_rng(19)
    grids = [(0.0, 720.0 + 1e-9, 30.0), (0.0, 2 * math.pi - 1e-9, math.pi / 6),
             (0.0, 299 + 1e-9, 1.0), (0.0, 1e-12 + 1e-9, 1e-13), (5.0, 1.0, 1.0)]
    for _ in range(500):
        start = rng.uniform(-10, 10)
        step = 10.0 ** rng.uniform(-12, 1)
        grids.append((start, start + step * rng.uniform(-2, 2000) + rng.choice([0, 1e-9, -1e-9]),
                      step))
    for start, stop, step in grids:
        assert cli._arange_length(start, stop, step) == len(np.arange(start, stop, step))
    for start, stop, step in [(0.0, 1e308, 1e-300), (-1e308, 1e308, 1.0), (0.0, 1.0, 0.0)]:
        assert cli._arange_length(start, stop, step) == math.inf
