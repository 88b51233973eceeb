"""CLI subcommands: envelope schema, determinism, exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import boolebell
from boolebell.cli import main
from boolebell.datasets import DichotomicDataset, write_dataset_csv

SCHEMA = json.loads(resources.files("boolebell.schemas")
                    .joinpath("report.schema.json").read_text())


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    envelope = json.loads(out)
    jsonschema.validate(envelope, SCHEMA)
    return envelope


class TestSubcommands:
    def test_dataset(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "ds.csv"
        write_dataset_csv(DichotomicDataset(rng.choice([-1, 1], (20, 3))), path)
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
        assert cli.MAX_AXIS_POINTS == boolebell.reports.GRID_BLOCK

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
        assert main(["ebbi", "check", "--e", "1", "0", "0", "0",
                     "--format", "csv"]) == 2

    def test_csv_sample_dump(self, capsys):
        code = main(["factorizable", "--mu", "equal", "--angles", "10", "10",
                     "--samples", "50", "--seed", "1", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "s1,s2"
        assert len(out.splitlines()) == 51
