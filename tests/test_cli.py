import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from synwave import cli, lcwt, synth


def write_pair_csv(path, seed=26, n=250):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n))
    y = 2.0 * x + rng.standard_normal(n)
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_two_series_csv(path):
    """Columns ``a`` and ``b``: corn-like seeds 33 and 3 on one time axis."""
    a, b = synth.corn_like_series(33), synth.corn_like_series(3)
    lines = ["t,a,b"] + [f"{t!r},{x!r},{y!r}" for t, x, y in zip(
        a.times.tolist(), a.values.tolist(), b.values.tolist())]
    path.write_text("\n".join(lines) + "\n")
    return path


# runs that exit 1 on an option value; none may leave its --out-dir behind
FAILING_RUNS = [
    (["cwt", "--max-waves", "0"], "max_waves must be at least 1"),
    (["fit", "--components", "0"], "component count must be at least 1"),
    (["fit", "--components", "80"], "has room for only 79 pulses"),
    (["cwt", "--scales", "0"], "need at least 1 scale"),
    (["pipeline", "--scales", "0"], "need at least 1 scale"),
    (["pipeline", "--lags", "500"], "too short for 500 lags"),
    (["pipeline", "--lags", "-2"], "lag order must be nonnegative"),
    (["adf", "--lags", "-2"], "lag order must be nonnegative"),
    (["adf", "--lags", "abc"], "--lags takes auto or a whole number"),
    (["coint", "--y-column", "value", "--x-column", "nope"],
     "column 'nope' not in header"),
    (["entropy", "--subset", "nope"], "column 'nope' not in header"),
    (["synergy", "--window", "4"], "window must be at least 8 samples"),
    (["synth", "--kind", "noise", "--n", "-1"], "n must be at least 1"),
    (["synth", "--kind", "corn-like", "--n", "0"], "n must be at least 1"),
]

# data rows longer than the header; the numeric file's is its second
CATEGORICAL_LONG_ROW = "a,b\n0,1\n1,0\nx,y,z\n0,0\n"
NUMERIC_LONG_ROW = "t,value\n0,1.0\n1,2.0,99\n2,3.0\n3,5.0\n"


class TestIngest:
    def test_corn_csv_has_241_rows(self, tmp_path):
        path = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 1, path)
        series = cli.ingest_timeseries(path)
        assert len(series) == 241

    def test_gap_with_fill_interpolates_midpoint(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,value\n0,1.0\n1,\n2,3.0\n")
        with pytest.warns(UserWarning):
            series = cli.ingest_timeseries(path, fill=True)
        assert series.values.tolist() == [1.0, 2.0, 3.0]

    def test_gap_without_fill_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,value\n0,1.0\n1,\n2,3.0\n")
        with pytest.raises(ValueError):
            cli.ingest_timeseries(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            cli.ingest_timeseries(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0,1.0\n1,oops\n")
        with pytest.raises(ValueError):
            cli.ingest_timeseries(path)

    def test_non_uniform_time_column_rejected(self, tmp_path):
        path = tmp_path / "times.csv"
        path.write_text("t,value\n0,1.0\n1,2.0\n5,3.0\n")
        with pytest.raises(ValueError):
            cli.ingest_timeseries(path, time_column="t")

    def test_value_column_by_name(self, tmp_path):
        path = write_pair_csv(tmp_path / "pair.csv")
        series = cli.ingest_timeseries(path, value_column="x")
        assert len(series) == 250

    @pytest.mark.parametrize("command", ["cwt", "adf"])
    def test_infinite_cell_exits_one(self, tmp_path, capsys, command):
        path = tmp_path / "inf.csv"
        path.write_text("value\n" + "".join(f"{v}\n" for v in range(40))
                        + "inf\n")
        rc = cli.main([command, "--input", str(path),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err

    def test_row_without_time_cell_exits_one(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("v,t\n1,0\n2,1\n3\n4,3\n")
        rc = cli.main(["adf", "--input", str(path), "--value-column", "v",
                       "--time-column", "t", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "ragged row 3" in capsys.readouterr().err

    def test_quoted_categorical_cell_keeps_its_comma(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text('# levels\nx,y\n"lo, x",mid\nhi, "a,b"\n')
        variables, rows = cli.read_categorical_csv(path)
        assert variables == ("x", "y")
        assert rows == [("lo, x", "mid"), ("hi", "a,b")]

    @pytest.mark.parametrize("command, text, row", [
        pytest.param("entropy", CATEGORICAL_LONG_ROW, 3, id="entropy"),
        pytest.param("synergy", CATEGORICAL_LONG_ROW, 3, id="synergy"),
        pytest.param("cwt", NUMERIC_LONG_ROW, 2, id="cwt-numeric"),
        pytest.param("adf", NUMERIC_LONG_ROW, 2, id="adf-numeric"),
        pytest.param("pipeline", NUMERIC_LONG_ROW, 2, id="pipeline-numeric"),
    ])
    def test_long_categorical_row_exits_one(self, tmp_path, capsys, command,
                                            text, row):
        path = tmp_path / "long.csv"
        path.write_text(text)
        rc = cli.main([command, "--input", str(path),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"ragged row {row}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSynth:
    def test_corn_like_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        synth.generate_synthetic("corn-like", 1, a)
        synth.generate_synthetic("corn-like", 1, b)
        assert a.read_bytes() == b.read_bytes()

    def test_noise_statistics(self):
        series = synth.noise_series(7, 1000)
        assert abs(series.values.mean()) < 0.1

    def test_patent_like_monotone(self):
        series = synth.patent_like_series(3)
        assert np.all(np.diff(series.values) >= 0.0)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            synth.generate_synthetic("weird", 1, tmp_path / "x.csv")

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_length_rejected(self, tmp_path, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            synth.generate_synthetic("noise", 1, tmp_path / "x.csv", n)
        assert not (tmp_path / "x.csv").exists()

    def test_one_sample_is_allowed(self, tmp_path):
        path = tmp_path / "x.csv"
        synth.generate_synthetic("corn-like", 1, path, 1)
        assert len(cli.ingest_timeseries(path)) == 1


class TestSubcommands:
    def test_entropy_report(self, tmp_path):
        path = tmp_path / "cats.csv"
        rng = np.random.default_rng(23)
        x1 = rng.integers(0, 2, 256)
        x2 = rng.integers(0, 2, 256)
        rows = "\n".join(f"{a},{b},{a ^ b}" for a, b in zip(x1, x2))
        path.write_text("a,b,c\n" + rows + "\n")
        rc = cli.main(["entropy", "--input", str(path),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "entropy_report.json").read_text())
        triple = payload["reports"][0]
        assert triple["n"] == 3
        assert triple["R"] == triple["T"]
        assert triple["R"] < -0.8

    def test_synergy_csv(self, tmp_path):
        path = tmp_path / "cats.csv"
        rng = np.random.default_rng(23)
        x1 = rng.integers(0, 2, 256)
        x2 = rng.integers(0, 2, 256)
        rows = "\n".join(f"{a},{b},{a ^ b}" for a, b in zip(x1, x2))
        path.write_text("a,b,c\n" + rows + "\n")
        rc = cli.main(["synergy", "--input", str(path), "--window", "64",
                       "--stride", "32", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        lines = [l for l in (tmp_path / "out" / "synergy.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "window_start,redundancy_bits"
        assert len(lines) == 1 + (256 - 64) // 32 + 1

    def test_fit_report_layout(self, tmp_path):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        rc = cli.main(["fit", "--input", str(data), "--components", "3",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        assert set(payload["components"][0]) == {"A", "k", "center"}
        assert set(payload["regression"]) == {"B", "C", "t_values", "r2",
                                              "adj_r2", "n"}
        assert payload["regression"]["n"] == 241

    def test_fit_without_enough_waves_exits_one(self, tmp_path, capsys):
        data = tmp_path / "noise.csv"
        synth.generate_synthetic("noise", 7, data, n=500)
        rc = cli.main(["fit", "--input", str(data),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "fit: extraction found 0 of 3 waves" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_adf_json(self, tmp_path):
        path = write_pair_csv(tmp_path / "pair.csv")
        rc = cli.main(["adf", "--input", str(path), "--value-column", "x",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "adf.json").read_text())
        assert payload["kind"] == "constant"
        assert set(payload["critical_values"]) == {"1%", "5%", "10%"}

    def test_coint_json(self, tmp_path):
        path = write_pair_csv(tmp_path / "pair.csv")
        rc = cli.main(["coint", "--input", str(path), "--y-column", "y",
                       "--x-column", "x", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "cointegration.json").read_text())
        assert payload["cointegrated_at"] == "1%"

    def test_cwt_artifacts(self, tmp_path):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        rc = cli.main(["cwt", "--input", str(data), "--svg",
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "scalogram.csv").exists()
        assert (tmp_path / "out" / "scalogram.svg").exists()
        payload = json.loads((tmp_path / "out" / "wave_trains.json").read_text())
        assert len(payload["waves"]) == 3

    def test_cwt_scalogram_csv_is_the_series_transform(self, tmp_path):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 3, data)
        out = tmp_path / "out"
        rc = cli.main(["cwt", "--input", str(data), "--scales", "40",
                       "--out-dir", str(out)])
        assert rc == 0
        series = cli.ingest_timeseries(data)
        config = {"command": "cwt", "input": str(data), "scales": 40,
                  "max_waves": lcwt.DEFAULT_MAX_WAVES,
                  "energy_stop": lcwt.DEFAULT_ENERGY_STOP, "svg": False,
                  "value_column": None, "time_column": None, "fill": False,
                  "seed": 0}
        expected = io.StringIO()
        expected.write(cli._config_header(config, ".csv"))
        lcwt.scalogram_to_csv(
            lcwt.cwt(series, lcwt.default_scales(len(series), 40)), expected)
        assert (out / "scalogram.csv").read_text() == expected.getvalue()

    def test_out_dir_defaults_to_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["synth", "--kind", "noise", "--seed", "7"])
        assert rc == 0
        assert (tmp_path / "noise_7.csv").exists()


class TestPipeline:
    def test_corn_pipeline_succeeds(self, tmp_path):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--input", str(data), "--seed", "33",
                       "--out-dir", str(out)])
        assert rc == 0
        for name in ("fit_report.json", "regression_report.json",
                     "scalogram.csv", "wave_trains.json", "redundancy.csv",
                     "validation.json"):
            assert (out / name).exists(), name
        validation = json.loads((out / "validation.json").read_text())
        assert validation["passed"]
        assert validation["waves_retained"] == 3
        fit_report = json.loads((out / "fit_report.json").read_text())
        assert abs(fit_report["beta"] - 310.75) < 5.0
        assert validation["fit"] == {"converged": True, "degenerate": False,
                                     "iterations": fit_report["iterations"]}
        assert fit_report["regression"]["r2"] > 0.94

    def test_degenerate_fit_is_reported(self, tmp_path, monkeypatch):
        extract_waves = lcwt.extract_waves

        def degenerate_extraction(*args, **kwargs):
            extraction = extract_waves(*args, **kwargs)
            errors = np.full_like(extraction.fit.standard_errors, np.inf)
            return dataclasses.replace(extraction, fit=dataclasses.replace(
                extraction.fit, standard_errors=errors))

        monkeypatch.setattr(lcwt, "extract_waves", degenerate_extraction)
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 16, data)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--input", str(data), "--seed", "16",
                       "--out-dir", str(out)])
        validation = json.loads((out / "validation.json").read_text())
        fit_report = json.loads((out / "fit_report.json").read_text())
        assert set(fit_report["standard_errors"]) == {None}
        assert validation["fit"] == {"converged": True, "degenerate": True,
                                     "iterations": fit_report["iterations"]}
        # the fit block does not gate the exit code
        assert "fit" not in validation["checks"]
        assert validation["passed"] and rc == 0

    def test_white_noise_fails_validation(self, tmp_path, capsys):
        # no wave in white noise is an input error, never a quiet 0 waves
        data = tmp_path / "noise.csv"
        synth.generate_synthetic("noise", 7, data, n=500)
        rc = cli.main(["pipeline", "--input", str(data), "--seed", "7",
                       "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        assert "pipeline: no wave found" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seed", [16, 19])
    def test_corn_like_chain_centers(self, tmp_path, seed):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", seed, data)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--input", str(data), "--seed", str(seed),
                       "--out-dir", str(out)])
        assert rc == 0
        fit_report = json.loads((out / "fit_report.json").read_text())
        centers = [c["center"] for c in fit_report["components"]]
        assert len(centers) == 3
        for center, (_, _, truth) in zip(centers, synth.CORN_PULSES):
            assert abs(center - truth) <= 2.0
        validation = json.loads((out / "validation.json").read_text())
        assert not validation["fit"]["degenerate"]

    def test_failed_validation_still_writes_every_file(self, tmp_path,
                                                       capsys):
        # patent-like seed 0 is not cointegrated with its fitted chain
        data = tmp_path / "patent.csv"
        synth.generate_synthetic("patent-like", 0, data)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--input", str(data),
                       "--out-dir", str(out)])
        assert rc == 2
        names = {"fit_report.json", "regression_report.json",
                 "scalogram.csv", "wave_trains.json", "redundancy.csv",
                 "validation.json"}
        assert {path.name for path in out.iterdir()} == names
        validation = json.loads((out / "validation.json").read_text())
        assert validation["passed"] is False
        assert not validation["checks"]["cointegrated"]
        wrote = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("wrote ")]
        assert sorted(wrote) == sorted(f"wrote {out / name}" for name in names)

    def test_missing_input_exits_one(self, tmp_path, capsys):
        rc = cli.main(["pipeline", "--input", str(tmp_path / "nope.csv"),
                       "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        assert "pipeline:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", FAILING_RUNS,
                             ids=[" ".join(argv) for argv, _ in FAILING_RUNS])
    def test_failed_command_leaves_no_out_dir(self, tmp_path, capsys,
                                              argv, message):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        inputs = [] if argv[0] == "synth" else ["--input", str(data)]
        out = tmp_path / "out"
        assert cli.main([*argv, *inputs, "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_one(self, capsys):
        rc = cli.main(["pipeline", "--no-such-flag"])
        assert rc == 1
        capsys.readouterr()

    def test_runs_in_one_process_share_no_arguments(self, tmp_path, capsys):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["cwt", "--input", str(data), "--svg",
                         "--out-dir", str(first)]) == 0
        assert cli.main(["cwt", "--input", str(data),
                         "--out-dir", str(second)]) == 0
        assert (first / "scalogram.svg").exists()
        assert not (second / "scalogram.svg").exists()
        payload = json.loads((second / "wave_trains.json").read_text())
        assert payload["config"]["svg"] is False
        assert cli.main(["cwt", "--no-such-flag"]) == 1
        assert cli.main(["synth", "--kind", "noise",
                         "--out-dir", str(tmp_path / "third")]) == 0
        capsys.readouterr()

    def test_redundancy_csv_identity(self, tmp_path):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        out = tmp_path / "run"
        cli.main(["pipeline", "--input", str(data), "--seed", "33",
                  "--out-dir", str(out)])
        rows = [l.split(",") for l in (out / "redundancy.csv").read_text().splitlines()
                if l and not l.startswith("#")][1:]
        hist = np.array([float(r[1]) for r in rows])
        syn = np.array([float(r[2]) for r in rows])
        total = np.array([float(r[3]) for r in rows])
        assert np.abs(total - (hist - syn)).max() < 1e-9
        assert np.all(hist >= 0.0)
        assert np.all(syn >= 0.0)


class TestConfig:
    """Every artifact records the parsed command line without the handler
    and the output directory."""

    @pytest.mark.parametrize("command", ["fit", "cwt", "adf", "pipeline",
                                         "synth"])
    def test_config_is_the_parsed_command_line(self, tmp_path, command):
        data = write_two_series_csv(tmp_path / "two.csv")
        configs = []
        for column, seed in (("a", "1"), ("b", "2")):
            out = tmp_path / column
            argv = [command, "--out-dir", str(out), *(
                ["--kind", "noise", "--seed", seed] if command == "synth"
                else ["--input", str(data), "--value-column", column])]
            if command in ("cwt", "pipeline"):
                argv.append("--svg")
            assert cli.main(argv) == 0
            expected = vars(cli.build_parser().parse_args(argv))
            del expected["handler"], expected["out_dir"]
            lines = [f"{key}: {expected[key]}" for key in sorted(expected)]
            recorded = [json.loads(path.read_text())["config"]
                        for path in out.glob("*.json")]
            # synth writes one CSV and no JSON; fit and adf only JSON
            assert recorded or command == "synth"
            assert all(c == expected for c in recorded)
            csvs = list(out.glob("*.csv"))
            assert csvs or command in ("fit", "adf")
            for path in csvs:
                assert [line for line in path.read_text().splitlines()
                        if line.startswith("#")] == [f"# {l}" for l in lines]
            svgs = list(out.glob("*.svg"))
            assert len(svgs) == {"cwt": 1, "pipeline": 2}.get(command, 0)
            for path in svgs:
                assert [line for line in path.read_text().splitlines()
                        if line.startswith("<!--")] == [
                    f"<!-- {l} -->" for l in lines]
            configs.append(expected)
        assert configs[0] != configs[1]

    @pytest.mark.parametrize("directory", [
        "a\x01b", "a\nb", os.fsdecode(b"bad\xff")],
        ids=["control", "newline", "undecodable"])
    def test_unprintable_config_text_is_escaped(self, tmp_path, capsys,
                                                directory):
        data = tmp_path / directory / "corn.csv"
        data.parent.mkdir()
        synth.generate_synthetic("corn-like", 33, data)
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--svg", "--input", str(data),
                         "--out-dir", str(out)]) == 0
        escaped = f"input: {repr(str(data))[1:-1]}"
        for name in ("scalogram.svg", "decomposition.svg"):
            ElementTree.parse(out / name)
            assert f"<!-- {escaped} -->\n" in (out / name).read_text()
        for name, header in (("scalogram.csv", "scale,"),
                             ("redundancy.csv", "t,historical,")):
            lines = (out / name).read_text().splitlines()
            assert f"# {escaped}" in lines
            assert next(line for line in lines
                        if not line.startswith("#")).startswith(header)
        for path in out.glob("*.json"):
            assert json.loads(path.read_text())["config"]["input"] == str(data)

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--svg"], ["fit"], ["cwt", "--svg"], ["adf"],
        ["coint", "--y-column", "a", "--x-column", "b"],
    ], ids=lambda argv: argv[0])
    def test_files_do_not_depend_on_out_dir(self, tmp_path, capsys, argv):
        data = write_two_series_csv(tmp_path / "two.csv")
        written = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli.main([*argv, "--input", str(data),
                             "--out-dir", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
            # one wrote line per file in the output directory, no more
            wrote = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("wrote ")]
            assert sorted(wrote) == sorted(f"wrote {p}" for p in out.iterdir())
        assert written[0] == written[1]


class TestWriters:
    """``main`` opens every file; each writer writes into the stream it is
    given, during the call."""

    def test_bodies_write_their_files_during_the_call(self, tmp_path,
                                                      capsys):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        out = tmp_path / "run"
        argv = ["pipeline", "--svg", "--input", str(data),
                "--out-dir", str(out)]
        assert cli.main(argv) == 0
        args = cli.build_parser().parse_args(argv)
        config = cli._config(args)
        _, files, _ = args.handler(args)
        # scalogram_to_csv, scalogram_to_svg, write_line_plot, write_json
        # and the table writer each write one of these
        assert {"scalogram.csv", "scalogram.svg", "decomposition.svg",
                "validation.json", "redundancy.csv"} <= set(files)
        for name, body in files.items():
            fh = io.StringIO()
            if isinstance(body, dict):
                cli.write_json(fh, {"config": config, **body})
            else:
                fh.write(cli._config_header(config, Path(name).suffix))
                if isinstance(body, tuple):
                    cli.write_table(fh, *body)
                else:
                    body(fh)
            assert fh.getvalue() == (out / name).read_text(), name

    def test_lcwt_opens_no_file(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "corn.csv"
        synth.generate_synthetic("corn-like", 33, data)
        argv = ["pipeline", "--svg", "--input", str(data), "--out-dir"]
        assert cli.main([*argv, str(tmp_path / "free")]) == 0

        def no_open(path, *args, **kwargs):
            raise AssertionError(f"lcwt opened {path}")

        monkeypatch.setattr(lcwt, "open", no_open, raising=False)
        assert cli.main([*argv, str(tmp_path / "guarded")]) == 0
        free = {p.name: p.read_bytes() for p in (tmp_path / "free").iterdir()}
        assert free == {p.name: p.read_bytes()
                        for p in (tmp_path / "guarded").iterdir()}
        assert "scalogram.svg" in free

    def test_svg_comments_with_double_hyphens_stay_xml(self, tmp_path,
                                                       capsys):
        data = tmp_path / "run--1" / "corn_like_33.csv"
        data.parent.mkdir()
        synth.generate_synthetic("corn-like", 33, data)
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--svg", "--input", str(data),
                         "--out-dir", str(out)]) == 0
        for name in ("scalogram.svg", "decomposition.svg"):
            ElementTree.parse(out / name)
            text = (out / name).read_text()
            assert "run- -1/corn_like_33.csv -->\n" in text
        # runs of hyphens, and a hyphen that ends the text; a CSV keeps them
        config = {"a": "b---c", "d": "--", "e": "f-", "g-": "-"}
        head = cli._config_header(config, ".svg")
        assert head == ("<!-- a: b- - -c -->\n<!-- d: - - -->\n"
                        "<!-- e: f- -->\n<!-- g-: - -->\n")
        ElementTree.fromstring(head + lcwt.svg_head(1, 2) + "</svg>")
        assert cli._config_header(config, ".csv") == (
            "# a: b---c\n# d: --\n# e: f-\n# g-: -\n")


# runs in a fresh interpreter; prints the numpy.ma modules that the runs
# added to sys.modules, a before/after difference so that a numpy which
# imports numpy.ma eagerly still passes
COLD_START = """
import contextlib, io, json, sys
import numpy
from synwave import cli
data, out = sys.argv[1:]
before = set(sys.modules)
codes = []
for argv in (["cwt", "--svg"], ["fit"], ["pipeline", "--svg"], ["adf"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([*argv, "--input", data,
                               "--out-dir", f"{out}/{argv[0]}"]))
added = sorted(m for m in set(sys.modules) - before
               if m == "numpy.ma" or m.startswith("numpy.ma."))
print(json.dumps({"codes": codes, "added": added}))
"""


def test_cli_runs_do_not_import_numpy_ma(tmp_path):
    data = tmp_path / "corn.csv"
    synth.generate_synthetic("corn-like", 33, data)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, str(data), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert json.loads(run.stdout) == {"codes": [0, 0, 0, 0], "added": []}
