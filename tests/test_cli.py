import json
import math
from pathlib import Path

import pytest

from afcdepth.cli import main
from afcdepth.echoanalysis import TimeHistogram, echo_contrast, fit_echo
from afcdepth.fixtures import write_fixture_files

REFERENCE_CHANNEL_CONF = (
    "mu = 1.1e-3\n"
    "eta_a = 0.11\n"
    "eta_b_star = 0.053\n"
    "eta_ci = 0.2\n"
    "eta_w = 0.33\n"
    "eta_t = 0.36\n"
)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    lines = [l for l in Path(path).read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSimulate:
    def test_ideal_comb_contrast_table(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "photon": {"shape": "flat"},
            "combs": [{"n_teeth": 9, "bandwidth_hz": 6e9}],
            "trace": {"comb_index": 0, "periods": 2, "samples": 500},
            "bandwidth_sweep": {"n_teeth": 12,
                                "bandwidths_hz": [6e9, 3e9, 1e9],
                                "finesse": 10},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rows = read_csv_rows(out / "contrast_vs_teeth.csv")
        assert len(rows) == 1
        assert int(rows[0]["n_teeth"]) == 9
        assert float(rows[0]["contrast"]) == pytest.approx(9.0, abs=0.01)
        trace = read_csv_rows(out / "trace.csv")
        assert len(trace) == 500
        sweep = read_csv_rows(out / "contrast_vs_bandwidth.csv")
        ratios = [float(r["contrast_over_n"]) for r in sweep]
        assert ratios == sorted(ratios)  # narrower comb, closer to ideal


class TestPstats:
    def test_channel_probabilities(self, tmp_path):
        conf = tmp_path / "channel.conf"
        conf.write_text(REFERENCE_CHANNEL_CONF)
        out = tmp_path / "out"
        assert main(["pstats", "--config", str(conf), "--out", str(out),
                     "--g2-ab", "884"]) == 0
        payload = read_json(out / "pstats.json")
        assert payload["p1"] == pytest.approx(3.50e-3, rel=0.01)
        assert payload["p2"] == pytest.approx(2.55e-8, rel=0.10)
        assert payload["mu_from_g2"] == pytest.approx(1.13e-3, rel=1e-2)
        assert payload["eta_b"] == pytest.approx(0.0106)

    def run_pstats(self, tmp_path, *extra):
        conf = tmp_path / "channel.conf"
        conf.write_text(REFERENCE_CHANNEL_CONF)
        out = tmp_path / "out"
        return main(["pstats", "--config", str(conf), "--out", str(out), *extra]), out

    # zero is a value, not an absent option
    def test_zero_sigmas_are_reported(self, tmp_path):
        code, out = self.run_pstats(tmp_path, "--sigma-mu", "0", "--sigma-d1", "0",
                                    "--d1", "1", "--finesse", "2")
        assert code == 0
        payload = read_json(out / "pstats.json")
        assert payload["sigma_p1"] == 0.0 and payload["sigma_p2"] == 0.0

    def test_zero_d1_counts_as_given(self, tmp_path):
        code, out = self.run_pstats(tmp_path, "--sigma-mu", "1e-4", "--d1", "0",
                                    "--finesse", "2")
        assert code == 0
        assert "sigma_p1" in read_json(out / "pstats.json")

    def test_zero_g2_is_rejected(self, tmp_path, capsys):
        code, out = self.run_pstats(tmp_path, "--g2-ab", "0")
        assert code == 1
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert message["error"] == "ValueError"
        assert not out.exists()

    # channels ChannelModel accepts whose conditioning event has probability
    # zero, and a source bright enough to overflow a pair-number series
    @pytest.mark.parametrize("line,code,error", [
        ("eta_a = 0\n", 1, "ValueError"),
        ("eta_b = 1\neta_w = 0\neta_t = 1\n", 1, "ValueError"),
        ("mu = 1e4\n", 0, None),
    ], ids=["herald-never-clicks", "comb-always-clicks", "bright-source"])
    def test_degenerate_channels(self, tmp_path, capsys, line, code, error):
        conf = tmp_path / "channel.conf"
        conf.write_text(REFERENCE_CHANNEL_CONF + line)
        assert main(["pstats", "--config", str(conf),
                     "--out", str(tmp_path / "out")]) == code
        if error:
            message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert message["error"] == error
            assert "probability zero" in message["message"]


def analyze_histogram(fixtures, entry, out, *extra):
    return main(["analyze", "--histogram", str(fixtures / entry["csv"]),
                 "--sidecar", str(fixtures / entry["sidecar"]), *extra,
                 "--out", str(out)])


class TestAnalyze:
    def test_single_histogram(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entry = next(e for e in manifest["histograms"] if e["label"] == "564")
        out = tmp_path / "out"
        assert analyze_histogram(fixtures, entry, out) == 0
        report = read_json(out / "analysis.json")
        assert (report["r"], report["sigma"]) == (report["r_deconvolved"],
                                                  report["sigma_deconvolved"])
        assert report["r_raw"] < report["r_subtracted"] < report["r"]
        assert report["sigma"] > 0

    def test_batch_manifest(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        write_fixture_files(fixtures, seed=11)
        out = tmp_path / "out"
        code = main(["analyze", "--batch", str(fixtures / "manifest.json"),
                     "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out / "sweep.csv")
        assert len(rows) == 7
        raw = [float(r["r_raw"]) for r in rows]
        assert max(raw) == pytest.approx(70.6, abs=5.0)
        assert len(read_json(out / "sweep.json")["rows"]) == 7
        assert not (out / "analysis.json").exists()

    def test_batch_rows_equal_single_histogram_reports(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        # label each entry as --histogram does, by its CSV's stem
        for entry in manifest["histograms"]:
            entry["label"] = Path(entry["csv"]).stem
        (fixtures / "manifest.json").write_text(json.dumps(manifest))
        assert main(["analyze", "--batch", str(fixtures / "manifest.json"),
                     "--out", str(tmp_path / "batch")]) == 0
        rows = read_json(tmp_path / "batch" / "sweep.json")["rows"]
        assert len(rows) == len(manifest["histograms"])
        for entry, row in zip(manifest["histograms"], rows):
            out = tmp_path / entry["label"]
            assert analyze_histogram(fixtures, entry, out) == 0
            report = read_json(out / "analysis.json")
            for key in ("r", "sigma", "_provenance"):
                del report[key]
            assert row == report, entry["label"]

    @pytest.mark.parametrize("mode", ["histogram", "batch"])
    @pytest.mark.parametrize("flag", ["--subtract-background", "--deconvolve"])
    def test_correction_flags_are_gone(self, tmp_path, capsys, mode, flag):
        # every analyze run reports all three contrasts, so no flag selects one
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entry = manifest["histograms"][0]
        inputs = (["--batch", str(fixtures / "manifest.json")] if mode == "batch" else
                  ["--histogram", str(fixtures / entry["csv"]),
                   "--sidecar", str(fixtures / entry["sidecar"])])
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *inputs, flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--histogram", "--sidecar"])
    def test_batch_with_a_single_histogram_input(self, tmp_path, capsys, flag):
        fixtures = tmp_path / "fixtures"
        write_fixture_files(fixtures, seed=11)
        out = tmp_path / "out"
        assert_config_error(capsys, main(["analyze", "--batch",
                                          str(fixtures / "manifest.json"),
                                          flag, str(fixtures / "hist_564.csv"),
                                          "--out", str(out)]))
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["histogram", "batch"])
    def test_zero_detector_fwhm_means_no_jitter(self, tmp_path, mode):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        out = tmp_path / "out"
        if mode == "batch":
            assert main(["analyze", "--batch", str(fixtures / "manifest.json"),
                         "--detector-fwhm", "0", "--out", str(out)]) == 0
            written = read_json(out / "sweep.json")
            reports = written["rows"]
        else:
            entry = manifest["histograms"][-1]
            assert analyze_histogram(fixtures, entry, out, "--detector-fwhm", "0") == 0
            written = read_json(out / "analysis.json")
            reports = [written]
        assert written["_provenance"]["config"] == {"detector_fwhm": 0.0}
        for report in reports:
            assert report["r_deconvolved"] == report["r_subtracted"]
            assert report["sigma_deconvolved"] == report["sigma_subtracted"]

    def test_echo_narrower_than_detector_is_exit_one(self, tmp_path, capsys):
        # analyze always deconvolves, so a detector wider than the echo fails
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entry = manifest["histograms"][-1]
        out = tmp_path / "out"
        assert analyze_histogram(fixtures, entry, out, "--detector-fwhm", "1e-8") == 1
        message = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert message["error"] == "DeconvolutionError"
        assert not out.exists()

    def test_batch_uses_each_sidecars_detector_fwhm(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entries = manifest["histograms"]
        for entry, fwhm in zip(entries, (200e-12, 300e-12)):
            sidecar = fixtures / entry["sidecar"]
            meta = read_json(sidecar)
            meta["detector_fwhm"] = fwhm
            sidecar.write_text(json.dumps(meta))

        def expected(entry, fwhm=None):
            hist, det = TimeHistogram.from_csv(fixtures / entry["csv"],
                                               fixtures / entry["sidecar"])
            r, _ = echo_contrast(fit_echo(hist), subtract_background=True,
                                 deconvolve=True, detector_fwhm=fwhm or det)
            return r

        for override in (None, 250e-12):
            out = tmp_path / f"out_{override}"
            argv = ["analyze", "--batch", str(fixtures / "manifest.json"),
                    "--out", str(out)]
            if override:
                argv += ["--detector-fwhm", str(override)]
            assert main(argv) == 0
            rows = read_csv_rows(out / "sweep.csv")
            got = [float(row["r_deconvolved"]) for row in rows[:3]]
            assert got == [expected(entry, override) for entry in entries[:3]]
            assert len(set(got[:2])) == 2


class TestBound:
    def test_headline_certification(self, tmp_path):
        config = tmp_path / "problem.json"
        config.write_text(json.dumps({"R": 256.7, "sigma_R": 8.7, "N": 564,
                                      "P1": 3.5e-3, "P2": 2.6e-8}))
        out = tmp_path / "out"
        code = main(["bound", "--config", str(config), "--out", str(out),
                     "--curve"])
        assert code == 0
        payload = read_json(out / "bound.json")
        assert 218 <= payload["m_lower"] <= 240
        assert payload["linear_bound"] == pytest.approx(219.96, abs=0.01)
        curve = read_csv_rows(out / "bound_curve.csv")
        values = [float(r["max_contrast"]) for r in curve]
        assert values == sorted(values)

    def test_impossible_contrast_is_module_error(self, tmp_path):
        config = tmp_path / "problem.json"
        config.write_text(json.dumps({"R": 600.0, "sigma_R": 0.0, "N": 564,
                                      "P1": 3.5e-3, "P2": 2.6e-8}))
        code = main(["bound", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 1


class TestAtoms:
    def test_both_estimators(self, tmp_path):
        out = tmp_path / "out"
        assert main(["atoms", "--theta-t", "4.3e6", "--out", str(out)]) == 0
        payload = read_json(out / "atoms.json")
        assert payload["atoms_per_tooth_absorption"] == pytest.approx(1.1e9, rel=0.1)
        assert payload["atoms_per_tooth_single_ion"] == pytest.approx(1.7e9, rel=0.1)


class TestPipeline:
    def make_inputs(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        write_fixture_files(fixtures, seed=11)
        (fixtures / "channel.conf").write_text(REFERENCE_CHANNEL_CONF)
        config = fixtures / "pipeline.json"
        config.write_text(json.dumps({
            "channel_config": "channel.conf",
            "histogram": {"csv": "hist_564.csv", "sidecar": "hist_564.json"},
            "n_teeth": 564,
            "subtract_background": True,
            "deconvolve": True,
        }))
        return config

    def test_end_to_end(self, tmp_path):
        config = self.make_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        combined = read_json(out / "pipeline.json")
        assert combined["pstats"]["p1"] == pytest.approx(3.51e-3, rel=0.01)
        assert 200 <= combined["bound"]["m_lower"] <= 270
        assert combined["analysis"]["r"] > 200
        for name in ("pstats.json", "analysis.json", "bound.json"):
            assert (out / name).exists()

    def test_byte_identical_reruns(self, tmp_path):
        config = self.make_inputs(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["pipeline", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["pipeline", "--config", str(config), "--out", str(out_b)]) == 0
        for name in ("pipeline.json", "pstats.json", "analysis.json", "bound.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_stage_files_match_the_stage_commands(self, tmp_path):
        config = self.make_inputs(tmp_path)
        fixtures = config.parent
        out = tmp_path / "pipeline"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
        stages = tmp_path / "stages"
        assert main(["pstats", "--config", str(fixtures / "channel.conf"),
                     "--out", str(stages)]) == 0
        assert main(["analyze", "--histogram", str(fixtures / "hist_564.csv"),
                     "--sidecar", str(fixtures / "hist_564.json"),
                     "--out", str(stages)]) == 0
        analysis = read_json(stages / "analysis.json")
        pstats = read_json(stages / "pstats.json")
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "R": analysis["r"], "sigma_R": analysis["sigma"], "N": 564,
            "P1": pstats["p1"], "P2": pstats["p2"]}))
        assert main(["bound", "--config", str(problem), "--out", str(stages)]) == 0

        combined = read_json(out / "pipeline.json")
        for name in ("pstats", "analysis", "bound"):
            got = read_json(out / f"{name}.json")
            want = read_json(stages / f"{name}.json")
            del got["_provenance"], want["_provenance"]
            assert got == want, name
            assert combined[name] == want, name


class TestErrors:
    def test_malformed_config_is_exit_two(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert main(["bound", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_file_is_exit_two(self, tmp_path):
        assert main(["pstats", "--config", str(tmp_path / "nope.conf"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_starts_flag_is_gone(self, tmp_path):
        config = tmp_path / "problem.json"
        config.write_text(json.dumps({"R": 40.0, "N": 100, "P1": 2e-3, "P2": 1e-8}))
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--config", str(config), "--out", str(tmp_path / "out"),
                  "--starts", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "sim.json"],
        ["pstats", "--config", "channel.conf"],
        ["analyze", "--batch", "manifest.json"],
        ["bound", "--config", "problem.json"],
        ["atoms", "--theta-t", "4.3e6"],
        ["pipeline", "--config", "pipeline.json"],
    ], ids=lambda argv: argv[0])
    def test_seed_flag_is_gone(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out"), "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    # each input is read without fault; the run fails on what it says
    @pytest.mark.parametrize("argv,text,code", [
        (["simulate", "--config"], "{}", 2),
        (["pstats", "--sigma-mu", "1e-4", "--config"], REFERENCE_CHANNEL_CONF, 2),
        (["analyze", "--batch"], "{}", 2),
        (["bound", "--config"], '{"R": 40.0}', 2),
        (["atoms", "--theta-t", "-1", "--config"], "", 1),
        (["pipeline", "--config"], "{}", 2),
    ], ids=["simulate", "pstats", "analyze", "bound", "atoms", "pipeline"])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, argv, text, code):
        source = tmp_path / "input"
        source.write_text(text)
        out = tmp_path / "out"
        assert main(argv + [str(source), "--out", str(out)]) == code
        assert not out.exists()


def assert_config_error(capsys, code):
    assert code == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(line)["error"] == "ConfigError"


class TestMalformedNestedConfig:
    def test_non_object_top_level_config(self, tmp_path, capsys):
        config = tmp_path / "problem.json"
        config.write_text("[1, 2]")
        assert_config_error(capsys, main(["bound", "--config", str(config),
                                          "--out", str(tmp_path / "out")]))

    @pytest.mark.parametrize("key", ["csv", "sidecar"])
    def test_pipeline_histogram_missing_key(self, tmp_path, capsys, key):
        config = TestPipeline().make_inputs(tmp_path)
        cfg = read_json(config)
        del cfg["histogram"][key]
        config.write_text(json.dumps(cfg))
        assert_config_error(capsys, main(["pipeline", "--config", str(config),
                                          "--out", str(tmp_path / "out")]))

    @pytest.mark.parametrize("key", ["label", "csv", "sidecar"])
    def test_batch_entry_missing_key(self, tmp_path, capsys, key):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        del manifest["histograms"][0][key]
        (fixtures / "manifest.json").write_text(json.dumps(manifest))
        assert_config_error(capsys, main(["analyze", "--batch",
                                          str(fixtures / "manifest.json"),
                                          "--out", str(tmp_path / "out")]))

    @pytest.mark.parametrize("key", ["bin_width", "herald_index", "storage_time"])
    def test_sidecar_missing_key(self, tmp_path, capsys, key):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entry = manifest["histograms"][0]
        sidecar = fixtures / entry["sidecar"]
        meta = read_json(sidecar)
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        assert_config_error(capsys, main(["analyze",
                                          "--histogram", str(fixtures / entry["csv"]),
                                          "--sidecar", str(sidecar),
                                          "--out", str(tmp_path / "out")]))

    def test_sidecar_invalid_json(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entry = manifest["histograms"][0]
        sidecar = fixtures / entry["sidecar"]
        sidecar.write_text("{oops")
        assert_config_error(capsys, main(["analyze",
                                          "--histogram", str(fixtures / entry["csv"]),
                                          "--sidecar", str(sidecar),
                                          "--out", str(tmp_path / "out")]))

    @pytest.mark.parametrize("command,key,value", [
        ("pipeline", "histogram", {"csv": 5, "sidecar": "hist_564.json"}),
        ("bound", "P2", None),
        ("bound", "N", "abc"),
        ("simulate", "combs", ["x"]),
    ], ids=["pipeline-csv-number", "bound-P2-null", "bound-N-string",
            "simulate-comb-string"])
    def test_wrong_typed_value(self, tmp_path, capsys, command, key, value):
        if command == "pipeline":
            config = TestPipeline().make_inputs(tmp_path)
            cfg = read_json(config)
        else:
            config = tmp_path / "config.json"
            cfg = {"R": 40.0, "N": 100, "P1": 2e-3, "P2": 1e-8}
            if command == "simulate":
                cfg = {}
        cfg[key] = value
        config.write_text(json.dumps(cfg))
        assert_config_error(capsys, main([command, "--config", str(config),
                                          "--out", str(tmp_path / "out")]))

    def test_histogram_non_numeric_cell(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entry = manifest["histograms"][0]
        csv = fixtures / entry["csv"]
        csv.write_text("0.0,abc\n")
        assert_config_error(capsys, main(["analyze", "--histogram", str(csv),
                                          "--sidecar", str(fixtures / entry["sidecar"]),
                                          "--out", str(tmp_path / "out")]))

    def test_histogram_one_column(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        entry = manifest["histograms"][0]
        csv = fixtures / entry["csv"]
        csv.write_text("0.0\n1.0\n")
        assert_config_error(capsys, main(["analyze", "--histogram", str(csv),
                                          "--sidecar", str(fixtures / entry["sidecar"]),
                                          "--out", str(tmp_path / "out")]))

    def test_comb_trace_one_column(self, tmp_path, capsys):
        trace = tmp_path / "comb_trace.txt"
        trace.write_text("0.3\n2.0\n0.3\n")
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"combs": [{"trace": str(trace)}]}))
        assert_config_error(capsys, main(["simulate", "--config", str(config),
                                          "--out", str(tmp_path / "out")]))

    def test_comb_trace_non_numeric_cell(self, tmp_path, capsys):
        trace = tmp_path / "comb_trace.txt"
        trace.write_text("0.0 0.3\n1.0e8 abc\n")
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"combs": [{"trace": str(trace)}]}))
        assert_config_error(capsys, main(["simulate", "--config", str(config),
                                          "--out", str(tmp_path / "out")]))

    def test_simulate_comb_index_out_of_range(self, tmp_path, capsys):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"combs": [{"n_teeth": 9, "bandwidth_hz": 6e9}],
                                      "trace": {"comb_index": 1}}))
        assert_config_error(capsys, main(["simulate", "--config", str(config),
                                          "--out", str(tmp_path / "out")]))

    @pytest.mark.parametrize("key", ["subtract_background", "deconvolve"])
    def test_pipeline_certifies_only_the_corrected_contrast(self, tmp_path, capsys, key):
        config = TestPipeline().make_inputs(tmp_path)
        cfg = read_json(config)
        cfg[key] = False
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert_config_error(capsys, main(["pipeline", "--config", str(config),
                                          "--out", str(out)]))
        assert not out.exists()

    def test_pipeline_booleans_are_strict(self, tmp_path, capsys):
        config = TestPipeline().make_inputs(tmp_path)
        cfg = read_json(config)
        cfg.update(subtract_background="false", deconvolve="false")
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert_config_error(capsys, main(["pipeline", "--config", str(config),
                                          "--out", str(out)]))
        assert not out.exists()


class TestNonFiniteInputs:
    """NaN must fail the range checks: a check written ``x < 0`` lets it
    through, and the run writes NaN and exits 0."""

    @pytest.mark.parametrize("photon,comb", [
        ({"shape": "lorentzian", "fwhm_hz": math.nan}, {}),
        ({"shape": "lorentzian", "fwhm_hz": 1e9, "center_offset_hz": math.nan}, {}),
        ({"shape": "flat"}, {"finesse": math.nan}),
    ], ids=["photon-fwhm", "photon-center-offset", "comb-finesse"])
    def test_simulate(self, tmp_path, capsys, photon, comb):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "photon": photon, "combs": [{"n_teeth": 94, "bandwidth_hz": 6e9, **comb}]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] \
            == "ValueError"
        assert not out.exists()

    def test_analyze_detector_fwhm(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        manifest = write_fixture_files(fixtures, seed=11)
        out = tmp_path / "out"
        assert analyze_histogram(fixtures, manifest["histograms"][-1], out,
                                 "--detector-fwhm", "nan") == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] \
            == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--theta-t", "nan"],
        ["--theta-t", "4.3e6", "--theta-i", "nan"],
        ["--theta-t", "4.3e6", "--d1", "nan", "--finesse", "2"],
    ], ids=["theta-t", "theta-i", "d1"])
    def test_atoms(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        assert main(["atoms", *extra, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] \
            == "ValueError"
        assert not out.exists()
