"""The one-command figure pipeline: artifacts, determinism, resume."""

import json

import pytest

import repro.report.pipeline as pipeline_module
from repro.errors import CheckpointError
from repro.experiments.runner import main as runner_main
from repro.parallel import ResultCache
from repro.parallel.context import execution
from repro.report import generate_figures, validate_report_dict
from repro.report.pipeline import JOURNAL_NAME, figure_key

ANALYTICAL = ["fig11", "fig13"]


def _generate(out_dir, **kwargs):
    kwargs.setdefault("figure_ids", ANALYTICAL)
    kwargs.setdefault("scale", 0.05)
    kwargs.setdefault("simulate", False)
    kwargs.setdefault("include_claims", False)
    return generate_figures(out_dir=out_dir, **kwargs)


class TestArtifacts:
    def test_full_artifact_set(self, tmp_path):
        result = _generate(tmp_path)
        assert result.passed
        for figure_id in ANALYTICAL:
            assert (tmp_path / f"{figure_id}.svg").exists()
            assert (tmp_path / f"{figure_id}.ndjson").exists()
        assert result.report_json.exists()
        assert result.report_markdown.exists()
        assert result.tables_text.exists()
        assert result.journal_path == tmp_path / JOURNAL_NAME
        assert result.journal_path.exists()
        # The written JSON must satisfy the shipped schema constraints.
        validate_report_dict(
            json.loads(result.report_json.read_text(encoding="utf-8")))
        # tables.txt folds the former text report: headers per figure.
        tables = result.tables_text.read_text(encoding="utf-8")
        for figure_id in ANALYTICAL:
            assert figure_id in tables

    def test_svg_is_wellformed_and_themed(self, tmp_path):
        _generate(tmp_path)
        svg = (tmp_path / "fig11.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")


class TestDeterminism:
    def test_sidecars_byte_identical_across_cached_runs(self, tmp_path):
        # The regression the issue pins: two runs of the same figures
        # on fixed seeds — the second served from the result cache —
        # must produce byte-identical sidecars (and SVGs).
        cache = ResultCache(tmp_path / "cache")
        ids = ["fig03", "fig11"]
        with execution(cache=cache):
            _generate(tmp_path / "run1", figure_ids=ids, scale=0.02,
                      simulate=None)
            _generate(tmp_path / "run2", figure_ids=ids, scale=0.02,
                      simulate=None)
        for figure_id in ids:
            for suffix in (".ndjson", ".svg"):
                first = (tmp_path / "run1" / (figure_id + suffix)).read_bytes()
                second = (tmp_path / "run2" / (figure_id + suffix)).read_bytes()
                assert first == second, f"{figure_id}{suffix} differs"

    def test_figure_key_pins_scale_and_simulate(self):
        base = figure_key("fig03", 0.1, None)
        assert base == figure_key("fig03", 0.1, None)
        assert base != figure_key("fig03", 0.2, None)
        assert base != figure_key("fig03", 0.1, False)
        assert base != figure_key("fig04", 0.1, None)


class TestResume:
    def test_resume_serves_figures_from_journal(self, tmp_path,
                                                monkeypatch):
        first = _generate(tmp_path)
        assert all(not output.resumed for output in first.figures)

        def _boom(spec, scale, simulate):
            raise AssertionError(
                f"{spec.figure_id} recomputed despite a complete journal")

        monkeypatch.setattr(pipeline_module, "_run_figure", _boom)
        # Images are re-rendered from journaled tables even on resume.
        (tmp_path / "fig11.svg").unlink()
        second = _generate(tmp_path, resume=True)
        assert all(output.resumed for output in second.figures)
        assert (tmp_path / "fig11.svg").exists()
        assert second.passed

    def test_journal_refuses_mismatched_parameters(self, tmp_path):
        _generate(tmp_path, scale=0.05)
        with pytest.raises(CheckpointError):
            _generate(tmp_path, scale=0.08, resume=True)


class TestFormats:
    """``--formats`` is a check only: SVG and the NDJSON sidecar are
    always written, and any other name is refused."""

    def _figures(self, out_dir, formats):
        flag = [] if formats is None else ["--formats", formats]
        return runner_main([
            "figures", "fig11", "--no-sim", "--no-claims", "--no-cache",
            "--scale", "0.05", "--out", str(out_dir)] + flag)

    @pytest.mark.parametrize("formats", ["svg,GIF", "png"])
    def test_unknown_format_exits_nonzero_naming_svg(self, tmp_path,
                                                     capsys, formats):
        assert self._figures(tmp_path, formats) == 1
        err = capsys.readouterr().err
        assert "unknown figure format" in err
        assert "svg" in err
        assert not (tmp_path / "fig11.svg").exists()

    @pytest.mark.parametrize("formats", ["ndjson, SVG ", "svg,,", None])
    def test_svg_and_sidecar_are_always_written(self, tmp_path, capsys,
                                                formats):
        code = self._figures(tmp_path, formats)
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "fig11.svg").exists()
        assert (tmp_path / "fig11.ndjson").exists()


class TestCli:
    def test_figures_without_ids_or_all_errors(self, capsys):
        assert runner_main(["figures"]) == 1
        assert "--all" in capsys.readouterr().err

    def test_figures_subcommand_end_to_end(self, tmp_path, capsys):
        code = runner_main([
            "figures", "fig11", "fig13", "--out", str(tmp_path),
            "--formats", "svg", "--no-sim", "--no-claims", "--no-cache",
            "--scale", "0.05"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "2 figure(s)" in captured.out
        assert (tmp_path / "report.json").exists()

    def test_figures_threshold_breach_exits_nonzero(self, tmp_path,
                                                    capsys, monkeypatch):
        # Tighten thresholds absurdly so real (small) errors breach.
        code = runner_main([
            "figures", "fig03", "--out", str(tmp_path), "--formats",
            "svg", "--no-claims", "--no-cache", "--scale", "0.02",
            "--threshold-scale", "1e-9"])
        captured = capsys.readouterr()
        assert code == 1
        assert "BREACH" in captured.err
