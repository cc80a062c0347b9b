"""The one-command figure pipeline: artifacts, determinism, resume
on the result cache."""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import main as runner_main
from repro.parallel import ResultCache
from repro.report import generate_figures, validate_report_dict

ANALYTICAL = ["fig11", "fig13"]


def _generate(out_dir, **kwargs):
    kwargs.setdefault("figure_ids", ANALYTICAL)
    kwargs.setdefault("scale", 0.05)
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
        # The result cache is the resume: a second run of the same
        # figures on fixed seeds is all cache hits, stores nothing, and
        # writes the same files, byte for byte, and no others.
        ids = ["fig03", "fig11"]
        _generate(tmp_path / "run1", figure_ids=ids, scale=0.02,
                  cache=ResultCache(tmp_path / "cache"))
        rerun = ResultCache(tmp_path / "cache")
        _generate(tmp_path / "run2", figure_ids=ids, scale=0.02,
                  cache=rerun)
        assert rerun.stats.hits > 0
        assert rerun.stats.misses == 0
        assert rerun.stats.stores == 0
        names = [figure_id + suffix for figure_id in ids
                 for suffix in (".ndjson", ".svg")]
        names += ["report.json", "report.md", "tables.txt"]
        for name in names:
            first = (tmp_path / "run1" / name).read_bytes()
            second = (tmp_path / "run2" / name).read_bytes()
            assert first == second, f"{name} differs"
        for run in ("run1", "run2"):
            assert sorted(p.name for p in (tmp_path / run).iterdir()) \
                == sorted(names)


class TestScaleChecks:
    """A scale must be positive and finite: zero, negative and
    non-finite values are refused before any figure runs."""

    BAD = ["0", "-1", "nan", "inf"]

    @pytest.mark.parametrize("argv", [
        ["figures", "fig11", "--no-cache", "--scale"],
        ["figures", "fig11", "--no-cache", "--threshold-scale"],
        ["simulate", "--scale"],
    ])
    @pytest.mark.parametrize("value", BAD)
    def test_cli_flag_rejected(self, tmp_path, capsys, monkeypatch, argv,
                               value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            runner_main(argv[:-1] + [f"{argv[-1]}={value}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("keyword", ["scale", "threshold_scale"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_generate_figures_rejects(self, tmp_path, keyword, value):
        with pytest.raises(ConfigurationError):
            _generate(tmp_path, **{keyword: value})
        assert not (tmp_path / "report.json").exists()


class TestCountChecks:
    """A seed count below 1 and a negative worker count are refused
    while parsing, before anything runs."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seeds=0"],
        ["simulate", "--seeds=-1"],
        ["simulate", "--jobs=-1"],
        ["figures", "fig11", "--no-cache", "--jobs=-1"],
    ])
    def test_cli_flag_rejected(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            runner_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())


class TestFormats:
    """``--formats`` is a check only: SVG and the NDJSON sidecar are
    always written, and any other name is refused."""

    def _figures(self, out_dir, formats):
        flag = [] if formats is None else ["--formats", formats]
        return runner_main([
            "figures", "fig11", "--no-claims", "--no-cache",
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
            "--formats", "svg", "--no-claims", "--no-cache",
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
