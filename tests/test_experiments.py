"""Unit tests for the experiment drivers, registry, tables and CLI."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentTable
from repro.experiments.runner import main as cli_main
from repro.report import FIGURES, all_figure_ids, format_table, get_figure


class TestRegistry:
    def test_all_fourteen_figures_registered(self):
        figures = [fid for fid in FIGURES if fid.startswith("fig")]
        assert sorted(figures) == [f"fig{n:02d}" for n in range(3, 17)]

    def test_extensions_registered(self):
        assert all_figure_ids("ext") == tuple(
            f"ext{n:02d}" for n in range(1, 9))

    def test_lookup(self):
        spec = get_figure("fig03")
        assert spec.figure_id == "fig03"
        assert spec.kind == "paper"

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            get_figure("fig99")

    def test_analytical_figures_marked(self):
        for figure_id in ("fig11", "fig12", "fig13", "fig14",
                          "fig15", "fig16"):
            table = get_figure(figure_id).run(scale=0.02)
            assert not [column for column in table.columns
                        if column.startswith("sim_")], figure_id


class TestExperimentTable:
    def test_add_and_column(self):
        table = ExperimentTable("x", "t", "Figure X", ["a", "b"])
        table.add(1, 2.0)
        table.add(3, 4.0)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2.0, 4.0]

    def test_row_arity_checked(self):
        table = ExperimentTable("x", "t", "Figure X", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_format_handles_inf_and_nan(self):
        table = ExperimentTable("x", "t", "Figure X", ["a", "b"])
        table.add(math.inf, math.nan)
        table.note("a note")
        text = format_table(table)
        assert "saturated" in text
        assert "note: a note" in text


class TestAnalyticalFigures:
    """The simulation-free figures run quickly at full fidelity."""

    def test_fig11_monotone_decreasing(self):
        table = get_figure("fig11").run()
        throughputs = table.column("max_throughput")
        assert all(a > b for a, b in zip(throughputs, throughputs[1:]))

    def test_fig12_ordering_holds_row_wise(self):
        table = get_figure("fig12").run()
        for rate, naive, optimistic, link in table.rows:
            if math.isinf(naive):
                continue
            assert naive >= optimistic * 0.98
            assert optimistic >= link * 0.95

    def test_fig12_naive_saturates_first(self):
        table = get_figure("fig12").run()
        naive = table.column("naive_insert")
        link = table.column("link_insert")
        assert any(math.isinf(v) for v in naive)
        assert not any(math.isinf(v) for v in link)

    def test_fig13_thumb_between_zero_and_limit(self):
        table = get_figure("fig13").run()
        for _order, _d, analytical, thumb, limit in table.rows:
            assert 0 < thumb <= limit * 1.0001
            assert analytical > 0

    def test_fig14_rates_grow_with_node_size(self):
        table = get_figure("fig14").run()
        by_d = {}
        for order, d, analytical, _t, _l in table.rows:
            by_d.setdefault(d, []).append((order, analytical))
        for d, series in by_d.items():
            first, last = series[0][1], series[-1][1]
            assert last > first  # Optimistic gains with node size

    def test_fig15_policy_ordering(self):
        table = get_figure("fig15").run()
        for row in table.rows:
            _rate, none, leaf, naive = row
            if math.isinf(none):
                continue
            assert none <= leaf * 1.001
            if not math.isinf(naive):
                assert leaf <= naive * 1.001

    def test_fig15_naive_saturates_earliest(self):
        table = get_figure("fig15").run()
        naive = table.column("naive_recovery_insert")
        none = table.column("no_recovery_insert")
        n_sat_naive = sum(1 for v in naive if math.isinf(v))
        n_sat_none = sum(1 for v in none if math.isinf(v))
        assert n_sat_naive > n_sat_none

    def test_fig16_uses_four_level_shape(self):
        table = get_figure("fig16").run()
        assert any("height 4" in note for note in table.notes)
        assert len(table.rows) > 0

    def test_ext01_two_phase_is_worst(self):
        table = get_figure("ext01").run()
        for row in table.rows:
            _rate, two_phase, naive, optimistic, link = row
            if math.isinf(two_phase):
                continue
            assert two_phase >= naive >= optimistic * 0.98

    def test_ext02_throughput_monotone_in_buffer(self):
        table = get_figure("ext02").run()
        naive = table.column("naive_max_throughput")
        assert all(a <= b for a, b in zip(naive, naive[1:]))


class TestSimulatedFigureSmoke:
    """One simulated figure end to end at a tiny scale."""

    def test_fig03_tiny(self):
        table = get_figure("fig03").run(scale=0.02)
        assert table.columns[0] == "arrival_rate"
        model = table.column("model_insert_response")
        sim = table.column("sim_insert_response")
        # Low-load rows must agree loosely even at a tiny scale.
        assert sim[0] == pytest.approx(model[0], rel=0.35)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(FIGURES)
        assert len(lines) == 22
        for line, spec in zip(lines, FIGURES.values()):
            parts = line.split(None, 2)
            assert len(parts) == 3 and parts[2].strip(), line
            assert parts[1] == spec.kind

    def test_run_analytical(self, tmp_path):
        assert cli_main(["figures", "fig11", "--no-cache",
                         "--formats", "svg", "--out", str(tmp_path)]) == 0
        tables = (tmp_path / "tables.txt").read_text(encoding="utf-8")
        assert "max_throughput" in tables

    def test_unknown_experiment_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["figures", "fig99", "--out", str(tmp_path)]) == 1
        assert "unknown figure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "all", "claims"])
    def test_removed_subcommands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_removed_algorithm_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["simulate", "--algorithm", "link-symmetric"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'link-symmetric'" in capsys.readouterr().err

    def test_removed_no_sim_flag_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["figures", "fig11", "--no-sim", "--out",
                      str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--no-sim" in err
        assert not any(tmp_path.iterdir())
