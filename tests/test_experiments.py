"""Unit tests for the experiment drivers, registry, tables and CLI."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, ExperimentTable, get_experiment
from repro.experiments.figures import fig11, fig12, fig13, fig14, fig15, fig16
from repro.experiments.runner import main as cli_main
from repro.report import format_table


class TestRegistry:
    def test_all_fourteen_figures_registered(self):
        figures = [eid for eid in EXPERIMENTS if eid.startswith("fig")]
        assert sorted(figures) == [f"fig{n:02d}" for n in range(3, 17)]

    def test_extensions_registered(self):
        assert "ext01" in EXPERIMENTS
        assert "ext02" in EXPERIMENTS
        assert "ext03" in EXPERIMENTS
        assert "ext08" in EXPERIMENTS
        assert EXPERIMENTS["ext08"].has_simulation

    def test_lookup(self):
        exp = get_experiment("fig03")
        assert exp.figure == "Figure 3"
        assert exp.has_simulation

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_analytical_figures_marked(self):
        for experiment_id in ("fig11", "fig12", "fig13", "fig14",
                              "fig15", "fig16"):
            assert not EXPERIMENTS[experiment_id].has_simulation


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
        table = fig11()
        throughputs = table.column("max_throughput")
        assert all(a > b for a, b in zip(throughputs, throughputs[1:]))

    def test_fig12_ordering_holds_row_wise(self):
        table = fig12()
        for rate, naive, optimistic, link in table.rows:
            if math.isinf(naive):
                continue
            assert naive >= optimistic * 0.98
            assert optimistic >= link * 0.95

    def test_fig12_naive_saturates_first(self):
        table = fig12()
        naive = table.column("naive_insert")
        link = table.column("link_insert")
        assert any(math.isinf(v) for v in naive)
        assert not any(math.isinf(v) for v in link)

    def test_fig13_thumb_between_zero_and_limit(self):
        table = fig13()
        for _order, _d, analytical, thumb, limit in table.rows:
            assert 0 < thumb <= limit * 1.0001
            assert analytical > 0

    def test_fig14_rates_grow_with_node_size(self):
        table = fig14()
        by_d = {}
        for order, d, analytical, _t, _l in table.rows:
            by_d.setdefault(d, []).append((order, analytical))
        for d, series in by_d.items():
            first, last = series[0][1], series[-1][1]
            assert last > first  # Optimistic gains with node size

    def test_fig15_policy_ordering(self):
        table = fig15()
        for row in table.rows:
            _rate, none, leaf, naive = row
            if math.isinf(none):
                continue
            assert none <= leaf * 1.001
            if not math.isinf(naive):
                assert leaf <= naive * 1.001

    def test_fig15_naive_saturates_earliest(self):
        table = fig15()
        naive = table.column("naive_recovery_insert")
        none = table.column("no_recovery_insert")
        n_sat_naive = sum(1 for v in naive if math.isinf(v))
        n_sat_none = sum(1 for v in none if math.isinf(v))
        assert n_sat_naive > n_sat_none

    def test_fig16_uses_four_level_shape(self):
        table = fig16()
        assert any("height 4" in note for note in table.notes)
        assert len(table.rows) > 0

    def test_ext01_two_phase_is_worst(self):
        from repro.experiments.extensions import ext01
        table = ext01()
        for row in table.rows:
            _rate, two_phase, naive, optimistic, link = row
            if math.isinf(two_phase):
                continue
            assert two_phase >= naive >= optimistic * 0.98

    def test_ext02_throughput_monotone_in_buffer(self):
        from repro.experiments.extensions import ext02
        table = ext02()
        naive = table.column("naive_max_throughput")
        assert all(a <= b for a, b in zip(naive, naive[1:]))


class TestSimulatedFigureSmoke:
    """One simulated figure end to end at a tiny scale."""

    def test_fig03_tiny(self):
        experiment = get_experiment("fig03")
        table = experiment.run(scale=0.02)
        assert table.columns[0] == "arrival_rate"
        model = table.column("model_insert_response")
        sim = table.column("sim_insert_response")
        # Low-load rows must agree loosely even at a tiny scale.
        assert sim[0] == pytest.approx(model[0], rel=0.35)

    def test_no_sim_variant(self):
        table = get_experiment("fig04").run(scale=0.02, simulate=False)
        assert "sim_search_response" not in table.columns


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out and "fig16" in out

    def test_run_analytical(self, tmp_path):
        assert cli_main(["figures", "fig11", "--no-sim", "--no-cache",
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
