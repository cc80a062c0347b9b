"""Figure-registry invariants: completeness, uniqueness, declarations."""

import inspect
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments import extensions, figures
from repro.experiments.registry import driver, run_drivers
from repro.report import FIGURES, all_figure_ids, get_figure
from repro.report.registry import _ENTRIES, ABSOLUTE, RELATIVE
from repro.report.validation import validate_figure

#: The figures whose drivers take ``simulate`` (default False); every
#: other driver always makes the columns its comparisons declare.
SWITCHED = ("fig12", "fig15", "ext01")


class TestCompleteness:
    def test_every_experiment_has_exactly_one_figure(self):
        drivers = {name for module in (figures, extensions)
                   for name, value in vars(module).items()
                   if re.fullmatch(r"(fig|ext)\d\d", name) and callable(value)}
        ids = [spec.figure_id for spec in _ENTRIES]
        assert sorted(ids) == sorted(drivers)
        assert list(FIGURES) == ids

    def test_every_paper_figure_is_registered(self):
        expected = {f"fig{n:02d}" for n in range(3, 17)}
        assert set(all_figure_ids("paper")) == expected

    def test_every_extension_figure_is_registered(self):
        assert set(all_figure_ids("ext")) == {
            f"ext{n:02d}" for n in range(1, 9)}

    def test_kinds_partition_the_registry(self):
        assert (set(all_figure_ids("paper")) | set(all_figure_ids("ext"))
                == set(all_figure_ids()))


class TestDeclarations:
    def test_lookup_and_experiment_link(self):
        spec = get_figure("fig03")
        assert spec.kind == "paper"
        assert get_figure("ext03").kind == "ext"
        assert driver("fig03") is figures.fig03
        assert driver("ext03") is extensions.ext03

    def test_unknown_driver_is_a_readable_error(self):
        for figure_id in ("fig99", "figures", "_response_figure"):
            with pytest.raises(ConfigurationError, match=figure_id):
                driver(figure_id)

    def test_unknown_figure_is_a_readable_error(self):
        with pytest.raises(ConfigurationError, match="fig99"):
            get_figure("fig99")

    def test_comparison_metrics_are_known(self):
        for spec in FIGURES.values():
            for comparison in spec.comparisons:
                assert comparison.metric in (RELATIVE, ABSOLUTE)
                assert comparison.threshold > 0
                assert comparison.model_column != comparison.sim_column

    def test_simulated_paper_response_figures_declare_comparisons(self):
        # The figures whose paper originals overlay simulation points
        # must carry at least one model-vs-sim pair to validate.
        for figure_id in ("fig03", "fig04", "fig05", "fig06", "fig07",
                          "fig08", "fig09", "fig10"):
            assert get_figure(figure_id).comparisons, figure_id

    def test_comparison_columns_exist_in_generated_tables(self):
        spec = get_figure("fig03")
        table = spec.run(scale=0.02)
        for comparison in spec.comparisons:
            assert comparison.model_column in table.columns
            assert comparison.sim_column in table.columns

    def test_plot_columns_reference_real_columns(self):
        spec = get_figure("fig09")
        table = spec.run(scale=0.02)
        assert spec.plot_columns is not None
        assert all(c in table.columns for c in spec.plot_columns)


class TestSimulateSwitch:
    def test_only_the_switched_figures_take_simulate(self):
        parameters = {figure_id: inspect.signature(driver(figure_id))
                      .parameters for figure_id in FIGURES}
        assert {figure_id for figure_id, params in parameters.items()
                if "simulate" in params} == set(SWITCHED)
        for figure_id in SWITCHED:
            assert parameters[figure_id]["simulate"].default is False

    @pytest.mark.parametrize("figure_id", SWITCHED)
    def test_simulated_branch_fills_every_comparison(self, figure_id):
        # Each comparison gets error rows; whether it passes is not
        # asserted (fig15's naive recovery breaches, see ROADMAP).
        spec = get_figure(figure_id)
        (table,), _report = run_drivers(
            [driver(figure_id)(scale=0.01, simulate=True)])
        validation = validate_figure(spec, table)
        assert spec.comparisons
        for comparison, result in zip(spec.comparisons,
                                      validation.comparisons):
            assert comparison.sim_column in table.columns
            assert result.points, comparison.quantity
