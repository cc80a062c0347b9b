"""Tests for the optional matplotlib PNG backend and its gate."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentTable
from repro.report.png import matplotlib_available, save_figure_image


def _table():
    table = ExperimentTable("t01", "a test series", "Test",
                            ["x", "alpha", "beta"])
    for x in range(10):
        table.add(float(x), float(x * x), 50.0 - x)
    return table


class TestMatplotlibGate:
    @pytest.mark.skipif(matplotlib_available(),
                        reason="matplotlib installed")
    def test_png_without_matplotlib_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="matplotlib"):
            save_figure_image(_table(), tmp_path / "t01.png")

    @pytest.mark.skipif(not matplotlib_available(),
                        reason="needs matplotlib")
    def test_backend_is_headless_and_figures_are_closed(self, tmp_path):
        import matplotlib
        import matplotlib.pyplot as plt

        path = save_figure_image(_table(), tmp_path / "t01.png")
        assert path.exists()
        # save_figure_image must have forced the headless backend
        # before pyplot's first import, and closed its figure.
        assert matplotlib.get_backend().lower() == "agg"
        assert plt.get_fignums() == []
