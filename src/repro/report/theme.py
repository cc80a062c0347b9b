"""The publication theme shared by every rendered figure.

One :class:`Theme` instance drives both figure backends — the pure SVG
renderer (:mod:`repro.report.svg`) and the optional matplotlib PNG path
(:func:`repro.report.png.save_figure_image`) — so the full figure set
reads as one system: same palette, same marker cycle, same grid, same
typography.

The palette is the eight-hue colorblind-safe cycle of Okabe & Ito
("Color Universal Design"), reordered so the first three series (the
paper's three algorithms in most comparisons) are maximally separable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Okabe-Ito colorblind-safe hues, separable in grayscale print too.
OKABE_ITO: Tuple[str, ...] = (
    "#0072B2",  # blue
    "#D55E00",  # vermillion
    "#009E73",  # bluish green
    "#CC79A7",  # reddish purple
    "#E69F00",  # orange
    "#56B4E9",  # sky blue
    "#F0E442",  # yellow
    "#000000",  # black
)

#: Marker shapes cycled with the palette (SVG primitive names; the
#: matplotlib path maps them onto the equivalent mpl markers).
MARKER_CYCLE: Tuple[str, ...] = (
    "circle", "square", "triangle", "diamond", "cross", "plus",
)

_MPL_MARKERS: Dict[str, str] = {
    "circle": "o", "square": "s", "triangle": "^", "diamond": "D",
    "cross": "x", "plus": "+",
}


@dataclass(frozen=True)
class Theme:
    """Styling constants for one figure family."""

    palette: Tuple[str, ...] = OKABE_ITO
    markers: Tuple[str, ...] = MARKER_CYCLE
    font_family: str = "Helvetica, Arial, sans-serif"
    title_size: int = 13
    label_size: int = 11
    tick_size: int = 9
    legend_size: int = 9
    background: str = "#FFFFFF"
    panel: str = "#FFFFFF"
    grid_color: str = "#D9D9D9"
    axis_color: str = "#333333"
    text_color: str = "#1A1A1A"
    muted_color: str = "#666666"
    line_width: float = 1.6
    marker_size: float = 3.2
    grid_width: float = 0.6
    #: Rendered pixel geometry of the SVG canvas.
    width: int = 720
    height: int = 440
    margin: Dict[str, int] = field(default_factory=lambda: {
        "left": 64, "right": 16, "top": 52, "bottom": 72})
    #: Raster resolution of the matplotlib PNG path.
    dpi: int = 150

    def color(self, index: int) -> str:
        return self.palette[index % len(self.palette)]

    def marker(self, index: int) -> str:
        return self.markers[index % len(self.markers)]

    def mpl_marker(self, index: int) -> str:
        return _MPL_MARKERS[self.marker(index)]

    def rc_params(self) -> Dict[str, object]:
        """Matplotlib rcParams realizing this theme (used under
        ``rc_context`` by the PNG path, never applied globally)."""
        return {
            "figure.facecolor": self.background,
            "figure.dpi": self.dpi,
            "savefig.dpi": self.dpi,
            "axes.facecolor": self.panel,
            "axes.edgecolor": self.axis_color,
            "axes.labelcolor": self.text_color,
            "axes.titlesize": self.title_size,
            "axes.labelsize": self.label_size,
            "axes.grid": True,
            "axes.axisbelow": True,
            "axes.spines.top": False,
            "axes.spines.right": False,
            "axes.prop_cycle": _mpl_cycler(self.palette),
            "grid.color": self.grid_color,
            "grid.linewidth": self.grid_width,
            "lines.linewidth": self.line_width,
            "lines.markersize": self.marker_size * 2,
            "xtick.labelsize": self.tick_size,
            "ytick.labelsize": self.tick_size,
            "xtick.color": self.axis_color,
            "ytick.color": self.axis_color,
            "legend.fontsize": self.legend_size,
            "legend.frameon": False,
            "font.family": "sans-serif",
            "text.color": self.text_color,
        }


def _mpl_cycler(palette: Tuple[str, ...]):
    # Imported lazily: the theme must stay importable without matplotlib
    # (the SVG renderer is the dependency-free default backend).
    from cycler import cycler  # ships with matplotlib

    return cycler(color=list(palette))


#: The default theme applied to every figure the pipeline emits.
PUBLICATION = Theme()
