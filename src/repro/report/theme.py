"""The publication theme shared by every rendered figure.

One :class:`Theme` instance drives the SVG renderer
(:mod:`repro.report.svg`) for every figure, so the full figure set
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

#: Marker shapes cycled with the palette (the SVG renderer's primitive
#: names).
MARKER_CYCLE: Tuple[str, ...] = (
    "circle", "square", "triangle", "diamond", "cross", "plus",
)


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

    def color(self, index: int) -> str:
        return self.palette[index % len(self.palette)]

    def marker(self, index: int) -> str:
        return self.markers[index % len(self.markers)]


#: The default theme applied to every figure the pipeline emits.
PUBLICATION = Theme()
