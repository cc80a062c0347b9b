#!/usr/bin/env python3
"""Reproduce the paper's validation methodology end to end.

For each algorithm, sweep the arrival rate, run the analytical model and
the discrete-event simulator side by side (several seeds each, as the
paper runs 5 per setting), and print the comparison table — the
programmatic equivalent of the paper's Figures 3-8 overlays.

Run:  python examples/validate_against_simulation.py [--full]
      (--full uses the paper's 10,000 measured operations; the default
       is a quicker 2,000-operation version)
"""

import sys

from repro.experiments.figures import fig03, fig04, fig05, fig06, fig07, fig08
from repro.report import format_table


def main() -> None:
    scale = 1.0 if "--full" in sys.argv[1:] else 0.2
    print(f"running at scale={scale} "
          f"({'paper' if scale == 1.0 else 'quick'} settings)\n")
    tables = [
        figure(scale=scale, simulate=True)
        for figure in (fig03, fig04, fig05, fig06, fig07, fig08)
    ]
    for table in tables:
        print(format_table(table))
    print("Shape check: every simulated series should sit close to its "
          "analytical series at low and\nmoderate load and bend up at the "
          "same knee — 'the analysis and the simulation predict the\nsame "
          "response times' (paper Section 5.3).")


if __name__ == "__main__":
    main()
