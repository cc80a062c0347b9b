"""Live progress reporting for long sweeps.

A :class:`ProgressPrinter` is an ordinary ``progress`` callback (one
call per completed :class:`~repro.simulator.metrics.SimulationResult`,
in completion order when parallel) that writes one line per run to a
stream — stderr by default, so stdout stays clean.  The CLI
installs it into the ambient execution context
(``execution(progress=...)``), from where every ``run_batch`` below
picks it up.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, TextIO

from repro.algorithms import display_label
from repro.simulator.metrics import SimulationResult


class ProgressPrinter:
    """Prints ``[k/total] algorithm rate=... seed=... -> outcome`` lines.

    The algorithm is shown by its registry display label
    (:func:`repro.algorithms.display_label`); composite names — e.g.
    recovery-policy suffixes — fall back to the raw string.

    ``total`` is optional (sweep sizes are known per batch, not
    globally); without it the counter is open-ended (``[k]``).
    """

    def __init__(self, total: Optional[int] = None,
                 stream: Optional[TextIO] = None) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.completed = 0

    def __call__(self, result: SimulationResult) -> None:
        self.completed += 1
        prefix = (f"[{self.completed}/{self.total}]" if self.total
                  else f"[{self.completed}]")
        rate = ("-" if math.isnan(result.arrival_rate)
                else f"{result.arrival_rate:g}")
        if result.overflowed:
            outcome = "OVERFLOW (saturated)"
        else:
            outcome = (f"throughput={result.throughput:.4g} "
                       f"ops={result.measured_operations}")
        self.stream.write(
            f"{prefix} {display_label(result.algorithm)} rate={rate} "
            f"seed={result.seed} -> {outcome}\n")
        self.stream.flush()
