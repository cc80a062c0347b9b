"""Live progress reporting for long sweeps.

A :class:`ProgressPrinter` is an ordinary ``progress`` callback (one
call per completed task, in completion order when parallel) that writes
one line per result to a stream — stderr by default, so stdout stays
clean.  The CLI passes it as the ``progress`` argument of the run's one
``run_batch``.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Optional, TextIO

from repro.algorithms import display_label
from repro.model.params import TreeShape
from repro.obs.telemetry import RunTelemetry


class ProgressPrinter:
    """Prints one ``[k/total] <run> -> <outcome>`` line per result.

    A simulation run prints ``algorithm rate=... seed=...``, the
    algorithm by its registry display label
    (:func:`repro.algorithms.display_label`; composite names — e.g.
    recovery-policy suffixes — fall back to the raw string).  A cluster
    run prints its policy bundle, offered rate, seed, availability and
    goodput; a tree shape its height and fanouts; a capacity search
    (a ``float``) its rate.  A
    :class:`~repro.obs.telemetry.RunTelemetry` prints as its run.

    ``total`` is optional (sweep sizes are known per batch, not
    globally); without it the counter is open-ended (``[k]``).
    """

    def __init__(self, total: Optional[int] = None,
                 stream: Optional[TextIO] = None) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.completed = 0

    def __call__(self, result: Any) -> None:
        # Imported here so that importing repro.obs leaves the cluster
        # tier unloaded.
        from repro.cluster.metrics import ClusterResult
        self.completed += 1
        if isinstance(result, RunTelemetry):
            result = result.result
        prefix = (f"[{self.completed}/{self.total}]" if self.total
                  else f"[{self.completed}]")
        if isinstance(result, ClusterResult):
            line = (f"cluster {result.policy_name} "
                    f"rate={result.offered_rate:g} seed={result.seed} "
                    f"-> availability={result.availability:.4g} "
                    f"goodput={result.goodput:.4g}")
        elif isinstance(result, float):
            line = f"capacity search -> rate={result:.6g}"
        elif isinstance(result, TreeShape):
            fanouts = ", ".join(f"{result.fanout(level):.4g}"
                                for level in range(2, result.height + 1))
            line = (f"tree shape -> height={result.height} "
                    f"fanouts=[{fanouts}]")
        else:
            rate = ("-" if math.isnan(result.arrival_rate)
                    else f"{result.arrival_rate:g}")
            if result.overflowed:
                outcome = "OVERFLOW (saturated)"
            else:
                outcome = (f"throughput={result.throughput:.4g} "
                           f"ops={result.measured_operations}")
            line = (f"{display_label(result.algorithm)} rate={rate} "
                    f"seed={result.seed} -> {outcome}")
        self.stream.write(f"{prefix} {line}\n")
        self.stream.flush()
