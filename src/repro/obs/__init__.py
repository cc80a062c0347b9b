"""Run-telemetry layer (``repro.obs``).

The paper's simulator "collects a variety of statistics"; this package
makes a run observable *while it happens* and exportable after:

* **recording** — one :class:`TelemetryRecorder` per run keeps named
  counters (tallies and count/total pairs of observed durations), the
  live per-level lock state (:class:`LevelState`) and a periodic
  in-simulation sample of it plus the in-flight operation population:
  bounded memory, full-run coverage, strictly increasing timestamps.
  With telemetry off the driver holds no recorder, and each hook costs
  one ``is None`` check; the DES engine's event loop holds none at all.
* **export** — the whole artifact (result + counters + time series)
  round-trips through a stable, versioned NDJSON layout
  (:func:`write_ndjson` / :func:`load_ndjson`).
* **aggregation** — per-seed runs of one sweep point merge into a
  single :class:`SweepTelemetry`, identically whether the seeds ran
  serially or on :mod:`repro.parallel` workers, where a telemetry run
  is an ordinary ``"telemetry"`` task, keyed and cached like any
  other.

Entry points: pass a :class:`TelemetryRecorder` to
:func:`~repro.simulator.driver.run_simulation`, or let
:func:`collect_replications` handle the whole fan-out; on the command
line, ``btree-perf simulate --metrics-out run.ndjson --progress``.
See ``docs/observability.md`` for the schema.
"""

from repro.obs.export import (
    dumps_ndjson,
    load_ndjson,
    loads_ndjson,
    telemetry_records,
    write_ndjson,
)
from repro.obs.progress import ProgressPrinter
from repro.obs.telemetry import (
    SCHEMA_VERSION,
    GlobalSeries,
    LevelSeries,
    LevelState,
    RunTelemetry,
    SweepTelemetry,
    TelemetryOptions,
    TelemetryRecorder,
    collect_replications,
    merge_telemetry,
)

__all__ = [
    "GlobalSeries",
    "LevelSeries",
    "LevelState",
    "ProgressPrinter",
    "RunTelemetry",
    "SCHEMA_VERSION",
    "SweepTelemetry",
    "TelemetryOptions",
    "TelemetryRecorder",
    "collect_replications",
    "dumps_ndjson",
    "load_ndjson",
    "loads_ndjson",
    "merge_telemetry",
    "telemetry_records",
    "write_ndjson",
]
