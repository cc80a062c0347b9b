"""Run-telemetry layer (``repro.obs``).

The paper's simulator "collects a variety of statistics"; this package
makes a run observable *while it happens* and exportable after:

* **instruments** — named :class:`Counter`\\ s and :class:`Timer`\\ s
  with a zero-allocation disabled path (:data:`NULL_INSTRUMENTS`); the
  DES engine's event loop holds no instrument at all.
* **sampling** — a periodic in-simulation sampler records per-level
  lock state (queue depth, R/W utilization) and the in-flight operation
  population into a decimating ring: bounded memory, full-run coverage,
  strictly increasing timestamps.
* **export** — the whole artifact (result + counters + time series)
  round-trips through a stable, versioned NDJSON layout
  (:func:`write_ndjson` / :func:`load_ndjson`).
* **aggregation** — per-seed runs of one sweep point merge into a
  single :class:`SweepTelemetry`, identically whether the seeds ran
  serially or on :mod:`repro.parallel` workers.

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
from repro.obs.instruments import (
    NULL_COUNTER,
    NULL_INSTRUMENTS,
    NULL_TIMER,
    Counter,
    Instrumentation,
    NullInstrumentation,
    Timer,
    merge_counter_snapshots,
)
from repro.obs.progress import ProgressPrinter
from repro.obs.sampler import DecimatingRing, LevelState, TelemetrySampler
from repro.obs.telemetry import (
    SCHEMA_VERSION,
    GlobalSeries,
    LevelSeries,
    RunTelemetry,
    SweepTelemetry,
    TelemetryOptions,
    TelemetryRecorder,
    collect_replications,
    merge_telemetry,
)

__all__ = [
    "Counter",
    "DecimatingRing",
    "GlobalSeries",
    "Instrumentation",
    "LevelSeries",
    "LevelState",
    "NULL_COUNTER",
    "NULL_INSTRUMENTS",
    "NULL_TIMER",
    "NullInstrumentation",
    "ProgressPrinter",
    "RunTelemetry",
    "SCHEMA_VERSION",
    "SweepTelemetry",
    "TelemetryOptions",
    "TelemetryRecorder",
    "TelemetrySampler",
    "Timer",
    "collect_replications",
    "dumps_ndjson",
    "load_ndjson",
    "loads_ndjson",
    "merge_counter_snapshots",
    "merge_telemetry",
    "telemetry_records",
    "write_ndjson",
]
