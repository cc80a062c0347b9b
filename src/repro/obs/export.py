"""NDJSON export of run telemetry, and the loader that inverts it.

One telemetry artifact is a newline-delimited JSON file: the first line
is a ``header`` record carrying the schema version and the run/sweep
identity, and every following line is a self-describing record::

    {"record": "header",   "schema": 1, "kind": "run"|"sweep", ...}
    {"record": "run",      "seed": s, "sample_interval": ..., ...}
    {"record": "result",   "seed": s, "values": {...SimulationResult}}
    {"record": "counters", "seed": s, "values": {"des.events": ...}}
    {"record": "series",   "seed": s, "series": "global", "t": [...], ...}
    {"record": "series",   "seed": s, "series": "level", "level": L, ...}

A ``sweep`` artifact additionally carries one ``counters`` record with
``"seed": null`` — the across-seed merged snapshot — followed by each
seed's full section.  The layout is documented field by field in
``docs/observability.md``; bump :data:`~repro.obs.telemetry.SCHEMA_VERSION`
on any incompatible change.

Losslessness: floats are emitted with ``repr``-grade shortest-round-trip
precision (the :mod:`json` default), and non-finite values use Python's
``NaN`` / ``Infinity`` literals (readable back by :func:`json.loads`),
so ``load_ndjson(write_ndjson(t)) == t`` field for field.  Unknown
record types are skipped on load, which is what lets the schema grow
additively without a version bump.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Iterator, List, Union

from repro.errors import ConfigurationError
from repro.obs.telemetry import (
    SCHEMA_VERSION,
    GlobalSeries,
    LevelSeries,
    RunTelemetry,
    SweepTelemetry,
)
from repro.simulator.metrics import SimulationResult

Telemetry = Union[RunTelemetry, SweepTelemetry]


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _result_values(result: SimulationResult) -> dict:
    values = dataclasses.asdict(result)
    # JSON object keys are strings; the loader restores the int keys and
    # the (read, write) tuples.
    values["mean_lock_waits"] = {
        str(level): list(waits)
        for level, waits in result.mean_lock_waits.items()
    }
    return values


def _run_records(run: RunTelemetry) -> Iterator[dict]:
    yield {"record": "run", "seed": run.seed,
           "sample_interval": run.sample_interval,
           "final_interval": run.final_interval}
    yield {"record": "result", "seed": run.seed,
           "values": _result_values(run.result)}
    yield {"record": "counters", "seed": run.seed, "values": run.counters}
    series = run.global_series
    yield {"record": "series", "seed": run.seed, "series": "global",
           "t": series.t, "in_flight": series.in_flight,
           "events": series.events}
    for level in run.levels:
        yield {"record": "series", "seed": run.seed, "series": "level",
               "level": level.level, "nodes": level.nodes,
               "grants_read": level.grants_read,
               "grants_write": level.grants_write,
               "t": level.t, "held_read": level.held_read,
               "held_write": level.held_write, "queued": level.queued,
               "util_read": level.util_read,
               "util_write": level.util_write}


def telemetry_records(telemetry: Telemetry) -> Iterator[dict]:
    """The full record stream of one artifact, header first."""
    if isinstance(telemetry, RunTelemetry):
        yield {"record": "header", "schema": telemetry.schema,
               "kind": "run", "algorithm": telemetry.algorithm,
               "arrival_rate": telemetry.arrival_rate,
               "seeds": [telemetry.seed]}
        yield from _run_records(telemetry)
        return
    if isinstance(telemetry, SweepTelemetry):
        yield {"record": "header", "schema": telemetry.schema,
               "kind": "sweep", "algorithm": telemetry.algorithm,
               "arrival_rate": telemetry.arrival_rate,
               "seeds": telemetry.seeds}
        yield {"record": "counters", "seed": None,
               "values": telemetry.counters}
        for run in telemetry.runs:
            yield from _run_records(run)
        return
    raise ConfigurationError(
        f"cannot export {type(telemetry).__name__} as telemetry")


def dumps_ndjson(telemetry: Telemetry) -> str:
    """The artifact as one NDJSON string (deterministic key order)."""
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in telemetry_records(telemetry))


def write_ndjson(path: Union[str, os.PathLike],
                 telemetry: Telemetry) -> None:
    """Write one telemetry artifact to ``path`` as NDJSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_ndjson(telemetry))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _parse_result(values: dict) -> SimulationResult:
    unknown = set(values) - {f.name for f in
                             dataclasses.fields(SimulationResult)}
    if unknown:
        raise ConfigurationError(
            f"telemetry result record has fields this loader does not "
            f"know: {sorted(unknown)}")
    values = dict(values)
    values["mean_lock_waits"] = {
        int(level): tuple(waits)
        for level, waits in values["mean_lock_waits"].items()
    }
    return SimulationResult(**values)


def _parse_runs(header: dict, records: List[dict]) -> Dict[int, RunTelemetry]:
    partial: Dict[int, dict] = {
        seed: {"levels": []} for seed in header["seeds"]}
    for record in records:
        seed = record.get("seed")
        if seed not in partial:
            continue
        into = partial[seed]
        kind = record["record"]
        if kind == "run":
            into["sample_interval"] = record["sample_interval"]
            into["final_interval"] = record["final_interval"]
        elif kind == "result":
            into["result"] = _parse_result(record["values"])
        elif kind == "counters":
            into["counters"] = record["values"]
        elif kind == "series" and record["series"] == "global":
            into["global_series"] = GlobalSeries(
                t=record["t"], in_flight=record["in_flight"],
                events=record["events"])
        elif kind == "series" and record["series"] == "level":
            into["levels"].append(LevelSeries(
                level=record["level"], nodes=record["nodes"],
                grants_read=record["grants_read"],
                grants_write=record["grants_write"],
                t=record["t"], held_read=record["held_read"],
                held_write=record["held_write"], queued=record["queued"],
                util_read=record["util_read"],
                util_write=record["util_write"]))
        # Unknown record types: skipped (additive schema growth).
    runs: Dict[int, RunTelemetry] = {}
    for seed, into in partial.items():
        missing = {"result", "counters", "global_series",
                   "sample_interval"} - set(into)
        if missing:
            raise ConfigurationError(
                f"telemetry artifact is missing {sorted(missing)} "
                f"records for seed {seed}")
        runs[seed] = RunTelemetry(
            schema=header["schema"], algorithm=header["algorithm"],
            arrival_rate=header["arrival_rate"], seed=seed,
            sample_interval=into["sample_interval"],
            final_interval=into["final_interval"],
            result=into["result"], counters=into["counters"],
            global_series=into["global_series"],
            levels=sorted(into["levels"], key=lambda s: s.level))
    return runs


def loads_ndjson(text: str) -> Telemetry:
    """Parse one NDJSON telemetry artifact back into its dataclasses."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ConfigurationError("empty telemetry artifact")
    records = [json.loads(line) for line in lines]
    header = records[0]
    if header.get("record") != "header":
        raise ConfigurationError(
            "telemetry artifact must start with a header record, "
            f"got {header.get('record')!r}")
    if header.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported telemetry schema {header.get('schema')!r} "
            f"(this loader reads version {SCHEMA_VERSION})")
    runs = _parse_runs(header, records[1:])
    ordered = [runs[seed] for seed in header["seeds"]]
    if header["kind"] == "run":
        if len(ordered) != 1:
            raise ConfigurationError(
                f"a 'run' artifact holds exactly one seed, "
                f"got {header['seeds']}")
        return ordered[0]
    if header["kind"] != "sweep":
        raise ConfigurationError(
            f"unknown telemetry artifact kind {header['kind']!r}")
    merged = next(
        (r["values"] for r in records[1:]
         if r["record"] == "counters" and r.get("seed") is None), None)
    if merged is None:
        raise ConfigurationError(
            "sweep artifact is missing its merged counters record")
    return SweepTelemetry(
        schema=header["schema"], algorithm=header["algorithm"],
        arrival_rate=header["arrival_rate"], seeds=header["seeds"],
        counters=merged, runs=ordered)


def load_ndjson(path: Union[str, os.PathLike]) -> Telemetry:
    """Load a telemetry artifact written by :func:`write_ndjson`."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_ndjson(handle.read())
