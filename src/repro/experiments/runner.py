"""Command-line entry point (``btree-perf``).

Usage::

    btree-perf list
    btree-perf list-algorithms
    btree-perf list-workloads
    btree-perf figures --all [--scale 0.1] [--jobs 4] [--out figures]
    btree-perf figures fig03 fig10 --scale 0.05
    btree-perf simulate --algorithm link-type --rate 0.2 \\
        --metrics-out run.ndjson --progress
    btree-perf list-cluster-policies
    btree-perf cluster --shards 8 --replicas 2 --chaos 2 \\
        --policy resilient --seed 7

``figures`` is the one-command full reproduction: it regenerates every
requested figure (``--all`` or explicit ids), renders SVG with the
publication theme plus an NDJSON data sidecar per figure, and writes a
validation report (markdown + JSON) whose model-vs-simulation error
tables are checked against the registry thresholds — a breach (or a
failed in-text claim) exits nonzero, which is the CI gate.  Every
figure's aligned table also lands in ``tables.txt`` next to the report.
See ``docs/reproduction.md``.

``list-algorithms`` prints the :mod:`repro.algorithms` registry — every
registered algorithm with its display label, whether it has an
analytical model, and its capability flags (``docs/architecture.md``
shows how to register a new one).  ``list-workloads`` prints the
:mod:`repro.workload` registry: every arrival process and key
distribution, plus the transaction envelope.

Simulation runs are memoized in an on-disk cache (``$REPRO_CACHE_DIR``
or ``~/.cache/repro``), so re-running an experiment at the same scale
reuses every already-computed point.  That is also the resume: an
interrupted ``figures`` run invoked again computes only what it had
not finished.  ``--no-cache`` disables the cache (and so the resume)
and ``--clear-cache`` empties it first.  A ``figures`` run collects the
simulation tasks of all of its figures into one de-duplicated batch,
and ``--jobs N`` fans that batch out over ``N`` worker processes (the
default, 1, is serial); results are bit-identical either way.  See
``docs/performance.md``.

``--progress`` streams one line per completed run to stderr (on
``figures`` with a cache, then one line of the cache's counters);
``simulate`` runs one configuration under full telemetry and
``--metrics-out PATH`` exports it as NDJSON (``docs/observability.md``).

``--task-timeout`` and ``--max-retries`` switch sweeps into resilient
execution (retries with backoff, quarantine instead of abort); see
``docs/robustness.md``.

``cluster`` runs one sharded-cluster simulation (:mod:`repro.cluster`)
next to its analytical prediction; chaos comes from ``--faults``/
``$REPRO_FAULTS`` (simulation-time fault specs) or ``--chaos N`` (the
deterministic ext08 schedule with N waves), and
``list-cluster-policies`` enumerates the named defense presets.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from typing import List, Optional

from repro.algorithms import algorithm_names, all_algorithms, names
from repro.errors import ConfigurationError, ReproError
from repro.parallel import ResultCache


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btree-perf",
        description="Regenerate the figures of Johnson & Shasha (PODS 1990)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list",
                   help="list the figures with a one-line description")
    sub.add_parser("list-algorithms",
                   help="list the registered algorithms and capabilities")
    sub.add_parser("list-workloads",
                   help="list the registered workload components "
                        "(arrival processes and key distributions)")
    sub.add_parser("list-cluster-policies",
                   help="list the named cluster defense presets "
                        "(retry / hedge / breaker bundles)")

    cluster = sub.add_parser(
        "cluster",
        help="run one sharded-cluster simulation under chaos, next to "
             "the analytical router+shard composition")
    cluster.add_argument("--shards", type=int, default=8,
                         help="number of range-partitioned shards "
                              "(default 8)")
    cluster.add_argument("--replicas", type=int, default=2,
                         help="servers per shard: 1 primary + R-1 read "
                              "replicas (default 2)")
    cluster.add_argument("--algorithm", default=names.NAIVE_LOCK_COUPLING,
                         choices=sorted(algorithm_names()),
                         help="single-tree algorithm supplying the "
                              "per-shard service demands (needs an "
                              "analytical model)")
    cluster.add_argument("--policy", default="resilient",
                         help="defense preset (see "
                              "list-cluster-policies; default "
                              "resilient)")
    cluster.add_argument("--rate", type=_positive_rate, default=None,
                         help="total cluster arrival rate; default "
                              "derives it from --rho")
    cluster.add_argument("--rho", type=_positive_finite("utilization"),
                         default=0.25,
                         help="target per-shard primary utilization "
                              "when --rate is omitted (default 0.25)")
    cluster.add_argument("--horizon", type=_positive_finite("horizon"),
                         default=2_000.0,
                         help="arrival horizon in simulated time units "
                              "(default 2000)")
    cluster.add_argument("--seed", type=int, default=1,
                         help="simulation seed (default 1)")
    cluster.add_argument("--faults", default=None, metavar="SPEC",
                         help="simulation-time fault plan, e.g. "
                              "'shard-crash@2~200!300%%1.6;"
                              "slow-shard@0~300!600%%6' "
                              "(default: $REPRO_FAULTS)")
    cluster.add_argument("--chaos", type=_non_negative_int, default=None,
                         metavar="WAVES",
                         help="inject the deterministic ext08 chaos "
                              "schedule with WAVES waves instead of "
                              "--faults")

    figures = sub.add_parser(
        "figures",
        help="one-command reproduction: render figures + validation "
             "report (docs/reproduction.md)")
    figures.add_argument("figure_ids", nargs="*", metavar="FIGURE",
                         help="figure ids to generate (e.g. fig03 ext04); "
                              "empty with --all for the full set")
    figures.add_argument("--all", action="store_true", dest="all_figures",
                         help="generate every registered figure")
    figures.add_argument("--out", default="figures", metavar="DIR",
                         help="output directory (default: figures/)")
    figures.add_argument("--formats", default=None, metavar="LIST",
                         help="comma-separated figure formats, checked "
                              "only: svg and ndjson are accepted, and "
                              "both are always written")
    figures.add_argument("--threshold-scale", type=_positive_scale,
                         default=1.0,
                         metavar="F",
                         help="multiply every validation threshold by F "
                              "(tighten < 1, loosen > 1; default 1.0)")
    figures.add_argument("--scale", type=_positive_scale, default=1.0,
                         help="simulation effort scale (1.0 = paper "
                              "scale)")
    figures.add_argument("--no-claims", action="store_true",
                         help="leave the paper's in-text claims out of "
                              "the validation report")
    figures.add_argument("--jobs", type=_non_negative_int, default=1,
                         metavar="N",
                         help="worker processes for the run's simulation "
                              "batch (default 1: serial)")
    figures.add_argument("--no-cache", action="store_true",
                         help="disable the on-disk simulation result "
                              "cache")
    figures.add_argument("--clear-cache", action="store_true",
                         help="empty the simulation result cache first")
    figures.add_argument("--progress", action="store_true",
                         help="stream per-figure and per-run progress "
                              "lines to stderr")
    _resilience_flags(figures)

    simulate = sub.add_parser(
        "simulate",
        help="run one simulator configuration with full telemetry")
    simulate.add_argument("--algorithm", default=names.LINK_TYPE,
                          choices=sorted(algorithm_names()))
    simulate.add_argument("--rate", type=_positive_rate, default=0.2,
                          help="Poisson arrival rate (default 0.2)")
    simulate.add_argument("--seed", type=int, default=0,
                          help="base random seed (default 0)")
    simulate.add_argument("--seeds", type=_positive_int, default=1,
                          metavar="N",
                          help="replication seeds seed..seed+N-1 "
                               "(default 1)")
    simulate.add_argument("--scale", type=_positive_scale, default=1.0,
                          help="simulation effort scale (1.0 = paper "
                               "scale)")
    simulate.add_argument("--sample-interval",
                          type=_positive_finite("sample interval"),
                          default=1.0,
                          metavar="T",
                          help="simulated time between telemetry samples "
                               "(default 1.0)")
    simulate.add_argument("--metrics-out", metavar="PATH",
                          help="write the merged run telemetry to PATH "
                               "as NDJSON")
    simulate.add_argument("--progress", action="store_true",
                          help="stream one line per completed run to "
                               "stderr")
    simulate.add_argument("--jobs", type=_non_negative_int, default=1,
                          metavar="N",
                          help="worker processes for the replication "
                               "seeds (default 1: serial)")
    _resilience_flags(simulate)
    return parser


def _positive_finite(noun: str):
    """An argparse type accepting a positive, finite float; ``noun``
    names the value in its error messages."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a {noun}") from None
        if not math.isfinite(value) or value <= 0:
            raise argparse.ArgumentTypeError(
                f"expected a positive, finite {noun}, got {text}")
        return value
    return parse


_positive_seconds = _positive_finite("number of seconds")
_positive_scale = _positive_finite("scale factor")
_positive_rate = _positive_finite("arrival rate")


def _int_at_least(minimum: int):
    """An argparse type accepting an integer >= ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {value}")
        return value
    return parse


_non_negative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


#: The formats ``figures --formats`` accepts; both are always written.
_FIGURE_FORMATS = ("svg", "ndjson")


def _check_formats(text: Optional[str]) -> None:
    """Refuse a ``--formats`` list naming anything but svg or ndjson
    (any case, blank entries ignored).  The list selects nothing: every
    figure is written as SVG plus its NDJSON sidecar."""
    for name in (text or "").split(","):
        name = name.strip().lower()
        if name and name not in _FIGURE_FORMATS:
            raise ConfigurationError(
                f"unknown figure format {name!r}; accepted: "
                f"{', '.join(_FIGURE_FORMATS)} (both are always written)")


def _resilience_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--task-timeout", type=_positive_seconds,
                     default=None, metavar="SECONDS",
                     help="wall-clock deadline per simulation task; a "
                          "stalled task is retried, then quarantined "
                          "(default: none)")
    sub.add_argument("--max-retries", type=_non_negative_int,
                     default=None, metavar="N",
                     help="retries per failed task before it is "
                          "quarantined (default 2 when any resilience "
                          "flag is set)")


def _resilience_from_args(args):
    """The :class:`~repro.resilience.ResilienceOptions` the flags ask
    for, or None when neither was given (fail-fast batches)."""
    from repro.resilience import ResilienceOptions, RetryPolicy

    if args.task_timeout is None and args.max_retries is None:
        return None
    retry = RetryPolicy(max_retries=args.max_retries) \
        if args.max_retries is not None else RetryPolicy()
    return ResilienceOptions(retry=retry, task_timeout=args.task_timeout)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved CLI.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _dispatch(args) -> int:
    try:
        if args.command == "list":
            from repro.experiments.registry import driver
            from repro.report import FIGURES
            for figure_id, spec in FIGURES.items():
                summary = inspect.getdoc(driver(figure_id)).split("\n\n")[0]
                print(f"{figure_id}  {spec.kind:<5}  "
                      f"{' '.join(summary.split())}")
            return 0
        if args.command == "list-algorithms":
            for spec in all_algorithms():
                model = "model" if spec.has_model else "sim-only"
                caps = ", ".join(spec.capabilities()) or "-"
                print(f"{spec.name:<26} {spec.label:<32} {model:<9} "
                      f"{caps}")
            return 0
        if args.command == "list-workloads":
            from repro.workload import (
                all_arrival_processes,
                all_key_distributions,
            )
            for component in (all_arrival_processes()
                              + all_key_distributions()):
                print(f"{component.category:<8} {component.name:<12} "
                      f"{component.label}")
            print(f"{'txn':<8} {'envelope':<12} "
                  "multi-op transaction envelopes "
                  "(TransactionSpec(size=k), k > 1)")
            return 0
        if args.command == "list-cluster-policies":
            from repro.cluster import POLICY_PRESETS
            for preset in POLICY_PRESETS.values():
                print(f"{preset.name:<14} {preset.describe()}")
            return 0
        if args.command == "cluster":
            return _cluster(args)
        if args.command == "simulate":
            return _simulate(args)
        return _figures(args)  # "figures"
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _figures(args) -> int:
    """The ``figures`` subcommand: the one-command full reproduction."""
    from repro.report import generate_figures

    if not args.figure_ids and not args.all_figures:
        raise ConfigurationError(
            "figures needs explicit ids (e.g. fig03 fig10) or --all; "
            "`btree-perf list` shows the registered figures")
    _check_formats(args.formats)
    figure_ids = None if args.all_figures and not args.figure_ids \
        else args.figure_ids
    if args.clear_cache:
        ResultCache().clear()
    cache = None if args.no_cache else ResultCache()
    progress = None
    log = None
    if args.progress:
        from repro.obs import ProgressPrinter
        progress = ProgressPrinter()
        log = lambda message: print(message, file=sys.stderr)  # noqa: E731
    result = generate_figures(
        figure_ids=figure_ids, scale=args.scale, out_dir=args.out,
        threshold_scale=args.threshold_scale,
        include_claims=not args.no_claims, log=log, jobs=args.jobs,
        cache=cache, progress=progress,
        resilience=_resilience_from_args(args))
    report = result.report
    print(f"{len(result.figures)} figure(s) -> {result.out_dir}; "
          f"report: {result.report_markdown}")
    status = 0
    if not report.passed:
        for breach in report.breaches:
            print(f"BREACH {breach.figure_id} {breach.quantity} "
                  f"({breach.algorithm}): median {breach.metric} error "
                  f"{breach.median_error:.3g} > threshold "
                  f"{breach.threshold * report.threshold_scale:.3g}",
                  file=sys.stderr)
        for claim in report.failed_claims:
            print(f"CLAIM FAILED {claim.claim_id}: {claim.measured}",
                  file=sys.stderr)
        status = 1
    if log is not None and cache is not None:
        stats = cache.stats
        log(f"figures cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.stores} stores, {stats.errors} errors")
    return status


def _cluster(args) -> int:
    """The ``cluster`` subcommand: one chaos run vs the model."""
    from repro.algorithms import get_algorithm
    from repro.cluster import (
        ClusterSimConfig,
        ClusterSpec,
        analyze_cluster,
        chaos_plan,
        get_policies,
        predict_availability,
        run_cluster_simulation,
        shard_service_demands,
    )
    from repro.model import paper_default_config
    from repro.resilience.faults import FaultPlan, plan_from_env

    spec_alg = get_algorithm(args.algorithm)
    if not spec_alg.has_model:
        raise ConfigurationError(
            f"{args.algorithm!r} has no analytical model to supply the "
            "per-shard service demands; pick one marked 'model' in "
            "`btree-perf list-algorithms`")
    if args.faults is not None and args.chaos is not None:
        raise ConfigurationError(
            "--faults and --chaos are mutually exclusive")

    config = paper_default_config(disk_cost=1.0)
    demands = shard_service_demands(spec_alg.analyze, config)
    mix = {"search": config.mix.q_search, "insert": config.mix.q_insert,
           "delete": config.mix.q_delete}
    spec = ClusterSpec(shards=args.shards, replicas=args.replicas)
    if args.rate is not None:
        rate = args.rate
    else:
        primary = (mix["insert"] * demands["insert"]
                   + mix["delete"] * demands["delete"]
                   + mix["search"] * demands["search"] / args.replicas)
        rate = args.shards * args.rho / primary
    if args.chaos is not None:
        plan = chaos_plan(args.shards, args.chaos, args.horizon)
    elif args.faults is not None:
        plan = FaultPlan.parse(args.faults)
    else:
        plan = plan_from_env() or FaultPlan()
    policies = get_policies(args.policy)

    prediction = analyze_cluster(spec, rate, demands, mix)
    result = run_cluster_simulation(ClusterSimConfig(
        spec=spec, arrival_rate=rate, service_means=demands, mix=mix,
        policies=policies, horizon=args.horizon, seed=args.seed,
        faults=plan))

    print(f"cluster: {args.shards} shard(s) x {args.replicas} "
          f"server(s), algorithm {args.algorithm}, rate {rate:.4g}, "
          f"horizon {args.horizon:g}, seed {args.seed}")
    print(f"policy {policies.name}: {policies.describe()}")
    print(f"chaos: {plan.encode() or 'none'}")
    stable = "stable" if prediction.stable else "SATURATED"
    print(f"model: response {prediction.mean_response:.3f} "
          f"(mixed {prediction.mixed_response(mix):.3f}), "
          f"router rho {prediction.router_utilization:.3f}, "
          f"primary rho {prediction.primary_utilization:.3f}, "
          f"replica rho {prediction.replica_utilization:.3f} [{stable}]")
    print(f"model availability: "
          f"{predict_availability(spec, plan, policies, args.horizon):.4f}")
    print(f"sim: attempted {result.attempted}, completed "
          f"{result.completed}, failed {result.failed}, shed "
          f"{result.shed_writes}, retries {result.retries}, hedges "
          f"{result.hedges} ({result.hedged_wins} wins)")
    print(f"sim availability {result.availability:.4f}, goodput "
          f"{result.goodput:.4f} ops/unit, mean response "
          f"{result.mean_response:.3f}")
    for shard in result.per_shard:
        print(f"  shard {shard.shard}: completed {shard.completed}, "
              f"failed {shard.failed}, shed {shard.shed_writes}, "
              f"retries {shard.retries}, hedged wins "
              f"{shard.hedged_wins}, busy {shard.busy_time:.1f}")
    return 0


def _simulate(args) -> int:
    """The ``simulate`` subcommand: one config under full telemetry."""
    from repro.experiments.common import scaled_sim_config
    from repro.obs import (
        ProgressPrinter,
        TelemetryOptions,
        collect_replications,
        write_ndjson,
    )
    from repro.simulator.config import SimulationConfig

    config = scaled_sim_config(
        SimulationConfig(algorithm=args.algorithm,
                         arrival_rate=args.rate, seed=args.seed),
        args.scale)
    options = TelemetryOptions(sample_interval=args.sample_interval)
    progress = ProgressPrinter(total=args.seeds) if args.progress else None
    results, merged = collect_replications(
        config, n_seeds=args.seeds, options=options, jobs=args.jobs,
        progress=progress, resilience=_resilience_from_args(args))
    if args.metrics_out and merged is None:
        print(f"no telemetry written to {args.metrics_out}: every seed "
              f"was quarantined", file=sys.stderr)
    elif args.metrics_out:
        write_ndjson(args.metrics_out, merged)
        print(f"telemetry written to {args.metrics_out} "
              f"(schema v{merged.schema}, {len(merged.runs)} run(s), "
              f"{len(merged.runs[0].levels)} levels)")
    for offset, result in enumerate(results):
        if result is None:
            print(f"seed={config.seed + offset} QUARANTINED "
                  f"(failed every attempt the retry policy allows)")
            continue
        status = ("OVERFLOW" if result.overflowed
                  else f"throughput={result.throughput:.4g} "
                       f"mean_response={result.overall_mean_response:.4g}")
        print(f"seed={result.seed} {status}")
    return 0 if merged is not None else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
