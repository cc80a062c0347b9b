"""Extension experiments (the paper's promised full-version results).

* ``ext01`` — Two-Phase Locking vs the paper's three algorithms: the
  response/throughput spectrum from fully restrictive serialization to
  link-based concurrency.
* ``ext02`` — LRU buffer-pool sweep: maximum throughput vs buffer
  frames, locating the knee at "top levels cached".
* ``ext03`` — operation-mix sensitivity: how each algorithm's maximum
  throughput responds to the search fraction (the lock-coupling
  algorithms live and die by the writer share; the Link-type algorithm
  barely notices).
* ``ext04`` — closed-system throughput vs multiprogramming level: the
  paper's Section 1 scenario ("multiprocessing level around 100") run
  directly — lock-coupling plateaus at its Theorem 2 limit while the
  Link-type algorithm keeps scaling.
* ``ext05`` — access skew: an 80/20-style hotspot concentrates traffic
  on one subtree; the per-level thinning assumption (Proposition 2)
  weakens, hitting the lock-coupling algorithms hardest.
* ``ext06`` — Optimistic Lock-coupling vs the paper's three algorithms:
  the registry's extensibility proof — a variant added entirely as a
  spec + ops module (see ``docs/architecture.md``) swept head-to-head.
* ``ext07`` — workload sensitivity: the same comparison re-run under
  the pluggable workload subsystem's non-stationary and skewed traces
  (MMPP bursts, Zipf skew, a migrating hotspot, a flash crowd — see
  ``docs/workloads.md``), isolating traffic *shape* from volume.
* ``ext08`` — cluster chaos: a range-partitioned cluster of B-trees
  behind a router (:mod:`repro.cluster`) swept over shard count x
  injected fault rate at ~80-500x the paper's arrival rates, comparing
  availability/goodput degradation with the robustness policies
  (retries, hedged reads, circuit breaker) enabled vs disabled, and
  validating the analytical router+shard composition against the
  cluster simulator (see ``docs/robustness.md``).

The comparison sets are derived from :mod:`repro.algorithms` (specs and
capability flags), never from hard-coded name literals.
"""

from __future__ import annotations

import math

from repro.algorithms import all_algorithms, get_algorithm, names
from repro.errors import ConvergenceError
from repro.experiments.common import (
    ExperimentTable,
    base_sim_config,
    sweep_simulated_responses,
)
from repro.model import (
    max_throughput,
    paper_default_config,
)
from repro.model.buffering import buffered_config, pages_for_top_levels
from repro.model.params import OperationMix
from repro.parallel import SimTask, run_batch

_NAIVE = get_algorithm(names.NAIVE_LOCK_COUPLING)
_OPTIMISTIC = get_algorithm(names.OPTIMISTIC_DESCENT)
_LINK = get_algorithm(names.LINK_TYPE)
_TWO_PHASE = get_algorithm(names.TWO_PHASE_LOCKING)
_OLC = get_algorithm(names.OPTIMISTIC_LOCK_COUPLING)

#: Specs with an analytical model, from strictest to most concurrent.
_COMPARED = (_TWO_PHASE, _NAIVE, _OPTIMISTIC, _LINK)


def ext01(scale: float = 1.0, simulate: bool = False) -> ExperimentTable:
    """Two-Phase Locking in the Figure 12 comparison."""
    config = paper_default_config()
    columns = ["arrival_rate"] + [f"{spec.short}_insert"
                                  for spec in _COMPARED]
    if simulate:
        columns.append("sim_two_phase_insert")
    table = ExperimentTable(
        "ext01",
        "Insert response with Two-Phase Locking added to the comparison",
        "Extension (full version): Two-Phase Locking", columns)
    rates = (0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.3, 1.0)
    sim_means = None
    if simulate:
        base = base_sim_config(_TWO_PHASE)
        sim_means = sweep_simulated_responses(base, rates, scale)
    for index, rate in enumerate(rates):
        row = [rate]
        for spec in _COMPARED:
            value = spec.analyze(config, rate).response("insert")
            row.append(math.inf if math.isinf(value) else round(value, 3))
        if sim_means is not None:
            row.append(round(sim_means[index]["insert"], 3))
        table.add(*row)
    peaks = {spec.short: round(max_throughput(spec.analyze, config), 4)
             for spec in _COMPARED}
    table.note(f"maximum throughputs: {peaks} — strict 2PL costs an order "
               "of magnitude against even Naive Lock-coupling")
    return table


def ext02(scale: float = 1.0, simulate: bool = False) -> ExperimentTable:
    """Maximum throughput vs LRU buffer-pool size."""
    del scale, simulate  # analytical sweep
    config = paper_default_config(disk_cost=10.0)
    table = ExperimentTable(
        "ext02",
        "Maximum throughput vs LRU buffer frames (raw disk cost 10)",
        "Extension (full version): LRU buffering",
        ["buffer_frames", "naive_max_throughput",
         "optimistic_max_throughput"])
    top2 = pages_for_top_levels(config.shape, 2)
    for frames in (0.0, 2.0, round(top2, 1), 20.0, 60.0, 200.0, 600.0,
                   6000.0):
        buffered = buffered_config(config, frames)
        try:
            naive = round(max_throughput(_NAIVE.analyze, buffered), 4)
        except ConvergenceError:  # pragma: no cover - bounded loads
            naive = math.inf
        optimistic = round(max_throughput(_OPTIMISTIC.analyze, buffered), 4)
        table.add(frames, naive, optimistic)
    table.note(f"~{top2:.0f} frames cache the top two levels — the knee "
               "of the curve and the paper's fixed setting")
    return table


def ext03(scale: float = 1.0, simulate: bool = False) -> ExperimentTable:
    """Maximum throughput vs search fraction of the mix.

    Updates keep the paper's 5:2 insert:delete split; ``q_s`` sweeps
    from update-heavy to read-mostly.
    """
    del scale, simulate  # analytical sweep
    table = ExperimentTable(
        "ext03",
        "Maximum throughput vs search fraction q_s (updates split 5:2)",
        "Extension: operation-mix sensitivity",
        ["q_search"] + [f"{spec.short}_max_throughput"
                        for spec in _COMPARED])
    for q_search in (0.05, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95):
        q_insert = (1.0 - q_search) * 5.0 / 7.0
        mix = OperationMix(q_search=q_search, q_insert=q_insert,
                           q_delete=1.0 - q_search - q_insert)
        config = paper_default_config(mix=mix)
        row = [q_search]
        for spec in _COMPARED:
            row.append(round(max_throughput(spec.analyze, config), 4))
        table.add(*row)
    table.note("every algorithm is writer-bound, so capacity scales "
               "roughly with 1/(1-q_s); the ordering and relative "
               "margins are mix-invariant")
    return table


#: Multiprogramming levels for the closed-system sweep.
_MPL_LEVELS = (1, 2, 5, 10, 25, 50, 100)


def _closed_specs():
    """The algorithms with a closed-system mode, in registry order."""
    return tuple(spec for spec in all_algorithms() if spec.supports_closed)


def ext04(scale: float = 1.0, simulate: bool = True) -> ExperimentTable:
    """Closed-system throughput and search response vs MPL, with the
    interactive response-time-law prediction alongside the simulation."""
    from repro.model.closed import closed_system_prediction
    from repro.model.validation import measured_model_config
    specs = _closed_specs()
    table = ExperimentTable(
        "ext04",
        "Closed-system throughput / search response vs multiprogramming "
        "level",
        "Extension: closed system (Section 1 scenario)",
        ["mpl"] + [f"{spec.short}_throughput" for spec in specs]
                + [f"{spec.short}_search_response" for spec in specs]
                + [f"{specs[0].short}_model_throughput"])
    del simulate  # inherently simulated
    n_ops = max(300, int(1_500 * scale))

    def sim_config(spec, mpl: int):
        # The warm-up must let the closed system's backlog reach steady
        # state, which takes longer at higher populations; otherwise the
        # draining backlog inflates the measured throughput.
        warmup = max(50, n_ops // 10, 5 * mpl)
        return base_sim_config(
            spec, arrival_rate=1.0, n_items=8_000,
            n_operations=n_ops, warmup_operations=warmup, seed=17)

    model_config = measured_model_config(sim_config(specs[0], 1))
    # The whole (mpl, algorithm) grid fans out as one batch of closed
    # tasks; run_batch preserves submission order.
    tasks = [SimTask(sim_config(spec, mpl), kind="closed", mpl=mpl)
             for mpl in _MPL_LEVELS for spec in specs]
    flat = iter(run_batch(tasks))
    for mpl in _MPL_LEVELS:
        throughputs = []
        responses = []
        for _spec in specs:
            result = next(flat)
            throughputs.append(round(result.throughput, 4))
            responses.append(round(result.mean_response["search"], 3))
        predicted = closed_system_prediction(specs[0].analyze,
                                             model_config, mpl)
        table.add(mpl, *throughputs, *responses,
                  round(predicted.throughput, 4))
    table.note("naive lock-coupling plateaus once the root saturates "
               "(response then grows linearly with MPL); the link-type "
               "algorithm scales on toward the service limit")
    table.note(f"{specs[0].short}_model_throughput is the interactive "
               "response-time-law fixed point over the open analysis "
               "(repro.model.closed)")
    return table


def ext05(scale: float = 1.0, simulate: bool = True) -> ExperimentTable:
    """Simulated insert response vs hotspot skew (hot 20% of keys)."""
    del simulate  # inherently simulated
    specs = (_NAIVE, _LINK)
    table = ExperimentTable(
        "ext05",
        "Insert response vs access skew (hot 20% of the key space)",
        "Extension: hotspot workload",
        ["hot_probability"] + [f"{spec.short}_insert" for spec in specs]
                            + [f"{specs[0].short}_rho_root"])
    # The skew signal needs enough operations to resolve; keep a higher
    # floor than the other sweeps.
    n_ops = max(800, int(1_500 * scale))
    skews = (0.2, 0.5, 0.8, 0.95)
    tasks = [
        SimTask(base_sim_config(
            spec, arrival_rate=0.35, n_items=8_000,
            n_operations=n_ops, warmup_operations=max(20, n_ops // 10),
            seed=23, key_distribution="hotspot",
            hot_fraction=0.2, hot_probability=hot_probability))
        for hot_probability in skews for spec in specs]
    flat = iter(run_batch(tasks))
    for hot_probability in skews:
        row = [hot_probability]
        rho = math.nan
        for spec in specs:
            result = next(flat)
            row.append(math.inf if result.overflowed
                       else round(result.mean_response["insert"], 3))
            if spec.coupling_updates:
                # Root writer utilization is the telling statistic for
                # algorithms whose updates W-couple from the root.
                rho = round(result.root_writer_utilization, 4)
        row.append(rho)
        table.add(*row)
    table.note("hot_probability 0.2 over a 0.2 fraction is uniform; "
               "rising skew funnels descents through one subtree, "
               "raising lower-level contention under lock-coupling")
    return table


def ext06(scale: float = 1.0, simulate: bool = True) -> ExperimentTable:
    """Optimistic Lock-coupling vs the paper's three core algorithms.

    The head-to-head sweep for the registry's extensibility proof: the
    hybrid variant ships entirely as a spec + ops module and is compared
    here without any change to the core dispatch sites.
    """
    del simulate  # inherently simulated
    specs = _closed_specs() + (_OLC,)
    table = ExperimentTable(
        "ext06",
        "Insert response with Optimistic Lock-coupling in the comparison",
        "Extension: optimistic lock-coupling variant",
        ["arrival_rate"] + [f"{spec.short}_insert" for spec in specs])
    rates = (0.05, 0.15, 0.3, 0.5)
    n_ops = max(400, int(2_000 * scale))
    tasks = [
        SimTask(base_sim_config(
            spec, arrival_rate=rate, n_items=8_000,
            n_operations=n_ops,
            warmup_operations=max(40, n_ops // 10), seed=11))
        for rate in rates for spec in specs]
    flat = iter(run_batch(tasks))
    for rate in rates:
        row = [rate]
        for _spec in specs:
            result = next(flat)
            row.append(math.inf if result.overflowed
                       else round(result.mean_response["insert"], 3))
        table.add(*row)
    table.note("the hybrid R-couples the upper levels and W-couples only "
               "the bottom two, so it tracks optimistic descent at low "
               "load without the full-restart penalty when leaves split")
    return table


def _ext07_traces():
    """The swept workload traces: (numeric id, name, spec).

    Numeric ids keep the x column plottable; the id -> name mapping is
    emitted as a table note.  Trace 0 is the stationary/uniform
    baseline every other trace is judged against.
    """
    from repro.workload import (
        MMPPArrivals,
        MigratingHotspotKeysSpec,
        SpikeArrivals,
        WorkloadSpec,
        ZipfKeysSpec,
    )
    return (
        (0, "stationary-uniform", WorkloadSpec()),
        (1, "mmpp-burst", WorkloadSpec(arrival=MMPPArrivals())),
        (2, "zipf-skew", WorkloadSpec(keys=ZipfKeysSpec(theta=0.9))),
        (3, "migrating-hotspot",
         WorkloadSpec(keys=MigratingHotspotKeysSpec(velocity=5e-4))),
        (4, "flash-spike",
         WorkloadSpec(arrival=SpikeArrivals(multiplier=6.0, start=500.0,
                                            duration=1500.0))),
    )


def ext07(scale: float = 1.0, simulate: bool = True) -> ExperimentTable:
    """Workload sensitivity: the algorithm comparison re-run under the
    pluggable workload subsystem's non-stationary / skewed traces.

    Each trace holds the time-averaged offered load at (or near) the
    stationary baseline's, so the column deltas isolate the *shape* of
    the traffic — burstiness, key skew, a moving hotspot, a flash
    crowd — from its volume (see ``docs/workloads.md``).
    """
    del simulate  # inherently simulated
    specs = _closed_specs() + (_OLC,)
    traces = _ext07_traces()
    table = ExperimentTable(
        "ext07",
        "Insert response by workload trace (all algorithms)",
        "Extension: workload sensitivity",
        ["trace"] + [f"{spec.short}_insert" for spec in specs])
    n_ops = max(400, int(1_500 * scale))
    tasks = [
        SimTask(base_sim_config(
            spec, arrival_rate=0.25, n_items=8_000,
            n_operations=n_ops,
            warmup_operations=max(40, n_ops // 10), seed=17,
            workload=workload))
        for _trace_id, _name, workload in traces for spec in specs]
    flat = iter(run_batch(tasks))
    for trace_id, _name, _workload in traces:
        row = [trace_id]
        for _spec in specs:
            result = next(flat)
            row.append(math.inf if result.overflowed
                       else round(result.mean_response["insert"], 3))
        table.add(*row)
    table.note("traces: " + "; ".join(
        f"{trace_id}={name}" for trace_id, name, _ in traces))
    table.note("all traces offer (near-)baseline mean load: MMPP is "
               "mean-preserving, the Zipf/migrating traces only move "
               "keys, and the spike adds a bounded transient — so any "
               "degradation over trace 0 is pure traffic shape")
    return table


#: ext08 grid: shard counts x chaos waves per run.
_EXT08_SHARDS = (4, 8, 16, 32)
_EXT08_FAULT_RATES = (0, 1, 2)
#: Nominal per-shard primary utilization the offered load targets.
_EXT08_RHO = 0.25


def ext08(scale: float = 1.0, simulate: bool = True) -> ExperimentTable:
    """Cluster chaos: availability/goodput degradation of a sharded
    B-tree cluster under injected faults, policies on vs off.

    Each (shards, fault_rate) cell runs the cluster simulator twice
    with common random numbers — once ``fragile`` (no defenses), once
    ``resilient`` (retries + hedged reads + circuit breaker) — against
    the same deterministic chaos schedule
    (:func:`repro.cluster.chaos.chaos_plan`).  The analytical
    composition supplies the model columns: the router M/G/1 +
    per-shard multi-class M/G/1 response (validated on the fault-free
    rows, where the simulated steady state is the model's regime) and
    the closed-form availability under crash windows with and without
    the retry rescue horizon.  Per-shard service demands and the
    rho_w = 0.5 breaker anchor both come from the single-tree
    per-level queue network — the cluster tier composes the paper's
    model, it does not replace it.
    """
    del simulate  # inherently simulated
    from repro.cluster import (
        ClusterSimConfig,
        ClusterSpec,
        analyze_cluster,
        breaker_arrival_rate,
        chaos_plan,
        get_policies,
        predict_availability,
        run_cluster_simulation,
        shard_service_demands,
    )
    config = paper_default_config(disk_cost=1.0)  # memory-resident tier
    demands = shard_service_demands(_NAIVE.analyze, config)
    mix = {"search": config.mix.q_search, "insert": config.mix.q_insert,
           "delete": config.mix.q_delete}
    replicas = 2
    # Offered load targets a fixed primary utilization under the
    # serialized-shard approximation (writes + 1/R of reads on the
    # primary server).
    primary_demand = (mix["insert"] * demands["insert"]
                      + mix["delete"] * demands["delete"]
                      + mix["search"] * demands["search"] / replicas)
    per_shard_rate = _EXT08_RHO / primary_demand
    horizon = max(400.0, 2_000.0 * scale)
    fragile = get_policies("fragile")
    resilient = get_policies("resilient")

    table = ExperimentTable(
        "ext08",
        "Cluster availability and goodput vs shard count and fault rate",
        "Extension: cluster chaos",
        ["scenario", "shards", "fault_rate", "offered_rate",
         "model_response", "sim_response",
         "model_availability", "availability_fragile",
         "model_availability_resilient", "availability_resilient",
         "goodput_fragile", "goodput_resilient",
         "shed_writes", "retries", "hedged_wins"])
    scenario = 0
    for shards in _EXT08_SHARDS:
        spec = ClusterSpec(shards=shards, replicas=replicas)
        offered = shards * per_shard_rate
        prediction = analyze_cluster(spec, offered, demands, mix)
        model_response = round(prediction.mixed_response(mix), 3)
        for fault_rate in _EXT08_FAULT_RATES:
            plan = chaos_plan(shards, fault_rate, horizon)
            seed = 101 + 7 * scenario
            runs = {}
            for policies in (fragile, resilient):
                runs[policies.name] = run_cluster_simulation(
                    ClusterSimConfig(
                        spec=spec, arrival_rate=offered,
                        service_means=demands, mix=mix,
                        policies=policies, horizon=horizon, seed=seed,
                        faults=plan))
            frag, res = runs["fragile"], runs["resilient"]
            # The response comparison is only meaningful fault-free:
            # faulted rows mix outage transients into the mean.
            sim_response = (round(frag.mean_response, 3)
                            if fault_rate == 0 else math.nan)
            table.add(
                scenario, shards, fault_rate, round(offered, 4),
                model_response, sim_response,
                round(predict_availability(spec, plan, fragile,
                                           horizon), 4),
                round(frag.availability, 4),
                round(predict_availability(spec, plan, resilient,
                                           horizon), 4),
                round(res.availability, 4),
                round(frag.goodput, 4), round(res.goodput, 4),
                res.shed_writes, res.retries, res.hedged_wins)
            scenario += 1
    lam_half = breaker_arrival_rate(_NAIVE.analyze, config)
    table.note("scenarios: " + "; ".join(
        f"{i}=(shards={s}, faults={f})"
        for i, (s, f) in enumerate(
            (s, f) for s in _EXT08_SHARDS for f in _EXT08_FAULT_RATES)))
    table.note(
        f"offered load holds per-shard primary utilization at "
        f"{_EXT08_RHO} under the serialized-shard approximation "
        f"(demand {primary_demand:.2f}/op); the single-tree rho_w=0.5 "
        f"anchor sits at lambda*={lam_half:.3f} per shard; total rates "
        f"span {_EXT08_SHARDS[0] * per_shard_rate:.2f}-"
        f"{_EXT08_SHARDS[-1] * per_shard_rate:.2f} ops/unit, "
        f"~{_EXT08_SHARDS[0] * per_shard_rate / 0.005:.0f}-"
        f"{_EXT08_SHARDS[-1] * per_shard_rate / 0.005:.0f}x the paper's "
        f"smallest Figure 3 operating point (0.005)")
    table.note("resilient = retry + hedged reads + rho>0.5 breaker; "
               "fragile = no defenses; both runs of a scenario share "
               "one seed and one chaos schedule (common random "
               "numbers), so column deltas are pure policy effect")
    return table
