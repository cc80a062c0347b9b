"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

    python3 bench/child.py --workload sim-writes --seed 1 --rep 0 \\
        --scale 0.1 --ops 20000 --spawned T --out-dir DIR --result FILE \\
        [--trace]

The parent sets ``PYTHONPATH`` to the checkout's ``src`` and a private
``REPRO_CACHE_DIR`` (empty for ``figures-cold``, filled by one cold run
for ``figures-warm``).  The child times one section -- one
``btree-perf figures`` call, or the four ``run_simulation`` calls --
checks its outputs and writes one JSON object to ``--result``.
``--spawned`` is the parent's ``time.perf_counter()`` just before it
started this interpreter (a system-wide monotonic clock), so set-up
time covers interpreter start, imports and input construction.

A fixed reference loop runs just before and just after the timed
section; ``wall_ref`` is the section's wall time in units of that loop,
which cancels most of the drift in a shared machine's speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

#: (algorithm, arrival rate) of the four runs of each ``sim-*`` rep.
#: Rates sit at ~70-75% of each algorithm's knee for the workload's
#: mix, so no run overflows.
SIM_POINTS = {
    "sim-writes": (("naive-lock-coupling", 0.4), ("optimistic-descent", 2.0),
                   ("link-type", 15.0), ("optimistic-lock-coupling", 2.0)),
    "sim-reads": (("naive-lock-coupling", 1.0), ("optimistic-descent", 3.0),
                  ("link-type", 10.0), ("optimistic-lock-coupling", 3.0)),
}

#: Items in the warm-up tree of every ``sim-*`` run (the paper's size).
SIM_TREE_ITEMS = 40_000

#: The reference loop: median of this many samples of this many
#: iterations (~10 ms each on a current x86 core).
REFERENCE_SAMPLES = 5
REFERENCE_ITERATIONS = 150_000


def sim_configs(workload: str, seed: int, rep: int, ops: int):
    """The four :class:`SimulationConfig` of one ``sim-*`` repetition.
    Every run has its own seed, so no two runs share a warm-up tree."""
    from repro.model.params import PAPER_MIX, OperationMix
    from repro.simulator.config import SimulationConfig
    from repro.workload import MMPPArrivals, WorkloadSpec

    if workload == "sim-reads":
        mix = OperationMix(q_search=0.9, q_insert=0.07, q_delete=0.03)
        spec = WorkloadSpec(arrival=MMPPArrivals())
    else:
        mix, spec = PAPER_MIX, None
    return [SimulationConfig(algorithm=algorithm, arrival_rate=rate,
                             mix=mix, workload=spec,
                             n_items=SIM_TREE_ITEMS, n_operations=ops,
                             seed=seed * 1000 + rep * 10 + index)
            for index, (algorithm, rate) in enumerate(SIM_POINTS[workload])]


def reference_s() -> float:
    """Median time of a fixed pure-Python integer loop: the machine's
    current speed for interpreted code, which on a shared host drifts
    by tens of percent over seconds to minutes."""
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed(section: Callable[[], object], spawned: float):
    """Run ``section`` once; returns its result and the rep's timings.
    The reference loop runs just before and just after the section,
    outside both the timed section and the set-up time."""
    ready = time.perf_counter()
    before = reference_s()
    started = time.perf_counter()
    result = section()
    wall = time.perf_counter() - started
    rss = peak_rss_mb()
    reference = (before + reference_s()) / 2
    return result, {"setup_s": ready - spawned, "wall_s": wall,
                    "reference_s": reference, "wall_ref": wall / reference,
                    "peak_rss_mb": rss}


def run_figures(scale: float, out_dir: Path, spawned: float) -> dict:
    """Time one ``btree-perf figures --all`` call and check its output:
    every figure's NDJSON sidecar exists and passed validation."""
    from repro.experiments.runner import main
    from repro.report.registry import FIGURES

    argv = ["figures", "--all", "--scale", str(scale), "--jobs", "1",
            "--formats", "svg", "--out", str(out_dir)]

    def section():
        try:
            return main(argv)
        except Exception:
            traceback.print_exc()
            return None

    code, outcome = timed(section, spawned)
    problems = []
    if code != 0:
        problems.append(f"btree-perf figures exited with {code}")

    report_path = out_dir / "report.json"
    passed = {}  # figure id -> validation verdict, for figures with one
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        passed = {f["figure_id"]: f["passed"] for f in report["figures"]}
    digest = hashlib.sha256()
    failed = 0
    for figure_id in sorted(FIGURES):
        sidecar = out_dir / f"{figure_id}.ndjson"
        if code is None or not sidecar.is_file() \
                or passed.get(figure_id) is False:
            failed += 1
            problems.append(f"{figure_id}: missing sidecar or failed "
                            "validation")
            continue
        digest.update(figure_id.encode() + b"\0" + sidecar.read_bytes())
    outcome.update(attempted=len(FIGURES), failed=failed,
                   digest=digest.hexdigest(), problems=problems)
    return outcome


def run_sims(workload: str, seed: int, rep: int, ops: int,
             spawned: float) -> dict:
    """Time the four simulations of one ``sim-*`` repetition.  A run
    fails when it raises, overflows or measures fewer operations than
    asked; the digest covers ``repr`` of every result."""
    from repro.simulator.driver import run_simulation

    configs = sim_configs(workload, seed, rep, ops)

    def run(config):
        try:
            return run_simulation(config)
        except Exception:
            traceback.print_exc()
            return None

    results, outcome = timed(lambda: [run(c) for c in configs], spawned)
    problems = []
    digest = hashlib.sha256()
    for config, result in zip(configs, results):
        digest.update(repr(result).encode() + b"\n")
        if result is None or result.overflowed \
                or result.measured_operations < config.n_operations:
            problems.append(f"{config.algorithm} @ {config.arrival_rate} "
                            f"seed {config.seed}: raised, overflowed or "
                            "stopped short")
    outcome.update(attempted=len(configs), failed=len(problems),
                   digest=digest.hexdigest(), problems=problems)
    return outcome


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" \
        else peak / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures-cold", "figures-warm",
                                 *SIM_POINTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if args.workload in SIM_POINTS:
        outcome = run_sims(args.workload, args.seed, args.rep, args.ops,
                           args.spawned)
    else:
        outcome = run_figures(args.scale, args.out_dir, args.spawned)
    if tracer is not None:
        outcome["layers"] = tracer.metrics()
    args.result.write_text(json.dumps(outcome), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
