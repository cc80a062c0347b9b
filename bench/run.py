"""End-to-end benchmark of the reproduction (see ``bench/README.md``).

    python3 bench/run.py --workload figures-cold --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --trace 1 --out results.json
    python3 bench/run.py --smoke

One client, closed loop: every repetition ("rep") runs in a fresh
interpreter (``bench/child.py``), one at a time, with ``--jobs 1``.
Reps repeat until ``--seconds`` of measurement have passed (at least
``MIN_REPS``), and every end-to-end value is the median over reps.
``--trace 1`` runs one untraced and one traced rep on the same inputs;
the traced rep wraps each layer's public functions from outside
(``bench/tracer.py``) and yields the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace 1``).  The exit code is nonzero when an output check fails.
``--out FILE`` appends the full record (per-rep samples, digests,
provenance) to a results file and fails on drift against the runs
already in it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
#: Every scratch directory lives here, inside the checkout; removed
#: when the run ends.
SCRATCH_ROOT = ROOT / ".bench_tmp"

WORKLOADS = ("figures-cold", "figures-warm", "sim-writes", "sim-reads")

#: Per-rep work: ``figures --all`` at this scale, and measured
#: operations per simulation in the ``sim-*`` workloads.
SCALE = 0.1
SIM_OPS = 20_000
#: ``--smoke`` sizes.
SMOKE_SCALE = 0.02
SMOKE_OPS = 2_000

MIN_REPS = 3
MAX_REPS = 25
#: Wall-clock cap on one workload, below the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declared_metrics() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env(cache: Path, tmp: Path) -> Dict[str, str]:
    """The child's environment: the checkout's sources, a private
    result cache and temp dir, no ``REPRO_*`` settings (so no
    ``REPRO_FAULTS``), and a fixed hash seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(cache),
               TMPDIR=str(tmp), XDG_CACHE_HOME=str(tmp),
               MPLCONFIGDIR=str(tmp), PYTHONHASHSEED="0")
    return env


def run_child(workload: str, seed: int, rep: int, scale: float, ops: int,
              scratch: Path, cache: Path, traced: bool,
              deadline: float) -> dict:
    """Run one rep in a fresh interpreter and return its result."""
    work = Path(tempfile.mkdtemp(prefix=f"rep{rep}-", dir=scratch))
    (work / "tmp").mkdir()
    result = work / "result.json"
    command = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(seed), "--rep", str(rep),
               "--scale", repr(scale), "--ops", str(ops),
               "--out-dir", str(work / "figures"), "--result", str(result)]
    if traced:
        command.append("--trace")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before rep {rep}")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(command + ["--spawned", repr(spawned)],
                              cwd=ROOT, env=child_env(cache, work / "tmp"),
                              stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: rep {rep} passed the "
                         f"{DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload}: rep {rep} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    outcome = json.loads(result.read_text(encoding="utf-8"))
    shutil.rmtree(work / "figures", ignore_errors=True)
    mode = "traced" if traced else "untraced"
    print(f"[{workload}] rep {rep} ({mode}): wall {outcome['wall_s']:.3f} s"
          f" = {outcome['wall_ref']:.1f} ref, setup "
          f"{outcome['setup_s']:.3f} s, rss "
          f"{outcome['peak_rss_mb']:.1f} MB, failed "
          f"{outcome['failed']}/{outcome['attempted']}", file=sys.stderr)
    return outcome


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = SCALE, ops: int = SIM_OPS) -> dict:
    """Run one workload and return its record (see :func:`summarize`).

    ``figures-cold`` gives every rep an empty cache; ``figures-warm``
    first fills one cache with a cold run (set-up) and points every rep
    at it.  With ``trace`` the reps are one untraced and one traced run
    of the same inputs."""
    deadline = time.perf_counter() + DEADLINE_S
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH_ROOT))
    try:
        shared_cache: Optional[Path] = None
        fill = None

        def rep(index: int, traced: bool = False) -> dict:
            cache = shared_cache or Path(
                tempfile.mkdtemp(prefix="cache-", dir=scratch))
            return run_child(workload, seed, index, scale, ops, scratch,
                             cache, traced, deadline)

        if workload == "figures-warm":
            shared_cache = scratch / "warm-cache"
            shared_cache.mkdir()
            fill = rep(0)
        if trace:
            reps = [rep(0), rep(0, traced=True)]
        else:
            reps = []
            started = time.perf_counter()
            while True:
                reps.append(rep(len(reps)))
                count, elapsed = len(reps), time.perf_counter() - started
                if count >= MAX_REPS or (
                        count >= MIN_REPS
                        and elapsed * (count + 1) / count > seconds):
                    break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    return summarize(workload, seed, trace, fill, reps)


def _spread(samples: List[float]) -> dict:
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "samples": samples}


def summarize(workload: str, seed: int, trace: bool, fill: Optional[dict],
              reps: List[dict]) -> dict:
    """Fold the reps of one run into a record: end-to-end metrics from
    the untraced reps, per-layer metrics from the traced one, output
    digests and every problem found."""
    problems = [problem for outcome in ([fill] if fill else []) + reps
                for problem in outcome["problems"]]
    digests = [outcome["digest"] for outcome in reps]
    if workload.startswith("figures"):
        # Sidecars do not depend on the seed or the cache state (the
        # cache-determinism contract): one digest for every rep, and
        # for the cold run that filled the warm cache.
        expected = fill["digest"] if fill else digests[0]
        if any(digest != expected for digest in digests):
            problems.append("figure sidecars differ between runs")
    elif trace and digests[0] != digests[1]:
        problems.append("the traced rep changed the simulation results")

    plain = reps[:1] if trace else reps
    fill_s = fill["setup_s"] + fill["wall_s"] if fill else 0.0
    metrics = {name: _spread([o[name] for o in plain])
               for name in ("wall_ref", "wall_s", "reference_s",
                            "peak_rss_mb")}
    metrics["setup_s"] = _spread([o["setup_s"] + fill_s for o in plain])
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "reps": len(plain),
        "correct": not problems and all(o["failed"] == 0 for o in reps),
        "attempted": sum(o["attempted"] for o in reps),
        "failed": sum(o["failed"] for o in reps),
        "problems": problems,
        "digests": {str(index): digest for index, digest in
                    zip([0, 0] if trace else range(len(reps)), digests)},
        "metrics": metrics,
    }
    if trace:
        layers = dict(reps[1]["layers"])
        layers["trace.overhead_s"] = reps[1]["wall_s"] - reps[0]["wall_s"]
        record["layers"] = layers
    return record


def contract_metrics(record: dict, declared: dict) -> Dict[str, dict]:
    """The declared metrics of one record, as ``{name: {value, unit}}``:
    the end-to-end ones, or the per-layer ones for a traced record."""
    if record["trace"]:
        entries, values = declared["per_layer"], record["layers"]
    else:
        entries = declared["end_to_end"]
        values = {name: stats["median"]
                  for name, stats in record["metrics"].items()}
    out = {}
    for entry in entries:
        if entry["name"] not in values:
            raise BenchError(f"{record['workload']}: metric "
                             f"{entry['name']!r} was not measured")
        out[entry["name"]] = {"value": values[entry["name"]],
                              "unit": entry["unit"]}
    return out


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git
    (the checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seconds: float) -> dict:
    """Where and how a record was measured."""
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "seconds": seconds, "scale": SCALE, "sim_ops": SIM_OPS,
    }


def drift(history: List[dict], record: dict) -> List[str]:
    """Digest mismatches between ``record`` and earlier runs: figure
    sidecars must match across every figures run (cold or warm), and a
    ``sim-*`` rep must match the same workload, seed and rep before."""
    found = []
    figures = record["workload"].startswith("figures")
    for old in history:
        if figures and old["workload"].startswith("figures"):
            same = set(old["digests"].values()) == set(
                record["digests"].values())
        elif not figures and (old["workload"], old["seed"]) == (
                record["workload"], record["seed"]):
            same = all(old["digests"][rep] == digest
                       for rep, digest in record["digests"].items()
                       if rep in old["digests"])
        else:
            continue
        if not same:
            found.append(f"{record['workload']}: output digest differs "
                         f"from the {old['workload']} run of "
                         f"{old['provenance']['timestamp']}")
    return found


def append_results(path: Path, records: List[dict]) -> List[str]:
    """Append ``records`` to the results file at ``path``; returns the
    drift found against the runs already there."""
    data = {"schema": 1, "runs": []}
    if path.is_file():
        data = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for record in records:
        problems += drift(data["runs"], record)
        data["runs"].append(record)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return problems


def smoke(declared: dict, seed: int) -> int:
    """Every workload at tiny size, one untraced plus one traced rep;
    fails unless each declared metric comes out finite and every
    output check passes."""
    missing = []
    for workload in WORKLOADS:
        record = measure(workload, seed, 0, True, SMOKE_SCALE, SMOKE_OPS)
        if not record["correct"]:
            missing += record["problems"] or [f"{workload}: failed units"]
        for traced in (False, True):
            values = contract_metrics(dict(record, trace=int(traced)),
                                      declared)
            missing += [f"{workload}: {name} = {entry['value']}"
                        for name, entry in values.items()
                        if not math.isfinite(entry["value"])]
    n_metrics = len(declared["end_to_end"]) + len(declared["per_layer"])
    if missing:
        print("smoke FAILED:\n  " + "\n  ".join(missing))
        return 1
    print(f"smoke ok: {len(WORKLOADS)} workloads x {n_metrics} declared "
          "metrics, all finite, all output checks passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark; see bench/README.md")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="selects the sim-* inputs (default 1); the "
                             "figures keep their fixed paper seeds")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full records to this results "
                             "file and check them for drift")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, untraced plus traced, checks "
                             "that every declared metric is emitted")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    try:
        if args.smoke:
            return smoke(declared, args.seed)
        seconds = args.seconds if args.seconds is not None \
            else declared["run_seconds"]
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for workload in workloads:
            record = measure(workload, args.seed, seconds, bool(args.trace))
            record["provenance"] = provenance(seconds)
            records.append(record)
        problems = append_results(args.out, records) if args.out else []
        metrics = {}
        for record in records:
            prefix = "" if len(records) == 1 else record["workload"] + "."
            for name, entry in contract_metrics(record, declared).items():
                metrics[prefix + name] = entry
            for problem in record["problems"]:
                print(f"PROBLEM {record['workload']}: {problem}",
                      file=sys.stderr)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"DRIFT {problem}", file=sys.stderr)
    correct = not problems and all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
