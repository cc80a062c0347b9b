"""A serial run never loads the process pool.

``concurrent.futures`` and ``multiprocessing`` (and, through them,
``threading``-based pool management, ``socket`` and ``subprocess``) are
imported only where a batch starts a pool, so a ``--jobs 1`` figure run
starts smaller and sooner.  Each check runs in a fresh interpreter:
this test process has long since loaded both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_POOL_MODULES = ("multiprocessing", "concurrent.futures")

_PRELUDE = f"""
import json, sys

def pool_modules():
    return [name for name in {_POOL_MODULES!r} if name in sys.modules]
"""


def _run(script: str, tmp_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_SRC, env.get("PYTHONPATH"))))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop("REPRO_FAULTS", None)
    completed = subprocess.run(
        [sys.executable, "-c", _PRELUDE + script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_serial_figures_run_loads_no_pool(tmp_path):
    seen = _run("""
from repro.experiments.runner import main
at_import = pool_modules()
status = main(["figures", "fig03", "--scale", "0.01", "--formats", "svg",
               "--out", "out"])
print(json.dumps({"status": status, "at_import": at_import,
                  "after_run": pool_modules()}))
""", tmp_path)
    assert seen == {"status": 0, "at_import": [], "after_run": []}


def test_only_a_parallel_batch_loads_the_pool(tmp_path):
    seen = _run("""
import dataclasses
from repro.parallel import SimTask, run_batch
from repro.simulator.config import SimulationConfig

tasks = [SimTask(SimulationConfig(
    algorithm="naive-lock-coupling", arrival_rate=0.15, n_items=2_000,
    n_operations=150, warmup_operations=20, seed=100 + i))
    for i in range(3)]
serial = run_batch(tasks, jobs=1)
after_serial = pool_modules()
parallel = run_batch(tasks, jobs=2)
print(json.dumps({
    "after_serial": after_serial,
    "after_parallel": pool_modules(),
    "identical": [dataclasses.asdict(r) for r in serial]
                 == [dataclasses.asdict(r) for r in parallel],
}))
""", tmp_path)
    assert seen == {"after_serial": [],
                    "after_parallel": list(_POOL_MODULES),
                    "identical": True}
