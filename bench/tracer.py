"""Outside-in span recorder for the traced benchmark run.

:func:`install` wraps the public functions at each layer boundary of
``repro`` from the outside: nothing under ``src/`` changes.  Functions
that other modules import by name (``build_tree``, ``run_simulation``,
``solve_rw_queue``, the analyzers, ...) are rebound in every module of
the ``repro`` package that holds a reference to the original object;
``Simulator.run``, ``ResultCache.get``/``put`` and ``FigureSpec.run`` are
patched on their classes.  Install before the first sweep in a fresh
interpreter: ``AlgorithmSpec.analyze`` caches its target on first access.

Everything runs in one thread, so the open spans form a stack and each
span's parent is the span on top of it when it opens.  A span's self
time is its duration minus the time its direct children cover.

Per-descent calls (``path_to``/``child_for``, ~300k per simulation) are
deliberately not wrapped: the wrapper would dominate the trace.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Module-level functions to wrap: (defining module, attribute, span).
FUNCTIONS = (
    ("repro.btree.builder", "build_tree", "btree.build_tree"),
    ("repro.simulator.driver", "run_simulation", "simulator.run_simulation"),
    ("repro.simulator.closed", "run_closed_simulation",
     "simulator.run_closed_simulation"),
    ("repro.model.rwqueue", "solve_rw_queue", "model.solve_rw_queue"),
    ("repro.model.lock_coupling", "analyze_lock_coupling", "model.analyze"),
    ("repro.model.optimistic", "analyze_optimistic", "model.analyze"),
    ("repro.model.link", "analyze_link", "model.analyze"),
    ("repro.model.two_phase", "analyze_two_phase", "model.analyze"),
    ("repro.model.recovery", "analyze_optimistic_with_recovery",
     "model.analyze"),
    ("repro.model.throughput", "max_throughput", "model.analyze"),
    ("repro.model.closed", "closed_system_prediction", "model.analyze"),
    ("repro.parallel.executor", "run_batch", "parallel.run_batch"),
    ("repro.cluster.sim", "run_cluster_simulation",
     "cluster.run_cluster_simulation"),
    ("repro.report.svg", "render_svg", "report.render"),
    ("repro.report.sidecar", "write_sidecar", "report.render"),
    ("repro.report.validation", "build_report", "report.build_report"),
    ("repro.report.pipeline", "generate_figures", "report.generate_figures"),
)

#: Methods to patch on their class: (module, class, method, span).  A
#: span of None names the span per call (see :meth:`Tracer.install`).
METHODS = (
    ("repro.des.engine", "Simulator", "run", "des.Simulator.run"),
    ("repro.parallel.cache", "ResultCache", "get", "parallel.cache.get"),
    ("repro.parallel.cache", "ResultCache", "put", "parallel.cache.put"),
    ("repro.report.registry", "FigureSpec", "run", None),
)

#: Modules that import the wrapped functions by name; imported before
#: rebinding so their references are in ``sys.modules`` to be found.
CONSUMERS = (
    "repro",
    "repro.experiments.runner",
    "repro.experiments.registry",
    "repro.experiments.figures",
    "repro.experiments.extensions",
    "repro.experiments.claims",
    "repro.model",
    "repro.model.validation",
    "repro.report",
    "repro.cluster",
    "repro.simulator",
    "repro.parallel",
)


class Tracer:
    """In-memory spans plus the counters measured at the same
    boundaries.  ``spans[i]`` is ``[name, start, end, parent_index]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.trees: set = set()
        self.cache_hits = 0
        self.put_bytes = 0
        self.measured_ops = 0
        self.overflowed_runs = 0

    def wrap(self, name, fn: Callable,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.  ``name`` is a string or
        a function of the call's arguments; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` run outside the timed span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            label = name if isinstance(name, str) else name(args)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters measured at the boundaries ---------------------------

    def _note_tree(self, signature: inspect.Signature):
        def before(args, kwargs) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
            rng = call["rng"]
            state = rng.getstate() if rng is not None else call["seed"]
            policy = call["merge_policy"]
            key = repr((state, call["n_items"], call["order"],
                        call["insert_fraction"],
                        getattr(policy, "name", repr(policy)),
                        call["key_space"]))
            self.trees.add(hashlib.sha256(key.encode()).hexdigest())
        return before

    def _note_run(self, args, kwargs, result) -> None:
        result = getattr(result, "result", result)  # TruncatedResult
        self.measured_ops += result.measured_operations
        if result.overflowed:
            self.overflowed_runs += 1

    def _note_get(self, args, kwargs, result) -> None:
        if result is not None:
            self.cache_hits += 1

    def _note_put(self, args, kwargs, result) -> None:
        cache, key = args[0], args[1]
        self.put_bytes += cache.path_for(key).stat().st_size

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`FUNCTIONS` and :data:`METHODS`."""
        for module in CONSUMERS:
            importlib.import_module(module)
        replacements: Dict[int, tuple] = {}  # id -> (original, wrapper)
        for module_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            before = after = None
            if span == "btree.build_tree":
                before = self._note_tree(inspect.signature(original))
            elif span.startswith("simulator."):
                after = self._note_run
            replacements[id(original)] = (original, self.wrap(
                span, original, after=after, before=before))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

        hooks = {"parallel.cache.get": self._note_get,
                 "parallel.cache.put": self._note_put}
        for module_name, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            name = span if span is not None \
                else (lambda args: f"experiments.{args[0].figure_id}")
            setattr(cls, method, self.wrap(name, getattr(cls, method),
                                           after=hooks.get(span)))

        # Drop analyzer targets any import-time code already resolved,
        # so every call goes through the rebound module globals.
        from repro.algorithms import all_algorithms
        for spec in all_algorithms():
            spec.__dict__.pop("_analyze", None)

    # -- summary --------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[index]

        runs = calls["simulator.run_simulation"] \
            + calls["simulator.run_closed_simulation"]
        gets = calls["parallel.cache.get"]
        out = {
            "btree.build_tree.calls": calls["btree.build_tree"],
            "btree.build_tree.distinct": len(self.trees),
            "btree.build_tree.s": total["btree.build_tree"],
            "des.Simulator.run.calls": calls["des.Simulator.run"],
            "des.Simulator.run.s": total["des.Simulator.run"],
            "simulator.measured_ops": self.measured_ops,
            "simulator.overflow_share":
                self.overflowed_runs / runs if runs else 0.0,
            "model.analyze.calls": calls["model.analyze"],
            "model.analyze.self_s": self_time["model.analyze"],
            "model.solve_rw_queue.calls": calls["model.solve_rw_queue"],
            "model.solve_rw_queue.s": total["model.solve_rw_queue"],
            "parallel.run_batch.calls": calls["parallel.run_batch"],
            "parallel.run_batch.self_s": self_time["parallel.run_batch"],
            "parallel.cache.get.calls": gets,
            "parallel.cache.get.s": total["parallel.cache.get"],
            "parallel.cache.hit_ratio": self.cache_hits / gets if gets else 0.0,
            "parallel.cache.put.calls": calls["parallel.cache.put"],
            "parallel.cache.put.s": total["parallel.cache.put"],
            "parallel.cache.put.bytes": self.put_bytes,
            "cluster.run_cluster_simulation.calls":
                calls["cluster.run_cluster_simulation"],
            "cluster.run_cluster_simulation.s":
                total["cluster.run_cluster_simulation"],
            "report.render.s": total["report.render"],
            "report.build_report.s": total["report.build_report"],
            "report.generate_figures.self_s":
                self_time["report.generate_figures"],
        }
        for kind in ("run_simulation", "run_closed_simulation"):
            out[f"simulator.{kind}.calls"] = calls[f"simulator.{kind}"]
            out[f"simulator.{kind}.self_s"] = self_time[f"simulator.{kind}"]
        from repro.report.registry import FIGURES
        for figure_id in FIGURES:
            out[f"experiments.{figure_id}.s"] = \
                total[f"experiments.{figure_id}"]
        return out
