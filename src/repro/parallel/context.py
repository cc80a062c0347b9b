"""Ambient execution settings for the sweep layer.

Experiment drivers sit several call levels below the CLI (``runner`` →
``figures`` → ``common`` → ``run_batch``), and threading ``jobs=`` and
``cache=`` through every figure signature would churn the whole
call graph.  Instead the CLI (or any caller) installs an
:class:`ExecutionContext` with the :func:`execution` context manager and
every ``run_batch`` call below it picks the settings up as defaults;
explicit ``jobs=`` / ``cache=`` arguments always win.

The default context is serial with no cache, so library callers that
never touch this module keep today's behavior exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.parallel.cache import ResultCache
from repro.resilience.policy import ResilienceOptions

#: Sentinel distinguishing "not passed" from an explicit None.
_UNSET = object()


@dataclass(frozen=True)
class ExecutionContext:
    """How simulation batches should execute.

    ``jobs``: worker processes for independent runs; ``None``, 0 or 1
    all mean serial in-process execution.  ``cache``: on-disk result
    cache, or ``None`` to always recompute.  ``progress``: callback
    invoked with every completed
    :class:`~repro.simulator.metrics.SimulationResult` (e.g. an
    :class:`~repro.obs.progress.ProgressPrinter`), or ``None`` for
    silent runs.
    """

    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    progress: Optional[Callable] = None
    #: Failure policy for batches below this context (retries, task
    #: timeouts, quarantine — see :mod:`repro.resilience`); ``None``
    #: keeps the historical fail-fast behavior.
    resilience: Optional[ResilienceOptions] = None

    @property
    def parallel(self) -> bool:
        return self.jobs is not None and self.jobs > 1


_stack = [ExecutionContext()]


def current_context() -> ExecutionContext:
    """The innermost installed context (serial/no-cache by default)."""
    return _stack[-1]


@contextmanager
def execution(jobs: Optional[int] = _UNSET,
              cache: Optional[ResultCache] = _UNSET,
              progress: Optional[Callable] = _UNSET,
              resilience: Optional[ResilienceOptions] = _UNSET,
              ) -> Iterator[ExecutionContext]:
    """Install an execution context for the enclosed block.

    Omitted fields inherit from the enclosing context, so e.g.
    ``execution(jobs=4)`` keeps whatever cache is already installed.
    """
    outer = current_context()
    context = ExecutionContext(
        jobs=outer.jobs if jobs is _UNSET else jobs,
        cache=outer.cache if cache is _UNSET else cache,
        progress=outer.progress if progress is _UNSET else progress,
        resilience=outer.resilience if resilience is _UNSET else resilience,
    )
    if context.jobs is not None and context.jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {context.jobs}")
    _stack.append(context)
    try:
        yield context
    finally:
        _stack.pop()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Effective worker count: the argument, else the ambient context."""
    if jobs is None:
        jobs = current_context().jobs
    if jobs is None:
        return 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return max(jobs, 1)


def resolve_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    """Effective cache: the argument, else the ambient context's.

    To force cache-less execution under a caching context, install an
    inner ``execution(cache=None)`` block.
    """
    return cache if cache is not None else current_context().cache


def resolve_progress(progress: Optional[Callable]) -> Optional[Callable]:
    """Effective progress callback: the argument, else the ambient
    context's (``execution(progress=None)`` silences an outer one)."""
    return progress if progress is not None else current_context().progress


def resolve_resilience(resilience: Optional[ResilienceOptions]
                       ) -> Optional[ResilienceOptions]:
    """Effective failure policy: the argument, else the ambient
    context's (``execution(resilience=None)`` restores fail-fast)."""
    return resilience if resilience is not None \
        else current_context().resilience

