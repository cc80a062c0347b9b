"""The algorithm registry: the repository's single dispatch point.

An :class:`AlgorithmSpec` pairs one concurrency-control algorithm's
simulator operation processes with its analytical model and a set of
capability flags.  Consumers — the open and closed simulator drivers,
the experiment drivers and the CLI — resolve
algorithms exclusively through :func:`get_algorithm` /
:func:`all_algorithms`, never through name literals or private maps.

Spec modules reference their ops module and analyzer by dotted path
(``ops_ref``, ``analyze_ref``) rather than importing them: the registry
sits *below* every other subpackage, and registration happens while the
:mod:`repro.simulator` / :mod:`repro.model` packages may still be
mid-initialisation.  The references are imported lazily on first access
and cached, so ``spec.ops`` and ``spec.analyze`` behave like ordinary
attributes everywhere outside import time.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Capability-flag field names, in display order (CLI, docs, tests).
CAPABILITY_FLAGS = (
    "has_restarts",
    "has_link_crossings",
    "supports_closed",
    "supports_recovery",
    "coupling_updates",
)

#: Every ops module must expose these generator factories, each taking
#: an :class:`~repro.simulator.operations.OperationContext` and a key.
OPS_INTERFACE = ("search", "insert", "delete")

def _resolve_ops(path: str, owner: str) -> ModuleType:
    module = importlib.import_module(path)
    for op in OPS_INTERFACE:
        if not callable(getattr(module, op, None)):
            raise ConfigurationError(
                f"algorithm {owner!r}: ops module {path} lacks a "
                f"callable {op}()")
    return module


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the framework needs to know about one algorithm."""

    #: Registry key; what ``SimulationConfig.algorithm`` holds.
    name: str
    #: Human-readable display label (CLI listings, progress lines).
    label: str
    #: Column key for experiment tables (e.g. ``naive_insert``).
    short: str
    #: Dotted module path of the open-system operation processes.
    ops_ref: str
    #: ``"module:function"`` path of the analytical model; None means
    #: the algorithm is simulator-only (no model registered yet).
    analyze_ref: Optional[str] = None
    #: Descents may restart at the root boundary (``metrics.restarts``
    #: and ``metrics.redo_descents`` are meaningful).
    has_restarts: bool = False
    #: Descents may chase right-links (``metrics.link_crossings``).
    has_link_crossings: bool = False
    #: Included in closed-system (multiprogramming-level) sweeps.
    supports_closed: bool = False
    #: Recovery lock-retention policies apply (paper Section 7).
    supports_recovery: bool = False
    #: Updates hold coupled W locks on the descent path, so the root
    #: writer presence rho_w is the load-limiting signal (Figure 10).
    coupling_updates: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.label or not self.short:
            raise ConfigurationError(
                "algorithm specs need a name, a label and a short "
                "column key")
        if not self.ops_ref:
            raise ConfigurationError(
                f"algorithm {self.name!r} needs an ops module reference")

    @property
    def ops(self) -> ModuleType:
        """The simulator operations module (lazily imported, validated
        against :data:`OPS_INTERFACE` on first access)."""
        cached = self.__dict__.get("_ops")
        if cached is None:
            cached = _resolve_ops(self.ops_ref, self.name)
            object.__setattr__(self, "_ops", cached)
        return cached

    @property
    def has_model(self) -> bool:
        return self.analyze_ref is not None

    @property
    def analyze(self) -> Optional[Callable]:
        """The analytical model — ``analyze(config, arrival_rate, ...)``
        returning an :class:`~repro.model.results.AlgorithmPrediction` —
        or None for simulator-only algorithms."""
        if self.analyze_ref is None:
            return None
        cached = self.__dict__.get("_analyze")
        if cached is None:
            module_path, _, attr = self.analyze_ref.partition(":")
            cached = getattr(importlib.import_module(module_path), attr)
            if not callable(cached):
                raise ConfigurationError(
                    f"algorithm {self.name!r}: analyzer reference "
                    f"{self.analyze_ref!r} is not callable")
            object.__setattr__(self, "_analyze", cached)
        return cached

    def capabilities(self) -> Tuple[str, ...]:
        """The capability-flag names this algorithm sets."""
        return tuple(flag for flag in CAPABILITY_FLAGS
                     if getattr(self, flag))


_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add ``spec`` to the registry; returns it for module-level use.

    Both the name and the table column key must be unique — the column
    key becomes experiment-table headers, where a collision would
    silently overwrite a rival algorithm's series.
    """
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"algorithm {spec.name!r} is already registered")
    for other in _REGISTRY.values():
        if other.short == spec.short:
            raise ConfigurationError(
                f"algorithm {spec.name!r} reuses the column key "
                f"{spec.short!r} of {other.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown algorithm {name!r}; expected one of {known}"
        ) from None


def all_algorithms() -> Tuple[AlgorithmSpec, ...]:
    """Every registered spec, in registration order (paper order first)."""
    return tuple(_REGISTRY.values())


def algorithm_names() -> Tuple[str, ...]:
    """Every registered name, in registration order."""
    return tuple(_REGISTRY)


def display_label(name: str) -> str:
    """The display label for ``name``; composite or unknown names (for
    example recovery-policy suffixes like ``...+naive``) fall back to
    the raw string."""
    spec = _REGISTRY.get(name)
    return spec.label if spec is not None else name
