"""The algorithm registry: invariants, capability dispatch, CLI."""

import math

import pytest

from repro.algorithms import (
    AlgorithmSpec,
    algorithm_names,
    all_algorithms,
    display_label,
    get_algorithm,
    names,
    register_algorithm,
)
from repro.algorithms.spec import CAPABILITY_FLAGS, OPS_INTERFACE
from repro.errors import ConfigurationError
from repro.simulator.config import SimulationConfig


# ----------------------------------------------------------------------
# Registry invariants
# ----------------------------------------------------------------------
class TestRegistryInvariants:

    def test_paper_algorithms_registered_in_order(self):
        assert algorithm_names() == (
            names.NAIVE_LOCK_COUPLING,
            names.OPTIMISTIC_DESCENT,
            names.LINK_TYPE,
            names.LINK_SYMMETRIC,
            names.TWO_PHASE_LOCKING,
            names.OPTIMISTIC_LOCK_COUPLING,
        )

    def test_names_and_column_keys_unique(self):
        specs = all_algorithms()
        assert len({spec.name for spec in specs}) == len(specs)
        assert len({spec.short for spec in specs}) == len(specs)

    def test_every_spec_resolves_its_ops_module(self):
        for spec in all_algorithms():
            module = spec.ops
            for op in OPS_INTERFACE:
                assert callable(getattr(module, op)), (spec.name, op)
            assert spec.closed_module is module  # no closed variants yet

    def test_every_model_backed_spec_resolves_its_analyzer(self):
        with_model = [spec for spec in all_algorithms() if spec.has_model]
        assert len(with_model) == 4
        for spec in with_model:
            assert callable(spec.analyze), spec.name
        for spec in all_algorithms():
            if not spec.has_model:
                assert spec.analyze is None

    def test_duplicate_name_rejected(self):
        existing = get_algorithm(names.LINK_TYPE)
        with pytest.raises(ConfigurationError, match="already registered"):
            register_algorithm(existing)

    def test_duplicate_column_key_rejected_and_not_registered(self):
        clash = AlgorithmSpec(
            name="brand-new-variant", label="Brand New", short="link",
            ops_ref="repro.simulator.link")
        with pytest.raises(ConfigurationError, match="column key"):
            register_algorithm(clash)
        assert "brand-new-variant" not in algorithm_names()

    def test_spec_requires_name_label_short_and_ops(self):
        with pytest.raises(ConfigurationError):
            AlgorithmSpec(name="", label="x", short="x", ops_ref="m")
        with pytest.raises(ConfigurationError):
            AlgorithmSpec(name="x", label="x", short="x", ops_ref="")

    def test_unknown_name_lists_known_names_sorted(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_algorithm("bogus")
        message = str(excinfo.value)
        assert "unknown algorithm 'bogus'" in message
        assert ", ".join(sorted(algorithm_names())) in message

    def test_display_label_falls_back_for_composites(self):
        assert display_label(names.LINK_TYPE) == "Link-type (Lehman-Yao)"
        composite = f"{names.OPTIMISTIC_DESCENT}+naive-recovery"
        assert display_label(composite) == composite

    def test_capability_expectations(self):
        caps = {spec.name: spec.capabilities() for spec in all_algorithms()}
        assert caps[names.NAIVE_LOCK_COUPLING] == (
            "has_restarts", "supports_closed", "coupling_updates")
        assert caps[names.OPTIMISTIC_DESCENT] == (
            "has_restarts", "supports_closed", "supports_recovery")
        assert caps[names.LINK_TYPE] == (
            "has_link_crossings", "supports_closed", "supports_compaction")
        assert caps[names.LINK_SYMMETRIC] == (
            "has_link_crossings", "supports_compaction")
        assert caps[names.TWO_PHASE_LOCKING] == (
            "has_restarts", "coupling_updates")
        assert caps[names.OPTIMISTIC_LOCK_COUPLING] == (
            "has_restarts", "coupling_updates")
        for flags in caps.values():
            assert all(flag in CAPABILITY_FLAGS for flag in flags)


# ----------------------------------------------------------------------
# Capability-driven configuration gates
# ----------------------------------------------------------------------
class TestConfigGates:

    def test_unknown_algorithm_message_names_the_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SimulationConfig(algorithm="bogus")
        message = str(excinfo.value)
        assert "unknown algorithm 'bogus'" in message
        # Satellite fix: a readable sorted name list, not a tuple repr.
        assert ", ".join(sorted(algorithm_names())) in message
        assert "(" not in message.split("expected one of")[1]

    def test_recovery_gated_on_supports_recovery(self):
        SimulationConfig(algorithm=names.OPTIMISTIC_DESCENT,
                         recovery="leaf-only-recovery")
        with pytest.raises(ConfigurationError, match="recovery"):
            SimulationConfig(algorithm=names.OPTIMISTIC_LOCK_COUPLING,
                             recovery="leaf-only-recovery")

    def test_compaction_gated_on_supports_compaction(self):
        SimulationConfig(algorithm=names.LINK_SYMMETRIC,
                         compaction_interval=50.0)
        with pytest.raises(ConfigurationError, match="compaction"):
            SimulationConfig(algorithm=names.OPTIMISTIC_LOCK_COUPLING,
                             compaction_interval=50.0)


# ----------------------------------------------------------------------
# Registry-driven dispatch in the drivers and validation
# ----------------------------------------------------------------------
def _quick(algorithm: str, **overrides) -> SimulationConfig:
    defaults = dict(algorithm=algorithm, arrival_rate=0.1, n_items=2_000,
                    n_operations=300, warmup_operations=30, seed=5)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestDispatch:

    def test_new_variant_runs_open_with_finite_responses(self):
        from repro.simulator.driver import run_simulation
        result = run_simulation(
            _quick(names.OPTIMISTIC_LOCK_COUPLING))
        assert not result.overflowed
        for operation in ("search", "insert", "delete"):
            assert math.isfinite(result.mean_response[operation])
        assert result.mean_response["insert"] > \
            result.mean_response["search"]

    def test_new_variant_runs_closed(self):
        from repro.simulator.closed import run_closed_simulation
        result = run_closed_simulation(
            _quick(names.OPTIMISTIC_LOCK_COUPLING, n_operations=150,
                   warmup_operations=15),
            multiprogramming_level=4, think_time=1.0)
        assert result.throughput > 0
        assert math.isfinite(result.mean_response["search"])

    def test_validation_resolves_registered_analyzer(self):
        from repro.model.validation import resolve_analyzer
        from repro.model.lock_coupling import analyze_lock_coupling
        resolved = resolve_analyzer(None, names.NAIVE_LOCK_COUPLING)
        assert resolved is analyze_lock_coupling
        sentinel = object()
        assert resolve_analyzer(sentinel, names.NAIVE_LOCK_COUPLING) \
            is sentinel

    def test_validation_rejects_simulator_only_specs(self):
        from repro.model.validation import resolve_analyzer
        with pytest.raises(ConfigurationError, match="no registered"):
            resolve_analyzer(None, names.OPTIMISTIC_LOCK_COUPLING)


# ----------------------------------------------------------------------
# CLI and experiment surfacing
# ----------------------------------------------------------------------
class TestSurfacing:

    def test_list_algorithms_subcommand(self, capsys):
        from repro.experiments.runner import main
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(all_algorithms())
        assert any(names.OPTIMISTIC_LOCK_COUPLING in line for line in lines)
        assert "sim-only" in out and "model" in out
        assert "coupling_updates" in out
        for line, spec in zip(lines, all_algorithms()):
            assert line.startswith(spec.name)
            for flag in spec.capabilities():
                assert flag in line

    def test_list_workloads_subcommand(self, capsys):
        from repro.experiments.runner import main
        from repro.workload import (
            all_arrival_processes,
            all_key_distributions,
        )
        assert main(["list-workloads"]) == 0
        lines = capsys.readouterr().out.splitlines()
        components = all_arrival_processes() + all_key_distributions()
        assert len(lines) == len(components) + 1
        for line, component in zip(lines, components):
            assert line.split()[:2] == [component.category, component.name]
            assert component.label in line
        assert lines[-1].split()[:2] == ["txn", "envelope"]
        assert "TransactionSpec" in lines[-1]

    def test_simulate_choices_come_from_registry(self):
        from repro.experiments.runner import _build_parser
        parser = _build_parser()
        args = parser.parse_args(
            ["simulate", "--algorithm", names.OPTIMISTIC_LOCK_COUPLING])
        assert args.algorithm == names.OPTIMISTIC_LOCK_COUPLING

    def test_ext06_registered_and_columned_by_short_keys(self):
        from repro.experiments.registry import EXPERIMENTS
        assert "ext06" in EXPERIMENTS
        assert EXPERIMENTS["ext06"].has_simulation

    def test_ext06_runs_at_tiny_scale(self):
        from repro.experiments.extensions import ext06
        table = ext06(scale=0.0)
        assert table.columns == ["arrival_rate", "naive_insert",
                                 "optimistic_insert", "link_insert",
                                 "olc_insert"]
        assert len(table.rows) == 4
        finite = [value for row in table.rows for value in row[1:]
                  if math.isfinite(value)]
        assert finite  # the sweep produced real response times
