"""Non-finite rates are rejected before anything runs.

A zero inter-arrival gap (rate ``inf``) is a zero hold that the kernel
continues within the same step forever, and a NaN rate turns into a NaN
hold or a NaN model; so the configurations refuse both and the CLI flags
exit 2 with an argparse ``error:`` line.  The same holds for a run's
remaining transaction time ``t_trans``.
Each CLI case runs in a child interpreter under a timeout, so a
regression fails instead of hanging.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cluster import ClusterSimConfig, ClusterSpec, analyze_cluster
from repro.errors import ConfigurationError
from repro.model.params import paper_default_config
from repro.model.recovery import (LEAF_ONLY_RECOVERY,
                                  analyze_optimistic_with_recovery)
from repro.obs import TelemetryOptions
from repro.simulator.config import SimulationConfig

#: Seconds a rejected invocation may take; the parser fails at once.
_TIMEOUT = 60

_DEMANDS = {"search": 1.0, "insert": 2.0, "delete": 2.0}
_MIX = {"search": 0.3, "insert": 0.5, "delete": 0.2}


def _cli(*argv):
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_root, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *argv],
        env=env, capture_output=True, text=True, timeout=_TIMEOUT)


@pytest.mark.parametrize("argv", [
    ("simulate", "--rate", "inf"),
    ("simulate", "--rate", "nan"),
    ("simulate", "--rate", "0"),
    ("simulate", "--sample-interval", "inf"),
    ("simulate", "--sample-interval", "nan"),
    ("simulate", "--sample-interval", "0"),
    ("simulate", "--sample-interval", "-1"),
    ("cluster", "--rate", "inf"),
    ("cluster", "--rate", "nan"),
    ("cluster", "--rho", "inf"),
    ("cluster", "--rho", "nan"),
    ("cluster", "--horizon", "inf"),
    ("cluster", "--horizon", "nan"),
], ids=" ".join)
def test_cli_rejects_non_finite_flag(argv):
    completed = _cli(*argv)
    assert completed.returncode == 2, completed.stdout + completed.stderr
    assert "error:" in completed.stderr
    assert f"argument {argv[1]}" in completed.stderr
    assert completed.stdout == ""


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
def test_simulation_config_rejects_rate(rate):
    with pytest.raises(ConfigurationError, match="arrival_rate"):
        SimulationConfig(arrival_rate=rate)


@pytest.mark.parametrize("t_trans", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("recovery", ["no-recovery", "leaf-only-recovery"])
def test_simulation_config_rejects_t_trans(t_trans, recovery):
    """NaN once crashed mid-run on a NaN hold and a negative value ran
    as a zero hold; the model refuses the same values."""
    with pytest.raises(ConfigurationError, match="t_trans"):
        SimulationConfig(algorithm="optimistic-descent", recovery=recovery,
                         t_trans=t_trans)


@pytest.mark.parametrize("t_trans", [math.inf, math.nan, -1.0])
def test_recovery_model_rejects_t_trans(t_trans):
    with pytest.raises(ConfigurationError, match="t_trans"):
        analyze_optimistic_with_recovery(paper_default_config(), 0.1,
                                         policy=LEAF_ONLY_RECOVERY,
                                         t_trans=t_trans)


def test_zero_t_trans_is_accepted():
    SimulationConfig(algorithm="optimistic-descent",
                     recovery="leaf-only-recovery", t_trans=0.0)
    analyze_optimistic_with_recovery(paper_default_config(), 0.1,
                                     policy=LEAF_ONLY_RECOVERY, t_trans=0.0)


@pytest.mark.parametrize("interval", [math.inf, math.nan, 0.0, -1.0])
def test_telemetry_options_reject_sample_interval(interval):
    with pytest.raises(ConfigurationError, match="sample_interval"):
        TelemetryOptions(sample_interval=interval)


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0])
def test_cluster_config_rejects_rate(rate):
    with pytest.raises(ConfigurationError, match="arrival rate"):
        ClusterSimConfig(spec=ClusterSpec(shards=2, replicas=2),
                         arrival_rate=rate, service_means=_DEMANDS,
                         mix=_MIX)


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_cluster_config_rejects_horizon(horizon):
    with pytest.raises(ConfigurationError, match="horizon"):
        ClusterSimConfig(spec=ClusterSpec(shards=2, replicas=2),
                         arrival_rate=0.5, service_means=_DEMANDS,
                         mix=_MIX, horizon=horizon)


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_cluster_model_rejects_rate(rate):
    with pytest.raises(ConfigurationError, match="offered rate"):
        analyze_cluster(ClusterSpec(shards=2, replicas=2), rate,
                        _DEMANDS, _MIX)


def test_cli_overflowing_rho_fails_cleanly():
    """A finite --rho whose derived rate overflows to inf is caught by
    the cluster configuration: exit 1 with an ``error:`` line."""
    completed = _cli("cluster", "--rho", "1e308")
    assert completed.returncode == 1
    assert completed.stderr.startswith("error:")
