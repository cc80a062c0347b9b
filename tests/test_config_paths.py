"""One way to describe a simulation's workload, and configs refused
before any run starts.

* ``workload=None`` is the default spec: it compares and hashes like
  ``WorkloadSpec()``.
* ext05's hotspot sweep, written through ``HotspotKeysSpec``, prints the
  rows it printed through the former ``key_distribution`` fields.
* A config whose tree cannot be built is refused when it is
  constructed, with the builder's own message, not later in a worker;
  so is every other config no run could start from.
"""

import math

import pytest

from repro.btree.builder import build_tree
from repro.btree.policies import MergePolicy
from repro.errors import ConfigurationError
from repro.parallel import SimTask, task_key
from repro.report import get_figure
from repro.simulator.config import SimulationConfig
from repro.workload import (DEFAULT_WORKLOAD, HotspotKeysSpec,
                            MigratingHotspotKeysSpec, WorkloadSpec)

#: ``get_figure("ext05").run(scale=0.01).rows`` as the code printed them
#: when ext05 still set ``key_distribution="hotspot"``: (hot
#: probability, naive insert, link insert, naive root rho_w).
EXT05_ROWS = [
    (0.2, 22.503, 18.625, 0.4383),
    (0.5, 25.383, 18.413, 0.4992),
    (0.8, 38.202, 18.946, 0.6324),
    (0.95, 35.367, 19.322, 0.6661),
]


def test_ext05_rows_unchanged_through_the_workload_spec():
    assert get_figure("ext05").run(scale=0.01).rows == EXT05_ROWS


def test_no_workload_is_the_default_spec():
    none = SimulationConfig(workload=None)
    explicit = SimulationConfig(workload=WorkloadSpec())
    assert none == explicit
    assert none.workload is DEFAULT_WORKLOAD
    assert task_key(SimTask(none)) == task_key(SimTask(explicit))
    for kind in ("closed", "shape"):
        assert task_key(SimTask(none, kind=kind, mpl=4)) == \
            task_key(SimTask(explicit, kind=kind, mpl=4))


@pytest.mark.parametrize("fields,build", [
    (dict(order=2), dict(n_items=10, order=2)),
    (dict(n_items=-5), dict(n_items=-5)),
    (dict(n_items=300, key_space=5), dict(n_items=300, key_space=5)),
], ids=["order-below-3", "negative-items", "more-items-than-keys"])
def test_unbuildable_tree_refused_at_construction(fields, build):
    with pytest.raises(ConfigurationError) as built:
        build_tree(**build)
    with pytest.raises(ConfigurationError) as configured:
        SimulationConfig(**fields)
    assert str(configured.value) == str(built.value)


@pytest.mark.parametrize("spec", [HotspotKeysSpec,
                                  MigratingHotspotKeysSpec])
@pytest.mark.parametrize("field", ["hot_fraction", "hot_probability"])
def test_hotspot_refuses_nan(spec, field):
    with pytest.raises(ConfigurationError, match=field):
        spec(**{field: math.nan})


@pytest.mark.parametrize("fields,message", [
    (dict(algorithm="link-symmetric"),
     "unknown algorithm 'link-symmetric'; expected one of link-type, "),
    (dict(n_operations=0), "n_operations must be >= 1"),
    (dict(warmup_operations=-1), "warmup_operations must be >= 0"),
    (dict(max_population=0), "max_population must be >= 1"),
    (dict(key_space=0), "key_space must be in [1, 2**63], got 0"),
    (dict(key_space=2**63 + 1), "key_space must be in [1, 2**63]"),
    (dict(recovery="eager-recovery"), "unknown recovery 'eager-recovery'"),
    (dict(algorithm="link-type", recovery="naive-recovery"),
     "recovery policies are not modelled for"),
    (dict(workload={"keys": "zipf"}),
     "workload must be a WorkloadSpec, got dict"),
    (dict(merge_policy=MergePolicy("merge-at-half", 1, 2)),
     "the simulator requires merge-at-empty"),
], ids=["removed-algorithm", "no-operations", "negative-warmup",
        "no-population", "empty-key-space", "key-space-above-2**63",
        "unknown-recovery", "recovery-without-a-model",
        "workload-not-a-spec", "merge-policy-not-at-empty"])
def test_unrunnable_config_refused_at_construction(fields, message):
    with pytest.raises(ConfigurationError) as refused:
        SimulationConfig(**fields)
    assert str(refused.value).startswith(message)
