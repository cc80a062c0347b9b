"""Bit-level pin of the analytical model.

The digest covers every analyzer's full output — the ``float.hex()`` of
each ``LevelSolution`` field, each response time, ``stable`` and
``saturated_level`` — over disk costs, operation mixes and arrival rates
that reach past every knee, plus Theorem 2's ``max_throughput`` for each
analyzer and configuration.  It was taken before the analyzers were
folded onto the shared level solver; any change to a float operation's
order shows here.

The zero-load case checks the model against the service paths of
``docs/theory.md`` written out by hand: at a negligible arrival rate
every wait vanishes and each response is the pure service time.
"""

import hashlib
import math

import pytest

from repro.model import (
    analyze_link,
    analyze_lock_coupling,
    analyze_optimistic,
    analyze_optimistic_with_recovery,
    analyze_two_phase,
    max_throughput,
)
from repro.model.occupancy import OccupancyModel
from repro.model.params import OperationMix, PAPER_MIX, paper_default_config
from repro.model.recovery import ALL_POLICIES

DISK_COSTS = (1.0, 5.0, 10.0)
MIXES = (PAPER_MIX, OperationMix(0.9, 0.07, 0.03), OperationMix(0.0, 1.0, 0.0))
#: From negligible load to past every analyzer's knee (the Link-type
#: algorithm's lies near 9e3 at D=1 with a read-mostly mix).
RATES = (1e-3, 0.01, 0.03, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0,
         1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3,
         2e3, 5e3, 1e4)

LEVEL_FIELDS = ("lambda_r", "lambda_w", "mu_r", "mu_w", "rho_w", "r_u",
                "r_e", "R", "W")


def _recovery(policy):
    def analyze(config, rate, **kwargs):
        return analyze_optimistic_with_recovery(config, rate, policy=policy,
                                                **kwargs)
    return analyze


ANALYZERS = (
    ("naive", analyze_lock_coupling),
    ("optimistic", analyze_optimistic),
    ("link", analyze_link),
    ("two-phase", analyze_two_phase),
) + tuple((policy.name, _recovery(policy)) for policy in ALL_POLICIES)

#: sha256 of :func:`_prediction_lines` / :func:`_throughput_lines`,
#: captured before the analyzers shared one level solver.
PREDICTIONS_DIGEST = (
    "047401a0a1db704e179c0ee168bd8e69e360defd9deb985742e924573482eb8a")
THROUGHPUT_DIGEST = (
    "bf6de0e8ebb9680d05556b80c68be82fd39fc689ec8a5a6cbd2c54e2523f4952")


def _configs():
    for disk_cost in DISK_COSTS:
        for mix in MIXES:
            yield (f"D={disk_cost} mix={mix.q_search},{mix.q_insert},"
                   f"{mix.q_delete}",
                   paper_default_config(disk_cost=disk_cost, mix=mix))


def _describe(prediction):
    parts = [prediction.algorithm, str(prediction.stable),
             str(prediction.saturated_level)]
    for level in prediction.levels:
        parts.append(str(level.level))
        parts.extend(getattr(level, name).hex() for name in LEVEL_FIELDS)
    for operation in sorted(prediction.response_times):
        parts.append(f"{operation}={prediction.response_times[operation].hex()}")
    return " ".join(parts)


def _prediction_lines():
    for label, config in _configs():
        for name, analyze in ANALYZERS:
            for rate in RATES:
                yield f"{label} {name} {rate.hex()} " \
                      f"{_describe(analyze(config, rate))}"


def _throughput_lines():
    for label, config in _configs():
        for name, analyze in ANALYZERS:
            yield f"{label} {name} {max_throughput(analyze, config).hex()}"


def _digest(lines):
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def test_grid_reaches_both_sides_of_every_knee():
    """The pinned grid holds stable and saturated points for every
    analyzer and configuration."""
    for _label, config in _configs():
        for name, analyze in ANALYZERS:
            outcomes = {analyze(config, rate).stable for rate in RATES}
            assert outcomes == {True, False}, (name, config)


def test_predictions_match_digest():
    assert _digest(_prediction_lines()) == PREDICTIONS_DIGEST


def test_max_throughput_matches_digest():
    assert _digest(_throughput_lines()) == THROUGHPUT_DIGEST


# ----------------------------------------------------------------------
# Zero load: each response is the service path of docs/theory.md
# ----------------------------------------------------------------------
#: Low enough that even Two-Phase Locking's whole-operation root holds
#: queue for under 1e-6 time units at D=10.
ZERO_LOAD = 1e-10


def _service_paths(name, config):
    """Pure service time of each operation (no waits), written out from
    the response formulas of docs/theory.md."""
    costs, h = config.costs, config.height
    occ = OccupancyModel.corollary1(config.mix, config.order, h)
    se = {i: costs.se(i, h) for i in range(1, h + 1)}
    sp = {i: costs.sp(i, h) for i in range(1, h + 1)}
    modify = costs.modify(h)

    def propagation(j):  # prod_{k<=j} Pr[F(k)]
        return math.prod(occ.full(k) for k in range(1, j + 1))

    search = sum(se.values())
    upper_se = sum(se[i] for i in range(2, h + 1))
    split_work = sum(propagation(j) * sp[j] for j in range(1, h))
    if name in ("naive", "two-phase"):
        # Per(I) = M + sum_{i>=2} Se(i) + sum_j prod Pr[F] Sp(j);
        # Per(D) = M + W(1) + sum_{i>=2} (Se(i) + W(i)).
        return {"search": search, "insert": modify + upper_se + split_work,
                "delete": modify + upper_se}
    if name == "optimistic":
        # First descent plus Pr[F(1)] (Pr[Em(1)]) times a Naive insert.
        first = modify + upper_se
        redo = modify + upper_se + split_work
        return {"search": search, "insert": first + occ.full(1) * redo,
                "delete": first + occ.empty(1) * redo}
    assert name == "link"
    # Descent plus the half-split climb sum_j prod Pr[F] (Sp(j) + M(j+1)).
    descent = costs.modify_at(1, h) + upper_se
    climb = sum(propagation(j) * (sp[j] + costs.modify_at(j + 1, h))
                for j in range(1, h))
    return {"search": search, "insert": descent + climb, "delete": descent}


@pytest.mark.parametrize("name, analyze", ANALYZERS[:4],
                         ids=[name for name, _ in ANALYZERS[:4]])
def test_zero_load_responses_are_service_paths(name, analyze):
    for label, config in _configs():
        prediction = analyze(config, ZERO_LOAD)
        assert prediction.stable
        for level in prediction.levels:
            assert level.R < 1e-6 and level.W < 1e-6, (label, level)
        expected = _service_paths(name, config)
        for operation, value in expected.items():
            assert prediction.response(operation) == pytest.approx(
                value, rel=1e-6), (label, operation)
