"""The paper's in-text quantitative claims as runnable checks.

The evaluation section makes several statements that have no figure of
their own.  Each claim here evaluates one of them from the analytical
framework and reports the measured quantity next to the paper's
wording.  ``btree-perf figures`` embeds every claim's verdict in its
markdown + JSON validation report and fails the run when one breaks
(:mod:`repro.report.validation`, ``docs/reproduction.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.model import (
    LEAF_ONLY_RECOVERY,
    NAIVE_RECOVERY,
    NO_RECOVERY,
    analyze_link,
    analyze_lock_coupling,
    analyze_optimistic,
    analyze_optimistic_with_recovery,
    analyze_two_phase,
    arrival_rate_for_root_utilization,
    max_throughput,
    paper_default_config,
)
from repro.model.link import link_crossing_probability


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    section: str
    statement: str
    measured: str
    holds: bool


def _claim_ordering() -> ClaimResult:
    config = paper_default_config()
    naive = max_throughput(analyze_lock_coupling, config)
    optimistic = max_throughput(analyze_optimistic, config)
    link = max_throughput(analyze_link, config)
    return ClaimResult(
        "ordering", "Section 5.3",
        "Link-type >> Optimistic Descent >> Naive Lock-coupling",
        f"max throughputs {naive:.3f} / {optimistic:.3f} / {link:.1f} "
        f"({optimistic / naive:.1f}x and {link / optimistic:.0f}x)",
        optimistic > 2 * naive and link > 10 * optimistic,
    )


def _claim_rho_half() -> ClaimResult:
    config = paper_default_config()
    half = arrival_rate_for_root_utilization(analyze_lock_coupling, config,
                                             target=0.5)
    peak = max_throughput(analyze_lock_coupling, config)
    increase = (peak - half) / half
    return ClaimResult(
        "rho-half-to-one", "Section 5.3 / Figure 10",
        "rho_w = .5 to rho_w = 1 takes less than a 50% rate increase",
        f"lambda(.5) = {half:.3f}, max = {peak:.3f}: +{increase:.1%}",
        increase < 0.5,
    )


def _claim_node_size_rules() -> ClaimResult:
    small, large = 13, 101
    naive = [arrival_rate_for_root_utilization(
        analyze_lock_coupling, paper_default_config(order=n), target=0.5)
        for n in (small, large)]
    optimistic = [arrival_rate_for_root_utilization(
        analyze_optimistic, paper_default_config(order=n), target=0.5)
        for n in (small, large)]
    naive_ratio = naive[1] / naive[0]
    optimistic_ratio = optimistic[1] / optimistic[0]
    return ClaimResult(
        "node-size-rules", "Section 6",
        "Naive LC is insensitive to node size; Optimistic Descent gains "
        "~N/log^2 N",
        f"N 13->101: Naive x{naive_ratio:.2f}, Optimistic "
        f"x{optimistic_ratio:.2f}",
        naive_ratio < 2.5 and optimistic_ratio > 3.0,
    )


def _claim_link_crossings() -> ClaimResult:
    config = paper_default_config(disk_cost=10.0)
    worst = max(link_crossing_probability(config, rate, level=1)
                for rate in (1.0, 10.0, 30.0))
    return ClaimResult(
        "link-crossings", "Section 5.1 / Figure 9",
        "link crossing is rare and its performance effect negligible",
        f"worst per-descent leaf crossing probability {worst:.2e}",
        worst < 0.02,
    )


def _claim_recovery() -> ClaimResult:
    config = paper_default_config(disk_cost=10.0)
    peaks = {
        policy.name: max_throughput(
            analyze_optimistic_with_recovery, config, policy=policy,
            t_trans=100.0)
        for policy in (NO_RECOVERY, LEAF_ONLY_RECOVERY, NAIVE_RECOVERY)
    }
    leaf_share = peaks["leaf-only-recovery"] / peaks["no-recovery"]
    naive_share = peaks["naive-recovery"] / peaks["no-recovery"]
    return ClaimResult(
        "recovery", "Section 7",
        "Leaf-only recovery ~ no recovery; Naive recovery significantly "
        "worse",
        f"capacity retained: leaf-only {leaf_share:.0%}, naive "
        f"{naive_share:.0%}",
        leaf_share > 0.75 and naive_share < 0.6,
    )


def _claim_two_phase() -> ClaimResult:
    config = paper_default_config()
    two_phase = max_throughput(analyze_two_phase, config)
    naive = max_throughput(analyze_lock_coupling, config)
    return ClaimResult(
        "restrictive-serialization", "Section 1 (extension)",
        "restrictive serialization on the index causes a bottleneck",
        f"strict 2PL max {two_phase:.4f} vs Naive LC {naive:.3f} "
        f"({naive / two_phase:.1f}x)",
        naive > 8 * two_phase,
    )


_CLAIMS: Tuple[Callable[[], ClaimResult], ...] = (
    _claim_ordering,
    _claim_rho_half,
    _claim_node_size_rules,
    _claim_link_crossings,
    _claim_recovery,
    _claim_two_phase,
)


def evaluate_claims() -> List[ClaimResult]:
    """Evaluate every registered claim (analytical; a few seconds)."""
    return [claim() for claim in _CLAIMS]
