"""Statistics collectors used by the simulator.

* :class:`RunningStats` — numerically stable (Welford) accumulator for
  mean / variance / min / max plus a normal-approximation confidence
  interval; used for response times and lock waits.
* :class:`ReservoirSample` — a fixed-size uniform sample of a stream,
  from which response-time percentiles are estimated.
"""

from __future__ import annotations

import math
from typing import Iterable


class RunningStats:
    """Welford accumulator for scalar observations."""

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n: int = 0
        self._mean: float = 0.0
        self._m2: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.total: float = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (parallel Welford merge)."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self.n < 2:
            return math.nan
        return self._m2 / (self.n - 1)

    @property
    def stddev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-safe

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return math.nan
        return self.stddev / math.sqrt(self.n)

    def ci95(self) -> tuple:
        """Normal-approximation 95% confidence interval for the mean."""
        if self.n < 2:
            return (math.nan, math.nan)
        half = 1.96 * self.stderr
        return (self._mean - half, self._mean + half)

    def __repr__(self) -> str:
        return f"RunningStats(n={self.n}, mean={self.mean:.6g})"


class ReservoirSample:
    """Fixed-size uniform sample of a stream (Vitter's algorithm R).

    Keeps an unbiased sample of everything seen so far in O(capacity)
    memory, from which percentiles of simulated response times are
    estimated.  The internal RNG is self-seeded so results are
    deterministic for a given input sequence.
    """

    __slots__ = ("capacity", "_items", "_seen", "_rng")

    def __init__(self, capacity: int = 2_000, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        import random
        self.capacity = capacity
        self._items: list = []
        self._seen = 0
        self._rng = random.Random(seed)

    def add(self, x: float) -> None:
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(x)
            return
        j = self._rng.randrange(self._seen)
        if j < self.capacity:
            self._items[j] = x

    @property
    def n_seen(self) -> int:
        return self._seen

    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100]) by linear interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._items:
            return math.nan
        ordered = sorted(self._items)
        if len(ordered) == 1:
            return ordered[0]
        position = (q / 100.0) * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def quantile_summary(self) -> dict:
        """The standard latency panel: p50 / p90 / p99."""
        return {"p50": self.percentile(50.0),
                "p90": self.percentile(90.0),
                "p99": self.percentile(99.0)}
