"""Key-selection distributions.

The paper draws keys uniformly; :class:`HotspotKeys` adds the classic
80/20 skew, :class:`ZipfKeys` a power-law skew, and
:class:`MigratingHotspotKeys` a hot range whose center drifts over
simulated time.  Pickers accept the current simulated time in
``pick(now)`` — the stationary distributions ignore it, so legacy
``pick()`` call sites keep working and the default workload's draw
sequence is unchanged.

``hot_interval(now)`` exposes the current hot key range (when the
distribution has one) so the driver's telemetry can report the
hot-key share of the measured traffic.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["KeyPicker", "UniformKeys", "HotspotKeys", "ZipfKeys",
           "MigratingHotspotKeys", "zipf_value", "scramble_key"]

#: Multiplier of the Fibonacci-hash key scramble (2**64 / phi, odd).
_SCRAMBLE_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def scramble_key(key: int, key_space: int) -> int:
    """Deterministic permutation-ish spread of ``key`` over the space.

    Fibonacci hashing: multiply in 64-bit space, then scale the high
    bits back down.  Bijective over 2**64; over an arbitrary
    ``key_space`` it is a near-uniform spread, which is all the
    scrambled-Zipf workload needs.
    """
    hashed = (key * _SCRAMBLE_MULTIPLIER) & _MASK64
    return (hashed * key_space) >> 64


def zipf_value(u: float, key_space: int, theta: float) -> int:
    """Map a uniform ``u`` in [0, 1) to a Zipf-skewed key in
    ``[0, key_space)`` via the bounded-Pareto inverse CDF
    (density proportional to ``x**-theta`` on ``[1, key_space]``)."""
    if key_space == 1:
        return 0
    power = 1.0 - theta
    x = ((key_space ** power - 1.0) * u + 1.0) ** (1.0 / power)
    key = int(x) - 1
    return key if key < key_space else key_space - 1


class KeyPicker:
    """Interface: draw integer keys from a universe of size
    ``key_space``, optionally as a function of simulated time."""

    def __init__(self, key_space: int, rng: random.Random) -> None:
        if key_space < 1:
            raise ConfigurationError(
                f"key space must be >= 1, got {key_space}")
        self.key_space = key_space
        self.rng = rng

    def pick(self, now: float = 0.0) -> int:
        raise NotImplementedError

    def hot_interval(self, now: float = 0.0
                     ) -> Optional[Tuple[int, int]]:
        """The current hot range as ``(start, size)`` (wrapping modulo
        the key space), or None when the distribution has no hot set."""
        return None


class UniformKeys(KeyPicker):
    """Uniform keys over [0, key_space) — the paper's workload."""

    def pick(self, now: float = 0.0) -> int:
        return self.rng.randrange(self.key_space)


class HotspotKeys(KeyPicker):
    """A fraction of accesses concentrates on a fraction of the keyspace.

    With the defaults, 80% of the picks land in the first 20% of the key
    range (a contiguous hot subtree).
    """

    def __init__(self, key_space: int, rng: random.Random,
                 hot_fraction: float = 0.2,
                 hot_probability: float = 0.8) -> None:
        super().__init__(key_space, rng)
        if not 0.0 < hot_fraction < 1.0:
            raise ConfigurationError("hot_fraction must be in (0, 1)")
        if not 0.0 <= hot_probability <= 1.0:
            raise ConfigurationError("hot_probability must be in [0, 1]")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self._hot_size = max(1, int(key_space * hot_fraction))

    def pick(self, now: float = 0.0) -> int:
        if self.rng.random() < self.hot_probability:
            return self.rng.randrange(self._hot_size)
        if self._hot_size >= self.key_space:
            # Degenerate universe (key_space == 1): the whole space is
            # hot; a "cold" draw still has to stay inside it.
            return self.rng.randrange(self.key_space)
        return self._hot_size + self.rng.randrange(
            max(1, self.key_space - self._hot_size))

    def hot_interval(self, now: float = 0.0) -> Tuple[int, int]:
        return 0, self._hot_size


class ZipfKeys(KeyPicker):
    """Zipf-like power-law skew via the continuous bounded-Pareto
    inverse CDF — one uniform draw per key, no per-key tables, so it
    scales to the default 2**30 key universe.

    The hot mass sits on the low keys (a contiguous hot subtree);
    ``scramble=True`` spreads it across the space with a Fibonacci
    hash instead.
    """

    def __init__(self, key_space: int, rng: random.Random,
                 theta: float = 0.9, scramble: bool = False) -> None:
        super().__init__(key_space, rng)
        if not 0.0 < theta < 1.0:
            raise ConfigurationError("zipf theta must be in (0, 1)")
        self.theta = theta
        self.scramble = scramble

    def pick(self, now: float = 0.0) -> int:
        key = zipf_value(self.rng.random(), self.key_space, self.theta)
        if self.scramble:
            return scramble_key(key, self.key_space)
        return key

    def hot_interval(self, now: float = 0.0
                     ) -> Optional[Tuple[int, int]]:
        if self.scramble:
            return None  # the hot mass is scattered, not an interval
        # The smallest prefix holding ~80% of the mass: invert the CDF
        # at 0.8.
        return 0, max(1, zipf_value(0.8, self.key_space, self.theta) + 1)


class MigratingHotspotKeys(KeyPicker):
    """A hotspot whose center drifts across the keyspace over time.

    At simulated time ``t`` the hot range starts at
    ``(center_start + velocity * t) % 1.0`` of the key space and spans
    ``hot_fraction`` of it (wrapping).  Draw order matches
    :class:`HotspotKeys` — one uniform for the hot/cold decision, one
    ``randrange`` for the offset — so fixed-seed streams stay pinned.
    """

    def __init__(self, key_space: int, rng: random.Random,
                 hot_fraction: float = 0.2,
                 hot_probability: float = 0.8,
                 center_start: float = 0.0,
                 velocity: float = 1e-3) -> None:
        super().__init__(key_space, rng)
        if not 0.0 < hot_fraction < 1.0:
            raise ConfigurationError("hot_fraction must be in (0, 1)")
        if not 0.0 <= hot_probability <= 1.0:
            raise ConfigurationError("hot_probability must be in [0, 1]")
        if not 0.0 <= center_start < 1.0:
            raise ConfigurationError("center_start must be in [0, 1)")
        if not math.isfinite(velocity):
            raise ConfigurationError("velocity must be finite")
        self.hot_fraction = hot_fraction
        self.hot_probability = hot_probability
        self.center_start = center_start
        self.velocity = velocity
        self._hot_size = max(1, int(key_space * hot_fraction))

    def _hot_start(self, now: float) -> int:
        position = (self.center_start + self.velocity * now) % 1.0
        return int(position * self.key_space) % self.key_space

    def pick(self, now: float = 0.0) -> int:
        start = self._hot_start(now)
        if self.rng.random() < self.hot_probability:
            return (start + self.rng.randrange(self._hot_size)) \
                % self.key_space
        cold = self.key_space - self._hot_size
        if cold <= 0:
            return self.rng.randrange(self.key_space)
        return (start + self._hot_size + self.rng.randrange(cold)) \
            % self.key_space

    def hot_interval(self, now: float = 0.0) -> Tuple[int, int]:
        return self._hot_start(now), self._hot_size
