"""Seeded flow-level traffic models: uniform, zipfian, bursty on/off.

Real tenant traffic is flow-structured — a few elephant flows dominate,
a long tail of mice trickles — and that structure is exactly what a flow
cache exploits. These samplers turn a seeded :class:`random.Random` into
reproducible flow-ID sequences; :mod:`repro.traffic.module_workloads`
maps flow IDs onto per-module packets.

Everything is driven by explicit RNG instances (never the global
``random`` state) so experiments replay bit-for-bit from one seed.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterator, List, Optional


class FlowSampler:
    """Base class: draws flow IDs in ``[0, n_flows)``."""

    def __init__(self, n_flows: int):
        if n_flows < 1:
            raise ValueError(f"need at least one flow, got {n_flows}")
        self.n_flows = n_flows

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def stream(self, rng: random.Random, count: int) -> Iterator[int]:
        for _ in range(count):
            yield self.sample(rng)


class UniformFlows(FlowSampler):
    """Every flow equally likely."""

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n_flows)


class ZipfFlows(FlowSampler):
    """Zipf-distributed flow popularity: P(rank r) ~ 1 / r^skew.

    ``skew=0.9`` and ``0.99`` are the classic YCSB workload shapes; the
    higher the skew, the fewer distinct flows carry most packets.
    """

    def __init__(self, n_flows: int, skew: float = 0.99):
        super().__init__(n_flows)
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.skew = skew
        weights = [1.0 / (rank ** skew) for rank in range(1, n_flows + 1)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: List[float] = []
        for w in weights:
            cumulative += w / total
            self._cdf.append(cumulative)
        self._cdf[-1] = 1.0  # guard against float round-off

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


class BurstyOnOff:
    """On/off burst gating: alternating geometric on- and off-periods.

    During an on-period every slot carries a packet; off-periods are
    silent. ``gate(rng)`` yields one boolean per slot — compose it with
    any :class:`FlowSampler` to make bursty flow traffic, or use
    :func:`arrival_times` for timestamped arrivals.
    """

    def __init__(self, mean_on: float = 16.0, mean_off: float = 4.0):
        if mean_on <= 0 or mean_off <= 0:
            raise ValueError("mean_on and mean_off must be positive")
        self.p_leave_on = 1.0 / mean_on
        self.p_leave_off = 1.0 / mean_off

    def gate(self, rng: random.Random) -> Iterator[bool]:
        on = True
        while True:
            yield on
            leave = self.p_leave_on if on else self.p_leave_off
            if rng.random() < leave:
                on = not on


def arrival_times(rng: random.Random, count: int, rate_pps: float,
                  bursts: Optional[BurstyOnOff] = None) -> List[float]:
    """``count`` arrival timestamps at ``rate_pps`` mean rate.

    Without ``bursts``: evenly spaced. With ``bursts``: slots are gated
    by the on/off process, so packets cluster into bursts while the
    long-run average rate stays ``rate_pps`` times the duty cycle.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if rate_pps <= 0:
        raise ValueError(f"rate must be positive, got {rate_pps}")
    gap = 1.0 / rate_pps
    if bursts is None:
        return [i * gap for i in range(count)]
    times: List[float] = []
    slot = 0
    gate = bursts.gate(rng)
    while len(times) < count:
        if next(gate):
            times.append(slot * gap)
        slot += 1
    return times
