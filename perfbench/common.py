"""Shared pieces of the benchmark: outcome counting, the output gate,
percentiles, memory, host-speed calibration, and the per-layer metric
names of each layer."""
from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Relative tolerance of the output gate for floating-point summaries.
#: Integers and strings must match exactly.  The engine is
#: deterministic, so on one machine the values agree bit for bit; the
#: tolerance only absorbs last-digit differences from NumPy reductions
#: dispatched to other SIMD widths.
GOLDEN_REL_TOL = 1e-9

ANALYTICS_OPS = (
    "stock_stats",
    "vwap_per_epoch",
    "moving_average",
    "composite_index",
    "trader_positions",
    "price_range",
)
EVENTS_OPS = ("price_alarms", "large_trades", "price_jumps", "volume_surges", "self_trades")

ENGINE_LAYER_METRICS = {
    "scheduler.alloc_ms_p50": "ms",
    "scheduler.rounds": "count",
    "assignment.assign_ms_p50": "ms",
    "assignment.migration_cost_ms_p50": "ms",
    "assignment.phi_doublings": "count",
    "load_balancer.rebalance_s": "s",
    "load_balancer.calls": "count",
    "load_balancer.moves": "count",
    "load_balancer.noop_frac": "ratio",
    "paradigms.control_s": "s",
    "paradigms.apply_self_s": "s",
    "paradigms.shard_moves": "count",
    "paradigms.inter_node_moves": "count",
    "paradigms.core_changes": "count",
    "paradigms.sched_ms_p50": "ms",
    "paradigms.sched_ms_p90": "ms",
    "engine.data_s": "s",
    "engine.processed": "count",
    "engine.shed": "count",
    "engine.throttled": "count",
}

SPARK_LAYER_METRICS = {
    "ingest.s": "s",
    "transactor.s": "s",
    "transactor.orders_in": "count",
    "transactor.fills_out": "count",
    "transactor.partitions": "count",
    "transactor.empty_partition_frac": "ratio",
    "transactor.single_thread_orders_per_s": "1/s",
    "spark.shuffle_partitions": "count",
    **{
        f"{layer}.{op}.{kind}": unit
        for layer, ops in (("analytics", ANALYTICS_OPS), ("events", EVENTS_OPS))
        for op in ops
        for kind, unit in (("s", "s"), ("rows", "count"))
    },
}

# A layer a workload does not run reports zero work in it.
EMPTY_ENGINE_METRICS = {k: (0, u) for k, u in ENGINE_LAYER_METRICS.items()}
EMPTY_SPARK_METRICS = {k: (0, u) for k, u in SPARK_LAYER_METRICS.items()}


@dataclass
class Outcome:
    """Operations attempted and failed (crashed or failed the gate)."""

    attempted: int = 0
    failed: int = 0


def golden_mismatches(expected: dict, got: dict) -> list[str]:
    """Keys whose value differs from the recorded golden value."""
    errs = []
    for key in sorted(set(expected) | set(got)):
        e, g = expected.get(key), got.get(key)
        if isinstance(e, float) and isinstance(g, float):
            if e == g or math.isclose(e, g, rel_tol=GOLDEN_REL_TOL, abs_tol=1e-12):
                continue
        elif e == g:
            continue
        errs.append(f"{key}: expected {e!r}, got {g!r}")
    return errs


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this (Python) process; Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Seconds of one :func:`calibration_kernel` call on the reference host, a
#: 4-vCPU Intel Xeon VM, when other tenants leave it alone.  Engine
#: timings are scaled to this speed (see :func:`slowdown`).
REFERENCE_KERNEL_S = 0.0055

_KERNEL_RNG = np.random.default_rng(12345)
_KERNEL_X = _KERNEL_RNG.random(8192)
_KERNEL_I = _KERNEL_RNG.integers(0, 8192, 8192)


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work, like the
    engine's mix but independent of the program under test."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += (i * 7) % 13
    d: dict[int, int] = {}
    for i in range(10_000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    for _ in range(20):
        c = np.cumsum(np.sort(_KERNEL_X))[_KERNEL_I]
        np.bincount(_KERNEL_I, weights=c, minlength=8192)
        np.argmax(c * _KERNEL_X)
    return time.perf_counter() - t0


def kernel_times(n: int) -> list[float]:
    return [calibration_kernel() for _ in range(n)]


def slowdown(kernel_s: list[float]) -> float:
    """How many times slower than the reference host the host ran while
    the kernel took ``kernel_s``.

    On a shared host, other tenants slow all work in this process down by
    up to 1.8x, switching within milliseconds and for stretches of up to
    minutes, so the same run can read 30% slower a minute later.  The
    kernel slows down with the program, so dividing a timing by this
    factor reads it at the reference host's speed and takes most of that
    drift out, while a change to the program still moves it in full."""
    return statistics.median(kernel_s) / REFERENCE_KERNEL_S


class Gauge:
    """The calibration kernel timed between the steps of a measurement.
    Each step is read at the reference host's speed by dividing it by the
    :func:`slowdown` from the kernel's times just before and just after
    it.  The first batch is timed when the gauge is made."""

    CALLS = 8  # per gap between steps, ~60 ms

    def __init__(self) -> None:
        self._last = kernel_times(self.CALLS)
        self.kernel_s = list(self._last)
        self.factors: list[float] = []  # one per step, in order
        self.gap_s = 0.0  # wall time spent timing the kernel after steps

    def step_done(self) -> float:
        """Time the kernel after a step; returns the step's slowdown."""
        t0 = time.perf_counter()
        before, self._last = self._last, kernel_times(self.CALLS)
        self.kernel_s.extend(self._last)
        self.factors.append(slowdown(before + self._last))
        self.gap_s += time.perf_counter() - t0
        return self.factors[-1]
