"""The two epoch-engine workloads: ``sse-ec`` and ``sse-baselines``.

Both run paradigms of the NumPy epoch engine on the Table 2 SSE
configuration (32 nodes x 8 cores, the 76-executor SSE topology, the
synthetic SSE trace at 0.55 of capacity).  A *round* sets up the inputs
and fresh simulators and runs the workload's two paradigms one after
the other on its trace; a run repeats rounds while another
one fits in the measuring time, and times each epoch of a paradigm
run by its median over the rounds.

* ``sse-ec``: naive-EC, then Elasticutor, on a 60-epoch trace.  The
  control-plane workload: the only one that runs the §4.1 allocator and
  Algorithm 1.
* ``sse-baselines``: static, then resource-centric (RC), 600 epochs.
  The data-plane workload: no allocator, no Algorithm 1, no assignment
  apply; RC uses the §3.1 balancer once per operator.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import repro.core.assignment as assignment_mod
import repro.experiments.table2 as table2_mod
import repro.paradigms.elasticutor as elasticutor_mod
import repro.paradigms.naive_ec as naive_ec_mod
import repro.paradigms.resource_centric as rc_mod
from repro.engine.simulator import BaseSim, EngineConfig
from repro.experiments.table2 import sse_engine_inputs
from repro.paradigms.elasticutor import ElasticutorSim
from repro.paradigms.naive_ec import NaiveECSim
from repro.paradigms.resource_centric import ResourceCentricSim
from repro.paradigms.static_paradigm import StaticSim

from common import (
    EMPTY_SPARK_METRICS,
    Gauge,
    Outcome,
    golden_mismatches,
    percentile,
    peak_rss_mb,
    slowdown,
)
from tracing import Tracer, patched

N_NODES = 32
WARMUP_EPOCHS = 8  # as run_table2 / run_table3
SETUP_REPEATS = 5
MIN_ROUNDS = 1


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    paradigms: tuple[type[BaseSim], ...]
    n_epochs: int


WORKLOADS = {
    # One trace per round keeps a round short (2-3 s), so that ten or so
    # rounds fit in a run and each epoch's median is taken over as many.
    "sse-ec": EngineWorkload("sse-ec", (NaiveECSim, ElasticutorSim), 60),
    "sse-baselines": EngineWorkload("sse-baselines", (StaticSim, ResourceCentricSim), 600),
}


def set_up(w: EngineWorkload, seed: int):
    """Trace generation plus engine construction: what ``setup_s`` times."""
    spec, topo, trace = sse_engine_inputs(n_nodes=N_NODES, n_epochs=w.n_epochs, seed=seed)
    cfg = EngineConfig(spec=spec, warmup_epochs=WARMUP_EPOCHS)
    return trace, [cls(topo, cfg) for cls in w.paradigms]


def set_up_s(w: EngineWorkload, seed: int) -> float:
    """Seconds of one :func:`set_up`."""
    t0 = time.perf_counter()
    set_up(w, seed)
    return time.perf_counter() - t0


def summary_outputs(result) -> dict:
    """``RunResult.summary()`` minus its one wall-clock field."""
    s = result.summary()
    return {k: v for k, v in s.items() if k not in ("paradigm", "avg_sched_ms")}


def invariant_errors(w: EngineWorkload, outs: dict) -> list[str]:
    """Paper-shape checks that hold for every seed."""
    if w.name == "sse-ec":
        n, e = outs["naive-ec"], outs["elasticutor"]
        errs = []
        for key in ("migration_rate_mbps", "remote_rate_mbps"):
            if not n[key] > 2 * e[key]:
                errs.append(f"Table 2 shape: naive-ec {key} {n[key]} <= 2 x {e[key]}")
        return errs
    s = outs["static"]
    if s["migration_rate_mbps"] != 0.0 or s["remote_rate_mbps"] != 0.0:
        return ["static moved state or created remote tasks"]
    return []


class RoundRunner:
    """Runs rounds of one workload and checks every paradigm's outputs.
    ``golden`` maps a seed (as a string) to its recorded outputs."""

    def __init__(self, w: EngineWorkload, seed: int, golden: dict) -> None:
        self.w, self.seed, self.golden = w, seed, golden.get(str(seed))
        self.first: dict | None = None
        self.outcome = Outcome()
        self.setup_s: list[float] = []
        if self.golden is None:
            print(f"[{w.name}] no golden values for seed {seed}; checking "
                  "invariants and determinism only", file=sys.stderr)

    def round(self, clock: EpochClock, tr: Tracer | None = None):
        """One round; returns (the simulators in a fixed order, None for a
        crashed run; RunResults; orders in the trace).  ``clock`` stamps
        each run's epochs; with a tracer, each run is an ``engine.run`` span."""
        span = tr.span if tr is not None else (lambda name: nullcontext())
        results, runs, outs = [], [], {}
        t0 = time.perf_counter()
        trace, sims = set_up(self.w, self.seed)
        self.setup_s.append(time.perf_counter() - t0)
        for sim in sims:
            self.outcome.attempted += 1
            clock.start(sim)
            try:
                with span("engine.run"):
                    r = sim.run(trace)
            except Exception:  # a crashing run is a failed operation
                traceback.print_exc(file=sys.stderr)
                self.outcome.failed += 1
                runs.append(None)
                continue
            clock.stop(sim)
            runs.append(sim)
            results.append(r)
            outs[r.paradigm] = summary_outputs(r)
        self._check(outs)
        return runs, results, float(trace.counts.sum())

    def _check(self, outs: dict) -> None:
        bad = set()
        where = f"{self.w.name}@{self.seed}"
        if len(outs) == len(self.w.paradigms):
            for err in invariant_errors(self.w, outs):
                print(f"[{where}] {err}", file=sys.stderr)
                bad.update(outs)
        if self.golden is not None:
            for name, got in outs.items():
                errs = golden_mismatches(self.golden[name], got)
                for err in errs:
                    print(f"[{where}/{name}] golden: {err}", file=sys.stderr)
                if errs:
                    bad.add(name)
        if self.first is None:
            self.first = outs
        for name, got in outs.items():
            if got != self.first.get(name):
                print(f"[{where}/{name}] differs between rounds", file=sys.stderr)
                bad.add(name)
        self.outcome.failed += len(bad)

    def complete(self, runs) -> bool:
        """Whether every paradigm run of a round returned."""
        return None not in runs


def _rates(w: EngineWorkload, run_s: float, orders: float) -> tuple[float, float]:
    n = len(w.paradigms)
    return n * w.n_epochs / run_s, n * orders / run_s


def _steady_sched_ms(results) -> list[float]:
    """Elasticutor's scheduling rounds, as Table 3 averages them."""
    return [
        e.sched_ms
        for r in results
        if r.paradigm == "elasticutor"
        for e in r.epochs[r.warmup:]
        if e.sched_ms > 0
    ]


class EpochClock:
    """Wall-clock stamps at the start and end of each paradigm run and at
    the start of each of its epochs (the control hook opens every epoch).
    The work between two stamps is the same in every round.  A
    :class:`common.Gauge` times the calibration kernel between runs, and
    each run's stamps are read at the reference host's speed."""

    def __init__(self) -> None:
        self.stamps: dict[BaseSim, list[float]] = {}
        self.slow: dict[BaseSim, float] = {}
        self.gauge = Gauge()

    def start(self, sim: BaseSim) -> None:
        self.stamps[sim] = [time.perf_counter()]

    def stop(self, sim: BaseSim) -> None:
        self.stamps[sim].append(time.perf_counter())
        self.slow[sim] = self.gauge.step_done()

    def clear(self) -> None:
        """Forget a round's runs."""
        self.stamps.clear()
        self.slow.clear()

    def installed(self):
        """Stamp every epoch while the ``with`` block lasts."""

        def stamped(hook):
            def run(sim, *args):
                self.stamps[sim].append(time.perf_counter())
                hook(sim, *args)

            return run

        return patched([(cls, "_elasticity", stamped(cls.__dict__["_elasticity"]))
                        for cls in (StaticSim, ElasticutorSim, ResourceCentricSim)])

    def segments(self, sim: BaseSim) -> np.ndarray:
        """Seconds of a run's set-up and of each of its epochs, in order,
        at the reference host's speed."""
        return np.diff(self.stamps[sim]) / self.slow[sim]


def _typical(rounds: list) -> np.ndarray:
    """Elementwise median of the same segments timed in several rounds."""
    return np.median(np.asarray(rounds), axis=0)


def _sched_ms_mean(clock: EpochClock, runs, results) -> float:
    """Elasticutor's mean ``sched_ms`` after warm-up, as Table 3 averages
    it, at the reference host's speed."""
    (sim, r), = [(sim, r) for sim, r in zip(runs, results) if r.paradigm == "elasticutor"]
    return statistics.fmean(_steady_sched_ms([r])) / clock.slow[sim]


def measure(name: str, seed: int, seconds: float, golden: dict) -> tuple[Outcome, dict]:
    """Untraced run: the end-to-end metrics.

    Every round repeats the same deterministic work, so each epoch of a
    paradigm run is timed by its median over the rounds, and the rates
    are the work over the sum of those medians; the round latency is the
    median over the rounds of each round's mean.  Every timing is read
    at the reference host's speed (see :class:`EpochClock`).
    """
    w = WORKLOADS[name]
    runner = RoundRunner(w, seed, golden)
    for _ in range(SETUP_REPEATS):
        runner.setup_s.append(set_up_s(w, seed))
    clock = EpochClock()
    seg_s, round_ms = [], []
    orders = 0.0
    start = time.perf_counter()
    n, last_s = 0, 0.0
    with clock.installed():
        # start another round only if one as long as the last still fits
        while n < MIN_ROUNDS or time.perf_counter() - start + last_s <= seconds:
            t0 = time.perf_counter()
            runs, results, orders = runner.round(clock)
            last_s = time.perf_counter() - t0
            n += 1
            if runner.complete(runs):
                segs = [clock.segments(sim) for sim in runs]
                seg_s.append(np.concatenate(segs))
                if w.name == "sse-ec":  # Table 3's scheduling rounds
                    round_ms.append(_sched_ms_mean(clock, runs, results))
                else:  # RC's epochs, without the run's set-up before the first
                    (rc,) = [seg for sim, seg in zip(runs, segs) if isinstance(sim, ResourceCentricSim)]
                    round_ms.append(1000.0 * float(rc[1:].mean()))
            clock.clear()
    if not seg_s:
        runner.outcome.failed = max(runner.outcome.failed, 1)
        return runner.outcome, {}
    eps, ops = _rates(w, float(_typical(seg_s).sum()), orders)
    return runner.outcome, {
        "setup_s": (statistics.median(runner.setup_s) / slowdown(clock.gauge.kernel_s), "s"),
        "epochs_per_s": (eps, "1/s"),
        "orders_per_s": (ops, "1/s"),
        "round_ms_mean": (statistics.median(round_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _instrument(tr: Tracer, counts: dict) -> list:
    """Replacements that record spans of each layer's calls in ``tr``
    and count the layers' work in ``counts``."""
    phi0 = EngineConfig().phi_bytes_per_s

    def on_assign(args, kwargs, res):
        phi = res.phi_used
        counts["phi_doublings"] += 32 if math.isinf(phi) else round(math.log2(phi / phi0))

    def on_rebalance(args, kwargs, res):
        moves = res[1]
        counts["rebalance_moves"] += len(moves)
        counts["rebalance_noop"] += not moves

    charge = ElasticutorSim.__dict__["_charge_move"]

    def counted_charge(self, rt, m, shard, src_node, dst_node):
        counts["shard_moves"] += 1
        counts["inter_node_moves"] += src_node != dst_node
        charge(self, rt, m, shard, src_node, dst_node)

    reb = tr.wrap("load_balancer.rebalance", elasticutor_mod.rebalance, on_rebalance)
    replacements = [
        (elasticutor_mod, "allocate_cores", tr.wrap("scheduler.allocate_cores", elasticutor_mod.allocate_cores)),
        (elasticutor_mod, "assign_cores", tr.wrap("assignment.assign_cores", elasticutor_mod.assign_cores, on_assign)),
        (naive_ec_mod, "assign_cores_naive", tr.wrap("assignment.assign_cores_naive", naive_ec_mod.assign_cores_naive)),
        (assignment_mod, "migration_cost_bytes", tr.wrap("assignment.migration_cost_bytes", assignment_mod.migration_cost_bytes)),
        (elasticutor_mod, "rebalance", reb),
        (rc_mod, "rebalance", reb),
        (ElasticutorSim, "_charge_move", counted_charge),
        (BaseSim, "_throttle_factor", tr.wrap("engine.data", BaseSim._throttle_factor)),
        (BaseSim, "_process_operator", tr.wrap("engine.data", BaseSim._process_operator)),
    ]
    for cls in (ElasticutorSim, ResourceCentricSim, StaticSim):
        replacements.append((cls, "_elasticity", tr.wrap("paradigms.control", cls.__dict__["_elasticity"])))
    return replacements


def _new_counts() -> dict:
    return dict.fromkeys(("phi_doublings", "rebalance_moves", "rebalance_noop",
                          "shard_moves", "inter_node_moves"), 0)


def measure_traced(name: str, seed: int, seconds: float, golden: dict) -> tuple[Outcome, dict]:
    """Traced run: the per-layer split of the first traced round.  Rounds
    repeat as in :func:`measure`, every one traced, and the rates taken
    as there against the untraced run's ``epochs_per_s``/``orders_per_s``
    are the tracing overhead.  Elasticutor's scheduling-time percentiles
    are over every traced round; the per-layer times are as measured."""
    w = WORKLOADS[name]
    runner = RoundRunner(w, seed, golden)
    tr = Tracer()

    with patched([(table2_mod, "sse_trace", tr.wrap("streams.sse_trace", table2_mod.sse_trace))]):
        for _ in range(SETUP_REPEATS):
            set_up_s(w, seed)
    trace_s = [s.duration_s for s in tr.named("streams.sse_trace")]

    clock = EpochClock()
    seg_s, sched_ms = [], []

    def traced_round(t: Tracer, c: dict):
        with patched(_instrument(t, c)), clock.installed():
            runs, res, n_orders = runner.round(clock, t)
        if runner.complete(runs):
            seg_s.append(np.concatenate([clock.segments(sim) for sim in runs]))
        clock.clear()
        sched_ms.extend(_steady_sched_ms(res))  # 52 per round on sse-ec
        return res, n_orders

    counts = _new_counts()
    start = time.perf_counter()
    results, orders = traced_round(tr, counts)
    last_s = time.perf_counter() - start
    while time.perf_counter() - start + last_s <= seconds:
        t0 = time.perf_counter()
        traced_round(Tracer(), _new_counts())
        last_s = time.perf_counter() - t0
    if not seg_s:
        runner.outcome.failed = max(runner.outcome.failed, 1)
        return runner.outcome, {}
    run_s = tr.total_s("engine.run")
    traced = _rates(w, float(_typical(seg_s).sum()), orders)

    ms = lambda spans: [s.duration_s * 1000.0 for s in spans]  # noqa: E731
    control_s = tr.total_s("paradigms.control")
    data_s = tr.total_s("engine.data")
    unaccounted = (run_s - control_s - data_s) / run_s
    if abs(unaccounted) > 0.1:
        print(f"[{name}] layer self times leave {unaccounted:.1%} of the run unaccounted",
              file=sys.stderr)
        runner.outcome.failed += 1
    epochs = [e for r in results for e in r.epochs]
    alloc = tr.named("scheduler.allocate_cores")
    n_reb = len(tr.named("load_balancer.rebalance"))
    metrics = {
        "streams.trace_s": (statistics.median(trace_s), "s"),
        "streams.orders_s": (0.0, "s"),
        "scheduler.alloc_ms_p50": (percentile(ms(alloc), 50), "ms"),
        "scheduler.rounds": (len(alloc), "count"),
        "assignment.assign_ms_p50": (percentile(ms(tr.named("assignment.assign_cores")), 50), "ms"),
        "assignment.migration_cost_ms_p50": (
            percentile(ms(tr.under("assignment.migration_cost_bytes", "assignment.assign_cores")), 50), "ms"),
        "assignment.phi_doublings": (counts["phi_doublings"], "count"),
        "load_balancer.rebalance_s": (tr.total_s("load_balancer.rebalance"), "s"),
        "load_balancer.calls": (n_reb, "count"),
        "load_balancer.moves": (counts["rebalance_moves"], "count"),
        "load_balancer.noop_frac": (counts["rebalance_noop"] / n_reb if n_reb else 0.0, "ratio"),
        "paradigms.control_s": (control_s, "s"),
        "paradigms.apply_self_s": (tr.self_total_s("paradigms.control"), "s"),
        "paradigms.shard_moves": (counts["shard_moves"], "count"),
        "paradigms.inter_node_moves": (counts["inter_node_moves"], "count"),
        "paradigms.core_changes": (sum(e.n_core_changes for e in epochs), "count"),
        "paradigms.sched_ms_p50": (percentile(sched_ms, 50), "ms"),
        "paradigms.sched_ms_p90": (percentile(sched_ms, 90), "ms"),
        "engine.data_s": (data_s, "s"),
        "engine.processed": (sum(e.processed for e in epochs), "count"),
        "engine.shed": (sum(e.shed for e in epochs), "count"),
        "engine.throttled": (sum(e.throttled for e in epochs), "count"),
        "tracing.epochs_per_s": (traced[0], "1/s"),
        "tracing.orders_per_s": (traced[1], "1/s"),
        "tracing.unaccounted_frac": (unaccounted, "ratio"),
    }
    metrics.update(EMPTY_SPARK_METRICS)
    return runner.outcome, metrics


def record(name: str, seed: int) -> dict:
    """Golden outputs of one seed: every paradigm's summary."""
    w = WORKLOADS[name]
    trace, sims = set_up(w, seed)
    return {sim.name: summary_outputs(sim.run(trace)) for sim in sims}
