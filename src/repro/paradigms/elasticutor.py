"""The Elasticutor paradigm (§2.3–§4): elastic executors + dynamic
scheduler.

Every epoch the control plane:

1. measures per-executor demand λ_j (arrivals + backlog) and service
   rate μ_j, and runs the §4.1 model-based allocator for the target
   core counts ``k`` (capped proportionally when the cluster is
   saturated — backpressure territory);
2. maps physical cores to executors with Algorithm 1 (§4.2), minimising
   state-migration cost under the computation-locality constraint —
   the wall-clock of steps 1–2 is the *scheduling time* of Table 3;
3. applies the new assignment along one rebuild path (an unchanged
   assignment maps every task to itself): the task list is rebuilt per
   executor and node, orphaned shards are re-homed, and the
   intra-executor load balancer (§3.1) restores δ < θ in every executor
   not already below it.  Every shard move is charged the
   §3.3 protocol cost: a 2 ms sync pause, plus state migration only
   when the shard crosses nodes (intra-process state sharing makes
   same-node moves free).

:class:`NaiveECSim` (in :mod:`repro.paradigms.naive_ec`) swaps step 2
for the cost-and-locality-blind assignment.
"""
from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core import shards as shard_hash
from repro.core.assignment import AssignmentResult, assign_cores
from repro.core.load_balancer import rebalance
from repro.core.scheduler import allocate_cores
from repro.engine.metrics import EpochMetrics
from repro.engine.simulator import BaseSim, OpRuntime
from repro.substrate.topology import OperatorSpec

_EPS = 1e-12


class ElasticutorSim(BaseSim):
    """Full Elasticutor: elastic executors + model-based scheduler."""

    name = "elasticutor"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._gslice: dict[str, slice] = {}
        self._Xg: np.ndarray | None = None
        self._lam_ewma: np.ndarray | None = None

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _init_layout(self, op: OperatorSpec, n_keys: int) -> OpRuntime:
        y, z = op.n_executors, op.shards_per_executor
        homes = self._take_cores(y)  # one initial (local) core per executor
        keys = np.arange(n_keys)
        return OpRuntime(
            op=op,
            key_to_shard=np.asarray(shard_hash.global_shard(keys, y, z), dtype=np.int64),
            tasks_node=homes.copy(),
            tasks_exec=np.arange(y, dtype=np.int64),
            shard_assign=np.repeat(np.arange(y, dtype=np.int64), z),
            exec_home=homes,
        )

    def setup(self, n_keys: int) -> None:
        wanted = sum(op.n_executors for op in self.topology.operators)
        if wanted > self.spec.total_cores:
            raise ValueError(
                f"{wanted} executors need at least one core each but the "
                f"cluster has {self.spec.total_cores}"
            )
        super().setup(n_keys)
        total = 0
        for name in self._order:
            y = self.ops[name].op.n_executors
            self._gslice[name] = slice(total, total + y)
            total += y
        X = np.zeros((self.spec.n_nodes, total), dtype=np.int64)
        for name in self._order:
            rt = self.ops[name]
            for j, home in enumerate(rt.exec_home):
                X[home, self._gslice[name].start + j] += 1
        self._Xg = X

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _assign(
        self,
        epoch: int,
        k: np.ndarray,
        state_bytes: np.ndarray,
        local_node: np.ndarray,
        data_intensity: np.ndarray,
    ) -> AssignmentResult:
        cores = np.full(self.spec.n_nodes, self.spec.cores_per_node, dtype=np.int64)
        return assign_cores(
            k,
            self._Xg,
            cores,
            state_bytes,
            local_node,
            data_intensity,
            phi=self.cfg.phi_bytes_per_s,
        )

    def _elasticity(
        self, epoch: int, now_s: float, arrivals: dict[str, np.ndarray], m: EpochMetrics
    ) -> None:
        cfg, spec = self.cfg, self.spec
        M = self._Xg.shape[1]
        lams = np.zeros(M)
        mus = np.zeros(M)
        sbytes = np.zeros(M)
        local = np.zeros(M, dtype=np.int64)
        dint = np.zeros(M)
        kcur = self._Xg.sum(axis=0)
        lam0 = 0.0
        for name in self._order:
            rt = self.ops[name]
            op = rt.op
            y, z = op.n_executors, op.shards_per_executor
            gsl = self._gslice[name]
            a = np.bincount(rt.key_to_shard, weights=arrivals[name], minlength=op.total_shards)
            demand = (a + rt.queue_n + rt.resid_n).reshape(y, z).sum(axis=1)
            lams[gsl] = demand / cfg.epoch_s
            mus[gsl] = 1000.0 / op.cpu_cost_ms
            sbytes[gsl] = z * op.shard_state_bytes
            local[gsl] = rt.exec_home
            fanout = max(1, len(self.topology.downstreams(name)))
            per_tuple_bytes = op.tuple_bytes + op.selectivity * op.output_bytes * fanout
            arr_rate = a.reshape(y, z).sum(axis=1) / cfg.epoch_s
            dint[gsl] = arr_rate * per_tuple_bytes / np.maximum(kcur[gsl], 1)
            if not self.topology.upstreams(name):
                lam0 += float(arrivals[name].sum()) / cfg.epoch_s

        # EWMA-smooth the measured arrival rates (the system's metrics
        # are windowed measurements, not raw per-second noise) so the
        # allocation does not chase multinomial sampling noise.
        if self._lam_ewma is None:
            self._lam_ewma = lams
        else:
            self._lam_ewma = 0.5 * self._lam_ewma + 0.5 * lams
        lams = self._lam_ewma

        t0 = time.perf_counter()
        # The M/M/k model assumes ideal work sharing inside an executor;
        # the intra-executor balancer only guarantees max task load
        # ≤ θ·avg, so an executor with k cores sustains k·μ/θ.  Feed the
        # allocator θ-scaled demand to keep every task stable.
        lam_eff = (lams * cfg.theta).tolist()
        alloc = allocate_cores(
            max(lam0, _EPS), lam_eff, mus.tolist(), spec.total_cores, cfg.t_max_ms
        )
        k = np.asarray(alloc.cores, dtype=np.int64)
        if k.sum() > spec.total_cores:
            k = _cap_allocation(lams / mus, spec.total_cores)
        res = self._assign(epoch, k, sbytes, local, dint)
        m.sched_ms += (time.perf_counter() - t0) * 1000.0
        m.n_core_changes += int(np.abs(res.X - self._Xg).sum() // 2)
        self._apply_assignment(res.X, arrivals, m)
        self._Xg = res.X

    # ------------------------------------------------------------------
    # applying a new core-to-executor assignment
    # ------------------------------------------------------------------
    def _charge_move(
        self, rt: OpRuntime, m: EpochMetrics, shard: int, src_node: int, dst_node: int
    ) -> None:
        sync, mig = self.spec.ec_shard_reassign_ms(
            rt.op.shard_state_bytes, bool(src_node != dst_node)
        )
        rt.pause_ms[shard] += sync + mig
        m.sync_ms += sync
        if src_node != dst_node:
            m.migrated_bytes += rt.op.shard_state_bytes
        m.n_shard_moves += 1

    def _apply_assignment(
        self, X_new: np.ndarray, arrivals: dict[str, np.ndarray], m: EpochMetrics
    ) -> None:
        for name in self._order:
            Xop = X_new[:, self._gslice[name]]
            self._rebuild_operator(self.ops[name], Xop, arrivals[name], m)

    def _rebuild_operator(
        self, rt: OpRuntime, Xop: np.ndarray, in_counts: np.ndarray, m: EpochMetrics
    ) -> None:
        """Rebuild the operator's task list to match ``Xop`` (cores per
        node per executor), keeping surviving tasks' shards, re-homing
        orphans (FFD), then rebalancing each executor."""
        y, z = rt.op.n_executors, rt.op.shards_per_executor
        n_nodes = self.spec.n_nodes
        loads = self.shard_loads_ms(rt, in_counts)
        n_tj = Xop.sum(axis=0)  # tasks per executor
        if (n_tj == 0).any():
            j = int(np.argmin(n_tj))
            raise RuntimeError(f"executor {j} of {rt.op.name} left with no core")
        # New task order: executor, then node, then surviving tasks by
        # old index, then new tasks; a group is one (executor, node).
        want = Xop.T.ravel()
        group = rt.tasks_exec * n_nodes + rt.tasks_node
        order = np.argsort(group, kind="stable")
        g_old = group[order]
        have = np.bincount(group, minlength=y * n_nodes)
        rank = np.arange(len(order)) - (np.cumsum(have) - have)[g_old]
        g_start = np.cumsum(want) - want
        keep = rank < want[g_old]
        old_to_new = np.full(rt.n_tasks, -1, dtype=np.int64)
        old_to_new[order[keep]] = g_start[g_old[keep]] + rank[keep]
        g_new = np.repeat(np.arange(y * n_nodes), want)
        nodes_arr = g_new % n_nodes
        t0 = g_start[::n_nodes]  # each executor's first task
        new_assign = old_to_new[rt.shard_assign]  # -1 where the task died

        rehomed: dict[int, zip] = {}  # executor -> (shard, src, dst node)
        orphan = new_assign < 0
        if orphan.any():
            alive = ~orphan
            tl = np.bincount(new_assign[alive], weights=loads[alive], minlength=len(g_new))
            for j in np.unique(np.flatnonzero(orphan) // z).tolist():
                first, lj = int(t0[j]), loads[j * z : (j + 1) * z]
                orphans = np.flatnonzero(orphan[j * z : (j + 1) * z])
                orphans = orphans[np.argsort(-lj[orphans])]  # heaviest first
                shards = j * z + orphans
                task_loads = tl[first : first + n_tj[j]].tolist()
                dst = first + _least_loaded(task_loads, lj[orphans].tolist(), len(orphans) == z)
                src = rt.tasks_node[rt.shard_assign[shards]]
                new_assign[shards] = dst
                rehomed[j] = zip(shards.tolist(), src.tolist(), nodes_arr[dst].tolist())

        # Only executors not already below θ go to the balancer.  The
        # margin leaves a δ within rounding of θ to rebalance itself.
        tl = np.bincount(new_assign, weights=loads, minlength=len(g_new))
        top, total = np.maximum.reduceat(tl, t0), np.add.reduceat(tl, t0)
        theta = self.cfg.theta
        unbalanced = (n_tj > 1) & (total > 0) & (top * n_tj >= (1.0 - 1e-9) * theta * total)
        # Charge in executor order, re-homing first, then balancer moves:
        # the float counters and pause_ms accumulate in this order.
        for j in sorted(rehomed.keys() | set(np.flatnonzero(unbalanced).tolist())):
            for shard, src_node, dst_node in rehomed.get(j, ()):
                self._charge_move(rt, m, shard, src_node, dst_node)
            if unbalanced[j]:
                first, sl = int(t0[j]), slice(j * z, (j + 1) * z)
                loc, moves = rebalance(loads[sl], new_assign[sl] - first, int(n_tj[j]), theta)
                for mv in moves:
                    src_node, dst_node = nodes_arr[[first + mv.src, first + mv.dst]].tolist()
                    self._charge_move(rt, m, j * z + mv.shard, src_node, dst_node)
                new_assign[sl] = first + loc
        rt.tasks_node = nodes_arr
        rt.tasks_exec = g_new // n_nodes
        rt.shard_assign = new_assign


def _least_loaded(task_loads: list[float], shard_loads: list[float], truncate: bool) -> np.ndarray:
    """Place each shard in turn on the currently least-loaded task
    (lowest index on ties, as ``np.argmin``); returns the chosen tasks.

    ``truncate`` keeps a known defect, so that outputs stay
    bit-identical (see the FOUND line on re-homing in CHANGES.md): when
    none of an executor's shards survive, its task loads start as
    integer zeros and every addition is truncated to a whole
    millisecond.
    """
    heap = list(zip(task_loads, range(len(task_loads))))
    heapq.heapify(heap)
    chosen = []
    for w in shard_loads:
        load, d = heap[0]
        load += w
        heapq.heapreplace(heap, (float(int(load)) if truncate else load, d))
        chosen.append(d)
    return np.asarray(chosen, dtype=np.int64)


def _cap_allocation(weights: np.ndarray, total: int) -> np.ndarray:
    """Saturated cluster: one core per executor, the rest split
    proportionally to demand (largest-remainder rounding)."""
    m = len(weights)
    if total < m:
        raise ValueError("fewer cores than executors")
    w = np.maximum(np.asarray(weights, dtype=float), 0.0)
    w = w / w.sum() if w.sum() > 0 else np.full(m, 1.0 / m)
    extra_f = w * (total - m)
    extra = np.floor(extra_f).astype(np.int64)
    rem = int(total - m - extra.sum())
    if rem > 0:
        order = np.argsort(-(extra_f - extra), kind="stable")
        extra[order[:rem]] += 1
    return 1 + extra
