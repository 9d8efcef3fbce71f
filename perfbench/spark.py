"""The ``sse-spark`` workload: the Fig. 14 SSE application on Spark.

The timed path is the program's data plane end to end: the pandas order
frame goes through ``createDataFrame`` (ingest), the ``applyInPandas``
transactor, and then each of the 6 analytics and 5 event operators,
every one materialised.  An operator is materialised by an aggregate
over a hash of all of its columns, so no column can be pruned away.

The session comes from the program's own bootstrap,
``jobs/_common.get_spark``.  The benchmark sets only deployment
settings before the JVM starts (master, driver memory, local and temp
directories inside the checkout, ``PYTHONPATH``); shuffle-partition
sizing stays the program's decision.

Query times are read at the reference host's speed with a
:class:`common.Gauge`, which times a calibration kernel between steps.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from pyspark.sql import functions as F

import repro.streams.sse as sse_mod
from repro.sse_app import analytics, events
from repro.sse_app.transactor import match_orders_pdf, transactions

from common import (
    ANALYTICS_OPS,
    EMPTY_ENGINE_METRICS,
    EVENTS_OPS,
    Gauge,
    Outcome,
    golden_mismatches,
    percentile,
    peak_rss_mb,
)
from tracing import Tracer, patched

#: 10 epochs at 5k orders/s over the 500 stocks of
#: ``benchmarks/bench_sse_pipeline.py``: ~54k orders, a sixth of its
#: volume.  A round costs mostly per-task overhead (200 shuffle
#: partitions per stage), not per-order work, so the smaller input keeps
#: a run within budget while still loading every operator.
N_EPOCHS = 10
RATE = 5_000.0
N_STOCKS = 500
SPARK_CORES = 4
DRIVER_MEMORY = "2g"


def configure_deployment(root: Path) -> None:
    """Deployment settings, read when the JVM starts."""
    scratch = root / ".perfbench" / "spark"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    # the launcher JVM and the driver JVM: temp files inside the checkout
    # and no hsperfdata under /tmp
    jvm_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    cores = max(1, min(SPARK_CORES, os.cpu_count() or 1))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '{jvm_opts}' "
        f"--conf spark.local.dir={scratch / 'local'} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.showConsoleProgress=false "
        "pyspark-shell"
    )


def _operators(tx):
    thresholds = tx.groupBy("stock").agg((F.avg("price") * 1.01).alias("threshold"))
    ops = {f"analytics.{op}": (lambda t, f=getattr(analytics, op): f(t)) for op in ANALYTICS_OPS}
    ops.update({f"events.{op}": (lambda t, f=getattr(events, op): f(t)) for op in EVENTS_OPS})
    ops["events.price_alarms"] = lambda t: events.price_alarms(t, thresholds)
    return ops


def _materialise(df) -> int:
    row = df.agg(F.count(F.lit(1)), F.sum(F.hash(*df.columns))).collect()[0]
    return int(row[0])


def fill_checks(tx) -> dict:
    """Materialise the transactor output and return its gate values."""
    row = tx.agg(
        F.count(F.lit(1)),
        F.sum("volume"),
        F.sum(F.round(F.col("price") * 100).cast("long")),
    ).collect()[0]
    return {"fills": int(row[0]), "volume": int(row[1] or 0), "price_cents": int(row[2] or 0)}


def timed_path(spark, pdf, tr: Tracer | None, gauge: Gauge | None = None):
    """Orders -> ingest -> transactor -> 11 operators.  Returns the gate
    outputs, the seconds of each step (ingest, then the 12 queries) and
    the (still cached) fills.  With a gauge, the kernel is timed after
    every step, and the steps are read at the reference host's speed."""
    span = tr.span if tr is not None else (lambda name: nullcontext())
    out = {"orders": len(pdf), "rows": {}}
    step_s = []
    t0 = time.perf_counter()
    with span("ingest"):
        orders = spark.createDataFrame(pdf)
    step_s.append(time.perf_counter() - t0)
    if gauge is not None:
        step_s[-1] /= gauge.step_done()
    t0 = time.perf_counter()
    with span("transactor"):
        tx = transactions(orders).cache()
        out.update(fill_checks(tx))
    step_s.append(time.perf_counter() - t0)
    if gauge is not None:
        step_s[-1] /= gauge.step_done()
    for name, op in _operators(tx).items():
        t0 = time.perf_counter()
        with span(name):
            out["rows"][name] = _materialise(op(tx))
        step_s.append(time.perf_counter() - t0)
        if gauge is not None:
            step_s[-1] /= gauge.step_done()
    return out, step_s, tx


def warm_up(spark, pdf) -> None:
    """One pass of the timed path, untimed and unchecked, to load classes,
    start the Python workers and compile the queries.  It runs with one
    shuffle partition per core, so it costs a fraction of a timed round;
    the program's own partition count is restored before timing."""
    key = "spark.sql.shuffle.partitions"
    program_value = spark.conf.get(key)
    spark.conf.set(key, str(spark.sparkContext.defaultParallelism))
    try:
        timed_path(spark, pdf, None)[2].unpersist()
    finally:
        spark.conf.set(key, program_value)


def _reference_checks(ref) -> dict:
    return {
        "fills": len(ref),
        "volume": int(ref["volume"].sum()),
        "price_cents": int((ref["price"] * 100).round().astype("int64").sum()),
    }


class PathRunner:
    """Runs rounds of the timed path and checks each one's outputs."""

    def __init__(self, spark, pdf, golden: dict | None) -> None:
        self.spark, self.pdf, self.golden = spark, pdf, golden
        if golden is None:
            print("[sse-spark] no golden values for this seed; checking the "
                  "single-threaded reference and determinism only", file=sys.stderr)
        self.outcome = Outcome()
        self.first: dict | None = None
        self.reference: dict | None = None

    def round(self, gauge: Gauge, tr: Tracer | None = None, keep: bool = False):
        """One round; returns (the seconds of each step at the reference
        host's speed, fills or None)."""
        n_ops = 1 + len(ANALYTICS_OPS) + len(EVENTS_OPS)
        self.outcome.attempted += n_ops
        try:
            out, step_s, tx = timed_path(self.spark, self.pdf, tr, gauge)
        except Exception:  # a crashing query fails the whole round
            traceback.print_exc(file=sys.stderr)
            self.outcome.failed += n_ops
            return None
        self.outcome.failed += len(self._check(out))
        if not keep:
            tx.unpersist()
            tx = None
        return step_s, tx

    def _check(self, out: dict) -> set[str]:
        """Names of the queries whose output failed the gate."""
        bad: set[str] = set()
        fills = {k: out[k] for k in ("orders", "fills", "volume", "price_cents")}
        checks = [("golden", self.golden), ("first round", self.first)]
        if self.reference is not None:
            checks.append(("single-threaded matching", {"orders": out["orders"], **self.reference}))
        for label, exp in checks:
            if exp is None:
                continue
            errs = golden_mismatches({k: exp[k] for k in fills}, fills)
            for err in errs:
                print(f"[sse-spark/transactor] {label}: {err}", file=sys.stderr)
            if errs:
                bad.add("transactor")
            for name, n in out["rows"].items():
                if "rows" in exp and exp["rows"].get(name) != n:
                    print(f"[sse-spark/{name}] {label}: expected {exp['rows'].get(name)} rows, "
                          f"got {n}", file=sys.stderr)
                    bad.add(name)
        if self.first is None:
            self.first = out
        return bad


def start(root: Path):
    """The program's Spark bootstrap, plus quiet logging."""
    configure_deployment(root)
    sys.path.insert(0, str(root / "jobs"))
    from _common import get_spark

    spark = get_spark("perfbench-sse-spark")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session, then end the JVM and wait for it: closing its
    stdin is how PySpark tells the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = SparkContext._jvm = None


def make_orders(seed: int):
    return sse_mod.sse_orders_pdf(n_epochs=N_EPOCHS, rate=RATE, n_stocks=N_STOCKS, seed=seed)


def _setup(root: Path, seed: int, tr: Tracer | None = None):
    """Session start and order generation (three times, median)."""
    t0 = time.perf_counter()
    spark = start(root)
    session_s = time.perf_counter() - t0
    gen_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        if tr is None:
            pdf = make_orders(seed)
        else:
            with patched([(sse_mod, "sse_trace", tr.wrap("streams.sse_trace", sse_mod.sse_trace))]):
                with tr.span("streams.sse_orders_pdf"):
                    pdf = make_orders(seed)
        gen_s.append(time.perf_counter() - t0)
    return spark, pdf, session_s + statistics.median(gen_s)


def measure(root: Path, seed: int, seconds: float, golden: dict):
    """Untraced run: the end-to-end metrics."""
    spark, pdf, setup_s = _setup(root, seed)
    try:
        runner = PathRunner(spark, pdf, golden.get(str(seed)))
        runner.reference = _reference_checks(match_orders_pdf(pdf))
        t0 = time.perf_counter()
        warm_up(spark, pdf)
        setup_s += time.perf_counter() - t0
        path_s, query_s = [], []
        start_t = time.perf_counter()
        n, last_s = 0, 0.0
        # start another round only if one as long as the last still fits
        while n == 0 or time.perf_counter() - start_t + last_s <= seconds:
            t0 = time.perf_counter()
            r = runner.round(Gauge())
            last_s = time.perf_counter() - t0
            n += 1
            if r is None:
                break
            path_s.append(sum(r[0]))
            query_s.extend(r[0][1:])
        rss = peak_rss_mb()
    finally:
        stop(spark)
    if not path_s:
        return runner.outcome, {}
    p = statistics.median(path_s)
    return runner.outcome, {
        "setup_s": (setup_s, "s"),
        "epochs_per_s": (N_EPOCHS / p, "1/s"),
        "orders_per_s": (len(pdf) / p, "1/s"),
        "round_ms_mean": (statistics.fmean(query_s) * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def _partition_stats(tx) -> tuple[int, float]:
    n = tx.rdd.getNumPartitions()
    used = tx.select(F.spark_partition_id().alias("p")).distinct().count()
    return n, (n - used) / n if n else 0.0


def _same_multiset(a, b) -> bool:
    cols = sorted(a.columns)
    if sorted(b.columns) != cols:
        return False
    rows = lambda df: sorted(df[cols].itertuples(index=False, name=None))  # noqa: E731
    return rows(a) == rows(b)


def measure_traced(root: Path, seed: int, seconds: float, golden: dict):
    tr = Tracer()
    spark, pdf, _ = _setup(root, seed, tr)
    try:
        runner = PathRunner(spark, pdf, golden.get(str(seed)))
        t0 = time.perf_counter()
        ref = match_orders_pdf(pdf)  # the single-threaded baseline
        single_s = time.perf_counter() - t0
        runner.reference = _reference_checks(ref)
        warm_up(spark, pdf)
        gauge = Gauge()
        with tr.span("path"):
            traced = runner.round(gauge, tr, keep=True)
        if traced is None:
            return runner.outcome, {}
        tx = traced[1]
        n_part, empty_frac = _partition_stats(tx)
        runner.outcome.attempted += 1
        if not _same_multiset(tx.toPandas(), ref):
            print("[sse-spark] Spark fills differ from single-threaded matching",
                  file=sys.stderr)
            runner.outcome.failed += 1
        tx.unpersist()
        shuffle = int(spark.conf.get("spark.sql.shuffle.partitions"))
    finally:
        stop(spark)

    path_s = tr.total_s("path") - gauge.gap_s
    op_names = [f"analytics.{op}" for op in ANALYTICS_OPS] + [f"events.{op}" for op in EVENTS_OPS]
    layers_s = tr.total_s("ingest") + tr.total_s("transactor") + sum(tr.total_s(n) for n in op_names)
    unaccounted = (path_s - layers_s) / path_s
    if abs(unaccounted) > 0.1:
        print(f"[sse-spark] layer times leave {unaccounted:.1%} of the path unaccounted",
              file=sys.stderr)
        runner.outcome.failed += 1
    rows = runner.first["rows"]
    metrics = {
        "streams.trace_s": (statistics.median(s.duration_s for s in tr.named("streams.sse_trace")), "s"),
        "streams.orders_s": (statistics.median(s.self_s for s in tr.named("streams.sse_orders_pdf")), "s"),
        **EMPTY_ENGINE_METRICS,
        "ingest.s": (tr.total_s("ingest"), "s"),
        "transactor.s": (tr.total_s("transactor"), "s"),
        "transactor.orders_in": (len(pdf), "count"),
        "transactor.fills_out": (runner.first["fills"], "count"),
        "transactor.partitions": (n_part, "count"),
        "transactor.empty_partition_frac": (empty_frac, "ratio"),
        "transactor.single_thread_orders_per_s": (len(pdf) / single_s, "1/s"),
        "spark.shuffle_partitions": (shuffle, "count"),
        "tracing.epochs_per_s": (N_EPOCHS / sum(traced[0]), "1/s"),
        "tracing.orders_per_s": (len(pdf) / sum(traced[0]), "1/s"),
        "tracing.unaccounted_frac": (unaccounted, "ratio"),
    }
    for name in op_names:
        metrics[f"{name}.s"] = (tr.total_s(name), "s")
        metrics[f"{name}.rows"] = (rows[name], "count")
    return runner.outcome, metrics


def record(root: Path, seeds) -> dict:
    """Golden outputs per seed, from one session."""
    spark = start(root)
    try:
        out = {}
        for seed in seeds:
            res, _, tx = timed_path(spark, make_orders(seed), None)
            tx.unpersist()
            out[str(seed)] = res
        return out
    finally:
        stop(spark)
