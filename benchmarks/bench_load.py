"""E19 — heavy-traffic saturation curves over the streaming telemetry sink.

The load observatory's three measured claims, persisted to
``BENCH_load.json``:

* **Saturation curves per mechanism.**  Throughput (ops per 1000 virtual
  ticks) and p50/p95/p99 latency (seq axis) versus client count for all
  six §5 mechanisms, swept at a fixed arrival horizon so offered load
  rises with population.  This is the measured version of the paper's
  qualitative §5.3 cost ranking — ``steps_per_op`` is the cost unit.
* **Streaming memory is O(shards × windows), never O(events).**  Two runs
  with identical sink configuration but ~4× the event volume must retain
  a near-identical number of cells (sketch buckets + window cells);
  asserted, plus an absolute ceiling derived from the configuration.
* **Sketch accuracy.**  Quantile estimates from the
  :class:`~repro.obs.streaming.QuantileSketch` must sit within its
  declared relative error of exact nearest-rank quantiles on a recorded
  reference run.

Plus the E15 gate re-check on the load workload: a swarm run with no sink
versus ``NullSink`` stays within the same <5% bound, pinning down that the
streaming subsystem added nothing to the uninstrumented hot path.
"""

from time import perf_counter

from conftest import emit, persist

from repro.load import LOAD_MECHANISMS, run_load, saturation_curve
from repro.load.engine import ShardedResource
from repro.load.arrivals import make_arrivals
from repro.obs import NullSink, QuantileSketch, StreamingSink
from repro.runtime.scheduler import Scheduler

_SWEEP = (16, 64, 256)
_REPEATS = 7


def test_e19_saturation_curves():
    curves = {}
    rows = []
    for mechanism in LOAD_MECHANISMS:
        points = saturation_curve(mechanism, _SWEEP, ops=2)
        curves[mechanism] = [p.to_dict() for p in points]
        for p in points:
            rows.append("%-14s %5d clients  %8.1f ops/ktick  %5.2f steps/op"
                        "  p50/p95/p99 %6.1f/%6.1f/%6.1f"
                        % (mechanism, p.clients, p.throughput,
                           p.steps_per_op, p.latency["p50"],
                           p.latency["p95"], p.latency["p99"]))
    persist("load", {"saturation": {
        "sweep": list(_SWEEP),
        "shards": 2,
        "ops": 2,
        "arrival": "poisson",
        "mechanisms": curves,
    }})
    emit("E19: per-mechanism saturation curves", "\n".join(rows))
    for mechanism, points in curves.items():
        assert len(points) == len(_SWEEP)
        for p in points:
            # Every client completes ops puts + ops gets, minus at most a
            # couple of daemon-truncated ops (CSP's server dies mid-serve).
            assert p["completed"] >= 2 * 2 * p["clients"] - 2, (mechanism, p)
            assert p["latency"]["p99"] >= p["latency"]["p50"]
    # The §5.3 ranking, measured: the serializer pays more per op than the
    # bare semaphore at every sweep point.
    for sem, ser in zip(curves["semaphore"], curves["serializer"]):
        assert ser["latency"]["p95"] >= sem["latency"]["p95"]


def test_e19_streaming_memory_is_bounded():
    def cells_for(ops):
        # Same swarm, same arrival process, same windows — only the event
        # volume changes (each client cycles `ops` times).
        sink = StreamingSink(window=32, max_windows=48, shard_prefix=True)
        point, sink = run_load(
            "semaphore", clients=128, ops=ops, shards=2,
            rate=0.5, sink=sink, keep_windows=False)
        return point.events, sink.memory_cells()

    small_events, small_cells = cells_for(2)
    big_events, big_cells = cells_for(8)
    assert big_events > 3.5 * small_events, "load did not actually scale"
    growth = big_cells / float(small_cells)
    # Hard configuration ceiling: every retained cell is a sketch bucket,
    # a window counter, or an in-flight entry — none scale with events.
    shards, windows, keys_per_window = 2, 48, 8
    buckets_per_sketch = 64          # generous: log-gamma span of seq deltas
    ceiling = (shards * 4 * buckets_per_sketch
               + windows * keys_per_window + 64)
    persist("load", {"memory": {
        "small": {"events": small_events, "cells": small_cells},
        "big": {"events": big_events, "cells": big_cells},
        "growth_ratio": round(growth, 3),
        "ceiling": ceiling,
    }})
    emit("E19: streaming memory bound",
         "events %d -> %d (x%.1f), cells %d -> %d (x%.2f), ceiling %d"
         % (small_events, big_events, big_events / small_events,
            small_cells, big_cells, growth, ceiling))
    # ~4x the events may fill a few more windows/buckets but must stay far
    # from linear growth and under the configuration ceiling.
    assert growth < 1.6, "cells grew with event count: x%.2f" % growth
    assert big_cells <= ceiling, (big_cells, ceiling)


def test_e19_sketch_matches_exact_quantiles():
    # A recorded reference run: spy on every sketch observation from a
    # real 200-client swarm, then compare merged sketch quantiles to the
    # exact nearest-rank quantiles of the same observations.
    rel = 0.01
    samples = []
    orig_observe = QuantileSketch.observe

    def spy(self, value, n=1):
        samples.append((id(self), value))
        return orig_observe(self, value, n)

    QuantileSketch.observe = spy
    try:
        point, sink = run_load("monitor", clients=200, ops=2, shards=2,
                               rate=1.0, seed=3, keep_windows=False)
    finally:
        QuantileSketch.observe = orig_observe

    assert point.completed > 0
    merged = sink.merged_latency("total")
    total_ids = {id(h["total"]) for h in sink.op_sketches.values()}
    exact = sorted(v for sid, v in samples if sid in total_ids)
    assert len(exact) == merged.count and exact

    errors = {}
    for q in (50, 90, 95, 99):
        rank = max(0, min(len(exact) - 1,
                          int(round(q / 100.0 * len(exact))) - 1))
        truth = exact[rank]
        est = merged.quantile(q)
        err = abs(est - truth) / truth if truth else 0.0
        errors["p%d" % q] = {"exact": truth, "sketch": round(est, 3),
                             "rel_error": round(err, 5)}
        # Declared bound is on the value axis; nearest-rank discreteness on
        # small samples adds at most one bucket width, hence 2e + slack.
        assert err <= 2 * rel + 1e-9, (q, truth, est, err)
    persist("load", {"sketch_accuracy": {
        "rel_error_declared": rel,
        "observations": len(exact),
        "quantiles": errors,
    }})
    emit("E19: sketch vs exact quantiles (%d obs)" % len(exact),
         "\n".join("%s exact %s sketch %s (err %.3f%%)"
                   % (k, v["exact"], v["sketch"], 100 * v["rel_error"])
                   for k, v in sorted(errors.items())))


def _swarm_once(sink) -> float:
    sched = Scheduler(sink=sink)
    resource = ShardedResource(sched, "semaphore", shards=2, capacity=8)
    gaps = make_arrivals("poisson", 1.0, seed=0)

    def client(j):
        impl = resource.route(j)

        def body():
            for k in range(4):
                yield from impl.put((j, k))
                yield from impl.get()
        return body

    def driver():
        for j in range(150):
            gap = next(gaps)
            if gap > 0:
                yield from sched.sleep(gap)
            sched.spawn(client(j), name="c%d" % j)

    sched.spawn(driver, name="driver")
    start = perf_counter()
    sched.run()
    return perf_counter() - start


def test_e19_null_path_overhead_under_e15_gate():
    # Bare and null-sink runs take the same code path, so time them in
    # alternation: a host speed episode then lands on both, not one block.
    bare = null = float("inf")
    for _ in range(_REPEATS):
        bare = min(bare, _swarm_once(None))
        null = min(null, _swarm_once(NullSink()))
    streaming = min(
        _swarm_once(StreamingSink(shard_prefix=True)) for _ in range(_REPEATS)
    )
    null_ratio = null / bare
    streaming_ratio = streaming / bare
    persist("load", {"overhead": {
        "bare_seconds": round(bare, 6),
        "null_sink_seconds": round(null, 6),
        "streaming_sink_seconds": round(streaming, 6),
        "null_overhead_ratio": round(null_ratio, 4),
        "streaming_overhead_ratio": round(streaming_ratio, 4),
    }})
    emit("E19: null-path overhead on the load workload",
         "bare      {:.4f}s\n"
         "null sink {:.4f}s  ({:+.1%})\n"
         "streaming {:.4f}s  ({:+.1%})".format(
             bare, null, null_ratio - 1, streaming, streaming_ratio - 1))
    assert null_ratio < 1.05, (
        "streaming subsystem must leave the uninstrumented path alone "
        "(null ratio {:.1%})".format(null_ratio - 1))
