"""E21 — harness observatory: the explorer measured like a mechanism.

The paper's method is to compare mechanisms by measuring them under
identical conditions; this bench turns that discipline on the harness
itself (the ROADMAP's "make exploration fast" prerequisite):

* **Phase tiling** — with :class:`~repro.obs.harness.HarnessTelemetry`
  attached, the per-phase wall-clock attribution must *tile* the measured
  elapsed time (sum of phases >= 90%), serial and parallel alike — the
  same conservation standard E16 holds the critical path to against the
  makespan.  An accounting that doesn't tile can hide exactly the
  bottleneck it was built to find.
* **Null-path overhead** — the disabled telemetry path
  (:class:`~repro.obs.harness.NullHarnessTelemetry`, normalized to
  ``None`` at the entry points) must stay within 5% of a plain run on the
  E14b exploration target, the same gate E15 holds the trace sink to.
  Min-of-N timing: the workload is deterministic, so the minimum is the
  noise-robust estimator.
* **Speedup attribution** — the parallel frontier's worker timeline must
  explain the observed speedup: utilization in (0, 1], oversubscription
  flagged exactly when workers exceed cpus, busy + idle tiling pool
  capacity.
* **Hotspots** — ``self_profile`` must surface a non-empty, ranked
  hotspot list over the explore hot loop (the scheduler-core refactor's
  work queue).

Everything persists to ``BENCH_harness.json``.
"""

import os
import time

from conftest import emit, persist

from repro.explore import explore_parallel, get_target
from repro.obs import HarnessTelemetry, NullHarnessTelemetry, self_profile

#: The E14b exploration target and budget (bench_exploration.py) — the
#: workload the overhead gate is defined against.
TARGET = ("fcfs_resource", "monitor")
BUDGET = dict(max_runs=20000, max_depth=80)

#: E15/E14b standard: min-of-N wall-clock over a deterministic workload.
TIMING_REPEATS = 7

#: Phase accounting must cover at least this share of measured elapsed.
TILING_FLOOR = 0.90

#: Null telemetry path must stay within this factor of a plain run.
NULL_OVERHEAD_CEILING = 1.05


def _explore(telemetry=None, workers=1, prune=True):
    target = get_target(*TARGET)
    return explore_parallel(target, workers=workers, prune=prune,
                            telemetry=telemetry, **BUDGET)


def _interleaved_min_of(repeats, *fns):
    """Min-of-``repeats`` seconds of each of ``fns``, timed in alternation
    so a host speed episode cannot land on one function's block."""
    best = [None] * len(fns)
    for __ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            seconds = time.perf_counter() - start
            if best[index] is None or seconds < best[index]:
                best[index] = seconds
    return best


def test_e21_phase_tiling_serial():
    telemetry = HarnessTelemetry()
    result = _explore(telemetry)
    assert result.exhausted
    coverage = telemetry.coverage()
    assert coverage >= TILING_FLOOR, (
        "serial phase accounting covers only {:.1%} of elapsed "
        "(floor {:.0%})".format(coverage, TILING_FLOOR))
    # Serial searches must attribute the actual work phases, not just
    # loop bookkeeping.
    for phase in ("step", "fingerprint", "check", "record", "collect"):
        assert telemetry.phase_seconds.get(phase, 0.0) > 0.0, phase
    assert telemetry.phase_seconds.get("execute") is None, (
        "no pool phase on a serial search")
    persist("harness", {"serial": telemetry.to_dict()})
    emit("E21: serial phase tiling ({}/{})".format(*TARGET),
         telemetry.render())


def test_e21_phase_tiling_parallel_attribution():
    telemetry = HarnessTelemetry()
    result = _explore(telemetry, workers=2, prune=False)
    assert result.exhausted
    coverage = telemetry.coverage()
    assert coverage >= TILING_FLOOR, (
        "parallel phase accounting covers only {:.1%} of elapsed "
        "(floor {:.0%})".format(coverage, TILING_FLOOR))

    attribution = telemetry.attribution()
    cpus = os.cpu_count() or 1
    assert attribution["oversubscribed"] == (2 > cpus)
    assert attribution["effective_workers"] == min(2, cpus)
    utilization = attribution["worker_utilization"]
    assert utilization is not None and 0.0 < utilization <= 1.0
    # Busy + idle tile pool capacity (worker lanes x execute seconds).
    capacity = attribution["execute_seconds"] * attribution["workers"]
    tiled = (attribution["worker_busy_seconds"]
             + attribution["worker_idle_seconds"])
    assert abs(tiled - capacity) <= 0.02 * max(capacity, 1e-9)
    # IPC byte accounting flows both ways.
    assert attribution["pickle_bytes_out"] > 0
    assert attribution["pickle_bytes_in"] > 0
    assert attribution["explanation"]
    # Every worker the pool forked shows up in the utilization table.
    assert len(telemetry.utilization()) == 2
    persist("harness", {"parallel": telemetry.to_dict()})
    emit("E21: parallel attribution ({}/{}, 2 workers)".format(*TARGET),
         telemetry.render())


def test_e21_null_path_overhead():
    # Warm-up (imports, pyc, allocator) outside the timed region.
    _explore()
    bare_s, null_s = _interleaved_min_of(
        TIMING_REPEATS,
        lambda: _explore(telemetry=None),
        lambda: _explore(telemetry=NullHarnessTelemetry()))
    ratio = null_s / bare_s if bare_s else 1.0
    persist("harness", {"null_overhead": {
        "bare_seconds": round(bare_s, 4),
        "null_sink_seconds": round(null_s, 4),
        "ratio": round(ratio, 4),
        "repeats": TIMING_REPEATS,
        "ceiling": NULL_OVERHEAD_CEILING,
    }})
    emit("E21: null telemetry path overhead",
         "bare {:.4f}s vs null sink {:.4f}s -> ratio {:.3f} "
         "(ceiling {})".format(bare_s, null_s, ratio,
                               NULL_OVERHEAD_CEILING))
    assert ratio <= NULL_OVERHEAD_CEILING, (
        "null telemetry path costs {:.1%} over a plain run".format(
            ratio - 1.0))


def test_e21_self_profile_hotspots():
    report = self_profile(lambda: _explore(HarnessTelemetry()), top=10)
    assert report.value.exhausted
    assert report.seconds > 0
    assert report.hotspots, "profiling an exploration must find hotspots"
    # Ranked by exclusive time, and every entry carries a location the
    # next PR can jump to.
    tottimes = [spot.tottime for spot in report.hotspots]
    assert tottimes == sorted(tottimes, reverse=True)
    assert all(":" in spot.location for spot in report.hotspots)
    persist("harness", {"self_profile": report.to_dict()})
    emit("E21: harness hotspots (cProfile over the explore loop)",
         report.render())
