"""The traced run: per-layer metrics of every workload.

For each workload the run makes one untraced pass and one traced pass over
the same units.  The untraced pass gives each unit's own time
(``load.<mech>.run_s``, ``campaigns.<name>.run_s``) and the base of
``trace.overhead.<workload>``.  The traced pass calls the same public entry
points with instruments attached from the benchmark side:

* explore -- ``HarnessTelemetry`` phases, a counting sink passed through
  ``ExplorationTarget.build_and_run(sink=)``, and spans around every
  schedule run and every oracle call;
* runtime / obs -- a ``StreamingSink`` subclass that times its own
  callbacks, so sink time can be taken out of scheduler time;
* campaigns -- one span per report or search.

Which end-to-end metric each per-layer metric should move:

* ``explore.fingerprint_us`` (per decision) -> ``run_s`` on
  ``explore-pruned``; no change predicted on the other two workloads.
* ``explore.{step,check,record,collect}_us`` (per schedule) -> ``run_s`` on
  ``explore-pruned``.
* ``runtime.{step,event}_us`` (sink time removed) -> ``run_s`` on every
  workload, most on ``load-swarm``.
* ``obs.sink_us`` (per event) and ``load.<mech>.run_s`` -> ``run_s`` on
  ``load-swarm``.
* ``campaigns.*`` -> ``run_s`` on ``campaigns``.
* ``startup.import_ms.*`` (``-X importtime`` self time per subpackage) ->
  ``setup_s`` on every workload.

Counts (runs, prunes, steps, events, steps per op, p99 latency in seq
ticks, memory cells) are deterministic, except where
``explore.nondet_units`` says otherwise; a speed-only change must leave
them identical.  Per-operation times are reference-host seconds (see
``probe.py``) with the probe's own time taken out pro rata; span self
times (``span.*.self_s``) and ``host.raw_run_s.*`` are raw host seconds.

The traced run also checks what an untraced run cannot afford to: the
expected verdict table against naive search wherever naive search
exhausts, that the traced phases cover at least 90% of each workload's
traced time, and the normalization self-test.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List

from expected import VIOLATING
from measure import Metrics, Outcome, child_env, metric, run_unit
from probe import Meter
from tracing import Tracer
from workloads import (EXPLORE_BUDGET, LOAD_CLIENTS, WORKLOADS, build_units,
                       explore_search, load_run, load_sink_class)

#: Lowest share of a workload's traced time its layer phases must cover.
MIN_COVERAGE = 0.9

#: Normalization self-test: host delay added to every oracle call of
#: ``SELFTEST_TARGET``, and the band the measured increase of ``run_s``
#: must fall in, as a share of delay x calls.
SELFTEST_TARGET = ("footnote3", "monitor")
SELFTEST_DELAY_S = 0.0005
SELFTEST_BAND = (0.8, 1.25)

#: Fresh interpreters timed with ``-X importtime``.
IMPORTTIME_RUNS = 3


def _per(seconds: float, count: int) -> float:
    """Microseconds per item."""
    return seconds * 1e6 / count if count else 0.0


class _Pass:
    """Per-unit times and counters of one pass."""

    def __init__(self) -> None:
        self.norm: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        self.counters: Dict[str, dict] = {}

    def add(self, unit, measured, counters) -> None:
        if measured is None:
            return
        self.norm[unit.name] = measured.norm
        self.raw[unit.name] = measured.raw
        self.counters[unit.name] = counters

    @property
    def run_s(self) -> float:
        return sum(self.norm.values())


def _true_share(measured) -> float:
    """Reference seconds per wall second of the unit, probe time removed
    pro rata (the probe samples are uniform in wall time)."""
    return measured.raw / measured.wall * measured.scale


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------
def _counting_sink():
    from repro.obs.sink import InstrumentationSink

    class CountingSink(InstrumentationSink):
        """Counts scheduler steps and logged events; records nothing."""

        def __init__(self) -> None:
            self.steps = 0
            self.events = 0

        def on_event(self, event) -> None:
            self.events += 1

        def on_step(self, proc, seq: int, time: int) -> None:
            self.steps += 1

    return CountingSink()


def _traced_explore(units, meter, tracer, outcome, untraced, metrics):
    from repro.obs.harness import HarnessTelemetry

    phases: Dict[str, float] = {}
    covered = wall = 0.0
    totals = {"runs": 0, "pruned": 0, "steps": 0, "events": 0,
              "decisions": 0, "beyond": 0}
    nondet = 0
    traced = _Pass()
    for unit in units:
        target, checker = unit.subject
        telemetry = HarnessTelemetry()
        sink = _counting_sink()

        def build_and_run(policy, target=target, sink=sink, name=unit.name):
            span = tracer.begin("explore.run", name)
            try:
                run = target.build_and_run(policy, sink=sink)
            finally:
                tracer.end(span)
            taken = len(policy.taken)
            totals["decisions"] += taken
            totals["beyond"] += max(0, taken - len(policy.decisions))
            return run

        def check(run, checker=checker, name=unit.name):
            span = tracer.begin("explore.check", name)
            try:
                return checker(run)
            finally:
                tracer.end(span)

        def call(target=target, name=unit.name, check=check,
                 build_and_run=build_and_run, telemetry=telemetry):
            span = tracer.begin("explore.search", name)
            try:
                return explore_search(target, check, build_and_run,
                                      telemetry)
            finally:
                tracer.end(span)

        result, measured, counters = run_unit(meter, unit, outcome, call)
        if measured is None:
            continue
        traced.add(unit, measured, counters)
        share = _true_share(measured)
        for phase, seconds in telemetry.phase_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + seconds * share
        covered += sum(telemetry.phase_seconds.values())
        wall += measured.wall
        totals["runs"] += result.runs
        totals["pruned"] += result.pruned
        totals["steps"] += sink.steps
        totals["events"] += sink.events
        if untraced.counters.get(unit.name, counters) != counters:
            nondet += 1
    runs = totals["runs"]
    metric(metrics, "explore.fingerprint_us",
           _per(phases.get("fingerprint", 0.0), totals["decisions"]), "us")
    for phase in ("step", "check", "record", "collect"):
        metric(metrics, "explore.{}_us".format(phase),
               _per(phases.get(phase, 0.0), runs), "us")
    metric(metrics, "explore.runs", runs, "count")
    metric(metrics, "explore.pruned", totals["pruned"], "count")
    metric(metrics, "explore.prune_ratio",
           totals["pruned"] / float(runs + totals["pruned"]), "fraction")
    metric(metrics, "explore.decisions", totals["decisions"], "count")
    metric(metrics, "explore.steps", totals["steps"], "count")
    metric(metrics, "explore.events", totals["events"], "count")
    metric(metrics, "explore.replay_tax",
           totals["decisions"] / float(max(totals["beyond"], 1)), "ratio")
    metric(metrics, "explore.nondet_units", nondet, "count")
    return traced, covered / wall


def _naive_crosscheck(units, outcome, metrics) -> None:
    """Naive search against the expected verdicts: where naive search
    exhausts its budget its verdict must be the truth, and any violation it
    finds must be a real one."""
    from repro.explore.engine import ExplorationEngine

    decided = 0
    for unit in units:
        target, checker = unit.subject
        pair = (target.problem, target.mechanism)
        result = ExplorationEngine(
            target.runner(), max_runs=EXPLORE_BUDGET, prune=False,
        ).explore(checker, stop_at_first=True)
        found = bool(result.violations)
        decided += result.exhausted or found
        if found != (pair in VIOLATING) and (found or result.exhausted):
            outcome.problems.append(
                "{}: naive search disagrees with the expected verdict "
                "(found={}, exhausted={})".format(unit.name, found,
                                                  result.exhausted))
    metric(metrics, "explore.naive_decided", decided, "count")


def _selftest(units, meter, outcome) -> str:
    """Add a fixed host delay to every oracle call of one target: ``run_s``
    must rise by about delay x calls, so the probe never absorbs a
    program slowdown."""
    name = "{}/{}".format(*SELFTEST_TARGET)
    unit = next(u for u in units if u.name == name)
    target, checker = unit.subject
    calls = [0]

    def delayed(run):
        # Spin for SELFTEST_DELAY_S of program time: probe samples that
        # land inside the spin do not count towards it.
        calls[0] += 1
        begin = perf_counter()
        stolen = meter.stolen
        while (perf_counter() - begin) - (meter.stolen - stolen) \
                < SELFTEST_DELAY_S:
            pass
        return checker(run)

    added = expected = 0.0
    for __ in range(2):
        __, plain, __ = run_unit(meter, unit, outcome)
        calls[0] = 0
        __, slow, __ = run_unit(
            meter, unit, outcome, lambda: explore_search(target, delayed))
        if plain is None or slow is None:
            return "normalization self-test: a search raised"
        added += slow.norm - plain.norm
        expected += calls[0] * SELFTEST_DELAY_S * slow.scale
    ratio = added / expected
    low, high = SELFTEST_BAND
    note = ("normalization self-test: a delay of {:.3f} s in {} raised run_s "
            "by {:.3f} s (ratio {:.3f}, must be {}..{})".format(
                expected, name, added, ratio, low, high))
    if not low <= ratio <= high:
        outcome.problems.append(note)
    return note


# ----------------------------------------------------------------------
# load-swarm
# ----------------------------------------------------------------------
def _timed_sink_class():
    base = load_sink_class()

    class TimedStreamingSink(base):
        """The benchmark's load sink, timing its callbacks."""

        def __init__(self) -> None:
            super().__init__()
            self.sink_seconds = 0.0
            self.calls = 0

        def on_event(self, event) -> None:
            start = perf_counter()
            base.on_event(self, event)
            self.sink_seconds += perf_counter() - start
            self.calls += 1

        def on_step(self, proc, seq, time) -> None:
            start = perf_counter()
            base.on_step(self, proc, seq, time)
            self.sink_seconds += perf_counter() - start

        def on_probe(self, category, obj, value, seq, time) -> None:
            start = perf_counter()
            base.on_probe(self, category, obj, value, seq, time)
            self.sink_seconds += perf_counter() - start

    return TimedStreamingSink


def _traced_load(units, meter, tracer, outcome, untraced, metrics):
    sink_class = _timed_sink_class()
    runtime = sink = covered = wall = 0.0
    steps = events = calls = cells = shortfall = 0
    traced = _Pass()
    for unit in units:
        mech, seed = unit.subject
        timed = sink_class()

        def call(mech=mech, seed=seed, timed=timed, name=unit.name):
            span = tracer.begin("load.run", name)
            try:
                return load_run(mech, seed, sink=timed)
            finally:
                tracer.end(span)

        result, measured, counters = run_unit(meter, unit, outcome, call)
        if measured is None:
            continue
        traced.add(unit, measured, counters)
        point, __ = result
        share = _true_share(measured)
        runtime += (point.wall_seconds - timed.sink_seconds) * share
        sink += timed.sink_seconds * share
        covered += point.wall_seconds
        wall += measured.wall
        steps += point.steps
        events += point.events
        calls += timed.calls
        cells += point.memory_cells
        shortfall += 2 * LOAD_CLIENTS - point.completed
    metric(metrics, "runtime.step_us", _per(runtime, steps), "us")
    metric(metrics, "runtime.event_us", _per(runtime, events), "us")
    metric(metrics, "obs.sink_us", _per(sink, calls), "us")
    metric(metrics, "obs.memory_cells", cells, "count")
    # LoadPoint.completed counts op_end events; the CSP server logs its
    # last one after the final client exits, so it can fall short of the
    # operations that clients completed.
    metric(metrics, "load.completed_shortfall", shortfall, "count")
    for unit in sorted(units, key=lambda u: u.name):
        counters = untraced.counters.get(unit.name)
        if counters is None:
            continue
        prefix = "load.{}.".format(unit.name)
        metric(metrics, prefix + "run_s", untraced.norm[unit.name], "s")
        metric(metrics, prefix + "steps_per_op", counters["steps_per_op"],
               "steps/op")
        metric(metrics, prefix + "lat_p99_seq", counters["lat_p99_seq"],
               "seq")
    return traced, covered / wall


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def _traced_campaigns(units, meter, tracer, outcome, untraced, metrics):
    covered = wall = 0.0
    tried = ddmin = 0
    traced = _Pass()
    for unit in units:
        start = tracer.total_seconds("campaigns.call")

        def call(unit=unit):
            span = tracer.begin("campaigns.call", unit.name)
            try:
                return unit.call()
            finally:
                tracer.end(span)

        __, measured, counters = run_unit(meter, unit, outcome, call)
        if measured is None:
            continue
        traced.add(unit, measured, counters)
        covered += tracer.total_seconds("campaigns.call") - start
        wall += measured.wall
        if "ddmin_tests" in counters:
            tried += counters["runs"]
            ddmin += counters["ddmin_tests"]
    for unit in sorted(units, key=lambda u: u.name):
        counters = untraced.counters.get(unit.name)
        if counters is None:
            continue
        prefix = "campaigns.{}.".format(unit.name)
        metric(metrics, prefix + "run_s", untraced.norm[unit.name], "s")
        metric(metrics, prefix + "runs", counters["runs"], "count")
    metric(metrics, "campaigns.search.tried", tried, "count")
    metric(metrics, "campaigns.search.ddmin_tests", ddmin, "count")
    return traced, covered / wall


_TRACED = {
    "explore-pruned": _traced_explore,
    "load-swarm": _traced_load,
    "campaigns": _traced_campaigns,
}


# ----------------------------------------------------------------------
# startup
# ----------------------------------------------------------------------
#: Subpackages whose import self time is reported; ``top`` is ``repro``
#: and ``repro.__main__`` themselves, ``other`` every non-repro module.
IMPORT_GROUPS = ("analysis", "core", "dist", "explore", "load",
                 "mechanisms", "obs", "problems", "recover", "resilience",
                 "resources", "runtime", "verify", "top", "other")


def _import_ms(seed: int) -> Dict[str, float]:
    """Median ``-X importtime`` self time per subpackage, over fresh
    interpreters (environment as for ``setup_s``) that import
    ``repro.__main__`` and build every workload's units."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; "
            "import repro.__main__, workloads; "
            "[workloads.build_units(w, {seed}) for w in workloads.WORKLOADS]"
            ).format(src=os.path.join(os.path.dirname(here), "src"),
                     here=here, seed=seed)
    samples: Dict[str, List[float]] = {g: [] for g in IMPORT_GROUPS}
    for index in range(IMPORTTIME_RUNS + 1):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               code], env=child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        if not index:
            continue  # warms the bytecode cache
        totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us = float(fields[0])
            except ValueError:
                continue  # the header line
            module = fields[2].strip()
            parts = module.split(".")
            if parts[0] != "repro":
                group = "other"
            elif len(parts) == 1 or parts[1] == "__main__":
                group = "top"
            else:
                group = parts[1]
            if group in totals:
                totals[group] += self_us / 1000.0
        for group, value in totals.items():
            samples[group].append(value)
    return {g: statistics.median(v) for g, v in samples.items()}


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced(selected: str, seed: int, out_dir: str) -> dict:
    """Per-layer metrics of every workload, ``selected`` first."""
    tracer = Tracer()
    meter = Meter(on_sample=lambda s, e: tracer.add("host.probe", s, e))
    outcome = Outcome()
    metrics: Metrics = {}
    notes = []
    order = [selected] + [w for w in WORKLOADS if w != selected]
    for workload in order:
        units = build_units(workload, seed)
        untraced = _Pass()
        for unit in units:
            __, measured, counters = run_unit(meter, unit, outcome)
            untraced.add(unit, measured, counters)
        traced_pass, coverage = _TRACED[workload](
            units, meter, tracer, outcome, untraced, metrics)
        metric(metrics, "host.raw_run_s." + workload,
               sum(untraced.raw.values()), "s")
        metric(metrics, "trace.overhead." + workload,
               traced_pass.run_s / untraced.run_s, "ratio")
        metric(metrics, "trace.coverage." + workload, coverage, "fraction")
        if coverage < MIN_COVERAGE:
            outcome.problems.append(
                "{}: traced phases cover {:.1%} of the traced time, under "
                "{:.0%}".format(workload, coverage, MIN_COVERAGE))
        if workload == "explore-pruned":
            _naive_crosscheck(units, outcome, metrics)
            notes.append(_selftest(units, meter, outcome))
    for name, seconds in sorted(tracer.self_seconds().items()):
        metric(metrics, "span.{}.self_s".format(name), seconds, "s")
    for group, ms in _import_ms(seed).items():
        metric(metrics, "startup.import_ms." + group, ms, "ms")
    metric(metrics, "host.probe_ms",
           statistics.median(meter.readings) * 1e3, "ms")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-{}.json".format(selected))
    tracer.write_chrome(path)
    notes.append("chrome trace: {} ({} spans)".format(
        os.path.relpath(path), len(tracer.spans)))
    return {"outcome": outcome, "metrics": metrics, "notes": notes}
