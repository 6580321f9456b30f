"""Measurement shared by the untraced and the traced run: the outcome of
every unit execution, and the untraced end-to-end measurement."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Dict, List

from probe import Meter
from workloads import build_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh-interpreter set-ups per run (one more, uncounted, warms the
#: bytecode cache first).  They are spread evenly over the measuring loop:
#: the probe tracks set-up less closely than it tracks the workload, so
#: set-ups bunched into one host-speed episode would all share its bias.
SETUP_RUNS = 15
CHILD_TIMEOUT_S = 120

Metrics = Dict[str, Dict[str, float]]


def metric(metrics: Metrics, name: str, value: float, unit: str) -> None:
    metrics[name] = {"value": value, "unit": unit}


def child_env() -> Dict[str, str]:
    """Environment of the fresh interpreters that time set-up: bytecode is
    cached (under ``.bench_out``), as for a user's second command, whatever
    the caller's ``PYTHONDONTWRITEBYTECODE``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_out", "pycache")
    return env


def setup_once(workload: str, seed: int) -> float:
    """Normalized set-up seconds of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_child.py"), workload,
         str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["norm"]


class Outcome:
    """What a run attempted, what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.executed = 0
        #: unit name -> every execution of it reached a verdict
        self.decided: Dict[str, bool] = {}
        self.problems: List[str] = []
        self.nondet: set = set()
        self._first: Dict[str, dict] = {}

    def record(self, unit, counters) -> None:
        """Check one execution of ``unit``; ``counters`` is None when the
        call raised."""
        self.executed += 1
        self.attempted += unit.ops
        if counters is None:
            self.failed += unit.ops
            self.decided[unit.name] = False
            return
        problems = unit.problems(counters)
        first = self._first.setdefault(unit.name, counters)
        if first != counters:
            if unit.nondet_ok:
                self.nondet.add(unit.name)
            else:
                problems.append("counters differ between repetitions "
                                "({} vs {})".format(first, counters))
        self.decided[unit.name] = (self.decided.get(unit.name, True)
                                   and bool(counters["decided"]))
        if problems:
            self.problems.extend("{}: {}".format(unit.name, p)
                                 for p in problems)
            self.failed += unit.ops

    def fail(self, unit, exc: BaseException) -> None:
        self.problems.append("{}: raised {}".format(
            unit.name, "".join(traceback.format_exception_only(
                type(exc), exc)).strip()))
        self.record(unit, None)


def run_unit(meter, unit, outcome: Outcome, call=None):
    """Time one execution of ``unit`` (or ``call``, an instrumented call of
    the same entry point); returns ``(result, measurement, counters)``,
    all None when the call raised."""
    try:
        result, measured = meter.measure(call or unit.call)
    except Exception as exc:  # a failed unit is counted, not fatal
        outcome.fail(unit, exc)
        return None, None, None
    counters = unit.summarize(result)
    outcome.record(unit, counters)
    return result, measured, counters


def central(values: List[float]) -> float:
    """Interquartile mean: the mean of the middle half (the median below
    four values).  Steadier than the median on near-normal noise, and as
    blind to the occasional outlier."""
    if len(values) < 4:
        return statistics.median(values)
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one workload."""
    setup_once(workload, seed)  # warms the bytecode cache
    units = build_units(workload, seed)
    meter = Meter()
    outcome = Outcome()
    norms: Dict[str, List[float]] = {u.name: [] for u in units}
    setups: List[float] = []
    start = perf_counter()
    passes = 0
    while True:
        for unit in units:
            __, measured, __ = run_unit(meter, unit, outcome)
            if measured is not None:
                norms[unit.name].append(measured.norm)
            elapsed = perf_counter() - start
            if (len(setups) < SETUP_RUNS
                    and elapsed * SETUP_RUNS >= seconds * len(setups)):
                setups.append(setup_once(workload, seed))
            if passes and elapsed >= seconds:
                break
        passes += 1
        if perf_counter() - start >= seconds:
            break
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once(workload, seed))
    metrics: Metrics = {}
    metric(metrics, "setup_s", statistics.median(setups), "s")
    metric(metrics, "run_s", sum(central(v) for v in norms.values() if v),
           "s")
    metric(metrics, "peak_rss_mb",
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metric(metrics, "ok_frac",
           (outcome.attempted - outcome.failed) / float(outcome.attempted),
           "fraction")
    metric(metrics, "decided_frac",
           sum(outcome.decided.values()) / float(len(outcome.decided)),
           "fraction")
    notes = ["passes: {} ({} unit executions)".format(
        passes, outcome.executed)]
    if outcome.nondet:
        notes.append("counters differ between repetitions (tolerated): "
                     + ", ".join(sorted(outcome.nondet)))
    return {"outcome": outcome, "metrics": metrics, "notes": notes}
