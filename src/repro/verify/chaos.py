"""Chaos exploration: fault injection composed with schedule exploration.

The exploration engine (:mod:`repro.explore`) enumerates *schedules*; a
:class:`~repro.runtime.faults.FaultPlan` injects *crashes*.  This module
composes the two: for every reachable fault point — each (victim, step)
coordinate observed in a fault-free baseline run — it re-explores the
schedule space with a kill injected there, and classifies what the
mechanism under test did about it:

* **fault-containing** — every run completes; the only casualty is the
  injected victim; no safety oracle fires.  The mechanism's crash cleanup
  (release possession, dequeue the dead, repair the semaphore network) kept
  survivors whole.
* **fault-propagating** — some survivor also died (e.g. a channel partner
  woken with :class:`PeerFailed`) or a safety property was violated.  The
  failure travelled, visibly.
* **fault-deadlocking** — some run ends with survivors blocked forever
  (``RunResult.deadlocked``); the wait-for graph names the dead process
  holding what they wait for.  The classic example: a raw semaphore permit
  lost with its holder.
* **step-limited** — the run hit the step budget while still runnable:
  survivors were making progress but never finished inside the budget
  (livelock territory).  A budget cutoff with *nothing* runnable is not
  progress at all — it is a wedge churning behind timers, and classifies
  as fault-deadlocking.

:func:`robustness_report` runs one representative scenario per mechanism
(all six of the paper's evaluation subjects plus the robust-semaphore
variant) and renders the containment table shown by
``python -m repro robustness``.  The *recovery* layer
(:mod:`repro.verify.recovery`) runs the same kill campaigns
(:func:`explore_kills`) over supervised scenarios with its own outcome
labels (``recovered``/``degraded``/…); the cell tally, explore loop and
search live in :mod:`repro.verify.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core import ascii_table
from ..runtime.faults import FaultPlan
from ..runtime.policies import ScriptedPolicy
from ..runtime.scheduler import Scheduler
from ..runtime.trace import RunResult
from .campaign import (MISSED, Campaign, Cell, Classify, Vocabulary,
                       explore_cell)

#: A builder runs one *fresh* system under (policy, fault plan) and returns
#: the result; it must use ``on_deadlock="return"`` / ``on_error="record"``
#: (and ideally ``on_steplimit="return"`` — the explorer tolerates a raised
#: :class:`StepLimitExceeded`, but the synthetic result it reconstructs
#: carries only the diagnostic tail of the trace).
ChaosBuilder = Callable[[ScriptedPolicy, Optional[FaultPlan]], RunResult]
Checker = Callable[[RunResult], List[str]]

CONTAINING = "fault-containing"
PROPAGATING = "fault-propagating"
DEADLOCKING = "fault-deadlocking"
STEP_LIMITED = "step-limited"

#: Worst first: one deadlocking schedule outranks any number of contained
#: ones.
VOCABULARY = Vocabulary(
    precedence=(DEADLOCKING, PROPAGATING, STEP_LIMITED, CONTAINING),
    columns=(("contained", CONTAINING), ("propagated", PROPAGATING),
             ("deadlocked", DEADLOCKING), ("step_limited", STEP_LIMITED)),
)
#: Decisions beyond this depth take the default choice.
MAX_DEPTH = 40


@dataclass(frozen=True)
class FaultPoint:
    """One kill coordinate: victim ``process`` at its ``step``-th step."""

    process: str
    step: int

    def describe(self) -> str:
        return "kill {} at step {}".format(self.process, self.step)


def kill_plan(points: Sequence[FaultPoint]) -> FaultPlan:
    """A :class:`FaultPlan` scripting every kill in ``points``."""
    plan = FaultPlan()
    for point in points:
        plan.kill(point.process, at_step=point.step)
    return plan


def classify_run(
    run: RunResult, victim: str, check: Optional[Checker] = None
) -> Tuple[str, List[str]]:
    """Classify one faulted run; returns (label, oracle violations).

    ``"missed"`` means the kill never fired in this schedule (the victim
    finished first) — the run does not count toward the verdict.

    A step-budget cutoff is *not* one label: with processes still runnable
    the system was making progress (``step-limited``, livelock territory);
    with nothing runnable it was churning timers behind a wedge, which is
    indistinguishable from deadlock for every survivor and classifies as
    such.  Checked first — a truncated run proves nothing about misses or
    containment.
    """
    if run.step_limited:
        if not run.ready:
            return DEADLOCKING, []
        return STEP_LIMITED, []
    failures = run.failed()
    if victim not in failures:
        return MISSED, []
    if run.deadlocked:
        return DEADLOCKING, []
    extra = [name for name in failures if name != victim]
    messages = list(check(run)) if check is not None else []
    if extra or messages:
        return PROPAGATING, messages
    # Not deadlocked and nobody else died: every surviving non-daemon ran
    # to completion (the scheduler cannot end otherwise).
    return CONTAINING, []


def fault_points(baseline: RunResult, victim: str) -> List[FaultPoint]:
    """One fault point per step ``victim`` takes in a fault-free
    ``baseline`` run (the coordinate space ``RunResult.proc_steps``
    records)."""
    steps = baseline.proc_steps.get(victim, 0)
    return [FaultPoint(victim, s) for s in range(steps)]


def enumerate_fault_points(
    build: ChaosBuilder, victim: str
) -> List[FaultPoint]:
    """Fault points for ``victim`` in a fault-free FIFO run of ``build``."""
    return fault_points(build(ScriptedPolicy([]), None), victim)


def explore_kills(
    name: str,
    build: ChaosBuilder,
    victim: str,
    vocabulary: Vocabulary,
    classify: Classify,
    max_depth: int,
    max_runs_per_point: int,
    max_points: Optional[int],
) -> Campaign:
    """A kill campaign: one cell per fault point of ``victim`` (the first
    ``max_points`` of them), each a fresh kill plan explored over
    ``max_runs_per_point`` schedules."""
    points = enumerate_fault_points(build, victim)[:max_points]
    result = Campaign(name=name, vocabulary=vocabulary, victim=victim)
    for point in points:
        plan = kill_plan([point])
        result.outcomes.append(explore_cell(
            Cell(point.describe(), vocabulary),
            lambda policy, plan=plan: build(policy, plan),
            classify, max_runs_per_point, max_depth,
        ))
    return result


def kill_table(results: List[Campaign], vocabulary: Vocabulary,
               first: str, title: str) -> str:
    """One row per kill campaign: fault points, runs, label counts and the
    verdict."""
    rows = [
        [res.name, str(len(res.outcomes)), str(res.runs)]
        + [str(n) for n in res.tally().values()]
        + [res.classification]
        for res in results
    ]
    return ascii_table(
        [first, "fault points", "runs"] + vocabulary.headers
        + ["classification"],
        rows, title=title,
    )


def chaos_explore(
    name: str,
    build: ChaosBuilder,
    victim: str,
    check: Optional[Checker] = None,
    max_runs_per_point: int = 25,
    max_points: Optional[int] = None,
) -> Campaign:
    """Inject a kill at every reachable fault point; explore schedules.

    For each :class:`FaultPoint` a fresh :class:`FaultPlan` kills ``victim``
    at that step, and the exploration engine (budget
    ``max_runs_per_point``) varies the interleaving around the crash.  Every
    run is classified via :func:`classify_run` and aggregated.
    """
    return explore_kills(
        name, build, victim, VOCABULARY,
        lambda run: classify_run(run, victim, check),
        MAX_DEPTH, max_runs_per_point, max_points,
    )


# ----------------------------------------------------------------------
# Representative per-mechanism scenarios (the robustness report)
# ----------------------------------------------------------------------
def _sem_scenario(crash_release: bool) -> ChaosBuilder:
    """N processes use Semaphore(1) as a lock around a critical region."""
    from ..runtime.primitives import Semaphore

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        sem = Semaphore(
            sched, initial=1, name="s", crash_release=crash_release
        )

        def worker():
            yield from sem.p()
            sched.log("cs", "s")
            yield from sched.checkpoint()
            sem.v()

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _mutex_scenario() -> ChaosBuilder:
    from ..runtime.primitives import Mutex

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        lock = Mutex(sched, name="m")

        def worker():
            yield from lock.acquire()
            sched.log("cs", "m")
            yield from sched.checkpoint()
            lock.release()

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _monitor_scenario() -> ChaosBuilder:
    from ..mechanisms.monitor import Monitor

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        mon = Monitor(sched, name="mon")

        def worker():
            yield from mon.enter()
            sched.log("cs", "mon")
            yield from sched.checkpoint()
            mon.exit()

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _serializer_scenario() -> ChaosBuilder:
    from ..mechanisms.serializer import Serializer

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        ser = Serializer(sched, name="ser")
        q = ser.queue("q")
        crowd = ser.crowd("c")

        def worker():
            yield from ser.enter()
            yield from ser.enqueue(q, guarantee=lambda: crowd.empty)
            yield from ser.join_crowd(crowd)
            sched.log("cs", "ser")
            yield from sched.checkpoint()
            yield from ser.leave_crowd(crowd)
            ser.exit()

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _pathexpr_scenario() -> ChaosBuilder:
    from ..mechanisms.pathexpr import PathResource

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        res = PathResource(sched, "path work end", name="r")

        def body(r):
            sched.log("cs", "r.work")
            yield from sched.checkpoint()

        res.define("work", body)

        def worker():
            yield from res.invoke("work")

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _ccr_scenario() -> ChaosBuilder:
    from ..mechanisms.ccr import SharedRegion

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        cell = SharedRegion(sched, {"entries": 0}, name="v")

        def worker():
            # Unconditional region (guard None): pure mutual exclusion.  A
            # guard over crash-corrupted shared state would re-introduce an
            # application-level wedge no mechanism can contain.
            yield from cell.enter()
            cell.vars["entries"] += 1
            sched.log("cs", "v")
            yield from sched.checkpoint()
            cell.leave()

        for i in range(3):
            sched.spawn(worker, name="P{}".format(i))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _channel_scenario() -> ChaosBuilder:
    """Two rendezvous pairs; killing one peer must not wedge its partner —
    the partner is *told* (PeerFailed) instead, i.e. the fault propagates."""
    from ..mechanisms.channels import Channel

    def build(policy, plan):
        sched = Scheduler(policy=policy, preemptive=True, fault_plan=plan)
        chan_a = Channel(sched, name="a")
        chan_b = Channel(sched, name="b")

        def sender(chan):
            def body():
                yield from chan.send("msg")
                sched.log("cs", chan.name)
            return body

        def receiver(chan):
            def body():
                yield from chan.receive()
                sched.log("cs", chan.name)
            return body

        chan_a.link(sched.spawn(sender(chan_a), name="P0"))
        chan_a.link(sched.spawn(receiver(chan_a), name="P1"))
        chan_b.link(sched.spawn(sender(chan_b), name="P2"))
        chan_b.link(sched.spawn(receiver(chan_b), name="P3"))
        return sched.run(on_deadlock="return", on_error="record",
                         on_steplimit="return")

    return build


def _cs_exclusion_check(run: RunResult) -> List[str]:
    """No two ``cs`` log events may be adjacent without an intervening
    possession change — approximated here as: survivors all reached the
    critical section at most once (each worker does one pass)."""
    seen: dict = {}
    for ev in run.trace.filter(kind="cs"):
        seen[ev.pname] = seen.get(ev.pname, 0) + 1
    return [
        "{} entered the critical region {} times".format(name, count)
        for name, count in seen.items()
        if count > 1
    ]


#: (row name, builder factory, victim, oracle, expected classification)
SCENARIOS = [
    ("semaphore", lambda: _sem_scenario(False), "P0",
     _cs_exclusion_check, DEADLOCKING),
    ("semaphore+crash_release", lambda: _sem_scenario(True), "P0",
     _cs_exclusion_check, CONTAINING),
    ("mutex", _mutex_scenario, "P0", _cs_exclusion_check, CONTAINING),
    ("monitor", _monitor_scenario, "P0", _cs_exclusion_check, CONTAINING),
    ("serializer", _serializer_scenario, "P0", _cs_exclusion_check,
     CONTAINING),
    ("ccr", _ccr_scenario, "P0", _cs_exclusion_check, CONTAINING),
    ("pathexpr", _pathexpr_scenario, "P0", _cs_exclusion_check, CONTAINING),
    ("channel", _channel_scenario, "P0", None, PROPAGATING),
]


def robustness_report(
    fast: bool = False,
) -> Tuple[List[Campaign], str]:
    """Run every per-mechanism chaos scenario; return (results, table).

    ``fast`` trims the schedule budget per fault point (for CI tier-1);
    the full sweep is what ``python -m repro robustness`` shows.
    """
    budget = 6 if fast else 25
    max_points = 4 if fast else None
    results = [
        chaos_explore(name, factory(), victim, check=check,
                      max_runs_per_point=budget, max_points=max_points)
        for name, factory, victim, check, __ in SCENARIOS
    ]
    table = kill_table(
        results, VOCABULARY, "mechanism",
        "Fault containment by mechanism (one kill per point, "
        "schedules explored per point)",
    )
    return results, table


def expected_classifications() -> dict:
    """Scenario name -> the classification the fault model predicts
    (asserted by the chaos regression tests)."""
    return {name: expected for name, __, __, __, expected in SCENARIOS}
