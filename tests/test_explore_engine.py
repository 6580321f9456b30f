"""The exploration engine (repro.explore): equivalence pruning, the
exhausted fix, detectors, and witness minimization."""

import pytest

from repro.explore import (
    ConflictingAccessChecker,
    ExplorationEngine,
    LostWakeupChecker,
    RecordingPolicy,
    compose_checkers,
    get_target,
    minimize_witness,
)
from repro.runtime.policies import ScriptedPolicy
from repro.runtime.scheduler import Scheduler


def messages_of(result):
    return set(m for __, msgs in result.violations for m in msgs)


# ----------------------------------------------------------------------
# Pruning: soundness (same violations) and a real reduction, across the
# canonical problem battery.
# ----------------------------------------------------------------------
CANONICAL = [
    # (problem, mechanism): chosen so every space is exhaustible in-test.
    ("readers_priority", "monitor"),
    ("bounded_buffer", "monitor"),
    ("one_slot_buffer", "monitor"),
    ("fcfs_resource", "monitor"),
    ("alarm_clock", "semaphore"),
    ("staged_queue", "monitor"),
]


@pytest.mark.parametrize("problem,mechanism", CANONICAL)
def test_pruned_matches_naive_with_fewer_runs(problem, mechanism):
    target = get_target(problem, mechanism)
    naive = ExplorationEngine(
        target.runner(), max_runs=20000, max_depth=80
    ).explore(target.checker)
    pruned = ExplorationEngine(
        target.runner(), max_runs=20000, max_depth=80, prune=True
    ).explore(target.checker)

    assert naive.exhausted and pruned.exhausted
    # Strictly fewer schedules, not one distinct violation missed.
    assert pruned.runs < naive.runs, (problem, mechanism, naive.runs)
    assert messages_of(pruned) == messages_of(naive)
    assert pruned.states > 0
    assert pruned.pruned > 0


def test_pruned_search_finds_footnote3_anomaly():
    # The pruned search exhausts the Figure-1 program's space in a few
    # hundred schedules (the naive space is ~46k runs); any violation a
    # budget-capped naive search can find must already be in it.
    target = get_target("footnote3", "pathexpr")
    pruned = ExplorationEngine(
        target.runner(), max_runs=20000, max_depth=80, prune=True
    ).explore(target.checker)
    assert pruned.exhausted
    assert pruned.violations, "the footnote-3 anomaly must be reachable"
    assert all(
        "db.write" in m and "pending" in m for m in messages_of(pruned)
    )

    naive = ExplorationEngine(
        target.runner(), max_runs=3000, max_depth=80
    ).explore(target.checker)
    assert not naive.exhausted  # the naive space dwarfs this budget...
    assert pruned.runs < naive.runs  # ...which the pruned search beat
    assert messages_of(naive) <= messages_of(pruned)


def test_pruning_off_by_default_matches_legacy_explorer():
    from repro.verify.explorer import ScheduleExplorer

    target = get_target("readers_priority", "semaphore")
    legacy = ScheduleExplorer(target.runner(), max_runs=500).explore(
        target.checker
    )
    engine = ExplorationEngine(target.runner(), max_runs=500).explore(
        target.checker
    )
    assert (legacy.runs, legacy.exhausted, legacy.violations) == (
        engine.runs, engine.exhausted, engine.violations
    )
    assert legacy.pruned == 0 and legacy.states == 0


# ----------------------------------------------------------------------
# The exhausted off-by-one (satellite fix)
# ----------------------------------------------------------------------
def single_schedule_build(policy):
    # One process, no contention: branch_log is all ones, so the schedule
    # space is exactly one run and the frontier is empty after it.
    sched = Scheduler(policy=policy)

    def lone():
        yield
        yield

    sched.spawn(lone, name="L")
    return sched.run(on_deadlock="return", on_error="record")


def test_stop_at_first_on_last_schedule_reports_exhausted():
    # The legacy explorer unconditionally reported exhausted=False when
    # stop_at_first fired — even with nothing left to explore.
    engine = ExplorationEngine(single_schedule_build, max_runs=10)
    result = engine.explore(lambda run: ["always"], stop_at_first=True)
    assert result.runs == 1
    assert result.violations
    assert result.exhausted, "empty frontier at stop must mean exhausted"


def test_budget_exactly_equal_to_space_reports_exhausted():
    target = get_target("readers_priority", "monitor")
    space = ExplorationEngine(target.runner(), max_runs=20000).explore(
        target.checker
    )
    assert space.exhausted
    exact = ExplorationEngine(
        target.runner(), max_runs=space.runs
    ).explore(target.checker)
    assert exact.runs == space.runs
    assert exact.exhausted, "stopping exactly at max_runs with an empty " \
        "frontier is full coverage"
    short = ExplorationEngine(
        target.runner(), max_runs=space.runs - 1
    ).explore(target.checker)
    assert not short.exhausted


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
def unlocked_writers_build(policy):
    # Two writers touch "db" with no synchronization at all: op spans
    # overlap in most schedules.
    sched = Scheduler(policy=policy)

    def writer():
        sched.log("op_start", "db.write")
        yield
        sched.log("op_end", "db.write")

    sched.spawn(writer, name="W1")
    sched.spawn(writer, name="W2")
    return sched.run(on_deadlock="return", on_error="record")


def test_conflicting_access_checker_flags_unlocked_writes():
    races = ConflictingAccessChecker("db", writes=["write"])
    result = ExplorationEngine(unlocked_writers_build, max_runs=100).explore(
        races
    )
    assert result.violations
    assert all(
        m.startswith("conflicting access:") for m in messages_of(result)
    )


def lost_wakeup_build(policy):
    # The classic unprotected flag/park race: the waiter tests the flag,
    # loses the CPU, the waker sets the flag and signals into the void,
    # and only then does the waiter park — forever.
    sched = Scheduler(policy=policy)
    state = {"flag": False}

    def waiter():
        yield
        if not state["flag"]:
            yield from sched.park("waiting for flag", "cond flag")

    def waker():
        yield
        state["flag"] = True
        sched.log("signal", "cond flag")

    sched.spawn(waiter, name="waiter")
    sched.spawn(waker, name="waker")
    return sched.run(on_deadlock="return", on_error="record")


def test_lost_wakeup_checker_finds_missed_signal():
    detector = LostWakeupChecker()
    result = ExplorationEngine(lost_wakeup_build, max_runs=200).explore(
        detector
    )
    assert result.violations
    message = result.violations[0][1][0]
    assert message.startswith("lost wakeup: waiter")
    assert "cond flag" in message


def test_lost_wakeup_checker_ignores_real_deadlock():
    from repro.runtime.primitives import Semaphore

    def build(policy):
        # A genuine deadlock: each process holds one semaphore and wants
        # the other.  The wait-for graph explains every blocked process,
        # so no lost wakeup may be reported.
        sched = Scheduler(policy=policy)
        a = Semaphore(sched, initial=1, name="a")
        b = Semaphore(sched, initial=1, name="b")

        def one():
            yield from a.p()
            yield
            yield from b.p()

        def two():
            yield from b.p()
            yield
            yield from a.p()

        sched.spawn(one, name="one")
        sched.spawn(two, name="two")
        return sched.run(on_deadlock="return", on_error="record")

    detector = LostWakeupChecker()
    result = ExplorationEngine(build, max_runs=200).explore(detector)
    assert result.ok, messages_of(result)


def test_compose_checkers_concatenates():
    composed = compose_checkers(
        lambda run: ["first"], lambda run: [], lambda run: ["second"]
    )
    assert composed(None) == ["first", "second"]


def test_lost_wakeup_checker_in_target_battery_is_quiet():
    # Healthy mechanisms must not trip the detector anywhere in their space.
    target = get_target("one_slot_buffer", "semaphore")
    result = ExplorationEngine(
        target.runner(), max_runs=20000, prune=True
    ).explore(LostWakeupChecker())
    assert result.exhausted and result.ok


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
def test_minimizer_shrinks_footnote3_witness_to_local_minimum():
    target = get_target("footnote3", "monitor")
    found = ExplorationEngine(
        target.runner(), max_runs=5000, max_depth=60, prune=True
    ).explore(target.checker, stop_at_first=True)
    assert found.witness is not None

    shrunk = minimize_witness(target.runner(), target.checker, found.witness)
    assert shrunk.locally_minimal
    assert len(shrunk.minimized) <= len(shrunk.original)
    assert shrunk.messages, "the minimized schedule must still violate"
    assert shrunk.timeline.strip()

    def reproduces(decisions):
        run = target.build_and_run(ScriptedPolicy(list(decisions)))
        return bool(target.checker(run))

    assert reproduces(shrunk.minimized)
    # Local minimality, checked the hard way: no single deletion and no
    # single decrement still reproduces.
    dec = list(shrunk.minimized)
    for index in range(len(dec)):
        assert not reproduces(dec[:index] + dec[index + 1:])
        if dec[index] > 0:
            assert not reproduces(
                dec[:index] + [dec[index] - 1] + dec[index + 1:]
            )


def test_minimizer_rejects_non_reproducing_witness():
    target = get_target("bounded_buffer", "monitor")
    with pytest.raises(ValueError):
        minimize_witness(target.runner(), target.checker, (0, 0, 0))


def test_minimizer_trims_trailing_defaults_for_free():
    target = get_target("footnote3", "pathexpr")
    # The pathexpr anomaly fires on the all-default schedule, so any pure-
    # padding witness shrinks to the empty decision string in one test run.
    shrunk = minimize_witness(
        target.runner(), target.checker, (0,) * 12
    )
    assert shrunk.minimized == ()
    assert shrunk.tests == 1
    assert shrunk.locally_minimal


# ----------------------------------------------------------------------
# Fingerprinting plumbing
# ----------------------------------------------------------------------
def test_recording_policy_fingerprints_are_deterministic():
    target = get_target("bounded_buffer", "semaphore")
    first = RecordingPolicy([1, 0, 1])
    target.build_and_run(first)
    second = RecordingPolicy([1, 0, 1])
    target.build_and_run(second)
    assert first.fingerprints == second.fingerprints
    assert first.ready_pids == second.ready_pids
    assert len(first.fingerprints) == len(first.branch_log)
    # The replayed prefix is not fingerprinted; without a claim set every
    # later decision is.
    assert first.fingerprints[:3] == [None] * 3
    assert first.ready_pids[:3] == [None] * 3
    assert None not in first.fingerprints[3:]
    assert None not in first.ready_pids[3:]


def test_fingerprint_distinguishes_decision_paths():
    target = get_target("bounded_buffer", "semaphore")
    default = RecordingPolicy([])
    target.build_and_run(default)
    deviated = RecordingPolicy([1])
    target.build_and_run(deviated)
    assert deviated.fingerprints[0] is None
    # Compare past the deviation, where both runs fingerprint.
    assert default.fingerprints[1] != deviated.fingerprints[1]
    assert default.fingerprints[1:] != deviated.fingerprints[1:]


def test_recording_stops_after_a_claimed_continuation():
    target = get_target("bounded_buffer", "semaphore")
    full = RecordingPolicy([])
    target.build_and_run(full)
    stop = 4
    claimed = {(full.fingerprints[stop], full.ready_pids[stop][0])}
    stopped = RecordingPolicy([], seen=claimed)
    target.build_and_run(stopped)
    assert stopped.fingerprints[:stop + 1] == full.fingerprints[:stop + 1]
    assert stopped.fingerprints[stop + 1:] == (
        [None] * (len(full.fingerprints) - stop - 1))
    assert stopped.taken == full.taken
