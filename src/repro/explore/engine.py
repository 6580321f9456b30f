"""The exploration engine: pruned stateless search over schedule space.

Because all nondeterminism flows through the scheduling policy, a run is a
pure function of its decision string.  The engine enumerates decision
strings (run a prefix, read back how many alternatives existed at each
step, queue every first-deviation sibling) exactly like the naive DFS it
replaces — but with **equivalence pruning**: a :class:`RecordingPolicy`
captures the scheduler's canonical state fingerprint before each decision
the frontier reads
(:meth:`~repro.runtime.scheduler.Scheduler.fingerprint`), and a work item
that would re-enter an already-claimed ``(state, chosen process)`` subtree
is dropped.  Interleavings that are permutations of independent steps
converge to the same canonical state, so each equivalence class is visited
once — a sleep-set/state-caching reduction in the DPOR family (see
DESIGN.md §9 for the soundness argument and its boundary).

Serial depth-first search lives here; the wave-synchronized parallel
frontier is :mod:`repro.explore.parallel`, sharing :func:`expand_record`
so both searches prune identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult

BuildAndRun = Callable[[ScriptedPolicy], RunResult]
Checker = Callable[[RunResult], List[str]]

#: A pruning key: (canonical state fingerprint, pid chosen from it).  Two
#: work items with the same key root isomorphic subtrees.
PruneKey = Tuple[int, int]


class RecordingPolicy(ScriptedPolicy):
    """A :class:`ScriptedPolicy` that additionally records, per decision,
    the canonical state fingerprint and the pid of every ready process —
    the raw material of equivalence pruning.  The scheduler invokes
    :meth:`observe_state` right before each ``choose`` (duck-typed hook).

    Only positions :func:`expand_record` can read are fingerprinted; the
    rest record ``None``.  Replayed-prefix positions are skipped (the event
    digest is still enabled at the first decision, so it covers the whole
    run).  With the search's claim set ``seen`` (read, never written),
    recording also stops after the first position whose default
    continuation ``(fingerprint, ready[0].pid)`` is claimed: ``seen`` only
    grows until this run's record is expanded, so expansion's ``break``
    fires at or before that position.  Without ``seen`` (pool workers),
    every position past the prefix is fingerprinted.
    """

    def __init__(
        self,
        decisions: Optional[Sequence[int]] = None,
        seen: Optional[Set[PruneKey]] = None,
    ) -> None:
        super().__init__(decisions)
        self.seen = seen
        self.fingerprints: List[Optional[int]] = []
        self.ready_pids: List[Optional[Tuple[int, ...]]] = []
        self._claimed = False

    def observe_state(self, sched) -> None:
        position = len(self.fingerprints)
        if position == 0:
            sched.enable_fingerprinting()
        if position < len(self.decisions) or self._claimed:
            self.fingerprints.append(None)
            self.ready_pids.append(None)
            return
        fingerprint = sched.fingerprint()
        ready = tuple(p.pid for p in sched._ready)
        self.fingerprints.append(fingerprint)
        self.ready_pids.append(ready)
        if self.seen is not None and (fingerprint, ready[0]) in self.seen:
            self._claimed = True

    def reset(self) -> None:
        super().reset()
        self.fingerprints = []
        self.ready_pids = []
        self._claimed = False


class TimedRecordingPolicy(RecordingPolicy):
    """A :class:`RecordingPolicy` that additionally accumulates the wall
    clock spent inside :meth:`observe_state` — i.e. in canonical-state
    fingerprint hashing, event-digest folding included — so harness
    telemetry can attribute fingerprint time separately from scheduler
    stepping.  Decisions are identical to the untimed policy (timing is
    passive), which is what keeps telemetry-on results byte-identical to
    telemetry-off ones."""

    fp_seconds = 0.0

    def observe_state(self, sched) -> None:
        start = perf_counter()
        super().observe_state(sched)
        self.fp_seconds += perf_counter() - start

    def reset(self) -> None:
        super().reset()
        self.fp_seconds = 0.0


def execute_schedule(
    build_and_run: BuildAndRun,
    prefix: Sequence[int],
    check: Checker,
    prune: bool,
    seen: Optional[Set[PruneKey]] = None,
    telemetry=None,
) -> RunRecord:
    """Execute one schedule and reduce it to a :class:`RunRecord`.  Every
    search builds its policy here, passing its live claim set as ``seen``
    (pool workers have none).

    With ``telemetry`` the run is clocked by phase, identically for the
    serial engine and the parallel frontier's in-process path: ``step``
    (scheduler stepping, fingerprint time subtracted), ``fingerprint``,
    ``check`` (oracle battery), ``record`` (RunRecord reduction).
    """
    recording = RecordingPolicy if telemetry is None else TimedRecordingPolicy
    policy = recording(prefix, seen) if prune else ScriptedPolicy(prefix)
    if telemetry is None:
        return RunRecord.from_run(prefix, policy, check(build_and_run(policy)))
    start = perf_counter()
    run = build_and_run(policy)
    ran = perf_counter()
    messages = check(run)
    checked = perf_counter()
    record = RunRecord.from_run(prefix, policy, messages)
    reduced = perf_counter()
    fp_seconds = getattr(policy, "fp_seconds", 0.0)
    telemetry.add("step", max(0.0, (ran - start) - fp_seconds))
    telemetry.add("fingerprint", fp_seconds)
    telemetry.add("check", checked - ran)
    telemetry.add("record", reduced - checked)
    return record


@dataclass(frozen=True)
class RunRecord:
    """Everything the frontier logic needs from one executed schedule —
    a picklable reduction of the run, so parallel workers can ship it back
    to the master without shipping the trace.

    ``fingerprints`` and ``ready_pids`` hold one entry per decision (none
    when pruning is off); entries are ``None`` inside the replayed prefix
    and after the first claimed default continuation (see
    :class:`RecordingPolicy`).  :func:`expand_record` raises if it reaches
    a ``None`` entry.
    """

    prefix: Tuple[int, ...]
    taken: Tuple[int, ...]
    branch_log: Tuple[int, ...]
    fingerprints: Tuple[int, ...]
    ready_pids: Tuple[Tuple[int, ...], ...]
    messages: Tuple[str, ...]

    @classmethod
    def from_run(
        cls,
        prefix: Sequence[int],
        policy: ScriptedPolicy,
        messages: Sequence[str],
    ) -> "RunRecord":
        return cls(
            prefix=tuple(prefix),
            taken=tuple(policy.taken),
            branch_log=tuple(policy.branch_log),
            fingerprints=tuple(getattr(policy, "fingerprints", ())),
            ready_pids=tuple(getattr(policy, "ready_pids", ())),
            messages=tuple(messages),
        )


@dataclass
class ExplorationResult:
    """Outcome of a schedule-space search.

    Attributes:
        runs: number of schedules executed.
        violations: list of (decision string, violation messages).
        exhausted: True when the whole (depth-bounded) space was covered —
            i.e. the frontier drained, even if that happened exactly at the
            run budget.
        pruned: work items skipped because their (state, choice) subtree
            was already claimed (0 when pruning is off).
        states: distinct (state, choice) subtrees claimed during the search
            (0 when pruning is off).
        witness: decisions of the first violating schedule, if any.
    """

    runs: int = 0
    violations: List[Tuple[Tuple[int, ...], List[str]]] = field(
        default_factory=list
    )
    exhausted: bool = True
    pruned: int = 0
    states: int = 0

    @property
    def witness(self) -> Optional[Tuple[int, ...]]:
        if self.violations:
            return self.violations[0][0]
        return None

    @property
    def ok(self) -> bool:
        """True when no schedule violated the property."""
        return not self.violations


def expand_record(
    record: RunRecord,
    max_depth: int,
    seen: Optional[Set[PruneKey]],
) -> Tuple[List[Tuple[int, ...]], int]:
    """First-deviation children of one executed schedule.

    With ``seen`` (pruning on), sibling items whose ``(fingerprint, pid)``
    subtree is already claimed are dropped, the default continuation's key
    is claimed at every depth, and expansion stops early when the default
    continuation re-enters a subtree some earlier item owns — everything
    deeper is a reordering of schedules explored from that item.  Returns
    ``(children, pruned_count)``.  Mutates ``seen``.
    """
    children: List[Tuple[int, ...]] = []
    pruned = 0
    horizon = min(len(record.branch_log), max_depth)
    for position in range(len(record.prefix), horizon):
        alternatives = record.branch_log[position]
        base = record.taken[:position]
        if seen is not None:
            fingerprint = record.fingerprints[position]
            ready = record.ready_pids[position]
            if fingerprint is None or ready is None:
                raise ValueError("no fingerprint recorded at position "
                                 "{}".format(position))
        for choice in range(1, alternatives):
            if seen is not None:
                key = (fingerprint, ready[choice])
                if key in seen:
                    pruned += 1
                    continue
                seen.add(key)
            children.append(base + (choice,))
        if seen is not None:
            default_key = (fingerprint, ready[record.taken[position]])
            if default_key in seen:
                # The run's own continuation from here on retraces a subtree
                # an earlier item claimed; deeper deviations live inside it.
                pruned += 1
                break
            seen.add(default_key)
    return children, pruned


class ExplorationEngine:
    """Depth-first pruned search over the schedule space of one system.

    Args:
        build_and_run: builds a *fresh* system with the given policy and
            runs it to completion, returning the :class:`RunResult`.  It
            must not share mutable state across calls.
        max_runs: schedule budget.
        max_depth: decisions beyond this depth are not branched on
            (the default choice is taken), bounding the tree width.
        prune: enable canonical-fingerprint equivalence pruning.  Requires
            the system's shared *user* state (if any) to be registered via
            :meth:`Scheduler.add_fingerprint_provider`; mechanism state is
            always captured.  Off by default for drop-in compatibility with
            the naive DFS.
        telemetry: optional :class:`~repro.obs.harness.HarnessTelemetry`
            receiving phase-attributed wall-clock accounting and progress
            counters.  Duck-typed (the explore package never imports obs):
            a sink whose class sets ``IS_NULL = True`` is normalized to
            ``None`` here, so an unobserved search executes the identical
            code path and pays only one ``is not None`` test per run.
            Telemetry is passive — results are byte-identical with or
            without it.
    """

    def __init__(
        self,
        build_and_run: BuildAndRun,
        max_runs: int = 2000,
        max_depth: int = 60,
        prune: bool = False,
        telemetry=None,
    ) -> None:
        self._build_and_run = build_and_run
        self.max_runs = max_runs
        self.max_depth = max_depth
        self.prune = prune
        if telemetry is not None and getattr(telemetry, "IS_NULL", False):
            telemetry = None
        self.telemetry = telemetry

    def explore(
        self,
        check: Checker,
        stop_at_first: bool = False,
        warm: Optional[Set[PruneKey]] = None,
    ) -> ExplorationResult:
        """Search for schedules where ``check`` reports violations.

        Args:
            check: maps a run result to violation messages (empty = ok).
            stop_at_first: return as soon as one violating schedule is
                found (used when hunting for a witness, e.g. experiment E5).
            warm: prune keys claimed by previous searches of the *same*
                system (see :class:`repro.obs.runstore.FingerprintCache`);
                mutated in place — after the search it holds the union of
                old and new claims, ready to persist.  Only meaningful
                with ``prune=True``.  ``result.states`` counts only keys
                claimed by *this* search.
        """
        result = ExplorationResult()
        frontier: List[Tuple[int, ...]] = [()]
        seen: Optional[Set[PruneKey]]
        if self.prune:
            seen = warm if warm is not None else set()
        else:
            seen = None
        preloaded = len(seen) if seen is not None else 0
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.begin(max_runs=self.max_runs, workers=1)
        while frontier:
            if result.runs >= self.max_runs:
                result.exhausted = False
                break
            prefix = frontier.pop()
            record = execute_schedule(self._build_and_run, prefix, check,
                                      self.prune, seen, telemetry)
            result.runs += 1
            if record.messages:
                result.violations.append((record.taken, list(record.messages)))
                if stop_at_first:
                    result.exhausted = not frontier
                    break
            mark = perf_counter() if telemetry is not None else 0.0
            children, pruned = expand_record(record, self.max_depth, seen)
            result.pruned += pruned
            frontier.extend(children)
            if telemetry is not None:
                telemetry.note_progress(result.runs, len(frontier),
                                        result.pruned)
                telemetry.add("collect", perf_counter() - mark)
        result.states = len(seen) - preloaded if seen is not None else 0
        if telemetry is not None:
            telemetry.finish()
        return result

    def find_schedule(self, predicate: Checker) -> Optional[Tuple[int, ...]]:
        """Return the decision string of the first schedule satisfying
        ``predicate`` (non-empty result = found), or ``None``."""
        found = self.explore(predicate, stop_at_first=True)
        return found.witness
