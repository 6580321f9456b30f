"""Deterministic supervision: respawn crashed processes under the scheduler.

An Erlang-style supervision tree, flattened to one level and made fully
deterministic: the :class:`Supervisor` is itself a (non-daemon) simulated
process that sleeps until a child dies, reclaims whatever the corpse held
(through a :class:`~repro.recover.leases.LeaseManager`), and respawns the
child under the *same name* after a deterministic tick-based backoff.

Restart decisions follow a :class:`RestartPolicy`:

* strategy ``"one_for_one"`` — only the dead child is restarted;
* strategy ``"escalate"``    — once the restart budget is exhausted the
  supervisor kills every remaining child and gives up (failure travels up,
  as it would to a parent supervisor);
* **max-restart intensity** — at most ``max_restarts`` restarts within a
  sliding ``window`` of virtual time (``None`` = the whole run); past the
  budget, one-for-one supervisors *give up* on further restarts (logged as
  ``restart_giveup`` — the run can still end well for the survivors, which
  the recovery classifier calls *degraded*).

Death detection needs no polling: child wrappers register a scheduler crash
cleanup that records the death and wakes the supervisor if it is parked.
Restarts are ordinary ``spawn`` calls, so a restarted incarnation is a
brand-new process (fresh pid) reusing the old name — fault-plan kills fire
once, so a scripted crash never re-kills the replacement.

Everything is replayable: deaths, backoff, and respawns are functions of the
(policy, fault plan) pair, which is what lets the chaos layer explore and
classify *recovery* the same way it explores failure.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..runtime.process import ProcessState, SimProcess
from ..runtime.scheduler import Scheduler
from .backoff import BackoffPolicy, FixedBackoff
from .leases import LeaseManager

ONE_FOR_ONE = "one_for_one"
ESCALATE = "escalate"


class RestartPolicy:
    """How a supervisor reacts to child deaths.

    Args:
        strategy: ``"one_for_one"`` (restart the dead child only) or
            ``"escalate"`` (on budget exhaustion, kill all children and
            stop supervising).
        max_restarts: restart-intensity budget (total restarts allowed
            within ``window``).
        window: sliding window of virtual time the budget applies to;
            ``None`` counts restarts over the whole run.
        backoff: deterministic delay before each respawn, as a function of
            how often *that child* has already been restarted.
    """

    def __init__(
        self,
        strategy: str = ONE_FOR_ONE,
        max_restarts: int = 3,
        window: Optional[int] = None,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        if strategy not in (ONE_FOR_ONE, ESCALATE):
            raise ValueError("unknown strategy {!r}".format(strategy))
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.strategy = strategy
        self.max_restarts = max_restarts
        self.window = window
        self.backoff = backoff or FixedBackoff(1)


class _ChildSpec:
    """Book-keeping for one supervised child."""

    __slots__ = ("name", "factory", "proc", "state", "restarts",
                 "incarnations")

    def __init__(self, name: str,
                 factory: Callable[[], Generator]) -> None:
        self.name = name
        self.factory = factory
        self.proc: Optional[SimProcess] = None
        self.state = "running"        # running | done | given_up
        self.restarts = 0             # respawns performed so far
        self.incarnations = 1


class Supervisor:
    """Respawns killed children deterministically.

    Usage::

        sup = Supervisor(sched, RestartPolicy(max_restarts=4),
                         leases=leases)
        sup.child("P0", worker)        # worker: zero-arg generator function
        sup.child("P1", worker)
        sup.start()
        sched.run(on_deadlock="return", on_error="record")

    The supervisor runs as a *non-daemon* process named ``name``: it exits
    once every child is done (or given up) and no restart is pending, so a
    run under supervision terminates exactly when recovery has nothing left
    to do.  Killing the supervisor itself (fault plans may) silently
    disables recovery — the fault-plan search in
    :func:`repro.verify.recovery.minimal_defeat_witness` exploits
    precisely that single point of failure.
    """

    def __init__(
        self,
        sched: Scheduler,
        policy: Optional[RestartPolicy] = None,
        name: str = "sup",
        leases: Optional[LeaseManager] = None,
    ) -> None:
        self._sched = sched
        self.policy = policy or RestartPolicy()
        self.name = name
        self.leases = leases
        self._children: List[_ChildSpec] = []
        self._by_proc: Dict[int, _ChildSpec] = {}   # pid -> spec
        self._proc: Optional[SimProcess] = None
        self._pending_deaths: List[Tuple[_ChildSpec, SimProcess]] = []
        self._pending_restarts: List[Tuple[int, _ChildSpec]] = []  # (due, spec)
        self._restart_stamps: List[int] = []        # times of past restarts
        self._escalated = False
        self.giveups = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def child(self, name: str,
              factory: Callable[[], Generator]) -> "_ChildSpec":
        """Declare a supervised child: ``factory()`` must return a fresh
        generator each time it is called (it is re-invoked on restart)."""
        if self._proc is not None:
            raise RuntimeError("cannot add children after start()")
        spec = _ChildSpec(name, factory)
        self._children.append(spec)
        return spec

    def start(self) -> SimProcess:
        """Spawn every child plus the supervisor process; returns the
        supervisor's process handle."""
        if self._proc is None and not self._children:
            raise RuntimeError("supervisor has no children")
        for spec in self._children:
            self._spawn_child(spec)
        self._proc = self._sched.spawn(self._body, name=self.name)
        return self._proc

    # ------------------------------------------------------------------
    # Child lifecycle plumbing
    # ------------------------------------------------------------------
    def _spawn_child(self, spec: _ChildSpec) -> SimProcess:
        def wrapped(spec=spec):
            result = yield from spec.factory()
            self._on_child_done(spec)
            return result

        proc = self._sched.spawn(wrapped, name=spec.name)
        spec.proc = proc
        spec.state = "running"
        self._by_proc[proc.pid] = spec
        self._sched.register_cleanup(
            ("supervised", id(self)), self._on_child_death, proc=proc
        )
        return proc

    def _on_child_done(self, spec: _ChildSpec) -> None:
        spec.state = "done"
        self._kick()

    def _on_child_death(self, proc: SimProcess) -> None:
        """Crash cleanup registered on every child incarnation: record the
        death for the supervisor loop and wake it."""
        if self._escalated:
            return
        spec = self._by_proc.get(proc.pid)
        if spec is None or spec.proc is not proc:
            return  # a stale incarnation; already superseded
        self._pending_deaths.append((spec, proc))
        self._kick()

    def _kick(self) -> None:
        """Wake the supervisor if it is parked or sleeping."""
        proc = self._proc
        if proc is not None and proc.state is ProcessState.BLOCKED:
            self._sched.unpark(proc)

    # ------------------------------------------------------------------
    # The supervisor loop
    # ------------------------------------------------------------------
    def _body(self) -> Generator:
        sched = self._sched
        while True:
            self._drain_deaths()
            self._fire_due_restarts()
            if self._escalated or self._settled():
                break
            due = self._next_due()
            if due is not None:
                yield from sched.sleep(due - sched.now)
            else:
                yield from sched.park(
                    "supervise", self.name,
                    resource="supervisor {}".format(self.name),
                )
        return self.report()

    def _drain_deaths(self) -> None:
        while self._pending_deaths:
            spec, corpse = self._pending_deaths.pop(0)
            if self.leases is not None:
                self.leases.reclaim(corpse)
            if spec.state != "running" or self._escalated:
                continue
            if not self._budget_left():
                if self.policy.strategy == ESCALATE:
                    self._escalate(spec)
                else:
                    spec.state = "given_up"
                    self.giveups += 1
                    self._sched.log(
                        "restart_giveup", spec.name,
                        "restart budget exhausted", proc=corpse,
                    )
                continue
            self._restart_stamps.append(self._sched.now)
            delay = self.policy.backoff.delay(spec.restarts)
            self._pending_restarts.append((self._sched.now + delay, spec))

    def _budget_left(self) -> bool:
        window = self.policy.window
        if window is not None:
            cutoff = self._sched.now - window
            self._restart_stamps = [
                t for t in self._restart_stamps if t > cutoff
            ]
        return len(self._restart_stamps) < self.policy.max_restarts

    def _fire_due_restarts(self) -> None:
        now = self._sched.now
        still_pending = []
        for due, spec in self._pending_restarts:
            if due > now:
                still_pending.append((due, spec))
                continue
            spec.restarts += 1
            spec.incarnations += 1
            proc = self._spawn_child(spec)
            self._sched.log(
                "restart", spec.name,
                "incarnation:{}".format(spec.incarnations), proc=proc,
            )
        self._pending_restarts = still_pending

    def _escalate(self, spec: _ChildSpec) -> None:
        """Budget exhausted under the escalate strategy: take the whole
        tree down (what handing the failure to a parent supervisor would
        do) and stop supervising."""
        self._escalated = True
        self._sched.log("escalate", self.name, spec.name)
        self._pending_restarts = []
        for child in self._children:
            proc = child.proc
            if (proc is not None and proc.alive
                    and proc is not self._sched.current):
                self._sched.kill(
                    proc, why="escalation by {}".format(self.name)
                )

    def _settled(self) -> bool:
        if self._pending_deaths or self._pending_restarts:
            return False
        return all(
            spec.state in ("done", "given_up") for spec in self._children
        )

    def _next_due(self) -> Optional[int]:
        if not self._pending_restarts:
            return None
        return min(due for due, __ in self._pending_restarts)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Summary of supervision activity (also the supervisor process's
        return value, so it lands in ``RunResult.results``)."""
        return {
            "children": {
                spec.name: {
                    "state": spec.state,
                    "restarts": spec.restarts,
                    "incarnations": spec.incarnations,
                }
                for spec in self._children
            },
            "restarts": sum(s.restarts for s in self._children),
            "giveups": self.giveups,
            "escalated": self._escalated,
        }
