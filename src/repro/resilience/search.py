"""Joint fault-plan search: crash × partition witnesses, ddmin-minimized.

The recovery layer searches kill sets; the partition report
sweeps hand-written :class:`NetPlan` cells.  The interesting bugs live in
the *product* space — a crash alone is survivable (the supervisor
restarts, the renewal succeeds) and a partition alone is survivable (the
volatile validity check fences the holder out), but a crash whose
restarted incarnation comes back *inside* a partition resurrects durable
state whose volatile guards are gone.  This module enumerates mixed
fault sets over two atom types:

* :class:`CrashSpec` — kill a process at a virtual-clock tick
  (``at_time`` rather than ``at_step``, so the same atom means the same
  thing whichever schedule the builder runs under);
* :class:`CutSpec` — isolate a node for a window ``[at, heal_at)``.

A candidate set compiles to a ``(FaultPlan, NetPlan)`` pair via
:func:`joint_plan` — both serializable (``to_dict``) so a found witness
can be persisted and replayed exactly.  The search itself is the
campaign kernel's (:func:`repro.verify.campaign.search_plans`): the first
defeating set is ddmin-minimized to a 1-minimal combined witness — remove
any single fault and the bad outcome disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from ..dist import NetPlan
from ..runtime.faults import FaultPlan
from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult
from ..verify.campaign import SearchResult, search_plans

__all__ = [
    "CrashSpec", "CutSpec", "JointFault", "joint_plan", "describe_joint",
    "search_joint_plans", "witness_payload",
]

#: A dist builder under both plans: (policy, netplan, fault plan) -> run.
JointBuilder = Callable[
    [ScriptedPolicy, Optional[NetPlan], Optional[FaultPlan]], RunResult]
#: Maps a finished run to a classification label (e.g. "split-brain").
Classifier = Callable[[RunResult], str]


@dataclass(frozen=True)
class CrashSpec:
    """Kill ``process`` once virtual time reaches ``at_time`` (even if it
    is blocked — crashes do not wait for a convenient step)."""

    process: str
    at_time: int

    def describe(self) -> str:
        return "kill {} at t={}".format(self.process, self.at_time)


@dataclass(frozen=True)
class CutSpec:
    """Isolate ``node`` from every other node on ``[at, heal_at)``
    (``heal_at=None`` = the partition never heals)."""

    node: str
    at: int
    heal_at: Optional[int] = None

    def describe(self) -> str:
        healed = ("never heals" if self.heal_at is None
                  else "heals at t={}".format(self.heal_at))
        return "isolate {} at t={} ({})".format(self.node, self.at, healed)


JointFault = Union[CrashSpec, CutSpec]


def joint_plan(
    faults: Sequence[JointFault],
) -> Tuple[Optional[FaultPlan], Optional[NetPlan]]:
    """Compile a mixed fault set into its ``(FaultPlan, NetPlan)`` pair
    (``None`` for an empty side, matching the builders' defaults)."""
    fault_plan: Optional[FaultPlan] = None
    netplan: Optional[NetPlan] = None
    for f in faults:
        if isinstance(f, CrashSpec):
            if fault_plan is None:
                fault_plan = FaultPlan()
            fault_plan.kill(f.process, at_time=f.at_time)
        else:
            if netplan is None:
                netplan = NetPlan()
            netplan.isolate(f.node, at=f.at, heal_at=f.heal_at)
    return fault_plan, netplan


def describe_joint(faults: Sequence[JointFault]) -> str:
    return "; ".join(f.describe() for f in faults)


def search_joint_plans(
    build: JointBuilder,
    classify: Classifier,
    crashes: Sequence[CrashSpec],
    cuts: Sequence[CutSpec],
    bad_labels: Sequence[str] = ("split-brain", "wedged"),
    max_faults: int = 2,
    budget: int = 120,
) -> SearchResult:
    """Search 1..``max_faults``-sized mixed sets over the candidate atoms;
    ddmin-minimize the first one that defeats the scenario.

    Candidates are enumerated deterministically, singletons first (so the
    search itself proves no single fault suffices before trying pairs),
    crashes before cuts within each size.  Each set runs once under the
    FIFO schedule.
    """
    def defeats(faults: Tuple[JointFault, ...]) -> Optional[str]:
        fault_plan, netplan = joint_plan(faults)
        label = classify(build(ScriptedPolicy([]), netplan, fault_plan))
        return label if label in bad_labels else None

    return search_plans(list(crashes) + list(cuts), defeats,
                        max_size=max_faults, budget=budget)


def witness_payload(found: SearchResult) -> dict:
    """The ``--json`` form of a joint search: the witness with its kill
    and cut counts and its replayable ``(FaultPlan, NetPlan)`` pair."""
    witness = found.witness
    fp, np = (None, None) if witness is None else joint_plan(witness)
    return {
        "tried": found.tried,
        "defeating": len(found.defeating),
        "witness": (None if witness is None
                    else [f.describe() for f in witness]),
        "witness_label": found.witness_label,
        "witness_kills": sum(isinstance(f, CrashSpec)
                             for f in witness or ()),
        "witness_cuts": sum(isinstance(f, CutSpec) for f in witness or ()),
        "witness_fault_plan": None if fp is None else fp.to_dict(),
        "witness_net_plan": None if np is None else np.to_dict(),
        "minimize_tests": found.minimize_tests,
    }
