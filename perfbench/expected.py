"""Expected outputs of the ``explore-pruned`` workload.

``VIOLATING`` is the ground truth per exploration target: the targets with
at least one violating schedule.  Every other target in ``TARGETS`` has
none.  It was established by exhaustive search: pruned search exhausts 40
targets within the benchmark's budget, and the four CSP targets were
exhausted with an address-free ``Channel`` repr (fcfs_resource 1317 runs,
alarm_clock 817, staged_queue 5632, footnote3 5497).  ``staged_queue/csp``
violates, but the pruned search finds that only past the budget while its
fingerprints carry object addresses.

``FOUND_WITHIN_BUDGET`` are the violating targets whose violation the
pruned search finds within the budget when the benchmark was written.  A
later change may add to it (a pruning fix finds ``staged_queue/csp``), but
a search that loses one of these reports worse output.
"""

from __future__ import annotations

#: Every (problem, mechanism) pair ``available_targets()`` returns.
TARGETS = frozenset(
    [(p, m) for p in ("alarm_clock",)
     for m in ("ccr", "csp", "monitor", "pathexpr_open", "semaphore",
               "serializer")]
    + [(p, m) for p in ("bounded_buffer",)
       for m in ("ccr", "csp", "eventcount", "monitor", "pathexpr_open",
                 "semaphore", "serializer")]
    + [(p, m) for p in ("fcfs_resource",)
       for m in ("ccr", "csp", "eventcount", "monitor", "pathexpr",
                 "semaphore", "serializer")]
    + [(p, m) for p in ("footnote3",)
       for m in ("ccr", "csp", "monitor", "pathexpr", "semaphore",
                 "serializer")]
    + [(p, m) for p in ("one_slot_buffer",)
       for m in ("ccr", "csp", "eventcount", "monitor", "pathexpr",
                 "semaphore", "serializer")]
    + [(p, m) for p in ("readers_priority",)
       for m in ("ccr", "csp", "monitor", "pathexpr", "semaphore",
                 "serializer")]
    + [(p, m) for p in ("staged_queue",)
       for m in ("ccr", "csp", "monitor", "pathexpr_open", "serializer")]
)

VIOLATING = frozenset(
    [("footnote3", m) for m in ("ccr", "csp", "monitor", "pathexpr",
                                "semaphore", "serializer")]
    + [("staged_queue", m) for m in ("ccr", "csp", "monitor",
                                     "pathexpr_open", "serializer")]
)

FOUND_WITHIN_BUDGET = VIOLATING - {("staged_queue", "csp")}


def explore_problems(target, found: bool, exhausted: bool) -> list:
    """Why one search's verdict is wrong; empty when it is right."""
    if target not in TARGETS:
        return ["no expected verdict for this target"]
    truth = target in VIOLATING
    problems = []
    if found and not truth:
        problems.append("reported a violation that does not exist")
    if exhausted and found != truth:
        problems.append("exhausted without finding its violation")
    if target in FOUND_WITHIN_BUDGET and not found:
        problems.append("lost a violation found within budget")
    return problems
