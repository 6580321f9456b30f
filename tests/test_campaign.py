"""The fault-campaign kernel every fault layer runs on: the cell tally
under each layer's vocabulary, and ddmin over both atom kinds (kill
points and crash/cut joint faults)."""

import pytest

from repro.resilience import CrashSpec, CutSpec, joint_plan
from repro.runtime.policies import ScriptedPolicy
from repro.verify import chaos, partition, recovery
from repro.verify.campaign import MISSED, Campaign, Cell, ddmin
from repro.verify.chaos import FaultPoint, kill_plan

#: The partition and resilience reports share one vocabulary.
VOCABULARIES = {
    "chaos": chaos.VOCABULARY,
    "recovery": recovery.VOCABULARY,
    "partition+resilience": partition.VOCABULARY,
}


@pytest.mark.parametrize("layer", sorted(VOCABULARIES))
def test_outcome_counters_track_worst_label(layer):
    vocabulary = VOCABULARIES[layer]
    clean = vocabulary.precedence[-1]
    cell = Cell("cell", vocabulary)
    result = Campaign(name="x", vocabulary=vocabulary, outcomes=[cell])
    # Runs where the fault never fired are counted but never judged.
    cell.add(MISSED)
    cell.add(MISSED)
    assert cell.runs == 2
    assert cell.classification == result.classification == clean
    assert sum(result.tally().values()) == 0
    cell.add(clean)
    assert result.count(clean) == 1
    # One bad run is enough to earn each successively worse label.
    for label in reversed(vocabulary.precedence[:-1]):
        cell.add(label, ["{} run".format(label)])
        assert result.count(label) == 1
        assert cell.classification == result.classification == label
    assert result.runs == 3 + len(vocabulary.precedence) - 1
    assert result.violations == [
        "{} run".format(label)
        for label in reversed(vocabulary.precedence[:-1])]


def _kill_case():
    """Supervised semaphore: the true 2-kill witness (the supervisor and
    a permit holder) padded with a harmless kill of P2 at step 0, which
    gets restarted before anyone needs the permit."""
    build = recovery._sem_recovery()
    check = recovery.exclusion_oracle("s")

    def still_bad(kills):
        label, __ = recovery.classify_recovery_run(
            build(ScriptedPolicy([]), kill_plan(kills)),
            ("P0", "P1", "P2"), check)
        return label in (recovery.WEDGED, recovery.VIOLATED)

    bloated = (FaultPoint("sup", 0), FaultPoint("P2", 0),
               FaultPoint("P0", 2))
    witness = {FaultPoint("sup", 0), FaultPoint("P0", 2)}
    return bloated, still_bad, witness, 2


def _joint_case():
    """A synthetic scenario that splits exactly when the crash of ``a``
    and the cut of ``n0`` are both present."""
    def still_bad(faults):
        fault_plan, netplan = joint_plan(faults)
        kills = ({f.process for f in fault_plan.faults}
                 if fault_plan is not None else set())
        return ("a" in kills and netplan is not None
                and netplan.partitioned("n0", "other", 5))

    bloated = (CrashSpec("a", 1), CrashSpec("b", 1), CutSpec("n0", 0, 10))
    witness = {CrashSpec("a", 1), CutSpec("n0", 0, 10)}
    return bloated, still_bad, witness, 1


@pytest.mark.parametrize("case", [_kill_case, _joint_case],
                         ids=["kills", "joint"])
def test_ddmin_drops_redundant_faults(case):
    bloated, still_bad, witness, min_tests = case()
    assert still_bad(bloated)  # the bloated set is bad...
    minimal, tests = ddmin(bloated, still_bad)
    assert set(minimal) == witness  # ...but fewer faults carry it
    assert tests >= min_tests
    # 1-minimal: every remaining fault is load-bearing.
    for i in range(len(minimal)):
        assert not still_bad(minimal[:i] + minimal[i + 1:])
