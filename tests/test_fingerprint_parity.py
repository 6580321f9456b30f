"""Pruned search fingerprints only the decisions its frontier reads.

Two checks over every exploration target:

* the event digest the scheduler folds lazily at ``fingerprint()`` time
  equals one folded eagerly, event by event, as events are logged;
* a reference search whose policy fingerprints *every* decision (the
  original behaviour) reports the same runs, prunes, states, violations and
  exhaustion as the serial engine and the parallel frontier, which skip the
  replayed prefix and stop after a claimed continuation.

A third check runs the CSP targets, whose event details carry channels,
in two interpreters with different hash seeds: a fingerprint must be a
function of the state alone, never of object addresses or string hashing.
The CI matrix runs the parallel comparison with
REPRO_EXPLORE_TEST_WORKERS=2.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.explore import (
    ExplorationEngine,
    ExplorationResult,
    RunRecord,
    available_targets,
    expand_record,
    explore_parallel,
    get_target,
)
from repro.obs.sink import InstrumentationSink
from repro.runtime.policies import RandomPolicy, ScriptedPolicy

WORKERS = max(2, int(os.environ.get("REPRO_EXPLORE_TEST_WORKERS", "0")))
TARGETS = available_targets()
BUDGET = 300
MAX_DEPTH = 60
SCHEDULES = 200
MASK = (1 << 64) - 1


def target_id(pair):
    return "/".join(pair)


# ----------------------------------------------------------------------
# Digest equivalence
# ----------------------------------------------------------------------
class EagerDigestSink(InstrumentationSink):
    """Folds each event's hash as it is logged, once armed."""

    def __init__(self) -> None:
        self.digest = None

    def on_event(self, event) -> None:
        if self.digest is not None:
            payload = repr((event.pid, event.kind, event.obj, event.detail))
            self.digest = (self.digest + int.from_bytes(
                hashlib.blake2b(payload.encode(), digest_size=8).digest(),
                "big")) & MASK


class DigestCheckingPolicy(RandomPolicy):
    """Random schedules; at every decision the scheduler's lazily folded
    digest must equal the sink's eager one."""

    def __init__(self, seed: int, sink: EagerDigestSink) -> None:
        super().__init__(seed)
        self.sink = sink
        self.checked = 0

    def observe_state(self, sched) -> None:
        if self.sink.digest is None:
            sched.enable_fingerprinting()
            self.sink.digest = 0
        sched.fingerprint()
        assert sched._fp_digest == self.sink.digest
        self.checked += 1


@pytest.mark.parametrize("pair", TARGETS, ids=target_id)
def test_lazy_event_digest_equals_eager_fold(pair):
    target = get_target(*pair)
    checked = 0
    for seed in range(SCHEDULES):
        sink = EagerDigestSink()
        policy = DigestCheckingPolicy(seed, sink)
        target.build_and_run(policy, sink=sink)
        checked += policy.checked
    assert checked >= SCHEDULES


# ----------------------------------------------------------------------
# Search parity against a fingerprint-every-decision reference
# ----------------------------------------------------------------------
class ReferencePolicy(ScriptedPolicy):
    """Fingerprints every decision, replayed prefix included."""

    def __init__(self, decisions) -> None:
        super().__init__(decisions)
        self.fingerprints = []
        self.ready_pids = []

    def observe_state(self, sched) -> None:
        sched.enable_fingerprinting()
        self.fingerprints.append(sched.fingerprint())
        self.ready_pids.append(tuple(p.pid for p in sched._ready))


def reference_search(target, waves: bool = False) -> ExplorationResult:
    """Depth-first like :class:`ExplorationEngine`, or in canonically
    sorted budget-truncated waves like :func:`explore_parallel` with no
    seed."""
    result = ExplorationResult()
    seen = set()
    frontier = [()]
    while frontier:
        budget = BUDGET - result.runs
        if budget <= 0:
            result.exhausted = False
            break
        if waves:
            frontier.sort()
            batch, frontier = frontier[:budget], frontier[budget:]
            if frontier:
                result.exhausted = False
        else:
            batch = [frontier.pop()]
        for prefix in batch:
            policy = ReferencePolicy(prefix)
            run = target.build_and_run(policy)
            record = RunRecord.from_run(prefix, policy, target.checker(run))
            result.runs += 1
            if record.messages:
                result.violations.append((record.taken, list(record.messages)))
            children, pruned = expand_record(record, MAX_DEPTH, seen)
            result.pruned += pruned
            frontier.extend(children)
    result.states = len(seen)
    return result


def summary(result: ExplorationResult):
    return (result.runs, result.pruned, result.states, result.violations,
            result.exhausted)


@pytest.mark.parametrize("pair", TARGETS, ids=target_id)
def test_pruned_search_matches_fingerprint_every_decision(pair):
    target = get_target(*pair)
    engine = ExplorationEngine(target.runner(), max_runs=BUDGET,
                               max_depth=MAX_DEPTH, prune=True)
    assert summary(engine.explore(target.checker)) == summary(
        reference_search(target))
    waves = summary(reference_search(target, waves=True))
    for workers in (1, WORKERS):
        assert summary(explore_parallel(
            target, workers=workers, max_runs=BUDGET, max_depth=MAX_DEPTH,
            prune=True)) == waves, workers


def test_expand_record_refuses_an_unrecorded_position():
    record = RunRecord(prefix=(), taken=(0, 0), branch_log=(2, 2),
                       fingerprints=(7, None), ready_pids=((1, 2), None),
                       messages=())
    with pytest.raises(ValueError):
        expand_record(record, MAX_DEPTH, set())
    # Unpruned expansion reads no fingerprints at all.
    children, __ = expand_record(record, MAX_DEPTH, None)
    assert children == [(1,), (0, 1)]


# ----------------------------------------------------------------------
# Cross-process stability
# ----------------------------------------------------------------------
#: Prints, per CSP target, the fingerprint at every decision of a few
#: random schedules.
FINGERPRINT_SCRIPT = """
import json
from repro.explore import available_targets, get_target
from repro.runtime.policies import RandomPolicy

class Fingerprinting(RandomPolicy):
    def __init__(self, seed):
        super().__init__(seed)
        self.fingerprints = []

    def observe_state(self, sched):
        if not self.fingerprints:
            sched.enable_fingerprinting()
        self.fingerprints.append(sched.fingerprint())

out = {}
for pair in available_targets():
    if pair[1] != "csp":
        continue
    sequences = []
    for seed in range(5):
        policy = Fingerprinting(seed)
        get_target(*pair).build_and_run(policy)
        sequences.append(policy.fingerprints)
    out["/".join(pair)] = sequences
print(json.dumps(out))
"""


def csp_fingerprints(hash_seed: str) -> dict:
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", FINGERPRINT_SCRIPT],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout)


def test_csp_fingerprints_agree_across_processes():
    first = csp_fingerprints("1")
    assert len(first) == 7
    assert all(seq for sequences in first.values() for seq in sequences)
    assert csp_fingerprints("2") == first
