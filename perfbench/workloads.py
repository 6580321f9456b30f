"""The benchmark's three workloads, built as lists of units.

A *unit* is one call into the program's public entry points, timed on its
own.  Each unit reduces its result to a dict of deterministic counters
(``summarize``) and states what is wrong with that result (``problems``).
Building the units is the workload's set-up: it resolves targets, oracles
and expected tables, so that ``setup_s`` carries the cost of getting ready.

* ``explore-pruned`` -- serial pruned ``ExplorationEngine`` over every
  exploration target at a fixed budget, each checked by its registry
  oracle.  Stresses scheduler stepping, fingerprinting, oracles, record
  reduction and frontier expansion.
* ``load-swarm`` -- ``run_load`` for each load mechanism with thousands of
  clients arriving on an open Poisson schedule, ``StreamingSink`` attached.
  Stresses the ready queue, spawn/exit churn, the event log and the sink;
  bypasses fingerprinting and oracles.
* ``campaigns`` -- the full fault reports and the two ddmin witness
  searches.  The only workload with fault plans, the network pump,
  supervisors and classifiers; its explorations are unpruned.

The seed permutes the unit order of every workload and is the arrival seed
of ``load-swarm``.  No unit's correct output depends on it.
"""

from __future__ import annotations

import functools
import random
import re
from typing import Any, Callable, Dict, List

from expected import TARGETS, explore_problems

#: Schedules per exploration target.
EXPLORE_BUDGET = 1500
#: Clients per load run; arrivals are spread over ``LOAD_HORIZON`` virtual
#: ticks, so the offered rate is ``LOAD_CLIENTS / LOAD_HORIZON``.
LOAD_CLIENTS = 2048
LOAD_HORIZON = 256

WORKLOADS = ("explore-pruned", "load-swarm", "campaigns")

Counters = Dict[str, Any]


class Unit:
    """One timed call into the program.

    ``call()`` does the work and returns the program's result;
    ``summarize(result)`` reduces it to counters that must repeat exactly
    (unless ``nondet_ok``); ``problems(counters)`` lists wrong outputs;
    ``ops`` is how many operations the unit attempts; ``subject`` is what
    a traced runner needs to call the same entry point with instruments.
    """

    __slots__ = ("name", "call", "summarize", "problems", "ops",
                 "nondet_ok", "subject")

    def __init__(self, name: str, call: Callable[[], Any],
                 summarize: Callable[[Any], Counters],
                 problems: Callable[[Counters], List[str]],
                 ops: int = 1, nondet_ok: bool = False,
                 subject: Any = None) -> None:
        self.name = name
        self.call = call
        self.summarize = summarize
        self.problems = problems
        self.ops = ops
        self.nondet_ok = nondet_ok
        self.subject = subject


# ----------------------------------------------------------------------
# explore-pruned
# ----------------------------------------------------------------------
def explore_search(target, checker, build_and_run=None, telemetry=None):
    """One pruned search of ``target`` at the benchmark's budget."""
    from repro.explore.engine import ExplorationEngine

    return ExplorationEngine(
        build_and_run or target.runner(), max_runs=EXPLORE_BUDGET,
        prune=True, telemetry=telemetry).explore(checker)


def explore_summary(result) -> Counters:
    return {
        "runs": result.runs,
        "pruned": result.pruned,
        "states": result.states,
        "violations": len(result.violations),
        "found": bool(result.violations),
        "decided": result.exhausted,
    }


def _explore_units(seed: int) -> List[Unit]:
    from repro.explore.targets import available_targets, get_target

    pairs = available_targets()
    missing = TARGETS - set(pairs)
    if missing:
        raise RuntimeError("exploration targets missing: {}".format(
            sorted(missing)))
    random.Random(seed).shuffle(pairs)
    units = []
    for pair in pairs:
        target = get_target(*pair)
        checker = target.checker
        units.append(Unit(
            "{}/{}".format(*pair),
            lambda target=target, checker=checker: explore_search(
                target, checker),
            explore_summary,
            lambda c, pair=pair: explore_problems(
                pair, c["found"], c["decided"]),
            # CSP fingerprints carry object addresses, so their prune
            # counts may differ between repetitions (reported, not hidden).
            nondet_ok=True,
            subject=(target, checker),
        ))
    return units


# ----------------------------------------------------------------------
# load-swarm
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def load_sink_class():
    """The sink ``run_load`` builds by default, which also counts, from
    the run's results, the clients that finished."""
    from repro.obs.streaming import StreamingSink

    class ClientCountingSink(StreamingSink):
        def __init__(self) -> None:
            super().__init__(window=32, max_windows=64, shard_prefix=True)
            self.clients_done = 0

        def on_run_end(self, result) -> None:
            super().on_run_end(result)
            self.clients_done = sum(
                1 for name in result.results if _CLIENT.match(name))

    return ClientCountingSink


#: ``run_load`` names client ``j`` "c<j>".
_CLIENT = re.compile(r"c\d+$")


def load_run(mechanism: str, seed: int, sink=None):
    """One open-arrival swarm of ``mechanism``; ``(LoadPoint, sink)``.

    ``run_load`` returns only when every client it spawned has finished;
    it raises on deadlock, step limit or a failed process.  The sink counts
    the clients that finished, so a swarm that spawned too few shows."""
    from repro.load import run_load

    return run_load(mechanism, clients=LOAD_CLIENTS,
                    rate=LOAD_CLIENTS / float(LOAD_HORIZON), seed=seed,
                    sink=sink or load_sink_class()(), keep_windows=False)


def load_summary(result) -> Counters:
    point, sink = result
    return {
        "clients_done": sink.clients_done,
        "steps": point.steps,
        "events": point.events,
        "completed": point.completed,
        "steps_per_op": point.steps_per_op,
        "lat_p99_seq": point.latency["p99"],
        "memory_cells": point.memory_cells,
        "decided": True,
    }


def _load_problems(counters: Counters) -> List[str]:
    if counters["clients_done"] != LOAD_CLIENTS:
        return ["{} of {} clients finished".format(counters["clients_done"],
                                                   LOAD_CLIENTS)]
    return []


def _load_units(seed: int) -> List[Unit]:
    from repro.load import LOAD_MECHANISMS

    mechanisms = list(LOAD_MECHANISMS)
    random.Random(seed).shuffle(mechanisms)
    return [
        Unit(mech, lambda mech=mech: load_run(mech, seed), load_summary,
             _load_problems,
             # each client does one put and one get
             ops=2 * LOAD_CLIENTS, subject=(mech, seed))
        for mech in mechanisms
    ]


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def _scenario_cells(results) -> list:
    return [(r.name, "", r.classification) for r in results]


def _partition_cells(results) -> list:
    return [(r.name, o.plan_name, o.classification)
            for r in results for o in r.outcomes]


def _resilience_cells(results) -> list:
    return [(r.name, o.cell_name, o.classification)
            for r in results for o in r.outcomes]


def _report_summary(cells):
    """Counters of a fault report's ``(results, table)``."""
    def summarize(out) -> Counters:
        results, __ = out
        labels = tuple(cells(results))
        return {
            "runs": sum(r.runs for r in results),
            "cells": labels,
            "surprises": tuple(
                s for r in results for s in getattr(r, "surprises", ())),
            "violations": sum(len(r.violations) for r in results),
            "decided": all(label for __, __, label in labels),
        }
    return summarize


def _campaign_units(seed: int) -> List[Unit]:
    from repro.resilience import resilience_report, search_restart_witness
    from repro.verify.chaos import (expected_classifications,
                                    robustness_report)
    from repro.verify.partition import TOLERANT, partition_report
    from repro.verify.recovery import (expected_recovery,
                                       minimal_defeat_witness,
                                       recovery_report)

    chaos_expected = expected_classifications()
    recovery_expected = expected_recovery()

    def robustness_problems(c):
        return ["{}: got {}, fault model predicts {}".format(
            name, label, chaos_expected.get(name))
            for name, __, label in c["cells"]
            if chaos_expected.get(name) != label]

    def recovery_problems(c):
        return ["{}: got {}, expected one of {}".format(
            name, label, recovery_expected.get(name))
            for name, __, label in c["cells"]
            if label not in recovery_expected.get(name, ())]

    def witness_summary(found, fenced=None) -> Counters:
        witness = found.witness
        return {
            "runs": found.tried,
            "ddmin_tests": found.minimize_tests,
            "witness": None if witness is None else repr(witness),
            "faults": None if witness is None else len(witness),
            "label": found.witness_label,
            "fenced": fenced,
            "decided": witness is not None,
        }

    def witness_problems(c) -> List[str]:
        if c["faults"] is None:
            return ["no witness found ({} plans tried)".format(c["runs"])]
        if c["faults"] > 2:
            return ["witness has {} faults, more than 2".format(c["faults"])]
        return []

    specs = [
        ("robustness", robustness_report,
         _report_summary(_scenario_cells), robustness_problems),
        ("recovery", recovery_report, _report_summary(_scenario_cells),
         recovery_problems),
        # The partition model predicts no split brain anywhere.
        ("partition", partition_report, _report_summary(_partition_cells),
         lambda c: list(c["surprises"]) + (
             ["{} safety violations".format(c["violations"])]
             if c["violations"] else [])),
        # The unfenced resilience cell documents a split brain; its
        # violations are expected, so only surprises count.
        ("resilience", resilience_report,
         _report_summary(_resilience_cells), lambda c: list(c["surprises"])),
        ("defeat_witness", minimal_defeat_witness, witness_summary,
         witness_problems),
        ("restart_witness", search_restart_witness,
         lambda out: witness_summary(*out),
         lambda c: witness_problems(c) + (
             [] if c["fenced"] == TOLERANT else
             ["fenced replay of the witness is {!r}, not {!r}".format(
                 c["fenced"], TOLERANT)])),
    ]
    random.Random(seed).shuffle(specs)
    return [Unit(name, call, summarize, problems)
            for name, call, summarize, problems in specs]


_BUILDERS = {
    "explore-pruned": _explore_units,
    "load-swarm": _load_units,
    "campaigns": _campaign_units,
}


def build_units(workload: str, seed: int) -> List[Unit]:
    """The workload's inputs: its units, in seed order."""
    return _BUILDERS[workload](seed)

