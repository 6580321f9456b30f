"""Fault campaigns: the machinery every fault layer shares.

A *campaign* explores a system under a sequence of fault plans and
classifies every run.  The chaos (:mod:`repro.verify.chaos`), recovery
(:mod:`repro.verify.recovery`), partition (:mod:`repro.verify.partition`)
and resilience (:mod:`repro.resilience.report`) layers differ only in
their scenarios, oracles, label vocabularies and expected tables; this
module holds what they have in common:

* :class:`Vocabulary` — a layer's run labels in precedence order, worst
  first.  The label :data:`MISSED` (the injected fault never fired) is
  counted but never earns a verdict;
* :class:`Cell` — every explored run under one fault plan: label counts,
  collected violation messages and whatever per-run measurements the
  layer folds in; :class:`Campaign` — the cells of one scenario;
* :func:`explore_cell` — schedule exploration of one cell, rescuing runs
  whose builder raised :class:`StepLimitExceeded`;
* :func:`search_plans` — a singletons-first, budgeted search over fault
  atoms whose first defeating set is shrunk by :func:`ddmin`.

A cell's verdict is the worst label any of its runs earned: one bad
schedule is enough.  A campaign's verdict is the worst over its cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from ..explore.engine import ExplorationEngine
from ..runtime.errors import StepLimitExceeded
from ..runtime.policies import ScriptedPolicy
from ..runtime.trace import RunResult, Trace

#: The injected fault never fired in this run (e.g. the victim finished
#: before its kill step); counted, but never part of a verdict.
MISSED = "missed"

#: Maps a finished run to its label and any safety-violation messages.
Classify = Callable[[RunResult], Tuple[str, List[str]]]
#: Folds a layer's per-run measurements into the cell (MTTR samples,
#: network counters, ...).
Fold = Callable[["Cell", RunResult], None]


@dataclass(frozen=True)
class Vocabulary:
    """A layer's run labels.

    ``precedence`` lists the labels worst first; the last one is the clean
    verdict a cell earns when no run did worse.  ``columns`` pairs each
    label with the field name its count has in the layer's table and
    ``--json`` output, in the order they are shown.
    """

    precedence: Tuple[str, ...]
    columns: Tuple[Tuple[str, str], ...]

    def worst(self, count: Callable[[str], int]) -> str:
        for label in self.precedence:
            if count(label):
                return label
        return self.precedence[-1]

    def fields(self, count: Callable[[str], int]) -> Dict[str, int]:
        return {name: count(label) for name, label in self.columns}

    @property
    def headers(self) -> List[str]:
        return [name.replace("_", "-") for name, __ in self.columns]


@dataclass
class Cell:
    """Every explored run under one fault plan."""

    cell_name: str
    vocabulary: Vocabulary
    #: Human-readable description of the injected faults.
    faults: List[str] = field(default_factory=list)
    #: The label the layer's model predicts (None: judged per campaign).
    expected: Optional[str] = None
    runs: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Per-run measurements a layer folds in, by name.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Network counters summed (gauges max-merged) over the runs.
    message_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def plan_name(self) -> str:
        return self.cell_name

    def add(self, label: str, messages: Sequence[str] = ()) -> None:
        self.runs += 1
        self.counts[label] = self.counts.get(label, 0) + 1
        self.violations.extend(messages)

    def count(self, label: str) -> int:
        return self.counts.get(label, 0)

    def tally(self) -> Dict[str, int]:
        return self.vocabulary.fields(self.count)

    @property
    def classification(self) -> str:
        return self.vocabulary.worst(self.count)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def mean(self, name: str) -> Optional[float]:
        return _mean(self.samples.get(name, ()))


@dataclass
class Campaign:
    """Every cell of one scenario."""

    name: str
    vocabulary: Vocabulary
    #: The process every cell kills (kill campaigns only).
    victim: Optional[str] = None
    outcomes: List[Cell] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return sum(c.runs for c in self.outcomes)

    def count(self, label: str) -> int:
        return sum(c.count(label) for c in self.outcomes)

    def tally(self) -> Dict[str, int]:
        return self.vocabulary.fields(self.count)

    @property
    def classification(self) -> str:
        return self.vocabulary.worst(self.count)

    @property
    def violations(self) -> List[str]:
        return [v for c in self.outcomes for v in c.violations]

    @property
    def surprises(self) -> List[str]:
        """Cells whose classification differs from the predicted one."""
        return [
            "{} under {}: expected {}, observed {}".format(
                self.name, c.cell_name, c.expected, c.classification)
            for c in self.outcomes
            if c.expected is not None and c.classification != c.expected
        ]

    def mean(self, name: str) -> Optional[float]:
        """Mean over every cell's samples (cells contribute their
        weight; not a mean of means)."""
        return _mean([s for c in self.outcomes
                      for s in c.samples.get(name, ())])


def _mean(samples: Sequence[float]) -> Optional[float]:
    if not samples:
        return None
    return sum(samples) / float(len(samples))


def explore_cell(
    cell: Cell,
    run: Callable[[ScriptedPolicy], RunResult],
    classify: Classify,
    max_runs: int,
    max_depth: int,
    fold: Optional[Fold] = None,
) -> Cell:
    """Explore up to ``max_runs`` schedules of ``run`` (one fresh system
    under the cell's fault plan per call), adding every run's label to
    ``cell`` and folding its measurements with ``fold``.

    A builder that raises :class:`StepLimitExceeded` instead of returning
    a step-limited result still counts: the run is rebuilt from the
    exception's diagnostic tail (recent events and the ready set).
    """

    def run_one(policy: ScriptedPolicy) -> RunResult:
        try:
            return run(policy)
        except StepLimitExceeded as exc:
            trace = Trace()
            for ev in exc.recent_events or []:
                trace.append(ev)
            return RunResult(trace=trace, step_limited=True,
                             ready=list(exc.ready or []))

    def tally(result: RunResult) -> List[str]:
        cell.add(*classify(result))
        if fold is not None:
            fold(cell, result)
        return []  # labels are tallied, not reported as violations

    ExplorationEngine(run_one, max_runs=max_runs,
                      max_depth=max_depth).explore(tally)
    return cell


# ----------------------------------------------------------------------
# Fault-plan search
# ----------------------------------------------------------------------
@dataclass
class SearchResult:
    """Outcome of :func:`search_plans`."""

    tried: int = 0
    #: Every defeating atom set found, with the label it earned.
    defeating: List[Tuple[tuple, str]] = field(default_factory=list)
    #: ddmin-minimized first defeating set (None: nothing defeated).
    witness: Optional[tuple] = None
    witness_label: Optional[str] = None
    minimize_tests: int = 0

    def describe(self, found: str, nothing: str) -> str:
        """``found`` names a witness ("minimal crash set"); ``nothing``
        says that no plan defeated the system."""
        if self.witness is None:
            return "{} ({} tried)".format(nothing, self.tried)
        return "{} ({}): {}".format(
            found, self.witness_label,
            "; ".join(atom.describe() for atom in self.witness))


def search_plans(
    atoms: Sequence[Any],
    defeats: Callable[[tuple], Optional[str]],
    max_size: int,
    budget: int,
    distinct: Optional[Callable[[Any], Hashable]] = None,
) -> SearchResult:
    """Try every 1..``max_size`` combination of ``atoms``, singletons
    first (so the search itself proves no smaller set suffices), up to
    ``budget`` plans; ddmin the first set ``defeats`` labels.

    ``defeats(combo)`` returns the bad label a set earns, or ``None``.
    With ``distinct``, combinations holding two atoms with the same key
    are skipped and do not count toward the budget.
    """
    result = SearchResult()
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(atoms, size):
            if (distinct is not None
                    and len({distinct(a) for a in combo}) != size):
                continue
            if result.tried >= budget:
                break
            result.tried += 1
            label = defeats(combo)
            if label is not None:
                result.defeating.append((combo, label))
        if result.tried >= budget:
            break
    if result.defeating:
        combo, result.witness_label = result.defeating[0]
        result.witness, result.minimize_tests = ddmin(
            combo, lambda subset: defeats(subset) is not None)
    return result


def ddmin(
    items: Sequence[Any],
    still_bad: Callable[[tuple], bool],
) -> Tuple[tuple, int]:
    """Chunk-halving delta debugging: returns (1-minimal subset, tests
    run).  1-minimal: removing any single remaining item makes
    ``still_bad`` false, so every item in the result is load-bearing.
    ``still_bad`` is only asked about non-empty proper subsets."""
    tests = 0
    current = tuple(items)
    chunks = 2
    while len(current) >= 2:
        size = max(1, len(current) // chunks)
        reduced = False
        for start in range(0, len(current), size):
            candidate = current[:start] + current[start + size:]
            tests += 1
            if still_bad(candidate):
                current = candidate
                chunks = max(chunks - 1, 2)
                reduced = True
                break
        if not reduced:
            if size == 1:
                break
            chunks = min(chunks * 2, len(current))
    return current, tests
