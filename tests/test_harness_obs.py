"""Tests for the harness observatory (DESIGN.md §15).

The load-bearing contract: telemetry is *passive*.  Attaching a
:class:`HarnessTelemetry` (or the null sink) to the serial engine or the
parallel frontier must leave the exploration result byte-identical —
including across worker counts — while the accounting it produces tiles
wall time, survives the exporters, and feeds the ``repro regress
--explore`` gate.
"""

import io
import json
import os

from repro.__main__ import main
from repro.explore import ExplorationEngine, explore_parallel, get_target
from repro.obs import (
    HarnessTelemetry,
    NullHarnessTelemetry,
    RunRecord,
    RunStore,
    chrome_trace,
    compare_records,
    explore_record,
    jsonl_lines,
    normalize_telemetry,
    parse_jsonl,
    self_profile,
)

TARGET = ("fcfs_resource", "monitor")
BUDGET = dict(max_runs=400, max_depth=48)


def _as_tuple(result):
    """A byte-comparable reduction of an ExplorationResult."""
    return (result.runs, result.pruned, result.states, result.exhausted,
            tuple((taken, tuple(msgs)) for taken, msgs in result.violations))


def _explore(**kwargs):
    target = get_target(*TARGET)
    merged = dict(BUDGET)
    merged.update(kwargs)
    return explore_parallel(target, prune=True, **merged)


# ----------------------------------------------------------------------
# Telemetry vs determinism
# ----------------------------------------------------------------------
def test_serial_results_identical_with_telemetry():
    base = _explore()
    observed = _explore(telemetry=HarnessTelemetry())
    assert _as_tuple(base) == _as_tuple(observed)


def test_parallel_results_identical_with_telemetry_and_workers():
    base = _explore(workers=1)
    for workers in (1, 2):
        observed = _explore(workers=workers, telemetry=HarnessTelemetry())
        assert _as_tuple(base) == _as_tuple(observed), (
            "telemetry changed results at workers={}".format(workers))


def test_null_sink_is_normalized_and_identical():
    base = _explore()
    nulled = _explore(telemetry=NullHarnessTelemetry())
    assert _as_tuple(base) == _as_tuple(nulled)
    engine = ExplorationEngine(lambda p: None,
                               telemetry=NullHarnessTelemetry())
    assert engine.telemetry is None
    assert normalize_telemetry(None) is None
    assert normalize_telemetry(NullHarnessTelemetry()) is None
    live = HarnessTelemetry()
    assert normalize_telemetry(live) is live


def test_engine_and_frontier_agree_under_telemetry():
    """The serial engine (via the target's runner) and the one-worker
    frontier attribute through the same execute_schedule and agree on the
    search outcome."""
    target = get_target(*TARGET)
    engine_tel = HarnessTelemetry()
    engine = ExplorationEngine(target.build_and_run, prune=True,
                               telemetry=engine_tel, **BUDGET)
    engine_result = engine.explore(target.checker)
    frontier_result = _explore(telemetry=HarnessTelemetry())
    assert engine_result.runs == frontier_result.runs
    assert engine_result.pruned == frontier_result.pruned
    assert engine_tel.runs == engine_result.runs
    assert engine_tel.coverage() > 0.5


# ----------------------------------------------------------------------
# Accounting shape
# ----------------------------------------------------------------------
def test_phase_accounting_tiles_and_counts():
    telemetry = HarnessTelemetry()
    result = _explore(telemetry=telemetry)
    assert telemetry.runs == result.runs
    assert telemetry.pruned == result.pruned
    assert 0.0 < telemetry.coverage() <= 1.0 + 1e-9
    assert telemetry.coverage() >= 0.8
    assert telemetry.schedules_per_sec() > 0
    assert 0.0 <= telemetry.pruning_ratio() < 1.0
    data = telemetry.to_dict()
    assert data["runs"] == result.runs
    assert set(data["phase_seconds"]) <= {
        "step", "fingerprint", "check", "record", "dispatch", "execute",
        "collect"}
    assert data["samples"], "counter samples must accumulate"


def test_parallel_worker_timeline_and_attribution():
    telemetry = HarnessTelemetry()
    _explore(workers=2, telemetry=telemetry)
    assert telemetry.worker_items, "worker timeline must be populated"
    assert telemetry.waves, "wave stats must be populated"
    assert len(telemetry.utilization()) == 2
    attribution = telemetry.attribution()
    cpus = os.cpu_count() or 1
    assert attribution["workers"] == 2
    assert attribution["cpu_count"] == cpus
    assert attribution["oversubscribed"] == (2 > cpus)
    assert attribution["pickle_bytes_in"] > 0
    assert attribution["pickle_bytes_out"] > 0
    assert attribution["amdahl_speedup_bound"] >= 1.0
    assert attribution["explanation"]
    for item in telemetry.worker_items:
        assert item.end >= item.start >= 0.0
        assert item.queue_wait >= 0.0


def test_watch_progress_lines_are_plain_text():
    stream = io.StringIO()
    telemetry = HarnessTelemetry(watch=stream, watch_interval=0.0)
    _explore(telemetry=telemetry)
    lines = stream.getvalue().splitlines()
    assert lines, "watch must emit progress lines"
    assert all("\r" not in line for line in lines), "non-tty-safe only"
    assert any("runs=" in line and "frontier=" in line for line in lines)
    assert lines[-1].startswith("[explore done")
    # ETA is budget-bound and disappears on the final line.
    assert "eta<=" in lines[0]


def test_eta_is_budget_bound():
    telemetry = HarnessTelemetry()
    telemetry.begin(max_runs=None)
    assert telemetry.eta_seconds() is None
    telemetry = HarnessTelemetry()
    _explore(telemetry=telemetry)
    # Finished search: no schedules left within budget.
    eta = telemetry.eta_seconds()
    assert eta is not None and eta >= 0.0


# ----------------------------------------------------------------------
# Exporters: harness track + counters
# ----------------------------------------------------------------------
def test_chrome_trace_harness_track():
    telemetry = HarnessTelemetry()
    _explore(workers=2, telemetry=telemetry)
    doc = chrome_trace([], harness=telemetry)
    events = doc["traceEvents"]
    names = {ev["args"]["name"] for ev in events if ev["ph"] == "M"
             and ev["name"] == "thread_name"}
    assert "harness" in names
    assert any(name.startswith("worker ") for name in names)
    counters = [ev for ev in events if ev["ph"] == "C"]
    counter_names = {ev["name"] for ev in counters}
    assert counter_names == {"schedules/sec", "frontier depth",
                             "pruning ratio"}
    lanes = [ev for ev in events
             if ev["ph"] == "X" and ev["cat"] == "harness"]
    assert len(lanes) == len(telemetry.worker_items)
    for ev in lanes:
        assert ev["dur"] >= 1
        assert ev["args"]["result_bytes"] > 0


def test_jsonl_counter_round_trip():
    telemetry = HarnessTelemetry()
    _explore(telemetry=telemetry)
    lines = list(jsonl_lines([], None, harness=telemetry))
    spans, events, counters = parse_jsonl(lines, with_counters=True)
    assert spans == [] and events == []
    assert counters, "counter records must round-trip"
    for sample in counters:
        assert set(sample) == {"t", "runs", "frontier", "pruned",
                               "schedules_per_sec", "pruning_ratio"}
        assert sample["t"] > 0
    # Back-compat: the 2-tuple API silently drops counter records.
    assert parse_jsonl(lines) == ([], [])


# ----------------------------------------------------------------------
# Run store + gate
# ----------------------------------------------------------------------
def test_explore_record_round_trip_and_gate_direction():
    telemetry = HarnessTelemetry()
    result = _explore(telemetry=telemetry)
    record = explore_record(TARGET[0], TARGET[1], result, telemetry)
    assert record.problem == "explore:fcfs_resource"
    assert record.steps == result.runs
    assert record.schedules_per_sec > 0
    assert record.phase_seconds
    clone = RunRecord.from_dict(record.to_dict())
    assert clone.to_dict() == record.to_dict()

    # Direction "-": a throughput *drop* regresses, a gain never does.
    slower = RunRecord.from_dict(record.to_dict())
    slower.schedules_per_sec = max(1, record.schedules_per_sec // 10)
    hits = compare_records(record, slower, threshold_pct=50.0)
    assert any(r.metric == "schedules_per_sec" for r in hits)
    faster = RunRecord.from_dict(record.to_dict())
    faster.schedules_per_sec = record.schedules_per_sec * 10
    assert compare_records(record, faster, threshold_pct=50.0) == []

    # Direction "+" still holds on the same record: more schedules to
    # cover the same space = pruning regressed.
    worse = RunRecord.from_dict(record.to_dict())
    worse.steps = record.steps * 2
    hits = compare_records(record, worse, threshold_pct=50.0)
    assert any(r.metric == "steps" for r in hits)


def test_regress_explore_cli_round_trip(tmp_path, capsys):
    baseline = tmp_path / "explore_baseline.json"
    common = ["--explore", "--explore-runs", "300", "--explore-depth", "40"]
    assert main(["regress", "--write-baseline", str(baseline)] + common) == 0
    capsys.readouterr()
    code = main(["regress", "--baseline", str(baseline),
                 "--threshold", "500", "--json"] + common)
    out = json.loads(capsys.readouterr().out)
    # The schedule count is deterministic, so with a generous wall-clock
    # threshold a clean re-run passes.
    assert code == 0
    assert out["compared"] == ["explore:fcfs_resource/monitor"]
    assert out["regressions"] == []


def test_regress_explore_gate_trips_on_steps(tmp_path, capsys):
    """Shrinking the baseline's schedule count makes the fresh run look
    like a pruning regression — the deterministic side of the gate."""
    baseline = tmp_path / "explore_baseline.json"
    common = ["--explore", "--explore-runs", "300", "--explore-depth", "40"]
    assert main(["regress", "--write-baseline", str(baseline)] + common) == 0
    data = json.loads(baseline.read_text())
    # Shrink far enough that the growth clears even the generous
    # wall-clock threshold this test uses for schedules_per_sec.
    data[0]["steps"] = max(1, data[0]["steps"] // 10)
    baseline.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["regress", "--baseline", str(baseline),
                 "--threshold", "500", "--json"] + common)
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert any(r["metric"] == "steps" for r in out["regressions"])


# ----------------------------------------------------------------------
# CLI: explore --watch/--record/--export, profile --self
# ----------------------------------------------------------------------
def test_explore_cli_watch_record_export(tmp_path, capsys):
    store = tmp_path / "runs"
    out = tmp_path / "harness.jsonl"
    code = main(["explore", TARGET[0], TARGET[1], "--fast", "--watch",
                 "--record", "--store", str(store),
                 "--export", "jsonl", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "harness telemetry:" in captured.out
    assert "[explore" in captured.err, "--watch writes to stderr"
    record = RunStore(str(store)).load("explore:" + TARGET[0], TARGET[1])
    assert record is not None and record.schedules_per_sec is not None
    __, __, counters = parse_jsonl(
        out.read_text().splitlines(), with_counters=True)
    assert counters


def test_explore_cli_chrome_export(tmp_path, capsys):
    out = tmp_path / "harness_trace.json"
    code = main(["explore", TARGET[0], TARGET[1], "--fast", "--workers",
                 "2", "--export", "chrome", "--out", str(out), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["telemetry"]["runs"] == payload["runs"]
    doc = json.loads(out.read_text())
    assert any(ev.get("ph") == "C" for ev in doc["traceEvents"])


def test_explore_cli_self_profile_json(capsys):
    code = main(["explore", TARGET[0], TARGET[1], "--fast",
                 "--self-profile", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["self_profile"]["hotspots"]
    assert payload["telemetry"]["coverage"] > 0.5


def test_profile_self_cli(capsys):
    code = main(["profile", "--self", "--self-runs", "150", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] > 0
    assert payload["self_profile"]["hotspots"]
    capsys.readouterr()
    assert main(["profile", "--self", "--self-runs", "150"]) == 0
    text = capsys.readouterr().out
    assert "self-profile" in text and "harness telemetry:" in text


def test_profile_without_args_errors(capsys):
    assert main(["profile"]) == 2
    assert "required" in capsys.readouterr().err


def test_self_profile_returns_value_and_ranked_hotspots():
    report = self_profile(lambda: sum(i * i for i in range(200_000)), top=5)
    assert report.value == sum(i * i for i in range(200_000))
    assert report.seconds > 0
    tottimes = [spot.tottime for spot in report.hotspots]
    assert tottimes == sorted(tottimes, reverse=True)
    assert len(report.hotspots) <= 5
