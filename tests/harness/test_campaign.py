"""Campaign-engine tests: cache keys, store round-trips, parallelism,
cell failures and resume, progress reporting."""

import io
import json
import os
import sqlite3
from array import array
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.harness.parallel as parallel
from repro.harness.parallel import run_cells
from repro.harness.progress import ProgressReporter
from repro.harness.runner import CampaignRunner, shared_runner
from repro.harness.store import (
    MANIFEST_NAME,
    ResultStore,
    result_record,
    simulation_key,
)
from repro.harness.storebench import synthetic_result
from repro.pipeline.config import CoreConfig, MEDIUM, MEGA, SMALL
from repro.pipeline.stats import SimStats
from repro.workloads.program_cache import cached_spec_trace
from tests.conftest import assert_damaged_cell_refused, damage_stats

BENCH = "503.bwaves"
SUBSET = ("503.bwaves", "548.exchange2")


# ----------------------------------------------------------------------
# Cache-key collisions (the root bug).
# ----------------------------------------------------------------------

def test_same_name_different_params_distinct_cells():
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    narrow = MEGA.scaled(name="custom", width=1, issue_width=1, mem_width=1)
    wide = MEGA.scaled(name="custom")
    assert narrow.name == wide.name

    first = runner.run(BENCH, narrow, "baseline")
    second = runner.run(BENCH, wide, "baseline")
    assert first is not second
    assert first.stats.cycles != second.stats.cycles
    # Both cells stay cached independently.
    assert runner.run(BENCH, narrow, "baseline") is first
    assert runner.run(BENCH, wide, "baseline") is second


def test_simulation_key_sensitivity():
    base = simulation_key(BENCH, MEGA, "baseline")
    assert base == simulation_key(BENCH, MEGA, "baseline")
    assert base != simulation_key(BENCH, MEGA.scaled(rob_entries=64),
                                  "baseline")
    assert base != simulation_key(
        BENCH, MEGA.scaled(mem=MEGA.mem.__class__(l1_latency=1)), "baseline"
    )
    assert base != simulation_key(BENCH, MEGA, "nda")
    assert base != simulation_key(BENCH, MEGA, "baseline", scale=0.5)
    assert base != simulation_key(BENCH, MEGA, "baseline", seed=1)
    assert base != simulation_key(BENCH, MEGA, "baseline",
                                  model_version="other")
    assert base != simulation_key(
        BENCH, MEGA, "baseline", scheme_kwargs={"split_store_taints": True}
    )
    # Display names carry no identity: renaming a parameter-identical
    # config must hit the same cell.
    assert base == simulation_key(BENCH, MEGA.scaled(name="renamed"),
                                  "baseline")


def test_config_fingerprint_tracks_params_not_name():
    a = CoreConfig(name="custom", width=2, num_phys_regs=80)
    b = CoreConfig(name="custom", width=3, num_phys_regs=80)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == CoreConfig(name="custom", width=2,
                                         num_phys_regs=80).fingerprint()
    assert a.fingerprint() == a.scaled(name="renamed").fingerprint()


def test_config_fingerprint_memo_is_invisible():
    import hashlib
    import json
    import pickle

    config = MEGA.scaled(name="memo", rob_entries=96)
    before = (config.to_dict(), hash(config), repr(config))
    assert "_fingerprint" not in config.__dict__
    digest = config.fingerprint()
    # The memo holds exactly the JSON + SHA-256 digest, so cache keys
    # (and every golden cell) are unchanged.
    data = config.to_dict()
    data.pop("name")
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert digest == hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert config.__dict__["_fingerprint"] == digest
    assert config.fingerprint() is digest
    # Dataclass identity never sees the memo.
    assert (config.to_dict(), hash(config), repr(config)) == before
    twin = MEGA.scaled(name="memo", rob_entries=96)
    assert twin == config and twin.fingerprint() == digest
    # A scaled() copy is a new instance and hashes its own fields.
    narrower = config.scaled(rob_entries=64)
    assert "_fingerprint" not in narrower.__dict__
    assert narrower.fingerprint() != digest
    # Configs travelling by pickle (pool workers) keep their identity.
    assert pickle.loads(pickle.dumps(config)).fingerprint() == digest


# ----------------------------------------------------------------------
# Store round-trips.
# ----------------------------------------------------------------------

def test_store_round_trip(tmp_path):
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    result = runner.run(BENCH, MEDIUM, "nda")
    key = runner.cell_key(BENCH, MEDIUM, "nda")

    store = ResultStore(tmp_path)
    store.save(key, result, meta={"benchmark": BENCH})
    assert key in store
    assert len(store) == 1
    assert store.keys() == [key]

    loaded = store.load(key)
    assert loaded is not None
    assert loaded.program_name == result.program_name
    assert loaded.scheme_name == result.scheme_name
    assert loaded.config_name == result.config_name
    assert loaded.halted == result.halted
    assert loaded.cycles == result.cycles
    assert loaded.stats.to_dict() == result.stats.to_dict()
    assert result_record(loaded) == result_record(result)


def test_store_missing_and_clear(tmp_path):
    store = ResultStore(tmp_path)
    assert store.load("0" * 64) is None
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    key = runner.cell_key(BENCH, SMALL, "baseline")
    store.save(key, runner.run(BENCH, SMALL, "baseline"))
    assert len(store) == 1
    store.clear()
    assert len(store) == 0
    assert store.load(key) is None


def test_store_load_many_bulk(tmp_path):
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET)
    store = ResultStore(tmp_path)
    keys = []
    for bench in SUBSET:
        key = runner.cell_key(bench, SMALL, "baseline")
        store.save(key, runner.run(bench, SMALL, "baseline"))
        keys.append(key)
    missing = "0" * 64
    loaded = store.load_many(keys + [missing, keys[0]])  # dup + miss
    assert set(loaded) == set(keys)
    for key in keys:
        assert loaded[key].stats.to_dict() == store.load(key).stats.to_dict()
    assert store.load_many([missing]) == {}


def test_runner_preload_from_store(tmp_path):
    writer = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                            store=ResultStore(tmp_path))
    expected = writer.run(BENCH, SMALL, "baseline")

    reader = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                            store=ResultStore(tmp_path))
    assert reader.preload_from_store([(BENCH, SMALL, "baseline")]) == 1
    key = reader.cell_key(BENCH, SMALL, "baseline")
    assert key in reader._cache
    # suite_results is served from the preloaded cache, not a fresh
    # simulation (identity check: run() returns the cached object).
    results = reader.suite_results(SMALL, "baseline")
    assert results[0] is reader._cache[key]
    assert results[0].stats.to_dict() == expected.stats.to_dict()
    # Second preload is a no-op (everything already cached).
    assert reader.preload_from_store([(BENCH, SMALL, "baseline")]) == 0


def test_store_verify_drops_corrupt_and_stale(tmp_path):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    key = runner.cell_key(BENCH, SMALL, "baseline")
    result = runner.run(BENCH, SMALL, "baseline")
    # Beside the healthy cell: one whose statistics blob is damaged
    # (corrupt) and one stamped by an older model (stale).
    for cell in (key, "b" * 64, "d" * 64):
        store.save(cell, result)
    store.close()
    damage_stats(tmp_path, "b" * 64)
    db = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    db.execute("UPDATE cells SET model_version='0.0.0-ancient' WHERE key=?",
               ("d" * 64,))
    db.commit()
    db.close()
    assert_damaged_cell_refused(tmp_path, "b" * 64)

    store = ResultStore(tmp_path)
    summary = store.verify()
    assert summary == {"scanned": 3, "kept": 1, "corrupt": 1, "stale": 1}
    # Corrupt and stale rows are deleted; the healthy cell survives.
    assert store.keys() == [key]
    assert store.load(key) is not None
    assert store.load("b" * 64) is None and store.load("d" * 64) is None
    assert store.verify() == {"scanned": 1, "kept": 1, "corrupt": 0,
                              "stale": 0}


def test_store_failure_records_round_trip(tmp_path):
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    assert store.failures() == []  # no store file yet: empty, no error
    failure = CellFailure(key="f" * 64, benchmark="503.bwaves",
                          config_name="small", scheme_name="baseline",
                          worker="w1", error="RuntimeError: boom",
                          traceback="Traceback ...")
    store.save_failure(failure)
    loaded = store.load_failure("f" * 64)
    assert loaded.to_dict() == failure.to_dict()
    records = store.failures()
    assert len(records) == 1 and records[0].key == "f" * 64
    # Failure records are invisible to the result index and to verify().
    assert len(store) == 0
    assert store.verify()["scanned"] == 0
    # A late first result clears the record (first-result-wins).
    store.save("f" * 64, synthetic_result(0))
    assert store.load_failure("f" * 64) is None
    assert store.failures() == []


def test_store_gc_keeps_only_requested_keys(tmp_path):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET)
    keep_key = runner.cell_key(SUBSET[0], SMALL, "baseline")
    drop_key = runner.cell_key(SUBSET[1], SMALL, "nda")
    store.save(keep_key, runner.run(SUBSET[0], SMALL, "baseline"))
    store.save(drop_key, runner.run(SUBSET[1], SMALL, "nda"))

    summary = store.gc([keep_key])
    assert summary["scanned"] == 2
    assert summary["kept"] == 1
    assert summary["dropped"] == 1
    assert summary["bytes_reclaimed"] > 0  # VACUUM shrank the file
    assert store.load(keep_key) is not None
    assert store.load(drop_key) is None


def test_stats_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        SimStats.from_dict({"cycles": 1, "bogus_counter": 2})


def test_stats_as_dict_namespaces_extra():
    stats = SimStats(cycles=10, committed_instructions=5,
                     extra={"cycles": 999, "ipc": 999, "l1_hits": 3})
    data = stats.as_dict()
    assert data["cycles"] == 10
    assert data["ipc"] == 0.5
    assert data["extra.cycles"] == 999
    assert data["extra.ipc"] == 999
    assert data["extra.l1_hits"] == 3


# ----------------------------------------------------------------------
# Runner + store + parallel integration.
# ----------------------------------------------------------------------

def test_parallel_grid_matches_serial(tmp_path):
    configs = (MEDIUM, MEGA)
    schemes = ("baseline", "nda")

    serial = CampaignRunner(scale=0.05, benchmarks=SUBSET)
    serial.run_grid(configs=configs, schemes=schemes, jobs=1)

    store = ResultStore(tmp_path)
    parallel = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    summary = parallel.run_grid(configs=configs, schemes=schemes, jobs=4)
    assert summary["total"] == 8
    assert summary["simulated"] == 8

    for config in configs:
        for scheme in schemes:
            for bench in SUBSET:
                a = serial.run(bench, config, scheme)
                b = parallel.run(bench, config, scheme)
                assert a.stats.to_dict() == b.stats.to_dict(), (
                    bench, config.name, scheme)
                assert a.regs == b.regs
                assert a.memory == b.memory


def test_second_grid_run_served_from_store(tmp_path):
    store = ResultStore(tmp_path)
    first = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    cold = first.run_grid(configs=(MEDIUM,), schemes=("baseline", "nda"),
                          jobs=2)
    assert cold["simulated"] == 4

    # Fresh process-equivalent: new runner, same store directory.
    second = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                            store=ResultStore(tmp_path))
    warm = second.run_grid(configs=(MEDIUM,), schemes=("baseline", "nda"),
                           jobs=2)
    assert warm["simulated"] == 0
    assert warm["from_store"] == 4

    # And run() itself consults the store before simulating.
    third = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                           store=ResultStore(tmp_path))
    result = third.run(SUBSET[0], MEDIUM, "baseline")
    assert result.stats.to_dict() == first.run(
        SUBSET[0], MEDIUM, "baseline").stats.to_dict()


def test_cell_batch_dedups_duplicates():
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    cell = (BENCH, SMALL, "baseline")
    summary = runner.run_cell_batch([cell, cell, cell], jobs=1)
    assert summary["total"] == 1
    assert summary["simulated"] == 1


def test_store_sees_external_writer(tmp_path):
    reader = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    key = runner.cell_key(BENCH, SMALL, "baseline")
    assert reader.load(key) is None  # indexes the (empty) directory
    ResultStore(tmp_path).save(key, runner.run(BENCH, SMALL, "baseline"))
    assert reader.load(key) is not None  # mtime gate triggers a refresh


def test_run_cells_serial_fallback():
    spec = (BENCH, SMALL, "baseline", (), 0.05, 2017)
    results = run_cells([spec], jobs=1)
    assert len(results) == 1
    assert results[0].program_name == BENCH
    assert run_cells([], jobs=4) == []


def test_run_cells_propagates_worker_errors():
    bad = ("no.such.benchmark", SMALL, "baseline", (), 0.05, 2017)
    good = (BENCH, SMALL, "baseline", (), 0.05, 2017)
    # Two specs keep jobs=2 after the min(jobs, len(specs)) clamp, so
    # this genuinely exercises the pool path (exception pickled out of
    # a worker and re-raised by the parent), not the serial fallback.
    with pytest.raises(KeyError):
        run_cells([good, bad], jobs=2)
    with pytest.raises(KeyError):
        run_cells([bad], jobs=1)


# ----------------------------------------------------------------------
# Cell failures: a raising cell is recorded, a dying worker aborts, and
# re-running over the store resumes to a fault-free serial result.
# ----------------------------------------------------------------------

SCALE = 0.05
SCHEMES = ("baseline", "nda")
#: The one cell the fault tests make misbehave inside pool workers.
POISON = ("548.exchange2", "nda")


def store_bytes(root):
    """``{key: canonical bytes}`` of every cell in a store: its model
    version, meta and :func:`result_record`, where the store contract
    lives (row order depends on which cell finished first)."""
    store = ResultStore(root)
    db = sqlite3.connect(str(root / MANIFEST_NAME))
    rows = db.execute("SELECT key, model_version, meta FROM cells")
    cells = {key: json.dumps([version, json.loads(meta),
                              result_record(store.load(key))],
                             sort_keys=True).encode("utf-8")
             for key, version, meta in rows}
    db.close()
    return cells


def serial_store(tmp_path):
    """A fault-free serial campaign; returns its store's bytes."""
    root = tmp_path / "serial"
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(root))
    summary = runner.run_grid(configs=(SMALL,), schemes=SCHEMES)
    assert summary["simulated"] == 4 and summary["failed"] == 0
    return store_bytes(root)


def inject_fault(monkeypatch, fault):
    """Make the :data:`POISON` cell call ``fault()`` in pool workers.

    Patched before the pool forks, so the workers inherit it.  The
    parent never runs the fault: a serial fallback fails loudly instead
    of taking the test process down.
    """
    parent = os.getpid()
    simulate = parallel.simulate_cell

    def faulty(spec):
        if (spec[0], spec[2]) == POISON:
            assert os.getpid() != parent, "fault cell ran outside the pool"
            fault()
        return simulate(spec)

    monkeypatch.setattr(parallel, "simulate_cell", faulty)


def spy_simulations(monkeypatch):
    """Record the ``(benchmark, scheme)`` of every in-process simulation."""
    simulated = []
    simulate = parallel.simulate_cell

    def spy(spec):
        simulated.append((spec[0], spec[2]))
        return simulate(spec)

    monkeypatch.setattr(parallel, "simulate_cell", spy)
    return simulated


def campaign(root, jobs):
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(root))
    return runner, runner.run_grid(configs=(SMALL,), schemes=SCHEMES,
                                   jobs=jobs)


def test_raising_pool_cell_is_recorded_and_rerun_resumes(tmp_path,
                                                         monkeypatch):
    expected = serial_store(tmp_path)
    root = tmp_path / "faulty"

    def boom():
        raise RuntimeError("injected simulation fault")

    inject_fault(monkeypatch, boom)
    runner, summary = campaign(root, jobs=2)
    assert summary["failed"] == 1 and summary["simulated"] == 3
    poison_key = runner.cell_key(POISON[0], SMALL, POISON[1])
    [failure] = ResultStore(root).failures()
    assert failure.key == poison_key
    assert (failure.benchmark, failure.config_name, failure.scheme_name) \
        == (POISON[0], "small", POISON[1])
    assert "injected simulation fault" in failure.error
    assert "RuntimeError" in failure.traceback
    stored = set(ResultStore(root).keys())
    assert len(stored) == 3 and poison_key not in stored

    monkeypatch.undo()
    simulated = spy_simulations(monkeypatch)
    _runner, summary = campaign(root, jobs=2)
    assert simulated == [POISON]
    assert summary["simulated"] == 1 and summary["from_store"] == 3
    assert summary["failed"] == 0
    assert ResultStore(root).failures() == []
    assert store_bytes(root) == expected


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("field", ["registers", "memory"])
def test_cell_differing_from_reference_is_recorded(tmp_path, monkeypatch,
                                                   field, jobs):
    # Falsify the reference's final state of one benchmark before the
    # pool forks: both of its cells now disagree with the reference.
    trace = cached_spec_trace(POISON[0], scale=SCALE, seed=2017)
    column = "final_regs" if field == "registers" else "final_values"
    wrong = array("q", getattr(trace, column))
    wrong[5] += 1
    monkeypatch.setattr(trace, column, wrong)
    runner, summary = campaign(tmp_path, jobs=jobs)
    assert summary["failed"] == 2 and summary["simulated"] == 2
    failures = ResultStore(tmp_path).failures()
    assert {(f.benchmark, f.scheme_name) for f in failures} == {
        (POISON[0], scheme) for scheme in SCHEMES}
    for failure in failures:
        assert "final %s differ" % field in failure.error
    stored = {runner.cell_key(SUBSET[0], SMALL, scheme)
              for scheme in SCHEMES}
    assert set(ResultStore(tmp_path).keys()) == stored


def test_campaign_records_hold_no_snapshot(tmp_path):
    _runner, summary = campaign(tmp_path, jobs=1)
    assert summary["simulated"] == 4
    db = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    columns = {row[1] for row in db.execute("PRAGMA table_info(cells)")}
    db.close()
    assert columns == {"key", "model_version", "benchmark", "config",
                       "scheme", "halted", "cycles", "meta", "stats", "crc"}


def test_dying_pool_worker_aborts_and_rerun_resumes(tmp_path, monkeypatch):
    expected = serial_store(tmp_path)
    root = tmp_path / "faulty"

    inject_fault(monkeypatch, lambda: os._exit(1))
    with pytest.raises(BrokenProcessPool, match="worker process died"):
        campaign(root, jobs=2)
    partial = store_bytes(root)
    assert len(partial) < 4
    # A cell that kills its worker is not settled as a failure.
    assert ResultStore(root).failures() == []

    monkeypatch.undo()
    _runner, summary = campaign(root, jobs=2)
    assert summary["from_store"] == len(partial)
    assert summary["simulated"] == 4 - len(partial)
    assert summary["failed"] == 0
    assert store_bytes(root) == expected


# ----------------------------------------------------------------------
# Progress reporting.
# ----------------------------------------------------------------------

def test_serial_and_pool_report_progress_and_stream_results():
    specs = [(benchmark, SMALL, "baseline", (), SCALE, 2017)
             for benchmark in SUBSET]
    for jobs in (1, 2):
        progress = ProgressReporter(label="test").begin(len(specs))
        streamed = {}
        results = run_cells(
            specs, jobs=jobs, progress=progress,
            on_result=lambda i, r: streamed.__setitem__(i, r))
        assert progress.done == len(specs)
        assert sorted(streamed) == list(range(len(specs)))
        for index, result in enumerate(results):
            assert streamed[index].stats.to_dict() == result.stats.to_dict()


def test_progress_reporter_counters_and_render():
    progress = ProgressReporter(label="grid").begin(4)
    for _ in range(3):
        progress.cell_done(worker="w1")
    progress.cell_done(worker="w2")
    snap = progress.snapshot()
    assert snap["done"] == 4 and snap["total"] == 4
    assert snap["per_worker"] == {"w1": 3, "w2": 1}
    assert snap["cells_per_second"] > 0
    line = progress.render()
    assert "4/4" in line and "w1:3" in line and "w2:1" in line
    # A clean campaign's line carries no failure noise.
    assert "failed" not in line


def test_progress_reporter_failure_counters():
    progress = ProgressReporter(label="grid").begin(4)
    progress.cell_done(worker="w1")
    progress.cell_failed()
    progress.cell_failed()
    snap = progress.snapshot()
    assert snap["failed"] == 2
    # Failures settle cells: 1 done + 2 failed of 4 -> 1 remaining.
    line = progress.render()
    assert "1/4" in line and "2 failed" in line
    progress.cell_done(worker="w2")
    assert "done in" in progress.render()


def test_progress_json_mode_emits_parseable_snapshots():
    stream = io.StringIO()
    reporter = ProgressReporter(label="grid", stream=stream,
                                min_interval=0.0, mode="json")
    reporter.begin(2)
    reporter.cell_done(worker="w1")
    reporter.cell_done(worker="w2")
    reporter.finish()

    lines = [line for line in stream.getvalue().splitlines() if line]
    assert lines, "json mode emitted nothing"
    for line in lines:
        snap = json.loads(line)
        assert snap["label"] == "grid"
        assert snap["total"] == 2
    final = json.loads(lines[-1])
    assert final["done"] == 2
    assert final["per_worker"] == {"w1": 1, "w2": 1}


def test_progress_mode_validated():
    with pytest.raises(ValueError, match="unknown progress mode"):
        ProgressReporter(mode="yaml")


def test_experiment_grid_needs():
    from repro.harness.experiments import (
        experiment_grid_needs,
        experiment_ids,
    )

    assert experiment_grid_needs("figure9") is None
    assert experiment_grid_needs("ablation-l1-latency") is None
    configs, schemes, benchmarks = experiment_grid_needs("table1")
    assert schemes == ("baseline",)
    assert benchmarks is None
    assert len(configs) == 4
    configs, schemes, benchmarks = experiment_grid_needs("exchange2")
    assert [c.name for c in configs] == ["mega"]
    assert benchmarks == ("548.exchange2",)
    # table5 only reads the gem5-comparable subset; pre-population must
    # not pay for the excluded benchmarks.
    from repro.gem5 import GEM5_EXCLUDED

    _configs, _schemes, benchmarks = experiment_grid_needs("table5")
    assert benchmarks is not None
    assert not set(benchmarks) & set(GEM5_EXCLUDED)
    assert len(benchmarks) == 19
    # Every registered experiment either declares needs or is known
    # cache-free.
    cache_free = {"figure9", "ablation-store-taints", "ablation-l1-latency"}
    for experiment_id in experiment_ids():
        needs = experiment_grid_needs(experiment_id)
        assert (needs is None) == (experiment_id in cache_free), experiment_id
    # The needs declaration lives *in* the registry entry, next to the
    # callable it describes — no parallel table to drift.
    from repro.harness.experiments import EXPERIMENTS

    for experiment_id, entry in EXPERIMENTS.items():
        assert callable(entry.func), experiment_id
        assert entry.needs is None or callable(entry.needs), experiment_id
    assert experiment_grid_needs("unknown-experiment") is None


# ----------------------------------------------------------------------
# Satellite regressions.
# ----------------------------------------------------------------------

def test_result_is_idempotent():
    from repro.pipeline.core import OoOCore
    from repro.workloads.kernels import streaming_kernel

    core = OoOCore(streaming_kernel(iterations=30), config=MEDIUM,
                   scheme="nda", warm_caches=True)
    first = core.run()
    again = core.result()
    assert first.stats.extra == again.stats.extra
    assert first.stats.to_dict() == again.stats.to_dict()
    # The live counters never absorbed the merged extras.
    assert "accesses" not in core.stats.extra


def test_shared_runner_keys_on_benchmarks():
    full = shared_runner(scale=0.07)
    subset = shared_runner(scale=0.07, benchmarks=SUBSET)
    assert subset is not full
    assert subset.benchmarks == SUBSET
    assert len(full.benchmarks) > len(SUBSET)
    assert shared_runner(scale=0.07, benchmarks=SUBSET) is subset


def test_figure7_headers_follow_configs():
    from repro.harness.experiments import experiment_figure7

    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    custom = MEGA.scaled(name="mega-variant", rob_entries=64)
    report = experiment_figure7(runner, configs=(SMALL, custom))
    assert "mega-variant" in report.text
    assert "medium" not in report.text
    for scheme_data in report.data.values():
        assert set(scheme_data) == {"small", "mega-variant"}
