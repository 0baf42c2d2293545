"""Store-backed reports: served from the manifest, never the segments.

A report over a warm store must cost one bulk index read per
experiment and no segment I/O: every experiment reads only
statistics, which the manifest holds, and its ``needs`` declaration
lets :func:`run_experiment` fetch all its cells in one ``load_many``.
These tests count calls, not time.
"""

import pytest

import repro.harness.runner as runner_module
from repro.core.registry import grid_scheme_names
from repro.harness.experiments import (
    experiment_grid_needs,
    experiment_ids,
    needed_cells,
    run_experiment,
)
from repro.harness.runner import CampaignRunner
from repro.harness.segments import SEGMENT_DIR, SEGMENT_SUFFIX, CorruptRecord
from repro.harness.store import ResultStore
from repro.pipeline.config import SMALL, named_configs

SCALE = 0.02
BENCHMARKS = ("503.bwaves", "548.exchange2")

STORE_BACKED = [e for e in experiment_ids()
                if experiment_grid_needs(e) is not None]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store holding every grid cell of ``BENCHMARKS``, plus each
    store-backed experiment rendered from the in-memory results."""
    root = tmp_path_factory.mktemp("report-store")
    store = ResultStore(root)
    writer = CampaignRunner(scale=SCALE, benchmarks=BENCHMARKS, store=store)
    summary = writer.run_grid(configs=named_configs(),
                              schemes=grid_scheme_names())
    assert summary["simulated"] == 4 * len(grid_scheme_names()) * 2
    store.close()
    writer.store = None
    expected = {e: str(run_experiment(e, runner=writer))
                for e in STORE_BACKED}
    return root, expected


def _count(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("experiment_id", STORE_BACKED)
def test_warm_store_report_reads_no_segment(warm_store, monkeypatch,
                                            experiment_id):
    root, expected = warm_store
    calls = dict.fromkeys(("_read_at", "load", "load_many", "save",
                           "simulate_cell", "run_cells"), 0)
    for name in ("_read_at", "load", "load_many", "save"):
        _count(monkeypatch, ResultStore, name, calls)
    for name in ("simulate_cell", "run_cells"):
        _count(monkeypatch, runner_module, name, calls)

    store = ResultStore(root)
    runner = CampaignRunner(scale=SCALE, benchmarks=BENCHMARKS, store=store)
    text = str(run_experiment(experiment_id, runner=runner))
    store.close()

    assert text == expected[experiment_id]
    assert calls["_read_at"] == 0, "report decoded a segment record"
    assert calls["load"] == 0
    # One bulk read: the experiment's ``needs`` covers every cell it
    # reads, so no per-cell lookup follows the preload.
    assert calls["load_many"] == 1
    assert calls["simulate_cell"] == calls["run_cells"] == 0
    assert calls["save"] == 0


def test_needed_cells_dedups_and_follows_runner_selection():
    runner = CampaignRunner(scale=SCALE, benchmarks=BENCHMARKS)
    schemes = len(grid_scheme_names())
    # figure6 (Mega, all schemes) is a slice of figure7's full grid.
    cells = needed_cells(("figure7", "figure6"), runner)
    assert len(cells) == 4 * schemes * len(BENCHMARKS)
    assert cells == needed_cells(("figure7",), runner)
    assert len(needed_cells(("table1",), runner)) == 4 * len(BENCHMARKS)
    assert needed_cells(("figure9",), runner) == []
    # A declared benchmark outside the runner's selection is dropped.
    bwaves_only = CampaignRunner(scale=SCALE, benchmarks=BENCHMARKS[:1])
    assert needed_cells(("exchange2",), bwaves_only) == []


def test_corrupt_segment_served_from_manifest_and_named_on_touch(
        tmp_path, monkeypatch):
    bench = BENCHMARKS[0]
    writer = CampaignRunner(scale=SCALE, benchmarks=(bench,),
                            store=ResultStore(tmp_path))
    expected = writer.run(bench, SMALL, "baseline")
    writer.store.close()
    (segment,) = sorted((tmp_path / SEGMENT_DIR).glob("*" + SEGMENT_SUFFIX))
    blob = bytearray(segment.read_bytes())
    blob[-4:] = bytes(255 - b for b in blob[-4:])  # payload CRC dies
    segment.write_bytes(bytes(blob))

    def no_simulation(spec):
        raise AssertionError("a stored cell was resimulated")

    monkeypatch.setattr(runner_module, "simulate_cell", no_simulation)
    reader = CampaignRunner(scale=SCALE, benchmarks=(bench,),
                            store=ResultStore(tmp_path))
    result = reader.run(bench, SMALL, "baseline")
    # Statistics come from the manifest, so the report path still works.
    assert result.stats.to_dict() == expected.stats.to_dict()
    assert result.cycles == expected.cycles
    # The snapshot lives only in the damaged record: touching it names
    # the repair command instead of returning wrong data.
    with pytest.raises(CorruptRecord, match="python -m repro store verify"):
        result.regs
