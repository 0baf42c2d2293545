"""Tests for the experiment harness and gem5 proxy (fast scales)."""

import pytest

from repro.harness.experiments import (
    ExperimentReport,
    experiment_exchange2,
    experiment_figure9,
    experiment_ids,
    experiment_table1,
    run_experiment,
)
from repro.harness.runner import CampaignRunner
from repro.pipeline.config import MEDIUM, MEGA


@pytest.fixture(scope="module")
def runner():
    """A small shared campaign for harness tests."""
    return CampaignRunner(scale=0.1, benchmarks=(
        "503.bwaves", "548.exchange2", "541.leela",
    ))


def test_runner_caches_results(runner):
    first = runner.run("503.bwaves", MEGA, "baseline")
    second = runner.run("503.bwaves", MEGA, "baseline")
    assert first is second


def test_suite_results_ordered(runner):
    results = runner.suite_results(MEGA, "baseline")
    assert [r.program_name for r in results] == list(runner.benchmarks)


def test_experiment_registry_complete():
    ids = experiment_ids()
    for expected in ("table1", "table3", "table4", "table5", "figure6",
                     "figure7", "figure8", "figure9", "figure10",
                     "exchange2", "ablation-store-taints",
                     "ablation-l1-latency"):
        assert expected in ids


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("table99")


def test_table1_report(runner):
    report = experiment_table1(runner)
    assert isinstance(report, ExperimentReport)
    assert "small" in report.text and "mega" in report.text
    assert set(report.data) == {"small", "medium", "large", "mega"}
    assert report.data["mega"] > report.data["small"]


def test_figure9_needs_no_simulation():
    report = experiment_figure9()
    assert "baseline" in report.text
    for config in ("small", "medium", "large", "mega"):
        assert config in report.data
        assert report.data[config]["stt-rename"]["mhz"] > 0


def test_exchange2_report(runner):
    report = experiment_exchange2(runner)
    assert "stt-rename" in report.data
    assert report.data["stt-rename"]["ipc"] > 0
    assert "error_ratio_vs_nda" in report.data


def test_report_str_renders():
    report = experiment_figure9()
    text = str(report)
    assert report.title in text


def test_gem5_configs():
    from repro.gem5 import GEM5_NDA_CONFIG, GEM5_STT_CONFIG, gem5_config

    assert gem5_config("stt") is GEM5_STT_CONFIG
    assert gem5_config("nda") is GEM5_NDA_CONFIG
    # The Section 9.5 complaint: a 1-cycle L1 in the STT-paper config.
    assert GEM5_STT_CONFIG.mem.l1_latency == 1
    assert GEM5_STT_CONFIG.mem.l1_latency < MEGA.mem.l1_latency
    with pytest.raises(ValueError):
        gem5_config("esp")


#: Off-grid cells per experiment at ``OFF_GRID_BENCHMARKS``: Table 5's
#: gem5 rows (2 configs x 2 schemes x 2 benchmarks), the two store-taint
#: designs, and the L1 sweep (3 latencies x 2 schemes x 1 sampled).
OFF_GRID = {"table5": 8, "ablation-store-taints": 2, "ablation-l1-latency": 6}
OFF_GRID_BENCHMARKS = ("503.bwaves", "548.exchange2")


@pytest.mark.parametrize("experiment_id", sorted(OFF_GRID))
def test_off_grid_cells_simulate_through_simulate_cell(tmp_path, monkeypatch,
                                                        experiment_id):
    """Every core an off-grid artefact builds is a ``simulate_cell``
    core, and its off-grid cells are never stored."""
    import repro.harness.parallel as parallel_module
    import repro.harness.runner as runner_module
    from repro.harness.experiments import needed_cells
    from repro.harness.store import ResultStore
    from repro.pipeline.core import OoOCore

    built, specs, saved = [], [], []
    original_init = OoOCore.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    original_simulate = parallel_module.simulate_cell

    def counting_simulate(spec):
        specs.append(spec)
        return original_simulate(spec)

    original_save = ResultStore.save

    def counting_save(self, key, *args, **kwargs):
        saved.append(key)
        return original_save(self, key, *args, **kwargs)

    monkeypatch.setattr(OoOCore, "__init__", counting_init)
    monkeypatch.setattr(parallel_module, "simulate_cell", counting_simulate)
    monkeypatch.setattr(runner_module, "simulate_cell", counting_simulate)
    monkeypatch.setattr(ResultStore, "save", counting_save)

    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.02, benchmarks=OFF_GRID_BENCHMARKS,
                            store=store)
    report = run_experiment(experiment_id, runner=runner)
    store.close()

    assert len(built) == len(specs) > 0
    grid_keys = {runner.cell_key(b, c, s)
                 for b, c, s in needed_cells((experiment_id,), runner)}
    keys = [runner.cell_key(b, c, s, dict(kwargs))
            for b, c, s, kwargs, _scale, _seed in specs]
    off_grid = [key for key in keys if key not in grid_keys]
    assert len(off_grid) == OFF_GRID[experiment_id]
    # Off-grid cells are never stored; grid cells are stored once each.
    assert not set(off_grid) & set(saved)
    assert sorted(saved) == sorted(key for key in keys if key in grid_keys)

    if experiment_id == "table5":
        for which, scheme in (("stt", "stt-rename"), ("nda", "nda")):
            row = report.data["gem5-" + which]
            assert row["baseline_ipc"] > 0
            assert -0.2 <= row[scheme] <= 1.0
