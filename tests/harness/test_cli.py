"""CLI-level tests for ``python -m repro`` (the new subcommands)."""

import json

import pytest

from repro.__main__ import main
from repro.harness.bench import profile_cell
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.pipeline.config import SMALL
from tests.conftest import assert_damaged_cell_refused, damage_stats

BENCH = "503.bwaves"


def test_cli_grid_serial_and_store(tmp_path, capsys):
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--store-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 cells" in out and "1 simulated" in out
    assert len(ResultStore(tmp_path)) == 1


def test_cli_store_verify_and_gc(tmp_path, capsys):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    # One healthy in-grid cell (default scale 1.0 for gc, so save one
    # at scale 1.0 identity), one whose statistics blob is damaged.
    grid_runner = CampaignRunner(scale=1.0, benchmarks=(BENCH,))
    key = grid_runner.cell_key(BENCH, SMALL, "baseline")
    store.save(key, runner.run(BENCH, SMALL, "baseline"))
    store.save("e" * 64, runner.run(BENCH, SMALL, "nda"))
    store.close()
    damage_stats(tmp_path, "e" * 64)
    assert_damaged_cell_refused(tmp_path, "e" * 64)

    assert main(["store", "verify", "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 scanned" in out and "1 corrupt deleted" in out
    assert ResultStore(tmp_path).keys() == [key]

    assert main(["store", "gc", "--store-dir", str(tmp_path),
                 "--benchmarks", BENCH]) == 0
    out = capsys.readouterr().out
    assert "1 kept, 0 dropped" in out

    # gc for a different scale keeps nothing.
    assert main(["store", "gc", "--store-dir", str(tmp_path),
                 "--scale", "0.25", "--benchmarks", BENCH]) == 0
    out = capsys.readouterr().out
    assert "0 kept, 1 dropped" in out
    assert len(ResultStore(tmp_path)) == 0


def test_cli_store_failures(tmp_path, capsys):
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    # A clean store exits 0 and says so.
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 0
    assert "0 recorded" in capsys.readouterr().out

    store.save_failure(CellFailure(
        key="a" * 64, benchmark=BENCH, config_name="small",
        scheme_name="baseline", worker="w9",
        error="ValueError: final registers differ from the reference"))
    # Any recorded failure makes the action exit nonzero (scriptable in
    # CI as a campaign-health check).
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 recorded" in out
    assert "a" * 64 in out and BENCH + "/small/baseline" in out
    assert "worker w9" in out and "final registers differ" in out


def test_cli_grid_records_failed_cell_and_rerun_resumes(tmp_path, capsys,
                                                       monkeypatch):
    import repro.harness.parallel as parallel

    simulate = parallel.simulate_cell

    def faulty(spec):
        if spec[2] == "nda":
            raise RuntimeError("injected simulation fault")
        return simulate(spec)

    args = ["grid", "--scale", "0.05", "--benchmarks", BENCH,
            "--configs", "small", "--schemes", "baseline", "nda",
            "--store-dir", str(tmp_path)]
    monkeypatch.setattr(parallel, "simulate_cell", faulty)
    assert main(args) == 1
    assert "1 simulated" in capsys.readouterr().out
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "injected simulation fault" in out
    # Results and failures share the one store file; ``programs/`` is
    # the program cache the CLI keeps beside it.
    assert {path.name for path in tmp_path.iterdir()} <= {
        "manifest.db", "manifest.db-wal", "manifest.db-shm", "programs"}

    monkeypatch.undo()
    assert main(args) == 0
    assert "1 simulated, 1 from store" in capsys.readouterr().out
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 0


def test_cli_accepts_underscore_scheme_aliases(tmp_path, capsys):
    """Registry aliases (stt_rename) must survive argparse choices."""
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "stt_rename",
                 "--store-dir", str(tmp_path)])
    assert code == 0
    assert "1 simulated" in capsys.readouterr().out


def test_cli_restores_program_cache_configuration(tmp_path):
    """main() must not leak one run's disk-cache dir into the process."""
    from repro.workloads.program_cache import disk_cache_dir

    before = disk_cache_dir()
    assert main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--store-dir", str(tmp_path)]) == 0
    assert disk_cache_dir() == before


def test_cli_schemes_lists_registry(capsys):
    from repro.core.registry import iter_specs

    assert main(["schemes", "--verbose"]) == 0
    out = capsys.readouterr().out
    for spec in iter_specs():
        assert spec.name in out
    assert "split_store_taints" in out  # kwargs schema printed


def test_cli_grid_populates_program_disk_cache(tmp_path, capsys):
    """make_runner points the program cache at <store>/programs."""
    from repro.workloads.program_cache import clear_cache, configure_disk_cache

    previous = configure_disk_cache(None)
    clear_cache()  # the disk layer persists at generation time
    try:
        code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                     "--configs", "small", "--schemes", "baseline",
                     "--store-dir", str(tmp_path)])
        assert code == 0
        assert list((tmp_path / "programs").glob("*.json"))
    finally:
        configure_disk_cache(previous)


def test_cli_run_unknown_experiment(capsys):
    assert main(["run", "definitely-not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["profile", "--config", "huge"],
    ["grid", "--configs", "huge"],
    ["grid", "--benchmarks", "nope"],
    ["pipeview", "nope"],
    ["pipeview", "streaming-warm", "--limit", "-1"],
    ["pipeview", "streaming-warm", "--limit", "0"],
])
def test_cli_rejects_bad_names_with_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_config_names_are_case_insensitive(tmp_path, capsys):
    assert main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "SMALL", "--schemes", "baseline",
                 "--no-store"]) == 0
    assert "1 simulated" in capsys.readouterr().out


def test_cli_pipeview_writes_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.out"
    code = main(["pipeview", "streaming-warm", "--config", "small",
                 "--scale", "0.02", "--limit", "64",
                 "--output", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("O3PipeView:fetch:")
    assert "O3PipeView:retire:" in text
    err = capsys.readouterr().err
    assert "uop record(s)" in err and "traced streaming-warm" in err


def test_cli_pipeview_stdout(capsys):
    assert main(["pipeview", "streaming-warm", "--config", "small",
                 "--scale", "0.02", "--limit", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("O3PipeView:fetch:")


def test_cli_metrics_reports_stall_breakdown(tmp_path, capsys):
    # Empty store: exit 1 with a pointer to populate it.
    assert main(["metrics", str(tmp_path)]) == 1
    assert "no cycle-accounted results" in capsys.readouterr().err

    assert main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline", "fence",
                 "--store-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "fence" in out
    assert "conservation: ok" in out
    assert "VIOLATED" not in out


def test_cli_profile_json(capsys):
    code = main(["profile", "--scale", "0.02", "--json",
                 "--sort", "tottime", "--top", "5",
                 "--benchmark", "streaming-warm", "--config", "small"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sort"] == "tottime"
    assert report["benchmark"] == "streaming-warm"
    assert 0 < len(report["functions"]) <= 5
    times = [row["tottime"] for row in report["functions"]]
    assert times == sorted(times, reverse=True)
    host = report["host"]
    assert host["python"] and host["platform"]
    assert host["cpu_count"] >= 1
    assert report["simulated_cycles"] > 0
    # The profiled core carries the cycle account every campaign cell
    # runs with, so the profile measures the shipped configuration.
    _report, result = profile_cell("streaming-warm", "small", scale=0.02,
                                   as_json=True)
    assert result.stats.extra["cycacct.cycles"] == result.cycles


def test_cli_grid_progress_json(tmp_path, capsys):
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--progress", "json", "--store-dir", str(tmp_path)])
    assert code == 0
    err_lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("{")]
    assert err_lines, "no JSONL progress emitted"
    snap = json.loads(err_lines[-1])
    assert snap["done"] == snap["total"] == 1


def test_cli_store_stats_and_verbs(tmp_path, capsys):
    from repro.harness.storebench import synthetic_key, synthetic_result

    store = ResultStore(tmp_path)
    store.save(synthetic_key(0), synthetic_result(0))
    store.close()
    assert main(["store", "stats", "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "format cells-v2" in out and "cells: 1" in out
    # One format and one file: nothing to migrate, nothing to compact.
    for verb in ("migrate", "compact"):
        with pytest.raises(SystemExit) as info:
            main(["store", verb, "--store-dir", str(tmp_path)])
        assert info.value.code == 2


def test_cli_bench_verb_is_gone():
    # Host-time measurement is perfbench/run.py; there is no bench verb.
    with pytest.raises(SystemExit) as info:
        main(["bench"])
    assert info.value.code == 2
