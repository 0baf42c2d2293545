"""Engineering benchmark: ResultStore read/write throughput.

Not a paper artefact — this times the segment-backed store on
synthetic campaigns, so store performance regressions are visible in
CI the same way simulator throughput regressions are.  The
populate/read operations come from the same module as ``python -m
repro bench --store`` (:mod:`repro.harness.storebench`), so the CLI's
JSON report and these pytest-benchmark numbers always measure the same
thing.

Cell count defaults to 1000; ``REPRO_STORE_BENCH_CELLS`` overrides it
(CI smoke keeps it small, perf investigations raise it).
"""

import os
import shutil

import pytest

from repro.harness.store import ResultStore
from repro.harness.storebench import (
    run_store_bench,
    synthetic_key,
    synthetic_result,
)

CELLS = int(os.environ.get("REPRO_STORE_BENCH_CELLS", "1000"))


def populate(root, count=CELLS):
    writer = ResultStore(root)
    keys = []
    for index in range(count):
        key = synthetic_key(index)
        writer.save(key, synthetic_result(index), {"index": index})
        keys.append(key)
    writer.close()
    return keys


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """(root, keys): one pre-built store shared by the read benchmarks."""
    root = tmp_path_factory.mktemp("store-bench")
    keys = populate(root)
    yield root, keys
    shutil.rmtree(root, ignore_errors=True)


def test_store_write_throughput(benchmark, tmp_path):
    """save() throughput (fresh store per round)."""
    counter = [0]

    def run():
        counter[0] += 1
        populate(tmp_path / ("round-%d" % counter[0]), count=200)

    benchmark(run)


def test_store_load_many(benchmark, populated):
    """Bulk point-lookup of every key (the analysis hot path)."""
    root, keys = populated

    def run():
        store = ResultStore(root)
        loaded = store.load_many(keys)
        store.close()
        return loaded

    loaded = benchmark(run)
    assert len(loaded) == len(keys)


def test_store_iter_results_columnar(benchmark, populated):
    """Full-store scan touching only hot statistics (``metrics`` path)."""
    root, keys = populated

    def run():
        store = ResultStore(root)
        total = 0
        for row in store.iter_results(fields=("stats",)):
            total += row.stats.cycles + row.stats.committed_instructions
        store.close()
        return total

    assert benchmark(run) > 0


def test_store_keys_listing(benchmark, populated):
    """keys()/len() — a manifest index read."""
    root, keys = populated

    def run():
        store = ResultStore(root)
        listed = store.keys()
        store.close()
        return listed

    assert sorted(benchmark(run)) == sorted(keys)


def test_store_bench_report():
    """The aggregate CLI report (``python -m repro bench --store``) at a
    smoke-sized cell count: every operation timed, every cell stored."""
    report = run_store_bench(cell_counts=(200,))
    ops = report["cells"]["200"]
    assert set(ops) == {"write", "keys", "load_many", "load_many_stats",
                        "iter_results", "iter_full"}
    assert all(op["seconds"] > 0 for op in ops.values())
    assert report["store_stats"]["200"]["compression_ratio"] > 1.0
