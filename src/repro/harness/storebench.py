"""Store-scale microbenchmark for the segment-backed result store.

Populates a store with synthetic-but-realistic campaign cells (full
register file, a few hundred memory words, ~40 cycle-accounting
extras — the shape real campaign results have), then times the read
paths every consumer actually exercises, always through the public
:class:`~repro.harness.store.ResultStore` API:

``write``
    N ``save()`` calls (the coordinator's streaming-persist path).
``keys``
    ``keys()`` — a manifest index scan.
``load_many``
    Fresh store instance, one bulk ``load_many`` over every key — the
    campaign resume scan (results materialised, snapshots untouched).
``load_many_stats``
    ``load_many`` + touching every result's statistics — the figure
    loaders' pattern.
``iter_results``
    ``iter_results(fields=("stats",))`` + a stall-accounting read per
    cell — the ``python -m repro metrics`` / analysis pass, served
    columnar from the manifest.
``iter_full``
    ``iter_results()`` with full snapshot decode — the worst-case
    bound, reported for transparency.

Run via ``python -m repro bench --store`` or
:mod:`benchmarks/bench_store.py` under pytest-benchmark.
"""

import hashlib
import shutil
import tempfile
import time

from repro.harness.store import ResultStore
from repro.pipeline.core import SimulationResult
from repro.pipeline.stats import SimStats

_BENCHMARKS = ("chase-cold", "chase-warm", "streaming-warm", "gemm-tiny",
               "spectre-v1", "exchange2", "leela", "xz")
_CONFIGS = ("small", "medium", "large", "mega")
_SCHEMES = ("baseline", "stt", "nda", "fence", "delay-on-miss")

#: Leaf causes + sub-causes mimicking a real ``cycacct.`` account.
_ACCOUNT_KEYS = (
    "width", "cycles", "committed", "frontend_latency", "branch_mispredict",
    "icache_miss", "dcache_miss", "rob_full", "iq_full", "ldq_full",
    "stq_full", "no_phys_regs", "scheme_delayed", "scheme.taint_blocked",
    "scheme.deferred_broadcast", "scheme.fence_drain",
    "issue_blocks.transmitter", "issue_blocks.yrot_unsafe",
    "occ.rob", "occ.iq", "occ.ldq", "occ.stq",
)


def synthetic_key(index):
    """Deterministic stand-in for :func:`simulation_key`."""
    return hashlib.sha256(b"store-bench-cell-%d" % index).hexdigest()


def synthetic_result(index):
    """One realistic-shaped campaign cell, deterministic in ``index``."""
    cycles = 5_000 + (index * 97) % 3_000
    committed = 3_000 + (index * 31) % 2_000
    extra = {"cycacct.%s" % name: (index * 13 + j * 7) % 10_000
             for j, name in enumerate(_ACCOUNT_KEYS)}
    extra["cycacct.width"] = 4
    extra["cycacct.cycles"] = cycles
    extra["cycacct.committed"] = committed
    stats = SimStats(
        cycles=cycles,
        committed_instructions=committed,
        committed_loads=committed // 4,
        committed_stores=committed // 8,
        committed_branches=committed // 6,
        branch_mispredicts=(index * 11) % 200,
        stall_iq_full=(index * 5) % 1_000,
        stall_rob_full=(index * 3) % 800,
        fetched_instructions=committed + (index % 500),
        extra=extra,
    )
    regs = [(index * 2654435761 + r * 40503) % (1 << 32) for r in range(32)]
    memory = {4096 + 8 * j: (index ^ (j * 2246822519)) % (1 << 32)
              for j in range(192)}
    return SimulationResult(
        program_name=_BENCHMARKS[index % len(_BENCHMARKS)],
        scheme_name=_SCHEMES[index % len(_SCHEMES)],
        config_name=_CONFIGS[index % len(_CONFIGS)],
        stats=stats, regs=regs, memory=memory, halted=True, cycles=cycles,
    )


def _populate(root, count):
    """Write ``count`` synthetic cells; returns ``(keys, seconds)``."""
    writer = ResultStore(root)
    keys = []
    start = time.perf_counter()
    for index in range(count):
        key = synthetic_key(index)
        result = synthetic_result(index)
        writer.save(key, result, {"benchmark": result.program_name,
                                  "scale": 1.0, "seed": 2017})
        keys.append(key)
    elapsed = time.perf_counter() - start
    writer.close()
    return keys, elapsed


def _timed(op):
    start = time.perf_counter()
    checksum = op()
    return time.perf_counter() - start, checksum


def _read_ops(root, keys):
    """Time every read pattern through a fresh ResultStore facade."""
    ops = {}

    store = ResultStore(root)
    ops["keys"], found = _timed(lambda: len(store.keys()))
    assert found == len(keys), "keys() lost cells (%d != %d)" % (
        found, len(keys))

    store = ResultStore(root)
    seconds, found = _timed(lambda: len(store.load_many(keys)))
    assert found == len(keys)
    ops["load_many"] = seconds

    store = ResultStore(root)

    def load_many_stats():
        results = store.load_many(keys)
        return sum(r.stats.committed_instructions for r in results.values())

    ops["load_many_stats"], _ = _timed(load_many_stats)

    store = ResultStore(root)

    def iter_columnar():
        total = 0
        for result in store.iter_results(fields=("stats",)):
            total += result.stats.cycles
            total += result.stats.committed_instructions
        return total

    ops["iter_results"], _ = _timed(iter_columnar)

    store = ResultStore(root)

    def iter_full():
        total = 0
        for result in store.iter_results():
            total += result.stats.committed_instructions + len(result.memory)
        return total

    ops["iter_full"], _ = _timed(iter_full)
    return ops


def run_store_bench(cell_counts=(1_000, 10_000)):
    """Run the store benchmark; returns the JSON-ready report dict."""
    from repro.harness.bench import host_metadata
    from repro.harness.store import MODEL_VERSION

    report = {
        "benchmark": "result_store",
        "model_version": MODEL_VERSION,
        "host": host_metadata(),
        "cell_counts": list(cell_counts),
        "cells": {},
        "store_stats": {},
    }
    for count in cell_counts:
        workdir = tempfile.mkdtemp(prefix="storebench-")
        try:
            keys, write_seconds = _populate(workdir, count)
            ops = {"write": write_seconds}
            ops.update(_read_ops(workdir, keys))
            disk = ResultStore(workdir).stats()
            report["store_stats"][str(count)] = {
                "segments": disk["segments"],
                "disk_bytes": disk["disk_bytes"],
                "compression_ratio": disk["compression_ratio"],
            }
            report["cells"][str(count)] = {
                op: {"seconds": round(seconds, 6),
                     "cells_per_sec": round(count / seconds, 1)
                     if seconds else None}
                for op, seconds in ops.items()
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return report
