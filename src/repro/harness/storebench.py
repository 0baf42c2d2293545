"""Synthetic-but-realistic campaign cells for store-scale checks.

Each cell has the shape the store keeps of a real campaign result —
identity, ``halted``, ``cycles`` and statistics with ~40
cycle-accounting extras — and is deterministic in its index, so
``scripts/store_scale_smoke.py`` and the store tests can build large
stores without simulating.
"""

import hashlib

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
    # The store keeps no architectural snapshot, so none is made up.
    return SimulationResult(
        program_name=_BENCHMARKS[index % len(_BENCHMARKS)],
        scheme_name=_SCHEMES[index % len(_SCHEMES)],
        config_name=_CONFIGS[index % len(_CONFIGS)],
        stats=stats, regs=[0] * 32, memory={}, halted=True, cycles=cycles,
    )
