"""Shared fixtures for the test suite."""

import json
import pathlib
import re
import sqlite3

import pytest

from repro import MEGA, SMALL, OoOCore, make_scheme, run_reference
from repro.core.registry import scheme_names
from repro.harness.store import (
    MANIFEST_NAME,
    MODEL_VERSION,
    CorruptRecord,
    ResultStore,
)
from repro.pipeline.core import SimulationResult
from repro.workloads.generator import WorkloadProfile, generate_program

#: Every registered scheme, straight from the registry — new variants
#: automatically join the scheme-parametrised tests.
ALL_SCHEMES = scheme_names()


#: Scheme variants of the kernel-equivalence grids (golden fixture,
#: trace replay, cycle account): every registered scheme plus the
#: Section 9.2 split-store-taint ablation of STT-Rename.
SCHEME_VARIANTS = (
    ("baseline", {}),
    ("stt-rename", {}),
    ("stt-rename", {"split_store_taints": True}),
    ("stt-issue", {}),
    ("nda", {}),
    ("fence", {}),
    ("delay-on-miss", {}),
)


@pytest.fixture(params=ALL_SCHEMES)
def scheme_name(request):
    """Parametrise a test over every scheme."""
    return request.param


def run_all_schemes(program, config=MEGA, **core_kwargs):
    """Run a program under every scheme; returns {name: result}."""
    results = {}
    for name in ALL_SCHEMES:
        core = OoOCore(program, config=config, scheme=make_scheme(name),
                       **core_kwargs)
        results[name] = core.run()
    return results


def assert_matches_reference(program, result, context=""):
    """Assert a pipeline result's architectural state equals the oracle."""
    ref = run_reference(program, max_steps=5_000_000)
    for reg in range(32):
        assert result.regs[reg] == ref.state.read_reg(reg), (
            "%s: register x%d mismatch: pipeline %d vs reference %d"
            % (context, reg, result.regs[reg], ref.state.read_reg(reg))
        )
    ref_memory = {a: v for a, v in ref.state.memory.items() if v != 0}
    got_memory = {a: v for a, v in result.memory.items() if v != 0}
    assert got_memory == ref_memory, "%s: memory mismatch" % context


def small_profile(name="test", **overrides):
    """A fast-to-simulate workload profile for integration tests."""
    params = dict(
        name=name,
        iterations=8,
        body_templates=6,
        body_blocks=2,
        working_set_words=256,
        ring_words=32,
        scratch_words=16,
    )
    params.update(overrides)
    return WorkloadProfile(**params)


def small_program(name="test", seed=1, **overrides):
    return generate_program(small_profile(name, **overrides), seed=seed)


def damage_stats(root, key):
    """Flip the first bytes of one stored cell's ``stats`` blob, as a
    torn write or bit rot would, leaving its CRC as it was."""
    db = sqlite3.connect(str(pathlib.Path(root) / MANIFEST_NAME))
    (blob,) = db.execute("SELECT stats FROM cells WHERE key=?",
                         (key,)).fetchone()
    db.execute("UPDATE cells SET stats=? WHERE key=?",
               (bytes(255 - b for b in blob[:8]) + blob[8:], key))
    db.commit()
    db.close()


def assert_damaged_cell_refused(root, key):
    """A damaged cell reads as absent through ``load``, and touching a
    lazily loaded copy's statistics names ``store verify``."""
    store = ResultStore(root)
    assert store.load(key) is None
    lazy = store.load_many([key])[key]
    with pytest.raises(CorruptRecord, match="python -m repro store verify"):
        lazy.stats
    store.close()


#: The golden equivalence fixture (see tests/pipeline/
#: test_kernel_equivalence.py): one JSON envelope file per cell.
GOLDEN_DIR = pathlib.Path(__file__).parent / "pipeline" / "golden_store"


_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def cell_filename(benchmark, config_name, scheme_name, key):
    """Browsable fixture filename for one cell: readable prefix + the
    key's first 12 hex digits (``load_golden`` checks the full key)."""
    prefix = "__".join(
        _SAFE.sub("-", part) for part in (benchmark, config_name, scheme_name)
    )
    return "%s__%s.json" % (prefix, key[:12])


def load_golden(key):
    """The golden :class:`SimulationResult` recorded under ``key``, or
    ``None`` when the fixture has no such cell."""
    for path in GOLDEN_DIR.glob("*__%s.json" % key[:12]):
        with open(path) as handle:
            data = json.load(handle)
        if data["key"] == key:
            return SimulationResult.from_dict(data["result"])
    return None


def save_golden(key, result, meta):
    """Record one golden cell.

    Writes the envelope ``{"key", "meta", "model_version", "result"}``
    as sorted-key JSON under :func:`cell_filename`, the serialisation
    every committed fixture file already has.
    """
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    path = GOLDEN_DIR / cell_filename(
        result.program_name, result.config_name, result.scheme_name, key)
    envelope = {
        "key": key,
        "meta": dict(meta),
        "model_version": MODEL_VERSION,
        "result": result.to_dict(),
    }
    with open(path, "w") as handle:
        json.dump(envelope, handle, sort_keys=True)
