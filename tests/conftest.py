"""Shared fixtures for the test suite."""

import json
import pathlib

import pytest

from repro import MEGA, SMALL, OoOCore, make_scheme, run_reference
from repro.core.registry import scheme_names
from repro.harness.store import MODEL_VERSION, cell_filename
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


#: The golden equivalence fixture (see tests/pipeline/
#: test_kernel_equivalence.py): one JSON envelope file per cell.
GOLDEN_DIR = pathlib.Path(__file__).parent / "pipeline" / "golden_store"


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
