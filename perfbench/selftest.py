"""Quick tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at a tiny size and feeds each correctness check a
corrupted result.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.run import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + list(args), cwd=str(cwd),
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line for line in lines[:-1])
        if not trace:
            assert printed["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = tail(range(100))
    assert (value, percentile, beyond) == (89, 90.0, 10)


# -- each check rejects a corrupted result -----------------------------------


@pytest.fixture(scope="module")
def cell():
    from repro import MEGA, OoOCore, make_scheme, run_reference
    from repro.obs import CycleAccount, LEAF_CAUSES
    from repro.workloads.kernels import forwarding_kernel

    program = forwarding_kernel(iterations=8, slots=4, array_words=64)
    result = OoOCore(program, config=MEGA, scheme=make_scheme("nda"),
                     account=CycleAccount()).run()
    reference = checks.reference_state(run_reference, program)
    return result, reference, LEAF_CAUSES


def test_intact_cell_passes(cell):
    result, reference, leaves = cell
    assert checks.check_cell(result, reference, leaves) == []


@pytest.mark.parametrize("corrupt", ["halted", "regs", "memory"])
def test_cell_check_rejects_wrong_state(cell, corrupt):
    result, reference, leaves = cell
    bad = copy.deepcopy(result)
    if corrupt == "halted":
        bad.halted = False
    elif corrupt == "regs":
        bad.regs[5] += 1
    else:
        addr = next(iter(bad.memory))
        bad.memory[addr] += 1
    assert checks.check_cell(bad, reference, leaves)


@pytest.mark.parametrize("field", ["leaf", "cycles"])
def test_conservation_check_rejects_unbalanced_books(cell, field):
    result, _reference, leaves = cell
    bad = copy.deepcopy(result)
    extra = dict(bad.stats.extra)
    if field == "leaf":
        leaf = next(key for key in extra
                    if key[len("cycacct."):] in leaves)
        extra[leaf] += 1
        bad.stats = dataclasses.replace(bad.stats, extra=extra)
    else:
        bad.stats = dataclasses.replace(bad.stats,
                                        cycles=bad.stats.cycles + 1)
    assert checks.check_conservation(bad, leaves)


def test_digest_check_rejects_changed_statistics(cell):
    result, _reference, _leaves = cell
    digest = checks.stats_digest([result])
    bad = copy.deepcopy(result)
    bad.stats = dataclasses.replace(
        bad.stats, committed_instructions=bad.stats.committed_instructions
        + 1)
    assert checks.check_digest(digest, digest) == []
    assert checks.check_digest(checks.stats_digest([bad]), digest)
    assert checks.check_digest(digest, None) == []


def test_report_check_rejects_changed_text_and_simulation():
    assert checks.check_report("table1", "a", "a", 0) == []
    assert checks.check_report("table1", "b", "a", 0)
    assert checks.check_report("table1", "a", "a", 1)
