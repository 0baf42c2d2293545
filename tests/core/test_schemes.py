"""Behavioural tests of the secure-speculation schemes.

These assert the *mechanisms* (tainting, blocking, deferral) rather
than aggregate IPC: each test constructs a situation where the paper
says a specific scheme must act, and checks the corresponding counter
or ordering property.
"""

import pytest

from repro import MEGA, OoOCore, assemble, make_scheme
from repro.core import (
    BaselineScheme,
    NDAScheme,
    STTIssueScheme,
    STTRenameScheme,
    SCHEME_NAMES,
)
from repro.core.factory import make_scheme as factory

from tests.conftest import assert_matches_reference


def _spectre_like_program():
    """A load under a slow branch feeding a dependent (transmitter) load."""
    source = """
        li   ra, 40
        li   sp, 0x1000
        li   t0, 0
    loop:
        andi t1, t0, 1023
        add  t1, t1, sp
        lw   a1, 0(t1)          # speculative producer
        slti t2, a1, 1000000
        beq  t2, zero, skip
        addi s2, s2, 1
    skip:
        andi a2, a1, 255
        add  a2, a2, sp
        lw   a3, 0(a2)          # dependent load: tainted transmitter
        add  s3, s3, a3
        addi t0, t0, 7
        addi ra, ra, -1
        bne  ra, zero, loop
        halt
    """
    program = assemble(source, name="taint-chain")
    for i in range(1024):
        program.initial_memory[0x1000 + i] = (i * 37) & 1023
    return program


def test_factory_names():
    for name in SCHEME_NAMES:
        scheme = factory(name)
        assert scheme.name == name


def test_factory_rejects_unknown():
    with pytest.raises(ValueError):
        factory("ghost-loads")


def test_factory_accepts_underscores():
    assert factory("stt_rename").name == "stt-rename"
    assert factory("stt_issue").name == "stt-issue"


def test_stt_blocks_tainted_transmitters():
    program = _spectre_like_program()
    for name in ("stt-rename", "stt-issue"):
        result = OoOCore(program, config=MEGA, scheme=factory(name),
                         warm_caches=True).run()
        assert result.stats.taint_blocked_issues > 0, name
        assert result.stats.extra["loads_tainted"] > 0, name
        assert_matches_reference(program, result, name)


def test_baseline_never_blocks():
    program = _spectre_like_program()
    result = OoOCore(program, config=MEGA, warm_caches=True).run()
    assert result.stats.taint_blocked_issues == 0
    assert result.stats.deferred_broadcasts == 0


def test_stt_issue_wastes_slots_on_tainted_selects():
    program = _spectre_like_program()
    result = OoOCore(program, config=MEGA, scheme=STTIssueScheme(),
                     warm_caches=True).run()
    assert result.stats.extra["stt_issue_nops"] > 0
    assert result.stats.wasted_issue_slots >= result.stats.extra["stt_issue_nops"]


def test_nda_defers_speculative_broadcasts():
    program = _spectre_like_program()
    result = OoOCore(program, config=MEGA, scheme=NDAScheme(),
                     warm_caches=True).run()
    assert result.stats.deferred_broadcasts > 0
    assert result.stats.deferred_broadcast_cycles > 0
    assert_matches_reference(program, result, "nda")


def test_nda_release_skips_superseded_committed_load():
    """A committed load whose architectural mapping has since moved on
    (a younger same-register writer committed) must not broadcast: its
    physical register is free — possibly reallocated to a younger
    in-flight uop — and no live consumer can still name it."""
    from repro.isa.instructions import Instruction, Opcode
    from repro.pipeline.regfile import NOT_READY, READY
    from repro.pipeline.uop import MicroOp

    core = OoOCore(_spectre_like_program(), config=MEGA,
                   scheme=factory("nda"))
    scheme = core.scheme
    load = MicroOp(0, 0, Instruction(Opcode.LW, rd=5, rs1=1, imm=0))
    load.prd = 40
    load.committed = True
    load.complete_cycle = 3

    core.rename.arch_rat[5] = 41  # a younger writer committed
    core.prf.state[40] = NOT_READY
    scheme._release(load, 10)
    assert core.prf.state[40] == NOT_READY, "dead broadcast fired"

    core.rename.arch_rat[5] = 40  # still the live mapping: release
    scheme._release(load, 10)
    assert core.prf.state[40] == READY


def test_nda_disables_spec_hit_wakeup():
    assert NDAScheme().allows_spec_hit_wakeup is False
    assert STTRenameScheme().allows_spec_hit_wakeup is True
    assert BaselineScheme().allows_spec_hit_wakeup is True


def test_taint_checkpoint_flags():
    assert STTRenameScheme().uses_taint_checkpoints is True
    assert STTIssueScheme().uses_taint_checkpoints is False
    assert NDAScheme().uses_taint_checkpoints is False


def test_stt_issue_taints_fewer_loads_than_rename():
    """Section 4.3 advantage (1): issue-time taint checks are more
    precise than rename-time, so fewer destinations get tainted."""
    program = _spectre_like_program()
    rename = OoOCore(program, config=MEGA, scheme=STTRenameScheme(),
                     warm_caches=True).run()
    issue = OoOCore(program, config=MEGA, scheme=STTIssueScheme(),
                    warm_caches=True).run()
    assert issue.stats.extra["loads_tainted"] <= rename.stats.extra["loads_tainted"]


def test_schemes_never_change_architectural_results(scheme_name):
    program = _spectre_like_program()
    result = OoOCore(program, config=MEGA, scheme=factory(scheme_name),
                     warm_caches=True).run()
    assert_matches_reference(program, result, scheme_name)


def test_fence_blocks_all_transmitters():
    """The delay-all baseline: speculative loads simply wait, so it
    blocks strictly more than STT, taints nothing, and brackets every
    other scheme's IPC from below."""
    program = _spectre_like_program()
    fence = OoOCore(program, config=MEGA, scheme=factory("fence"),
                    warm_caches=True).run()
    stt = OoOCore(program, config=MEGA, scheme=factory("stt-issue"),
                  warm_caches=True).run()
    assert fence.stats.taint_blocked_issues > 0
    assert fence.stats.taint_blocked_issues >= stt.stats.taint_blocked_issues
    assert fence.ipc <= stt.ipc
    assert "loads_tainted" not in fence.stats.extra
    assert_matches_reference(program, fence, "fence")


def test_fence_loads_only_narrows_the_mask():
    """``fence(loads_only=True)``: the Spectre-v1-only conservative
    point.  Only loads wait for bound-to-commit; store address
    generation, branches, and jumps issue freely — so it blocks
    strictly fewer issues and recovers IPC over the full fence, while
    still delaying the dependent-load transmitter."""
    program = _spectre_like_program()
    full = OoOCore(program, config=MEGA, scheme=factory("fence"),
                   warm_caches=True).run()
    narrowed = OoOCore(program, config=MEGA,
                       scheme=factory("fence", loads_only=True),
                       warm_caches=True).run()
    assert narrowed.stats.taint_blocked_issues > 0  # loads still fenced
    assert (narrowed.stats.taint_blocked_issues
            < full.stats.taint_blocked_issues)
    assert narrowed.ipc >= full.ipc
    assert_matches_reference(program, narrowed, "fence loads_only")


def test_fence_loads_only_is_a_registry_kwarg():
    """Wired like any registry kwarg: schema-validated construction and
    distinct store keys."""
    from repro.core.registry import get_spec
    from repro.harness.store import simulation_key

    schema = get_spec("fence").kwargs
    assert schema["loads_only"].type is bool
    assert schema["loads_only"].default is False
    with pytest.raises(TypeError):
        factory("fence", loads_only="yes")
    with pytest.raises(TypeError):
        factory("fence", load_only=True)  # typo'ed name fails fast

    scheme = factory("fence", loads_only=True)
    assert scheme.loads_only is True
    assert factory("fence").loads_only is False

    plain = simulation_key("503.bwaves", MEGA, "fence")
    narrowed = simulation_key("503.bwaves", MEGA, "fence",
                              scheme_kwargs={"loads_only": True})
    assert plain != narrowed  # different point, different cell


def test_fence_keeps_fast_forward_unvetoed():
    """Fence has no per-cycle state: no visibility hook, no booked
    wakes, so miss-heavy idle windows still fast-forward."""
    from repro.workloads.kernels import chase_kernel

    program = chase_kernel(iterations=48, ring_words=64)
    core = OoOCore(program, config=MEGA, scheme=factory("fence"))
    core.run()
    assert core.ff_skipped_cycles > 0


def _shadowed_miss_program():
    """A slow guard load keeps its branch shadow open while a second,
    independent load misses and completes underneath it — the one case
    delay-on-miss must still defer."""
    source = """
        li   ra, 48
        li   sp, 0x1000
        li   gp, 0x40000
        li   t0, 0
    loop:
        add  t1, t0, sp
        lw   a1, 0(t1)          # guard load: misses, slow
        slti t2, a1, 1000000
        beq  t2, zero, skip     # branch resolves only when a1 returns
        addi s2, s2, 1
    skip:
        add  a2, t0, gp
        lw   a3, 0(a2)          # independent miss under the shadow
        add  s3, s3, a3
        addi t0, t0, 128
        addi ra, ra, -1
        bne  ra, zero, loop
        halt
    """
    program = assemble(source, name="dom-shadowed-miss")
    for i in range(0, 48 * 128 + 4, 4):
        program.initial_memory[0x1000 + i] = i & 255
        program.initial_memory[0x40000 + i] = (i * 7) & 255
    return program


def test_delay_on_miss_defers_only_misses():
    """Selective delay: still defers shadowed misses, but far fewer
    broadcasts than NDA (hits and post-resolution misses run free), and
    recovers IPC accordingly."""
    program = _shadowed_miss_program()
    nda = OoOCore(program, config=MEGA, scheme=factory("nda")).run()
    dom = OoOCore(program, config=MEGA, scheme=factory("delay-on-miss")).run()
    assert 0 < dom.stats.deferred_broadcasts < nda.stats.deferred_broadcasts
    assert dom.stats.extra["dom_deferred"] == dom.stats.deferred_broadcasts
    assert dom.ipc >= nda.ipc
    assert_matches_reference(program, dom, "delay-on-miss")


def test_delay_on_miss_warm_hits_never_defer():
    """With every access an on-core hit there is nothing to delay."""
    from repro.workloads.kernels import streaming_kernel

    program = streaming_kernel(iterations=40, array_words=64)
    # Warm the L1 itself so no access misses.
    core = OoOCore(program, config=MEGA, scheme=factory("delay-on-miss"))
    core.hierarchy.warm(program.initial_memory.keys(), level="l1")
    result = core.run()
    assert result.stats.deferred_broadcasts == 0


def test_split_store_taints_reduce_violations():
    """Section 9.2's proposed STT-Rename fix."""
    from repro.workloads.kernels import forwarding_kernel

    program = forwarding_kernel(iterations=120)
    unified = OoOCore(program, config=MEGA,
                      scheme=STTRenameScheme(split_store_taints=False)).run()
    split = OoOCore(program, config=MEGA,
                    scheme=STTRenameScheme(split_store_taints=True)).run()
    assert split.stats.stl_forward_errors < unified.stats.stl_forward_errors
    assert split.stats.ipc > unified.stats.ipc
    assert_matches_reference(program, split, "split-taints")
