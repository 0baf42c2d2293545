"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list is a pass.  The
checks read results only through their public fields, so the quick
tests can feed them corrupted copies.
"""

import dataclasses
import hashlib
import json

#: Steps the reference interpreter may take before a program counts as
#: not halting (the largest benchmark program retires well under it).
REFERENCE_STEPS = 5_000_000


def reference_state(run_reference, program):
    """``(halted, regs, nonzero memory)`` of the reference interpreter."""
    interp = run_reference(program, max_steps=REFERENCE_STEPS)
    state = interp.state
    regs = [state.read_reg(reg) for reg in range(32)]
    memory = {addr: value for addr, value in state.memory.items() if value}
    return state.halted, regs, memory


def check_cell(result, reference, leaf_causes):
    """One simulated cell: halted, matches the reference, books balance."""
    problems = []
    label = "%s/%s/%s" % (result.program_name, result.config_name,
                          result.scheme_name)
    if not result.halted:
        problems.append("%s: did not halt" % label)
    ref_halted, ref_regs, ref_memory = reference
    if not ref_halted:
        problems.append("%s: reference interpreter did not halt" % label)
    if list(result.regs) != ref_regs:
        problems.append("%s: registers differ from the reference" % label)
    memory = {addr: value for addr, value in result.memory.items() if value}
    if memory != ref_memory:
        problems.append("%s: memory differs from the reference" % label)
    problems.extend(check_conservation(result, leaf_causes))
    return problems


def check_conservation(result, leaf_causes):
    """Cycle account: leaves + committed = width x cycles."""
    account = result.stats.cycle_account()
    label = "%s/%s/%s" % (result.program_name, result.config_name,
                          result.scheme_name)
    if not account:
        return ["%s: no cycle account in the result" % label]
    committed = result.stats.committed_instructions
    leaves = sum(value for name, value in account.items()
                 if name in leaf_causes)
    slots = account.get("width", 0) * account.get("cycles", 0)
    problems = []
    if leaves + committed != slots:
        problems.append("%s: cycle account not conserved (%d leaves + %d "
                        "committed != %d slots)"
                        % (label, leaves, committed, slots))
    if account.get("cycles") != result.stats.cycles:
        problems.append("%s: cycle account covers %s cycles, run took %d"
                        % (label, account.get("cycles"), result.stats.cycles))
    return problems


def check_report(artefact, text, expected, simulated):
    """A store-backed artefact equals the in-memory one, simulating nothing."""
    problems = []
    if text != expected:
        problems.append("%s: rendered text differs from the in-memory "
                        "rendering" % artefact)
    if simulated:
        problems.append("%s: simulated %d cell(s) instead of reading the "
                        "store" % (artefact, simulated))
    return problems


def cell_record(result):
    """Canonical JSON of one cell's identity and full ``SimStats``."""
    return json.dumps(
        [result.program_name, result.config_name, result.scheme_name,
         dataclasses.asdict(result.stats)],
        sort_keys=True, separators=(",", ":"), default=str)


def stats_digest(results):
    """SHA-256 over every cell's ``SimStats`` (``cycacct.*`` extras
    included), independent of the order the cells arrive in."""
    digest = hashlib.sha256()
    for record in sorted(cell_record(result) for result in results):
        digest.update(record.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def check_digest(digest, recorded):
    """``recorded`` is ``None`` when no value exists for this input."""
    if recorded is None or digest == recorded:
        return []
    return ["statistics digest %s differs from the recorded %s"
            % (digest[:16], recorded[:16])]
