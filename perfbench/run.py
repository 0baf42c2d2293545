"""Run one workload of the layered campaign benchmark.

    python3 perfbench/run.py --workload campaign-cold --seed 1 \\
        --seconds 10 --trace 0

Prints one line per metric (name, value, unit), then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
runs the same rounds untraced and then traced, and gives the per-layer
metrics plus ``trace.overhead_pct``.  See ``perfbench/README.md``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: Times each workload's set-up runs in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def tail(samples):
    """``(value, percentile, beyond)``: the highest percentile of
    ``samples`` with at least ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), 10


def _git(*args):
    try:
        probe = subprocess.run(["git", "-C", str(ROOT)] + list(args),
                               capture_output=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return probe.stdout if probe.returncode == 0 else None


def provenance(clock_name):
    """Which code and host produced a result."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        source.update(path.read_bytes())
    commit = dirty = diff_sha256 = None
    if (ROOT / ".git").exists():
        head = _git("rev-parse", "HEAD")
        diff = _git("diff", "HEAD")
        if head is not None and diff is not None:
            commit = head.decode().strip()
            dirty = bool(diff)
            diff_sha256 = hashlib.sha256(diff).hexdigest()
    return {
        "commit": commit,
        "dirty": dirty,
        "diff_sha256": diff_sha256,
        "src_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "clock": clock_name,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Metrics, checks and counts of one benchmark run."""

    def __init__(self):
        self.metrics = {}
        self.lines = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append("%-32s %14.6g %-9s %s" % (name, value, unit, note))

    def add_rounds(self, rounds):
        for rnd in rounds:
            self.attempted += len(rnd.op_s)
            self.failed += rnd.failed
            self.problems.extend(rnd.problems)

    def require(self, problems):
        self.problems.extend(problems)

    def result(self):
        return {"correct": not self.problems and self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}


#: What the generic operation metrics are called on each workload.
OP_NAMES = {"campaign-cold": "cell", "kernel-regimes": "cell",
            "report-warm": "report"}


def end_to_end(out, workload, setup_times, rounds, clock):
    from perfbench.hostspeed import NOMINAL_S

    by_op = {}
    for rnd in rounds:
        for key, seconds in zip(rnd.keys or range(len(rnd.op_s)), rnd.op_s):
            by_op.setdefault(key, []).append(seconds)
    # Each sample stands in for its operation's median over the rounds,
    # so one noisy repeat of an operation does not move a percentile.
    ops = [median for samples in by_op.values()
           for median in [statistics.median(samples)] * len(samples)]
    elapsed = sum(rnd.elapsed for rnd in rounds)
    op = OP_NAMES[workload]
    out.lines.append(
        "uncalibrated: %d %ss in %.3f s wall; reference loop median %.5f s "
        "(nominal %.5f s) over %d samples"
        % (len(ops), op, sum(sum(rnd.raw_s) for rnd in rounds),
           statistics.median(ref for _mid, ref in clock.samples),
           NOMINAL_S, len(clock.samples)))
    value, pct, beyond = tail(ops)
    out.metric("setup_s", statistics.median(setup_times), "s",
               "median of %d set-ups" % len(setup_times))
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    out.metric("ops_per_s", len(ops) / elapsed, "1/s",
               "= %ss_per_s; %d %ss in %d rounds" % (op, len(ops), op,
                                                      len(rounds)))
    out.metric("op_ms_p50", 1000.0 * statistics.median(ops), "ms",
               "= %s_ms_p50" % op)
    out.metric("op_ms_tail", 1000.0 * value, "ms",
               "= %s_ms_tail: p%.1f of %d samples, %d beyond"
               % (op, pct, len(ops), beyond))
    out.metric("cells_per_s", sum(rnd.cells for rnd in rounds) / elapsed,
               "1/s", "cells delivered")
    out.metric("sim_kips",
               sum(rnd.instructions for rnd in rounds) / elapsed / 1000.0,
               "kinst/s", "committed instructions of delivered cells")
    out.metric("sim_cycles_per_s",
               sum(rnd.cycles for rnd in rounds) / elapsed, "cycle/s",
               "simulated cycles of delivered cells")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(out, bench, layers, untraced, traced):
    from perfbench.workloads import ARTEFACTS, SECURE_SCHEMES

    t = layers.tracer
    api = bench.api
    runs = layers.runs
    cache = layers.cache
    counts = layers.counts
    run_s = sum(run[1] for run in runs)
    cycles = sum(run[2] for run in runs)
    committed = sum(run[3] for run in runs)
    generate = t.kept("workloads.generate")
    out.metric("workloads.generate_s", t.total_s("workloads.generate"), "s")
    out.metric("workloads.programs", len(generate), "count")
    out.metric("workloads.cache_hit_ratio",
               _ratio(cache["hits"], cache["hits"] + cache["misses"]),
               "ratio")
    out.metric("isa.trace_record_s", t.total_s("isa.trace_record"), "s")
    out.metric("isa.trace_steps", counts["trace_steps"], "count")
    out.metric("isa.trace_hit_ratio",
               _ratio(cache["trace_hits"],
                      cache["trace_hits"] + cache["trace_misses"]), "ratio")
    out.metric("pipeline.build_s", t.total_s("pipeline.build"), "s")
    out.metric("pipeline.run_s", run_s, "s")
    out.metric("pipeline.sim_cycles", cycles, "count")
    out.metric("pipeline.committed_insts", committed, "count")
    out.metric("pipeline.host_us_per_cycle", 1e6 * _ratio(run_s, cycles),
               "us/cycle")
    out.metric("pipeline.ff_skipped_share",
               _ratio(sum(run[4] for run in runs), cycles), "ratio")
    out.metric("pipeline.batch_uop_share",
               _ratio(sum(run[5] for run in runs), committed), "ratio")
    for name in ("pipeline.fetch", "pipeline.issue_queue", "pipeline.lsu",
                 "memsys"):
        out.metric(name + ".calls", t.calls(name), "count")
        out.metric(name + ".self_s", t.self_s(name), "s")

    results = bench.layer_cells(layers)
    accesses = sum(r.accesses for r in results)
    l1_hits = sum(r.l1_hits for r in results)
    l2_hits = sum(r.l2_hits for r in results)
    out.metric("memsys.l1_hit_ratio", _ratio(l1_hits, accesses), "ratio")
    out.metric("memsys.l2_hit_ratio", _ratio(l2_hits, accesses - l1_hits),
               "ratio")

    cost = {}
    for scheme, seconds, run_cycles, _c, _f, _b in runs:
        entry = cost.setdefault(scheme, [0.0, 0])
        entry[0] += seconds
        entry[1] += run_cycles
    base_cost = _ratio(*cost.get("baseline", (0.0, 0)))
    mega = [r for r in results if r.config_name == api.MEGA.name]
    baseline = sorted((r for r in mega if r.scheme_name == "baseline"),
                      key=lambda r: r.program_name)
    for scheme in SECURE_SCHEMES:
        scheme_cost = _ratio(*cost.get(scheme, (0.0, 0)))
        out.metric("core.%s.host_cost_ratio" % scheme,
                   _ratio(scheme_cost, base_cost), "ratio",
                   "host s/cycle vs baseline")
        mine = sorted((r for r in mega if r.scheme_name == scheme),
                      key=lambda r: r.program_name)
        norm = api.suite_normalized_ipc(mine, baseline) if mine else 0.0
        anchor = api.get_spec(scheme).ipc_anchor
        out.metric("core.%s.norm_ipc" % scheme, norm, "ratio",
                   "suite IPC vs baseline at %s" % api.MEGA.name)
        out.metric("core.%s.anchor_err" % scheme,
                   abs(norm - anchor) if mine and anchor is not None
                   else 0.0,
                   "ratio", "|norm_ipc - approximate paper anchor %s|"
                   % anchor)

    account_s = t.total_s("obs.account")
    out.metric("obs.account_calls", t.calls("obs.account"), "count")
    out.metric("obs.account_s", account_s, "s")
    out.metric("obs.account_share", _ratio(account_s, run_s), "ratio",
               "of pipeline.run_s")

    saves = t.kept("store.save")
    out.metric("store.open_s", t.total_s("store.open"), "s")
    out.metric("store.save_calls", len(saves), "count")
    out.metric("store.save_s", t.total_s("store.save"), "s")
    out.metric("store.save_ms_p50",
               1000.0 * statistics.median(s[2] - s[1] for s in saves)
               if saves else 0.0, "ms")
    out.metric("store.bytes_per_cell",
               _ratio(counts["store_bytes"], counts["store_cells"]), "B")
    for name in ("load", "load_many"):
        out.metric("store.%s_calls" % name, t.calls("store." + name),
                   "count")
        out.metric("store.%s_s" % name, t.total_s("store." + name), "s")
    out.metric("store.iter_s", t.total_s("store.iter"), "s")

    out.metric("runner.cells_from_store", counts["from_store"], "count")
    out.metric("runner.cells_simulated", counts["saved"], "count")
    out.metric("runner.self_s", t.self_s("runner"), "s")
    out.metric("analysis.self_s",
               sum(t.self_s("analysis." + a) for a in ARTEFACTS), "s")
    for artefact in ARTEFACTS:
        out.metric("analysis.%s.self_s" % artefact,
                   t.self_s("analysis." + artefact), "s")

    base = sum(rnd.elapsed for rnd in untraced)
    out.metric("trace.overhead_pct",
               100.0 * (sum(rnd.elapsed for rnd in traced) - base) / base,
               "%", "traced vs untraced, same %d rounds" % len(traced))


def _recorded_digest(workload, seed, tiny):
    if tiny:
        return None
    with open(BENCH_DIR / "digests.json") as handle:
        recorded = json.load(handle)
    if seed != recorded["default_seed"]:
        return None
    return recorded["digests"].get(workload)


def run(workload, seed, seconds, trace, tiny=False):
    """Set up, measure and check one workload; returns an Outcome."""
    from perfbench import checks
    from perfbench.hostspeed import HostClock
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, Layers

    clock = HostClock()
    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "tiny": tiny,
            "provenance": provenance(clock.name)}
    out = Outcome()
    out.lines.append("provenance " + json.dumps(meta, sort_keys=True))
    workdir = ROOT / ".perfbench" / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = WORKLOADS[workload](seed, str(workdir), clock, tiny=tiny)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            bench.teardown()
            clock.sample()
            start = clock.now()
            bench.setup()
            end = clock.now()
            clock.sample()
            setup_times.append(clock.calibrate(start, end))
        problems, digest = bench.after_setup()
        out.require(problems)
        gc.collect()
        count = max(2, math.ceil(seconds / bench.round_s))
        rounds = [bench.run_round(index) for index in range(count)]
        out.add_rounds(rounds)
        for rnd in rounds[1:]:
            if rnd.digest != rounds[0].digest:
                out.require(["round digests differ: the simulation is not "
                             "deterministic"])
                break
        if digest is None:
            digest = rounds[0].digest
        out.lines.append("digest %s" % digest)
        out.require(checks.check_digest(
            digest, _recorded_digest(workload, seed, tiny)))
        if not trace:
            end_to_end(out, workload, setup_times, rounds, clock)
        else:
            layers = Layers(Tracer())
            traced = [bench.run_round(index, layers)
                      for index in range(len(rounds))]
            out.add_rounds(traced)
            if traced[0].digest != rounds[0].digest:
                out.require(["traced digest %s differs from untraced %s"
                             % (traced[0].digest[:16],
                                rounds[0].digest[:16])])
            per_layer(out, bench, layers, rounds, traced)
            trace_dir = ROOT / ".perfbench" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / ("%s-seed%d.json" % (workload, seed))
            layers.tracer.dump(str(path), meta)
            out.lines.append("spans written to %s" % path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign-cold", "kernel-regimes",
                                 "report-warm"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at %s; run from a full checkout"
              % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    out = run(args.workload, args.seed, args.seconds, args.trace,
              tiny=args.tiny)
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                               args.trace))
    for line in out.lines:
        print(line)
    for problem in out.problems[:20]:
        print("FAILED CHECK: %s" % problem)
    print(json.dumps(out.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
