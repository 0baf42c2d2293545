"""The benchmark's workloads and the layer instrumentation of its traced run.

Every workload drives the program serially from this one process
(``jobs=1``) through its public functions only.  Its operations run in
whole *rounds*, so the mix of operations in a run does not depend on
where the clock stops:

* ``campaign-cold`` -- one round is a cold ``run_grid`` (empty program
  and trace caches, fresh store) over every SPEC proxy x every grid
  scheme x {small, mega}; an operation is one cell.
* ``kernel-regimes`` -- one round simulates the five bench kernels
  under every grid scheme at Mega with the cycle account attached and
  no store; an operation is one cell.
* ``report-warm`` -- one round renders every store-backed artefact
  once, in a seeded order, each from a freshly opened store and a
  fresh runner; an operation is one report request.
"""

import contextlib
import gc
import hashlib
import importlib
import inspect
import os
import random
import shutil
import sys
from types import SimpleNamespace

from perfbench import checks

#: Store-backed artefacts of ``report-warm`` (``metrics`` is the stall
#: report of ``python -m repro metrics``; the rest are experiment ids).
ARTEFACTS = ("table1", "figure6", "figure7", "figure8", "figure10",
             "table3", "table4", "metrics")

#: Generated programs making up ``kernel-regimes``' ``mixed`` kernel.
MIXED_PARTS = 4

#: Secure schemes whose ``core.<scheme>.*`` metrics the traced run
#: prints (the grid schemes other than the unsafe baseline).
SECURE_SCHEMES = ("stt-rename", "stt-issue", "nda", "fence",
                  "delay-on-miss")

_API_MODULES = (
    "repro",
    "repro.analysis.ipc",
    "repro.analysis.stalls",
    "repro.core.registry",
    "repro.harness.experiments",
    "repro.harness.parallel",
    "repro.harness.runner",
    "repro.harness.store",
    "repro.isa.trace",
    "repro.obs",
    "repro.pipeline.config",
    "repro.workloads.characteristics",
    "repro.workloads.generator",
    "repro.workloads.kernels",
    "repro.workloads.program_cache",
)


def load_api():
    """Import the program afresh and return the public names used here.

    Every ``repro`` module is dropped from ``sys.modules`` first, so each
    set-up pays the program's import-time work again and work moved
    into module import shows in ``setup_s``.
    """
    for name in [name for name in sys.modules
                 if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]
    mod = {name: importlib.import_module(name) for name in _API_MODULES}
    config = mod["repro.pipeline.config"]
    registry = mod["repro.core.registry"]
    experiments = mod["repro.harness.experiments"]
    stalls = mod["repro.analysis.stalls"]
    return SimpleNamespace(
        CampaignRunner=mod["repro.harness.runner"].CampaignRunner,
        ResultStore=mod["repro.harness.store"].ResultStore,
        OoOCore=mod["repro"].OoOCore,
        CycleAccount=mod["repro.obs"].CycleAccount,
        LEAF_CAUSES=mod["repro.obs"].LEAF_CAUSES,
        run_reference=mod["repro"].run_reference,
        record_trace=mod["repro.isa.trace"].record_trace,
        make_scheme=registry.make_scheme,
        grid_scheme_names=registry.grid_scheme_names,
        get_spec=registry.get_spec,
        run_experiment=experiments.run_experiment,
        experiment_grid_needs=experiments.experiment_grid_needs,
        store_stall_breakdown=stalls.store_stall_breakdown,
        cycle_account_breakdown=stalls.cycle_account_breakdown,
        format_stall_report=stalls.format_stall_report,
        suite_normalized_ipc=mod["repro.analysis.ipc"].suite_normalized_ipc,
        SMALL=config.SMALL,
        MEGA=config.MEGA,
        named_configs=config.named_configs,
        SPEC_BENCHMARKS=mod["repro.workloads.characteristics"]
        .SPEC_BENCHMARKS,
        WorkloadProfile=mod["repro.workloads.generator"].WorkloadProfile,
        generate_program=mod["repro.workloads.generator"].generate_program,
        kernels=mod["repro.workloads.kernels"],
        parallel=mod["repro.harness.parallel"],
        program_cache=mod["repro.workloads.program_cache"],
    )


class Round:
    """What one round did, measured and checked."""

    def __init__(self):
        self.intervals = []     # wall (start, end) of each operation
        self.keys = None        # operation names, when not positional
        self.op_s = []          # calibrated seconds of each operation
        self.raw_s = []         # wall seconds of each operation
        self.elapsed = 0.0      # calibrated seconds of all operations
        self.cells = 0          # cells whose results the round delivered
        self.instructions = 0   # committed instructions of those cells
        self.cycles = 0         # simulated cycles of those cells
        self.problems = []
        self._failed = set()    # operations failing a check
        self.digest = None

    @property
    def failed(self):
        return len(self._failed)

    def fail(self, operation, problems):
        if problems:
            self._failed.add(operation)
            self.problems.extend(problems)

    def finish(self, clock):
        """Calibrate the operations' times once the round has ended."""
        clock.sample()
        self.raw_s = [end - start for start, end in self.intervals]
        self.op_s = [clock.calibrate(start, end)
                     for start, end in self.intervals]
        self.elapsed = sum(self.op_s)

    def deliver(self, cells):
        """Count delivered cells (results or :func:`summarize` records)."""
        self.cells += len(cells)
        for cell in cells:
            stats = getattr(cell, "stats", cell)
            self.instructions += stats.committed_instructions
            self.cycles += stats.cycles


def summarize(result):
    """The numbers the metrics need from one cell, without its memory
    image: keeping hundreds of full results alive would slow every
    garbage collection the program makes while being measured."""
    stats = result.stats
    return SimpleNamespace(
        program_name=result.program_name, config_name=result.config_name,
        scheme_name=result.scheme_name, cycles=stats.cycles,
        committed_instructions=stats.committed_instructions,
        accesses=stats.extra.get("accesses", 0),
        l1_hits=stats.extra.get("l1_hits", 0),
        l2_hits=stats.extra.get("l2_hits", 0))


# -- layer instrumentation (traced run only) ------------------------------


class Layers:
    """The traced run's view of the program: spans plus layer counts."""

    def __init__(self, tracer):
        self.tracer = tracer
        #: ``(scheme, run_s, cycles, committed, ff_skipped, batch_uops)``
        #: per simulated core.
        self.runs = []
        self.counts = {"trace_steps": 0, "from_store": 0, "saved": 0,
                       "store_bytes": 0, "store_cells": 0}
        self.cache = {"hits": 0, "misses": 0, "trace_hits": 0,
                      "trace_misses": 0}
        self.cells = []         # summaries of cells simulated while traced

    def core_class(self, base):
        """``base`` (``OoOCore``) timing construction, run and the
        fetch / issue-queue / LSU / memory-system methods of each
        core's own component instances."""
        tracer = self.tracer
        runs = self.runs

        class TracedCore(base):
            def __init__(self, *args, **kwargs):
                with tracer.span("pipeline.build"):
                    super().__init__(*args, **kwargs)
                self.fetch.do_cycle = tracer.wrap(self.fetch.do_cycle,
                                                  "pipeline.fetch")
                self.iq.select_and_issue = tracer.wrap(
                    self.iq.select_and_issue, "pipeline.issue_queue")
                for name in _public_methods(type(self.lsu)):
                    setattr(self.lsu, name,
                            tracer.wrap(getattr(self.lsu, name),
                                        "pipeline.lsu"))
                self.hierarchy.access = tracer.wrap(self.hierarchy.access,
                                                    "memsys")

            def run(self, *args, **kwargs):
                start = tracer.clock()
                with tracer.span("pipeline.run", tag=self.scheme.name):
                    result = super().run(*args, **kwargs)
                runs.append((self.scheme.name, tracer.clock() - start,
                             result.stats.cycles,
                             result.stats.committed_instructions,
                             self.ff_skipped_cycles, self.replay_batch_uops))
                return result

        return TracedCore

    def account_class(self, base):
        """``base`` (``CycleAccount``) timing every core-facing sink."""
        namespace = {name: self.tracer.wrap(getattr(base, name),
                                            "obs.account")
                     for name in ("note_cycle", "note_skip", "note_flush",
                                  "issue_blocked")}
        return type("TimingAccount", (base,), namespace)

    def record_trace(self, fn):
        def record(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.counts["trace_steps"] += len(trace)
            return trace
        return self.tracer.wrap(record, "isa.trace_record", keep=True)

    def instrument_store(self, store):
        tracer = self.tracer
        counts = self.counts

        def counted(fn, size):
            def call(*args, **kwargs):
                value = fn(*args, **kwargs)
                counts["from_store"] += size(value)
                return value
            return call

        store.load = tracer.wrap(
            counted(store.load, lambda value: value is not None),
            "store.load")
        store.load_many = tracer.wrap(counted(store.load_many, len),
                                      "store.load_many", keep=True)
        store.iter_results = tracer.wrap_iter(store.iter_results,
                                              "store.iter")
        store.save = tracer.wrap(store.save, "store.save", keep=True)

    def instrument_runner(self, runner):
        for name in ("run", "suite_results", "preload_from_store",
                     "run_grid", "run_cell_batch"):
            setattr(runner, name,
                    self.tracer.wrap(getattr(runner, name), "runner"))

    def note_cache(self, program_cache):
        stats = program_cache.cache_stats()
        for key in self.cache:
            self.cache[key] += stats[key]


def _public_methods(cls):
    return sorted(name for name, value in vars(cls).items()
                  if not name.startswith("_") and inspect.isfunction(value))


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


@contextlib.contextmanager
def _patched(target, name, value):
    saved = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, saved)


def open_store(api, path, layers=None):
    """Open a store, counting saves (a save means a cell was simulated)."""
    if layers is None:
        store = api.ResultStore(path)
    else:
        with layers.tracer.span("store.open"):
            store = api.ResultStore(path)
        layers.instrument_store(store)
    saves = [0]
    save = store.save

    def counted_save(*args, **kwargs):
        saves[0] += 1
        return save(*args, **kwargs)

    store.save = counted_save
    return store, saves


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(top, name))
               for top, _dirs, names in os.walk(path) for name in names)


class _Progress:
    """Progress sink of ``run_grid``: each finished cell closes one
    operation; the gap before the next one takes a reference sample."""

    def __init__(self, bench, layers, round_index, rnd):
        self.bench = bench
        self.layers = layers
        self.round_index = round_index
        self.rnd = rnd
        self.total = None
        self.start = bench.clock.now()

    def begin(self, total):
        self.total = total
        self._request()

    def cell_done(self, worker=None):
        self.rnd.intervals.append((self.start, self.bench.clock.now()))
        if len(self.rnd.intervals) < self.total:
            self.bench.gap(self.layers)
            self.start = self.bench.clock.now()
        self._request()

    def finish(self):
        pass

    def _request(self):
        if self.layers is not None:
            self.layers.tracer.request = "round%d/cell%d" % (
                self.round_index, len(self.rnd.intervals))


# -- workloads --------------------------------------------------------------


class Workload:
    """Set-up state plus rounds of operations; subclasses fill in."""

    name = None
    #: Calibrated seconds of one round at full size (sets the number of
    #: rounds a run of a given length makes).
    round_s = None

    def __init__(self, seed, workdir, clock, tiny=False):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.tiny = tiny
        self.api = None
        self._references = {}

    def gap(self, layers=None):
        """Between two operations: let the clock take a sample."""
        if layers is None:
            self.clock.gap()
        else:
            with layers.tracer.span("bench.calibrate"):
                self.clock.gap()

    def setup(self):
        raise NotImplementedError

    def teardown(self):
        """Drop what a previous set-up built."""
        self.api = None

    def run_round(self, index, layers=None):
        raise NotImplementedError

    def reference(self, key, program):
        ref = self._references.get(key)
        if ref is None:
            ref = self._references[key] = checks.reference_state(
                self.api.run_reference, program)
        return ref

    def check_cells(self, rnd, results, programs):
        """Per-cell checks; ``programs`` maps program name -> program."""
        for result in results:
            program = programs[result.program_name]
            rnd.fail(_label(result), checks.check_cell(
                result, self.reference(result.program_name, program),
                self.api.LEAF_CAUSES))

    def after_setup(self):
        """Check what set-up simulated: ``(problems, digest or None)``."""
        return [], None

    def layer_cells(self, layers):
        """Summaries of the cells that feed the traced run's model
        metrics."""
        return layers.cells


class CampaignCold(Workload):
    """Cold serial campaign into a fresh store, as ``python -m repro grid``."""

    name = "campaign-cold"
    round_s = 5.3

    def setup(self):
        self.api = api = load_api()
        self.scale = 0.02 if self.tiny else 0.05
        self.benchmarks = tuple(api.SPEC_BENCHMARKS[:2] if self.tiny
                                else api.SPEC_BENCHMARKS)
        self.configs = (api.SMALL, api.MEGA)
        self.schemes = api.grid_scheme_names()

    def run_round(self, index, layers=None):
        api = self.api
        store_dir = os.path.join(self.workdir, "campaign-%d" % index)
        with contextlib.ExitStack() as patches:
            if layers is not None:
                patches.enter_context(_patched(
                    api.parallel, "OoOCore", layers.core_class(api.OoOCore)))
                patches.enter_context(_patched(
                    api.parallel, "CycleAccount",
                    layers.account_class(api.CycleAccount)))
                patches.enter_context(_patched(
                    api.program_cache, "generate_program",
                    layers.tracer.wrap(api.program_cache.generate_program,
                                       "workloads.generate", keep=True)))
                patches.enter_context(_patched(
                    api.program_cache, "record_trace",
                    layers.record_trace(api.program_cache.record_trace)))
            api.program_cache.clear_cache()
            self.gap(layers)
            rnd = Round()
            progress = _Progress(self, layers, index, rnd)
            store, saves = open_store(api, store_dir, layers)
            runner = api.CampaignRunner(scale=self.scale, seed=self.seed,
                                        benchmarks=self.benchmarks,
                                        store=store, jobs=1)
            if layers is not None:
                layers.instrument_runner(runner)
            runner.run_grid(configs=self.configs, schemes=self.schemes,
                            jobs=1, progress=progress)
            store.close()
            rnd.intervals[-1] = (rnd.intervals[-1][0], self.clock.now())
        # Untimed from here on: collect and check what the round made.
        rnd.finish(self.clock)
        cells = [(b, c, s) for c in self.configs for s in self.schemes
                 for b in self.benchmarks]
        results = [runner.run(*cell) for cell in cells]
        rnd.deliver(results)
        rnd.digest = checks.stats_digest(results)
        if layers is not None:
            layers.note_cache(api.program_cache)
            layers.counts["saved"] += saves[0]
            layers.counts["store_bytes"] += _dir_bytes(store_dir)
            layers.counts["store_cells"] += len(results)
            layers.cells.extend(summarize(r) for r in results)
        programs = {
            b: api.program_cache.cached_spec_program(b, scale=self.scale,
                                                     seed=self.seed)
            for b in self.benchmarks}
        self.check_cells(rnd, results, {p.name: p
                                        for p in programs.values()})
        self._check_store(rnd, runner, cells, results, store_dir)
        shutil.rmtree(store_dir, ignore_errors=True)
        return rnd

    def _check_store(self, rnd, runner, cells, results, store_dir):
        """Every cell reads back from the store with identical stats."""
        store = self.api.ResultStore(store_dir)
        try:
            keys = [runner.cell_key(*cell) for cell in cells]
            loaded = store.load_many(keys)
            for key, result in zip(keys, results):
                stored = loaded.get(key)
                if stored is None or (checks.cell_record(stored)
                                      != checks.cell_record(result)):
                    rnd.fail(_label(result), [
                        "%s: store copy missing or different"
                        % "/".join(_label(result))])
        finally:
            store.close()


class KernelRegimes(Workload):
    """The bench kernels under every grid scheme at Mega, account on."""

    name = "kernel-regimes"
    round_s = 2.9

    def setup(self):
        self.api = api = load_api()
        k = api.kernels
        scale = 0.1 if self.tiny else 1.0

        def its(n):
            return max(2, int(round(n * scale)))

        # Several small generated programs rather than one large one: a
        # single program's cost per instruction varies by a quarter from
        # seed to seed, and the mean of four varies half as much.
        mixed = [
            ("mixed", api.generate_program(
                api.WorkloadProfile(name="mixed-%d" % part,
                                    iterations=its(8), body_templates=8,
                                    body_blocks=3, working_set_words=2048,
                                    ring_words=64, scratch_words=32),
                seed=self.seed * MIXED_PARTS + part), False)
            for part in range(MIXED_PARTS)]
        suite = [
            ("streaming-warm",
             k.streaming_kernel(iterations=its(300), array_words=1024),
             True),
            ("chase-cold",
             k.chase_kernel(iterations=its(300), ring_words=4096,
                            seed=self.seed), False),
            ("forwarding-cold",
             k.forwarding_kernel(iterations=its(200), slots=8,
                                 array_words=1024), False),
            ("shadowed-miss-cold",
             k.shadowed_miss_kernel(iterations=its(250), guard_words=4096,
                                    victim_words=4096), False),
        ] + mixed
        self.kernels = [(label, program, warm, api.record_trace(program))
                        for label, program, warm in suite]
        self.schemes = api.grid_scheme_names()

    def run_round(self, index, layers=None):
        api = self.api
        core_class = api.OoOCore
        account_class = api.CycleAccount
        if layers is not None:
            core_class = layers.core_class(core_class)
            account_class = layers.account_class(account_class)
        rnd = Round()
        results = []
        for label, program, warm, trace in self.kernels:
            for scheme in self.schemes:
                if layers is not None:
                    layers.tracer.request = "round%d/%s/%s" % (
                        index, label, scheme)
                self.gap(layers)
                start = self.clock.now()
                core = core_class(program, config=api.MEGA,
                                  scheme=api.make_scheme(scheme),
                                  warm_caches=warm, trace=trace,
                                  account=account_class())
                result = core.run()
                rnd.intervals.append((start, self.clock.now()))
                results.append(result)
        rnd.finish(self.clock)
        rnd.deliver(results)
        rnd.digest = checks.stats_digest(results)
        if layers is not None:
            layers.cells.extend(summarize(r) for r in results)
        self.check_cells(rnd, results, {program.name: program
                                        for _l, program, _w, _t
                                        in self.kernels})
        return rnd


class ReportWarm(Workload):
    """One client rendering store-backed artefacts from a full store."""

    name = "report-warm"
    round_s = 3.75

    def setup(self):
        self.api = api = load_api()
        self.scale = 0.02
        self.benchmarks = tuple(api.SPEC_BENCHMARKS[:2] if self.tiny
                                else api.SPEC_BENCHMARKS)
        self.store_dir = os.path.join(self.workdir, "report-store")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        store = api.ResultStore(self.store_dir)
        runner = api.CampaignRunner(scale=self.scale, seed=self.seed,
                                    benchmarks=self.benchmarks,
                                    store=store, jobs=1)
        runner.run_grid(jobs=1)
        store.close()
        # Expected renderings come from the in-memory results alone.
        runner.store = None
        configs = api.named_configs()
        schemes = api.grid_scheme_names()
        self.results = {(b, c.name, s): runner.run(b, c, s)
                        for c in configs for s in schemes
                        for b in self.benchmarks}
        self.expected = {}
        for artefact in ARTEFACTS:
            if artefact == "metrics":
                breakdown = api.cycle_account_breakdown(self.results.values())
                self.expected[artefact] = api.format_stall_report(breakdown)
            else:
                self.expected[artefact] = str(
                    api.run_experiment(artefact, runner=runner))

    def teardown(self):
        super().teardown()
        self.results = self.expected = self.cells = None

    def after_setup(self):
        """Check the cells set-up simulated, then keep only summaries."""
        rnd = Round()
        results = list(self.results.values())
        programs = {
            p.name: p for p in (
                self.api.program_cache.cached_spec_program(
                    b, scale=self.scale, seed=self.seed)
                for b in self.benchmarks)}
        self.check_cells(rnd, results, programs)
        digest = checks.stats_digest(results)
        self.cells = {key: summarize(result)
                      for key, result in self.results.items()}
        self.results = None
        return rnd.problems, digest

    def _cells_read(self, artefact):
        if artefact == "metrics":
            return list(self.cells.values())
        configs, schemes, benchmarks = self.api.experiment_grid_needs(
            artefact)
        return [self.cells[(b, c.name, s)] for c in configs
                for s in schemes for b in (benchmarks or self.benchmarks)]

    def run_round(self, index, layers=None):
        api = self.api
        order = list(ARTEFACTS)
        random.Random("%d/%d" % (self.seed, index)).shuffle(order)
        rnd = Round()
        rnd.keys = order
        texts = []
        tracer = layers and layers.tracer
        for artefact in order:
            if tracer is not None:
                tracer.request = "round%d/%s" % (index, artefact)
            # Each request starts from a collected heap, as a fresh
            # ``python -m repro run`` process would.
            gc.collect()
            self.gap(layers)
            with _span(tracer, "report." + artefact):
                start = self.clock.now()
                store, saves = open_store(api, self.store_dir, layers)
                runner = api.CampaignRunner(scale=self.scale, seed=self.seed,
                                            benchmarks=self.benchmarks,
                                            store=store, jobs=1)
                if layers is not None:
                    layers.instrument_runner(runner)
                with _span(tracer, "analysis." + artefact):
                    if artefact == "metrics":
                        text = api.format_stall_report(
                            api.store_stall_breakdown(store))
                    else:
                        text = str(api.run_experiment(artefact,
                                                      runner=runner))
                store.close()
                rnd.intervals.append((start, self.clock.now()))
            if layers is not None:
                layers.counts["saved"] += saves[0]
            texts.append(text)
            rnd.deliver(self._cells_read(artefact))
            rnd.fail(artefact, checks.check_report(
                artefact, text, self.expected[artefact], saves[0]))
        rnd.finish(self.clock)
        rnd.digest = _text_digest(dict(zip(order, texts)))
        return rnd

    def layer_cells(self, layers):
        return list(self.cells.values())


def _label(result):
    return (result.program_name, result.config_name, result.scheme_name)


def _text_digest(texts):
    digest = hashlib.sha256()
    for name in sorted(texts):
        digest.update(("%s\n%s\n" % (name, texts[name])).encode("utf-8"))
    return digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (CampaignCold, KernelRegimes,
                                       ReportWarm)}
