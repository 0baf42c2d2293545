"""Cell simulation and :func:`run_cells`, the one way to run a batch.

A *cell spec* is the picklable tuple
``(benchmark, config, scheme_name, scheme_kwargs, scale, seed)`` — the
same identity that :func:`repro.harness.store.simulation_key` hashes.

:func:`simulate_cell` executes one spec; the serial loop and the
process pool both funnel through it, so a cell simulates identically
wherever it lands, and every cell's final registers and memory are
checked against the reference interpreter's before it is returned.
Benchmark programs come from the content-addressed
:mod:`~repro.workloads.program_cache`: generation is seeded and
per-benchmark independent (a subset build is bit-identical to a
full-suite build), and a worker looping over many cells of one
benchmark generates its program once.

:func:`run_cells` runs a batch either in-process (``jobs<=1``) or on a
local process pool, and reports each cell as it finishes: a result
through ``on_result``, a raising simulation through ``on_failure`` as
a :class:`~repro.harness.store.CellFailure`.  A pool worker that dies
aborts the batch with :class:`BrokenProcessPool` instead of hanging.
"""

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool

from repro.core.factory import make_scheme
from repro.harness.store import CellFailure, simulation_key
from repro.obs import CycleAccount
from repro.pipeline.core import OoOCore
from repro.workloads.program_cache import cached_spec_program, cached_spec_trace


def default_jobs():
    """Worker count when the caller does not specify one."""
    return max(1, os.cpu_count() or 1)


def simulate_cell(spec):
    """Simulate one grid cell from its spec; returns a SimulationResult.

    Top-level (not nested) so it is picklable by multiprocessing.
    Raises ``KeyError`` for unknown benchmark names.

    The workload's canonical dynamic trace rides along with the program
    (same content-addressed cache, same disk directory), so every cell
    of a benchmark — across schemes, configs and processes — replays
    one recording instead of re-evaluating per uop.

    Campaign cells always carry cycle accounting (see
    :mod:`repro.obs`): serial and pool runs both funnel through here,
    so stored results gain identical ``cycacct.`` extras and the store
    stays byte-identical however a cell was run.

    The result's registers and non-zero memory must equal the final
    state the trace recorded from the reference interpreter; a
    mismatch raises ``ValueError``, which :func:`run_cells` records as
    a :class:`CellFailure`.
    """
    benchmark, config, scheme_name, scheme_kwargs, scale, seed = spec
    program = cached_spec_program(benchmark, scale=scale, seed=seed)
    trace = cached_spec_trace(benchmark, scale=scale, seed=seed)
    result = OoOCore(
        program,
        config=config,
        scheme=make_scheme(scheme_name, **dict(scheme_kwargs or {})),
        warm_caches=True,
        trace=trace,
        account=CycleAccount(),
    ).run()
    try:
        trace.check_final_state(result.regs, result.memory)
    except ValueError as exc:
        raise ValueError("%s/%s/%s: %s" % (benchmark, config.name,
                                           scheme_name, exc)) from None
    return result


def _simulate_in_worker(spec):
    """``spec -> (pid, result)``: the pid attributes progress per worker."""
    return os.getpid(), simulate_cell(spec)


def _cell_failure(spec, exc, worker):
    """The :class:`CellFailure` of a spec whose simulation raised ``exc``;
    called inside the ``except`` block, so the traceback is current."""
    benchmark, config, scheme_name, scheme_kwargs, scale, seed = spec
    return CellFailure(
        key=simulation_key(benchmark, config, scheme_name,
                           scheme_kwargs=dict(scheme_kwargs or ()),
                           scale=scale, seed=seed),
        benchmark=benchmark, config_name=config.name,
        scheme_name=scheme_name, worker=worker,
        error="%s: %s" % (type(exc).__name__, exc),
        traceback=traceback.format_exc(),
    )


def _open_pool(jobs):
    """A ``fork`` process pool, or ``None`` where none can be created
    (restricted sandboxes, missing ``/dev/shm``)."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context()
    try:
        return ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    except (OSError, NotImplementedError):
        return None


def run_cells(specs, jobs=None, progress=None, on_result=None,
              on_failure=None):
    """Simulate every spec; returns results in spec order.

    ``jobs=None`` fans out over :func:`default_jobs` processes; ``jobs<=1``
    (or a single spec, or no pool to be had) runs serially in-process.
    As each cell finishes, ``on_result(index, result)`` fires and
    ``progress.cell_done(worker=...)`` counts it, so a store-backed
    caller keeps every finished cell even if the batch is interrupted.

    A cell whose simulation raises is reported as
    ``on_failure(index, CellFailure(...))`` and
    ``progress.cell_failed(...)``; its result is ``None`` and the rest of
    the batch completes.  Without ``on_failure`` the exception
    propagates instead.  A pool worker process that dies (rather than
    raises) raises :class:`BrokenProcessPool` once every cell that did
    finish has been reported.
    """
    specs = list(specs)
    if not specs:
        return []
    jobs = default_jobs() if jobs is None else int(jobs)
    jobs = min(jobs, len(specs))
    results = [None] * len(specs)

    def fail(index, exc, worker):
        if on_failure is None:
            raise exc
        on_failure(index, _cell_failure(specs[index], exc, worker))
        if progress is not None:
            progress.cell_failed()

    def done(index, result, worker):
        results[index] = result
        if on_result is not None:
            on_result(index, result)
        if progress is not None:
            progress.cell_done(worker=worker)

    pool = _open_pool(jobs) if jobs > 1 else None
    if pool is None:
        for index, spec in enumerate(specs):
            try:
                result = simulate_cell(spec)
            except Exception as exc:
                fail(index, exc, "serial")
                continue
            done(index, result, "serial")
        return results

    futures = {}
    died = False
    try:
        try:
            for index, spec in enumerate(specs):
                futures[pool.submit(_simulate_in_worker, spec)] = index
        except BrokenProcessPool:
            # A worker died before every spec was queued; the futures
            # already queued still resolve below.
            died = True
        for future in as_completed(futures):
            index = futures[future]
            try:
                pid, result = future.result()
            except BrokenProcessPool:
                died = True
                continue
            except Exception as exc:
                fail(index, exc, None)
                continue
            done(index, result, "pid-%d" % pid)
    finally:
        pool.shutdown(cancel_futures=True)
    if died:
        raise BrokenProcessPool(
            "a pool worker process died mid-campaign; every cell that"
            " finished before it was already reported (and stored, for a"
            " store-backed campaign), so re-running the campaign resumes"
            " it")
    return results
