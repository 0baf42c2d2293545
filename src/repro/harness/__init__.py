"""Campaign engine: content-addressed, disk-backed, parallel.

:class:`~repro.harness.runner.CampaignRunner` executes the
(benchmark x config x scheme) simulation grid and caches results;
:mod:`repro.harness.experiments` turns the cached grid into each
table/figure of the paper, rendered as text and returned as data.

**Cache key.**  Every grid cell is identified by
:func:`~repro.harness.store.simulation_key`, a SHA-256 over the
canonical JSON of the complete simulation identity: the full
``CoreConfig`` parameter record (every field, nested ``MemConfig``
included), the scheme name plus constructor kwargs, the workload
scale/seed, and a model version stamp.  Display names carry no
identity, so same-named-but-different configurations can never alias.

**Store layout** (format ``cells-v2``).  With a
:class:`~repro.harness.store.ResultStore` attached, every cell lands
as one row of a single SQLite file::

    results/store/
        manifest.db               # SQLite: cells + failures tables

A ``cells`` row is keyed on the *full* 64-hex key and holds the model
version, the benchmark/config/scheme names, ``halted``, ``cycles``,
the caller's ``meta`` as JSON, and the statistics as a pickled
``SimStats`` blob with its CRC32 — no register or memory snapshot:
every simulated cell is checked against the reference interpreter's
final state before it is stored.  ``keys()`` and ``len()`` are index
reads, and ``load`` / ``load_many`` / ``iter_results`` serve
:class:`~repro.harness.store.StoredResult` rows whose statistics are
CRC-checked and unpickled when first touched; a damaged blob raises
:class:`~repro.harness.store.CorruptRecord` naming ``python -m repro
store verify``.  Each ``save`` is one transaction (SQLite WAL mode), so
concurrent writers and readers never see half a cell.  A file of
another format is refused with a message to remove or move the store
aside — it is a cache, rebuilt by rerunning the campaign.

**Version invalidation and maintenance.**  The model version stamp
(:data:`~repro.harness.store.MODEL_VERSION`, the package version)
participates in every hash: bumping the version changes every key, so
results computed by an older simulator are never reused — they simply
stop being found.  Eviction is no longer all-or-nothing:
``ResultStore.verify()`` deletes corrupt and version-stale cells,
``ResultStore.gc(keep_keys)`` evicts everything outside a
caller-supplied key set and reports the bytes reclaimed, and all of it
is scriptable as ``python -m repro store {verify,gc,stats}``.
Maintenance verbs are offline operations: run them without concurrent
writers.

**Execution.**  :func:`~repro.harness.parallel.run_cells` is the one
way a batch of cells runs: serially in-process (``jobs<=1``) or on a
local ``fork`` process pool (``jobs>1``; serial whenever no pool can
be created).  Both funnel every cell through
:func:`~repro.harness.parallel.simulate_cell`, so a cell's stored
result is byte-identical however it ran.
``CampaignRunner.run_grid(jobs=...)`` / ``run_cell_batch`` pass
``on_result``, which streams each cell into the store the moment it
completes, so interrupted campaigns keep their work.  Both paths feed
one :class:`~repro.harness.progress.ProgressReporter` (cells
done/total, cells/sec, ETA, per-worker attribution).

**Failure model** (serial and pool alike):

- *Recorded*: a cell whose simulation raises — including a cell whose
  final registers or memory differ from the reference interpreter's —
  is settled as a :class:`~repro.harness.store.CellFailure` (with
  the error and traceback text); in a store-backed campaign the
  record persists in the store's ``failures`` table (``python -m repro
  store failures`` lists it), the summary counts it as ``failed``,
  and the rest of the campaign completes.  Without a store the
  exception propagates.
- *Aborts*: a pool worker process that dies (rather than raises)
  aborts the campaign with
  :class:`~concurrent.futures.process.BrokenProcessPool` once every
  cell that did finish has been stored.  Such a cell is not recorded
  as a failure: there is no quarantine of cells that kill their
  worker.
- *Resumes*: the store is the campaign's record.  Re-running the same
  ``grid`` over the same store simulates only the cells it lacks —
  those never reached and those that failed — and a result landing
  for a cell clears that cell's failure record.

**Program cache.**  Workload generation is memoised content-addressed
(:mod:`repro.workloads.program_cache`: profile content + seed +
generator version), so pool workers looping over many cells of one
benchmark generate its program once per process.

**CLI.**  All of this is scriptable via ``python -m repro``::

    python -m repro list                         # experiment ids
    python -m repro grid --jobs 8 --progress     # local process pool
    python -m repro run figure6 table3           # named experiments
    python -m repro run all --jobs 8             # everything, parallel
    python -m repro store failures               # recorded cell failures
    python -m repro store verify                 # delete corrupt/stale
    python -m repro store gc --scale 1.0         # evict off-grid cells
    python -m repro store stats                  # cells and bytes
    python -m repro profile --json               # cProfile one cell
    python3 perfbench/run.py --workload kernel-regimes  # host-time bench

``--jobs N`` fans simulation out over N local workers, ``--progress``
streams live ETA lines, ``--scale`` / ``--seed`` select the workload
build, ``--store-dir`` relocates the persistent store, and
``--no-store`` keeps a run purely in-memory.
"""

from repro.harness.runner import CampaignRunner, shared_runner
from repro.harness.store import (
    MODEL_VERSION,
    CellFailure,
    ResultStore,
    simulation_key,
)
from repro.harness.parallel import run_cells, simulate_cell
from repro.harness.progress import ProgressReporter, make_progress
from repro.harness.experiments import (
    EXPERIMENTS,
    Experiment,
    experiment_grid_needs,
    run_experiment,
    experiment_ids,
)

__all__ = [
    "CampaignRunner",
    "shared_runner",
    "ResultStore",
    "CellFailure",
    "simulation_key",
    "MODEL_VERSION",
    "run_cells",
    "simulate_cell",
    "ProgressReporter",
    "make_progress",
    "EXPERIMENTS",
    "Experiment",
    "experiment_grid_needs",
    "run_experiment",
    "experiment_ids",
]
