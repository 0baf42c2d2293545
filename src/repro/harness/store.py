"""Persistent, content-addressed store for simulation results.

Every cell of the campaign grid is identified by
:func:`simulation_key`: a SHA-256 over the canonical JSON of the
*complete* simulation identity —

- the full :class:`~repro.pipeline.config.CoreConfig` parameter record
  (every field, including the nested ``MemConfig``), not just its
  display name;
- the scheme name plus any scheme constructor kwargs;
- the workload ``scale`` and ``seed``;
- a model version stamp (:data:`MODEL_VERSION`).

Keying on content rather than names fixes the classic collision: two
distinct configurations that happen to share a name (two ad-hoc
``CoreConfig(...)`` both called ``"custom"``) can never alias each
other's results.  Bumping the package version invalidates every stored
cell at once, because the stamp participates in the hash.

On disk the store is one SQLite file (format ``cells-v2``)::

    results/store/
        manifest.db            cells + failures tables (plus -wal/-shm)

The ``cells`` table holds one row per full 64-hex key: the model
version, the identity names, ``halted``, ``cycles``, the caller's
``meta`` as JSON, and the statistics as a pickled
:class:`~repro.pipeline.stats.SimStats` blob with its CRC32 beside it.
That is what reports read, and nothing else: no architectural snapshot
is stored, because :func:`~repro.harness.parallel.simulate_cell` checks
every cell's registers and memory against the reference interpreter
before it reaches the store.  Every read (``load``, ``load_many``,
``iter_results``) returns :class:`StoredResult` rows; the blob is
CRC-checked and unpickled only when ``stats`` is first touched.  SQLite's
WAL mode keeps any number of writers and readers (threads or
processes) live on one store.  Stray files in the store root are
ignored, and a file of another format is refused: the store is a cache,
rebuilt by rerunning the campaign.

Failures are first-class: a cell the campaign could not complete
(its simulation raised) persists as a :class:`CellFailure` row in the
``failures`` table, keyed on the full key.  Saving a result for the
cell deletes its failure row in the same transaction
(first-result-wins), and ``python -m repro store failures`` lists
whatever remains.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import pickle
import sqlite3
import threading
import zlib

from repro import __version__
from repro.pipeline.stats import SimStats

#: Stamp hashed into every key; results computed by a different model
#: version are invisible (their keys differ), never silently reused.
MODEL_VERSION = __version__

#: Default on-disk location, overridable via the environment.
DEFAULT_STORE_DIR = os.environ.get("REPRO_STORE_DIR", "results/store")

#: The store's one file under its root.
MANIFEST_NAME = "manifest.db"

#: Store format generation (``meta`` table, key ``format``).
FORMAT_VERSION = "cells-v2"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    key TEXT PRIMARY KEY,
    model_version TEXT NOT NULL,
    benchmark TEXT NOT NULL,
    config TEXT NOT NULL,
    scheme TEXT NOT NULL,
    halted INTEGER NOT NULL,
    cycles INTEGER NOT NULL,
    meta TEXT NOT NULL,
    stats BLOB NOT NULL,
    crc INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS failures (
    key TEXT PRIMARY KEY,
    benchmark TEXT,
    config_name TEXT,
    scheme_name TEXT,
    worker TEXT,
    error TEXT,
    traceback TEXT
);
"""

_INSERT_CELL = ("INSERT OR REPLACE INTO cells (key, model_version,"
                " benchmark, config, scheme, halted, cycles, meta, stats,"
                " crc) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)")

#: The columns a :class:`StoredResult` is built from, in its order.
_SELECT_CELL = ("SELECT key, benchmark, config, scheme, halted, cycles,"
                " stats, crc FROM cells")

#: SQLite limits ``IN (...)`` parameter lists; chunk batched lookups.
_IN_CHUNK = 500


@contextlib.contextmanager
def _transaction(conn):
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


class CorruptRecord(ValueError):
    """A stored cell's statistics failed their CRC or would not decode."""


class CellFailure:
    """A structured record of one cell the campaign could not complete."""

    __slots__ = ("key", "benchmark", "config_name", "scheme_name",
                 "worker", "error", "traceback")

    def __init__(self, key, benchmark, config_name, scheme_name,
                 worker=None, error="", traceback=None):
        self.key = key
        self.benchmark = benchmark
        self.config_name = config_name
        self.scheme_name = scheme_name
        self.worker = worker
        self.error = str(error)
        self.traceback = traceback

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self):
        return ("CellFailure(%s/%s/%s, error=%r)"
                % (self.benchmark, self.config_name, self.scheme_name,
                   self.error))


def _scheme_wire_version(scheme_name):
    """The scheme's ``wire_version``, or ``None`` when unresolvable.

    Tolerant by design: keys must stay computable for scheme names the
    local registry does not know (e.g. browsing a store written by a
    newer build), in which case the stamp simply does not participate —
    exactly the pre-versioned behaviour.
    """
    try:
        from repro.core.registry import get_spec

        return get_spec(scheme_name).wire_version
    except Exception:
        return None


def simulation_key(benchmark, config, scheme_name, scheme_kwargs=None,
                   scale=1.0, seed=2017, model_version=MODEL_VERSION):
    """Content hash identifying one grid cell; returns a hex digest.

    A scheme's :attr:`~repro.core.registry.SchemeSpec.wire_version`
    participates in the hash once it leaves its initial value, so
    results simulated under an older behavioural revision of a scheme
    self-evict (their keys no longer match) instead of being silently
    reused.  Version 1 — every scheme today — is deliberately *not*
    hashed, keeping all existing store contents and golden-fixture keys
    byte-identical.
    """
    payload = {
        "model_version": model_version,
        "benchmark": benchmark,
        # fingerprint() is the one canonical config hash; reusing it
        # here keeps cache keys and any other fingerprint consumer in
        # lock-step.
        "config": config.fingerprint(),
        "scheme": scheme_name.lower(),
        "scheme_kwargs": dict(sorted((scheme_kwargs or {}).items())),
        "scale": scale,
        "seed": seed,
    }
    wire = _scheme_wire_version(scheme_name)
    if wire is not None and wire != 1:
        payload["scheme_wire"] = wire
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _StatsUnpickler(pickle.Unpickler):
    """Unpickler restricted to the one class stats blobs may hold."""

    def find_class(self, module, name):
        if module == "repro.pipeline.stats" and name == "SimStats":
            return SimStats
        raise pickle.UnpicklingError(
            "stats blob references %s.%s" % (module, name))


def _decode_stats(key, blob, crc):
    """Check ``blob`` against its CRC and unpickle it.

    Raises :class:`CorruptRecord` naming ``python -m repro store
    verify`` when the blob is damaged, foreign or not a
    :class:`SimStats`: there is no second copy to fall back to.
    """
    try:
        if zlib.crc32(blob) != crc:
            raise ValueError("CRC mismatch")
        stats = _StatsUnpickler(io.BytesIO(blob)).load()
        if not isinstance(stats, SimStats):
            raise TypeError("blob holds %s" % type(stats).__name__)
    except Exception as exc:
        raise CorruptRecord(
            "stored statistics of cell %s are unreadable (%s) — run"
            " 'python -m repro store verify'" % (key, exc)) from exc
    return stats


def result_record(result):
    """The fields the store keeps of one cell's result.

    Identity, ``halted``, ``cycles`` and the full statistics — what
    reports read.  Accepts a fresh
    :class:`~repro.pipeline.core.SimulationResult` or a
    :class:`StoredResult` alike.
    """
    return {
        "program_name": result.program_name,
        "scheme_name": result.scheme_name,
        "config_name": result.config_name,
        "halted": result.halted,
        "cycles": result.cycles,
        "stats": result.stats.to_dict(),
    }


class StoredResult:
    """One stored cell, served from its ``cells`` row.

    Quacks like a :class:`~repro.pipeline.core.SimulationResult` for
    every statistics-level consumer (``key``, identity names,
    ``halted``, ``cycles``, ``stats``, ``ipc``): ``stats`` checks and
    decodes the row's pickled blob on first access and raises
    :class:`CorruptRecord` if it is damaged.
    """

    __slots__ = ("key", "program_name", "config_name", "scheme_name",
                 "halted", "cycles", "_blob", "_crc", "_stats")

    def __init__(self, row, stats=None):
        (self.key, self.program_name, self.config_name, self.scheme_name,
         halted, self.cycles, self._blob, self._crc) = row
        self.halted = bool(halted)
        self._stats = stats

    @property
    def stats(self):
        if self._stats is None:
            self._stats = _decode_stats(self.key, self._blob, self._crc)
            self._blob = None
        return self._stats

    @property
    def ipc(self):
        return self.stats.ipc


class ResultStore:
    """SQLite-backed result store rooted at one directory.

    Surface: ``save``/``load``/``load_many``/``iter_results``/
    ``keys``/``verify``/``gc``/``stats``/``clear``, the failure-record
    API, and ``in``/``len``.  Every read returns :class:`StoredResult`
    rows.

    Concurrency: any number of instances (threads or processes) may
    read and write one store at once; each ``save`` is one
    transaction.  ``verify`` and ``gc`` are offline operations: run
    them without concurrent writers.
    """

    def __init__(self, root=None):
        self.root = pathlib.Path(root or DEFAULT_STORE_DIR)
        self._conn = None
        self._lock = threading.RLock()

    # -- connection -------------------------------------------------------

    @property
    def manifest_path(self):
        return self.root / MANIFEST_NAME

    def _db(self, create=False):
        """The open connection, or ``None`` when the store does not
        exist and ``create`` is false — a read never creates files."""
        if self._conn is None:
            if not create and not self.manifest_path.exists():
                return None
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.manifest_path), timeout=30.0,
                                   check_same_thread=False,
                                   isolation_level=None)
            conn.execute("PRAGMA busy_timeout=30000")
            try:
                conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.DatabaseError:
                pass  # WAL unsupported (exotic fs): rollback mode works
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("CREATE TABLE IF NOT EXISTS meta"
                         " (k TEXT PRIMARY KEY, v TEXT NOT NULL)")
            row = conn.execute("SELECT v FROM meta WHERE k='format'"
                               ).fetchone()
            if row is None:
                conn.executescript(_SCHEMA)
                conn.execute("INSERT OR IGNORE INTO meta VALUES ('format',?)",
                             (FORMAT_VERSION,))
            elif row[0] != FORMAT_VERSION:
                conn.close()
                raise RuntimeError(
                    "store manifest %s has format %r (this build reads %r);"
                    " the store is a cache: remove or move aside %s and"
                    " rerun to rebuild it"
                    % (self.manifest_path, row[0], FORMAT_VERSION,
                       self.root))
            self._conn = conn
        return self._conn

    def close(self):
        """Release the database connection."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _rows(self, query, args=()):
        """Every row ``query`` yields; none when the store does not exist."""
        with self._lock:
            db = self._db()
            return [] if db is None else db.execute(query, args).fetchall()

    # -- membership / keys ------------------------------------------------

    def __contains__(self, key):
        return bool(self._rows("SELECT 1 FROM cells WHERE key=?", (key,)))

    def __len__(self):
        return len(self.keys())

    def keys(self):
        """Full keys of every stored cell."""
        return [row[0] for row in self._rows("SELECT key FROM cells")]

    # -- reads ------------------------------------------------------------

    def iter_results(self):
        """Yield every stored cell as a :class:`StoredResult` (analysis
        bulk read), fetched in chunks."""
        with self._lock:
            db = self._db()
            if db is None:
                return
            cursor = db.execute(_SELECT_CELL)
            while True:
                rows = cursor.fetchmany(1024)
                if not rows:
                    return
                for row in rows:
                    yield StoredResult(row)

    def load_many(self, keys):
        """Bulk read: ``{key: StoredResult}`` for every hit.

        Missing cells are simply absent from the returned dict (callers
        treat absence as "needs simulating").  Statistics decode lazily,
        so a damaged blob raises :class:`CorruptRecord` when touched.
        """
        keys = list(dict.fromkeys(keys))
        found = {}
        for start in range(0, len(keys), _IN_CHUNK):
            chunk = keys[start:start + _IN_CHUNK]
            for row in self._rows(_SELECT_CELL + " WHERE key IN (%s)"
                                  % ",".join("?" * len(chunk)), chunk):
                found[row[0]] = StoredResult(row)
        return found

    def load(self, key):
        """The stored :class:`StoredResult`, or ``None``.

        The checked point read: unlike :meth:`load_many` it decodes the
        statistics at once, so a missing or corrupt cell reads as
        absent.
        """
        for row in self._rows(_SELECT_CELL + " WHERE key=?", (key,)):
            try:
                return StoredResult(row, _decode_stats(key, row[6], row[7]))
            except CorruptRecord:
                return None
        return None

    # -- writes -----------------------------------------------------------

    def save(self, key, result, meta=None):
        """Persist one result and drop any failure recorded for its key,
        in one transaction."""
        blob = pickle.dumps(result.stats, protocol=4)
        row = (key, MODEL_VERSION, result.program_name, result.config_name,
               result.scheme_name, 1 if result.halted else 0, result.cycles,
               json.dumps(meta or {}, sort_keys=True), blob,
               zlib.crc32(blob))
        with self._lock:
            db = self._db(create=True)
            with _transaction(db):
                db.execute(_INSERT_CELL, row)
                db.execute("DELETE FROM failures WHERE key=?", (key,))

    def clear(self):
        """Delete every stored cell and failure record (keeps the
        directory)."""
        with self._lock:
            self.close()
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(str(self.manifest_path) + suffix)
                except OSError:
                    pass

    def _delete_cells(self, keys):
        with self._lock:
            db = self._db()
            with _transaction(db):
                for start in range(0, len(keys), _IN_CHUNK):
                    chunk = keys[start:start + _IN_CHUNK]
                    db.execute("DELETE FROM cells WHERE key IN (%s)"
                               % ",".join("?" * len(chunk)), chunk)

    # -- failure records --------------------------------------------------

    def save_failure(self, failure):
        """Persist one :class:`CellFailure`, replacing any earlier
        record for its key."""
        record = failure.to_dict()
        with self._lock:
            self._db(create=True).execute(
                "INSERT OR REPLACE INTO failures (%s) VALUES (%s)"
                % (", ".join(record), ", ".join("?" * len(record))),
                tuple(record.values()))

    def _select_failures(self, where="", args=()):
        return [CellFailure(*row) for row in self._rows(
            "SELECT %s FROM failures %s ORDER BY benchmark, config_name,"
            " scheme_name, key" % (", ".join(CellFailure.__slots__), where),
            args)]

    def load_failure(self, key):
        """The persisted :class:`CellFailure` for ``key``, or ``None``."""
        found = self._select_failures("WHERE key=?", (key,))
        return found[0] if found else None

    def failures(self):
        """Every persisted failure record, sorted by benchmark/config."""
        return self._select_failures()

    # -- eviction / integrity ---------------------------------------------

    def verify(self):
        """Integrity sweep: delete corrupt and stale cells.

        Every row is checked: a 64-hex key, string identity names, and
        statistics that pass their CRC and unpickle as
        :class:`SimStats`.  A row failing any check is *corrupt*.  A
        healthy row whose ``model_version`` differs from the running
        :data:`MODEL_VERSION` is *stale*: unreachable anyway (its key
        can never be recomputed).  Both are deleted.  Offline operation.
        Returns ``{"scanned", "kept", "corrupt", "stale"}``.
        """
        summary = {"scanned": 0, "kept": 0, "corrupt": 0, "stale": 0}
        drop = []
        for key, version, *names, blob, crc in self._rows(
                "SELECT key, model_version, benchmark, config, scheme,"
                " stats, crc FROM cells"):
            verdict = "kept" if version == MODEL_VERSION else "stale"
            try:
                _decode_stats(key, blob, crc)
                if len(key) != 64 or not all(
                        isinstance(name, str) for name in names):
                    verdict = "corrupt"
            except CorruptRecord:
                verdict = "corrupt"
            summary["scanned"] += 1
            summary[verdict] += 1
            if verdict != "kept":
                drop.append(key)
        if drop:
            self._delete_cells(drop)
        return summary

    def _disk_bytes(self):
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.stat(str(self.manifest_path) + suffix).st_size
            except OSError:
                pass
        return total

    def gc(self, keep_keys):
        """Evict every cell whose full key is not in ``keep_keys``.

        The targeted counterpart of :meth:`clear`: callers compute the
        keys of the grid slices they still care about and every other
        cell — stale model versions, abandoned scales, ad-hoc configs —
        is deleted, then ``VACUUM`` and a WAL checkpoint return the
        space to the file system.  Offline operation.
        Returns ``{"scanned", "kept", "dropped", "bytes_reclaimed"}``.
        """
        keep = set(keep_keys)
        all_keys = self.keys()
        drop = [key for key in all_keys if key not in keep]
        summary = {"scanned": len(all_keys),
                   "kept": len(all_keys) - len(drop),
                   "dropped": len(drop), "bytes_reclaimed": 0}
        if drop:
            before = self._disk_bytes()
            self._delete_cells(drop)
            with self._lock:
                self._conn.execute("VACUUM")
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            summary["bytes_reclaimed"] = max(0, before - self._disk_bytes())
        return summary

    def stats(self):
        """Store-level accounting for ``python -m repro store stats``.

        ``live_bytes`` sums each cell's ``stats`` and ``meta`` bytes;
        ``disk_bytes`` is the file's size with its WAL.
        """
        counts = self._rows(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(stats)"
            " + LENGTH(CAST(meta AS BLOB))), 0),"
            " (SELECT COUNT(*) FROM failures) FROM cells")
        cells, live, failures = counts[0] if counts else (0, 0, 0)
        return {
            "root": str(self.root),
            "format": FORMAT_VERSION,
            "cells": cells,
            "disk_bytes": self._disk_bytes(),
            "live_bytes": live,
            "failures": failures,
        }
