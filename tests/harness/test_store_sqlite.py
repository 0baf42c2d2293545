"""SQLite-backed ResultStore: format, concurrency, and integrity.

Complements the API-contract tests in ``test_campaign.py`` with the
format-level guarantees of the one-file store: full-key indexing (no
digest-prefix ambiguity) for cells and failures alike,
writer/reader interleaving, CRC-checked statistics, and refusal of
foreign formats.
"""

import json
import sqlite3
import threading

import pytest

from repro.harness.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    MODEL_VERSION,
    CellFailure,
    ResultStore,
    result_record,
)
from repro.harness.storebench import synthetic_key, synthetic_result
from tests.conftest import assert_damaged_cell_refused, damage_stats


def populate(root, count, start=0):
    store = ResultStore(root)
    keys = []
    for index in range(start, start + count):
        key = synthetic_key(index)
        store.save(key, synthetic_result(index), {"index": index})
        keys.append(key)
    store.close()
    return keys


# ----------------------------------------------------------------------
# Indexing: full keys, no prefix ambiguity.
# ----------------------------------------------------------------------

def test_digest_prefix_collisions_are_not_ambiguous(tmp_path):
    # Two keys sharing a 12-hex prefix: the store keys on the full
    # digest, so both survive.
    key_a = "ab" * 6 + "0" * 52
    key_b = "ab" * 6 + "f" * 52
    store = ResultStore(tmp_path)
    store.save(key_a, synthetic_result(1))
    store.save(key_b, synthetic_result(2))
    assert len(store) == 2
    assert sorted(store.keys()) == sorted([key_a, key_b])
    assert (result_record(store.load(key_a))
            == result_record(synthetic_result(1)))
    assert (result_record(store.load(key_b))
            == result_record(synthetic_result(2)))
    loaded = store.load_many([key_a, key_b])
    assert loaded[key_a].stats.cycles == synthetic_result(1).stats.cycles
    assert loaded[key_b].stats.cycles == synthetic_result(2).stats.cycles


def test_failures_sharing_a_key_prefix_stay_distinct(tmp_path):
    key_a = "cd" * 6 + "0" * 52
    key_b = "cd" * 6 + "f" * 52
    store = ResultStore(tmp_path)
    for key, error in ((key_a, "first"), (key_b, "second")):
        store.save_failure(CellFailure(
            key=key, benchmark="bench", config_name="small",
            scheme_name="baseline", error=error))
    assert sorted(f.key for f in store.failures()) == [key_a, key_b]
    assert store.load_failure(key_a).error == "first"
    assert store.load_failure(key_b).error == "second"
    # A result for one cell clears that cell's failure, and only it.
    store.save(key_a, synthetic_result(1))
    assert store.load_failure(key_a) is None
    assert [f.key for f in store.failures()] == [key_b]


def test_save_load_round_trip_bit_identical(tmp_path):
    store = ResultStore(tmp_path)
    result = synthetic_result(7)
    key = synthetic_key(7)
    store.save(key, result, {"benchmark": result.program_name})
    # Every read serves the fields the store keeps, bit for bit: the
    # checked point read, the bulk read and the full scan alike.
    assert result_record(store.load(key)) == result_record(result)
    assert result_record(store.load_many([key])[key]) == result_record(result)
    (row,) = store.iter_results()
    assert result_record(row) == result_record(result)
    assert row.key == key and row.ipc == result.ipc


# ----------------------------------------------------------------------
# Concurrency: a streaming writer interleaved with a reader.
# ----------------------------------------------------------------------

def test_concurrent_writer_and_reader(tmp_path):
    count = 120
    keys = [synthetic_key(i) for i in range(count)]
    errors = []
    done = threading.Event()

    def writer():
        try:
            store = ResultStore(tmp_path)
            for index in range(count):
                store.save(keys[index], synthetic_result(index))
            store.close()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                store = ResultStore(tmp_path)
                loaded = store.load_many(keys)
                # Every hit must already be fully readable (no torn
                # reads): each save is one transaction.
                for result in loaded.values():
                    assert result.stats.cycles > 0
                len(store), store.keys()
                store.close()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer),
               threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    final = ResultStore(tmp_path)
    loaded = final.load_many(keys)
    assert len(loaded) == count
    for index, key in enumerate(keys):
        assert (result_record(loaded[key])
                == result_record(synthetic_result(index)))


def test_external_writer_instance_is_visible_immediately(tmp_path):
    # Two instances, interleaved writes, both land in the one file.
    a, b = ResultStore(tmp_path), ResultStore(tmp_path)
    a.save(synthetic_key(1), synthetic_result(1))
    b.save(synthetic_key(2), synthetic_result(2))
    a.save(synthetic_key(3), synthetic_result(3))
    reader = ResultStore(tmp_path)
    assert len(reader) == 3
    assert reader.load(synthetic_key(2)) is not None


# ----------------------------------------------------------------------
# Integrity: CRC-checked statistics, stale model versions.
# ----------------------------------------------------------------------

def test_verify_deletes_corrupt_row_and_keeps_rest(tmp_path):
    keys = populate(tmp_path, 4)
    damage_stats(tmp_path, keys[0])
    assert_damaged_cell_refused(tmp_path, keys[0])

    store = ResultStore(tmp_path)
    assert store.verify() == {"scanned": 4, "kept": 3, "corrupt": 1,
                              "stale": 0}
    assert keys[0] not in store and len(store) == 3
    for index in (1, 2, 3):
        assert (result_record(store.load(keys[index]))
                == result_record(synthetic_result(index)))
    # A second sweep is clean.
    assert store.verify() == {"scanned": 3, "kept": 3, "corrupt": 0,
                              "stale": 0}


def test_verify_drops_stale_model_versions(tmp_path):
    keys = populate(tmp_path, 2)
    db = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    db.execute("UPDATE cells SET model_version='0.0.0-ancient' WHERE key=?",
               (keys[1],))
    db.commit()
    db.close()
    store = ResultStore(tmp_path)
    summary = store.verify()
    assert summary == {"scanned": 2, "kept": 1, "corrupt": 0, "stale": 1}
    assert store.keys() == keys[:1]
    assert store.load(keys[0]) is not None


def test_gc_reports_bytes_reclaimed(tmp_path):
    keys = populate(tmp_path, 10)
    store = ResultStore(tmp_path)
    summary = store.gc(keys[:3])
    assert summary["scanned"] == 10
    assert summary["kept"] == 3
    assert summary["dropped"] == 7
    assert summary["bytes_reclaimed"] > 0
    assert len(store) == 3
    assert store.stats()["cells"] == 3


def test_store_stats_accounting(tmp_path):
    keys = populate(tmp_path, 12)
    stats = ResultStore(tmp_path).stats()
    assert stats["format"] == FORMAT_VERSION == "cells-v2"
    assert stats["cells"] == 12 and stats["failures"] == 0
    # Live bytes: each cell's pickled statistics plus its meta JSON.
    db = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    rows = db.execute("SELECT key, stats, meta FROM cells").fetchall()
    db.close()
    assert stats["live_bytes"] == sum(
        len(blob) + len(meta.encode("utf-8")) for _key, blob, meta in rows)
    assert ({key: json.loads(meta) for key, _blob, meta in rows}
            == {key: {"index": index} for index, key in enumerate(keys)})
    assert stats["disk_bytes"] >= stats["live_bytes"]


def test_clear_removes_manifest(tmp_path):
    keys = populate(tmp_path, 4)
    store = ResultStore(tmp_path)
    store.clear()
    assert len(store) == 0
    assert store.load(keys[0]) is None
    assert not (tmp_path / MANIFEST_NAME).exists()
    # The store stays usable after a clear.
    store.save(keys[0], synthetic_result(0))
    assert len(store) == 1


# ----------------------------------------------------------------------
# One format: foreign files and foreign manifests.
# ----------------------------------------------------------------------

def test_stray_json_files_in_root_are_ignored(tmp_path):
    # A JSON-file-per-cell envelope in the store root is not a cell.
    keys = populate(tmp_path, 2)
    stray = tmp_path / ("bench__small__baseline__%s.json" % ("9" * 12))
    stray.write_text(json.dumps({
        "key": "9" * 64, "model_version": MODEL_VERSION, "meta": {},
        "result": synthetic_result(9).to_dict()}, sort_keys=True))
    store = ResultStore(tmp_path)
    assert len(store) == 2
    assert sorted(store.keys()) == sorted(keys)
    assert "9" * 64 not in store
    assert store.load("9" * 64) is None
    assert store.load_many(["9" * 64]) == {}
    assert len(list(store.iter_results())) == 2
    assert store.stats()["cells"] == 2
    assert store.verify()["scanned"] == 2
    store.clear()
    assert stray.exists()


def test_foreign_manifest_format_is_refused(tmp_path):
    populate(tmp_path, 1)
    db = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    db.execute("UPDATE meta SET v='segments-v1' WHERE k='format'")
    db.commit()
    db.close()
    with pytest.raises(RuntimeError) as info:
        len(ResultStore(tmp_path))
    message = str(info.value)
    assert "'segments-v1'" in message and repr(FORMAT_VERSION) in message
    assert "cache" in message and "move aside" in message
    assert str(tmp_path) in message
    assert "migrate" not in message
