"""Segment-backed ResultStore: format, concurrency, and recovery.

Complements the API-contract tests in ``test_campaign.py`` with the
format-level guarantees the segment store introduces: full-key
indexing (no digest-prefix ambiguity), O(index) key listing,
writer/reader interleaving, torn-record crash recovery, corrupt
segment quarantine, and refusal of foreign formats.
"""

import json
import shutil
import sqlite3
import threading

import pytest

from repro.harness.segments import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    SEGMENT_DIR,
    SEGMENT_SUFFIX,
)
from repro.harness.store import MODEL_VERSION, ResultStore, result_record
from repro.harness.storebench import synthetic_key, synthetic_result


def populate(root, count, start=0):
    store = ResultStore(root)
    keys = []
    for index in range(start, start + count):
        key = synthetic_key(index)
        store.save(key, synthetic_result(index), {"index": index})
        keys.append(key)
    store.close()
    return keys


def segment_files(root):
    return sorted((root / SEGMENT_DIR).glob("*" + SEGMENT_SUFFIX))


# ----------------------------------------------------------------------
# Indexing: full keys, zero file opens, no prefix ambiguity.
# ----------------------------------------------------------------------

def test_digest_prefix_collisions_are_not_ambiguous(tmp_path):
    # Two keys sharing the 12-hex filename prefix of cell_filename():
    # the manifest keys on the full digest, so both survive.
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


def test_keys_and_len_never_open_segment_files(tmp_path):
    keys = populate(tmp_path, 25)
    store = ResultStore(tmp_path)
    # Deleting every segment file cannot hide cells from the index:
    # keys()/len()/contains answer from the manifest alone.
    shutil.rmtree(tmp_path / SEGMENT_DIR)
    assert sorted(store.keys()) == sorted(keys)
    assert len(store) == 25
    assert keys[0] in store


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
                # reads): records flush before their index row lands.
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
    # Two instances, interleaved writes: each appends to its own
    # segment, both land in the shared manifest.
    a, b = ResultStore(tmp_path), ResultStore(tmp_path)
    a.save(synthetic_key(1), synthetic_result(1))
    b.save(synthetic_key(2), synthetic_result(2))
    a.save(synthetic_key(3), synthetic_result(3))
    assert len(segment_files(tmp_path)) == 2
    reader = ResultStore(tmp_path)
    assert len(reader) == 3
    assert reader.load(synthetic_key(2)) is not None


# ----------------------------------------------------------------------
# Crash recovery: torn appends, corrupt records, quarantine.
# ----------------------------------------------------------------------

def test_torn_tail_append_is_invisible_and_reclaimed(tmp_path):
    keys = populate(tmp_path, 5)
    (segment,) = segment_files(tmp_path)
    intact = segment.stat().st_size
    # Simulate a crash mid-append: a half-written record at the tail,
    # never indexed (the row only commits after the record flushes).
    with open(segment, "ab") as handle:
        handle.write(b"SBR1\x00\x00\xff\xff\xe5\x8dtorn")
    torn = segment.stat().st_size - intact
    store = ResultStore(tmp_path)
    assert len(store) == 5
    for index, key in enumerate(keys):
        assert (result_record(store.load(key))
                == result_record(synthetic_result(index)))
    assert store.verify() == {"scanned": 5, "kept": 5, "corrupt": 0,
                              "stale": 0}
    # New writers never append to an existing segment, so the torn
    # tail can never corrupt a later record; compaction drops it.
    store.save(synthetic_key(99), synthetic_result(99))
    assert len(segment_files(tmp_path)) == 2
    summary = store.compact()
    assert summary["cells"] == 6
    assert summary["bytes_after"] == summary["bytes_before"] - torn
    final = ResultStore(tmp_path)
    assert len(final) == 6
    assert (result_record(final.load(keys[3]))
            == result_record(synthetic_result(3)))


def test_verify_quarantines_corrupt_segment_and_salvages_rest(tmp_path):
    keys = populate(tmp_path, 4)
    (segment,) = segment_files(tmp_path)
    # Flip bytes inside the first record's payload: its CRC dies, the
    # other three records in the same segment stay healthy.
    blob = bytearray(segment.read_bytes())
    blob[16:20] = b"\xff\xff\xff\xff"
    segment.write_bytes(bytes(blob))

    store = ResultStore(tmp_path)
    assert store.load(keys[0]) is None  # corrupt: absent, not wrong
    summary = store.verify()
    assert summary == {"scanned": 4, "kept": 3, "corrupt": 1, "stale": 0}
    # The damaged segment is set aside for post-mortem, not destroyed;
    # healthy records were salvaged into a fresh segment.
    assert not segment.exists()
    assert segment.with_name(segment.name + ".corrupt").exists()
    assert len(store) == 3
    for index in (1, 2, 3):
        assert (result_record(store.load(keys[index]))
                == result_record(synthetic_result(index)))
    # A second sweep is clean.
    assert store.verify() == {"scanned": 3, "kept": 3, "corrupt": 0,
                              "stale": 0}


def test_verify_drops_stale_model_versions(tmp_path):
    store = ResultStore(tmp_path)
    store.save(synthetic_key(1), synthetic_result(1))
    stale = dict(store.load_envelope(synthetic_key(1)))
    stale["key"] = "e" * 64
    stale["model_version"] = "0.0.0-ancient"
    store._append_envelope(stale)
    assert len(store) == 2
    summary = store.verify()
    assert summary == {"scanned": 2, "kept": 1, "corrupt": 0, "stale": 1}
    assert len(store) == 1
    assert store.load(synthetic_key(1)) is not None


def test_snapshot_records_of_older_writers_still_serve(tmp_path):
    # Older writers stored the full SimulationResult.to_dict(), with
    # the register/memory snapshot and an empty ``extra`` beside it.
    result = synthetic_result(4)
    old = dict(result_record(result), regs=list(range(32)),
               memory={"4096": 7}, extra={})
    key = synthetic_key(4)
    store = ResultStore(tmp_path)
    store._append_envelope({"key": key, "model_version": MODEL_VERSION,
                            "meta": {}, "result": old})
    assert "regs" in store.load_envelope(key)["result"]
    assert result_record(store.load(key)) == result_record(result)
    assert result_record(store.load_many([key])[key]) == result_record(result)
    assert store.verify() == {"scanned": 1, "kept": 1, "corrupt": 0,
                              "stale": 0}
    assert store.compact()["cells"] == 1
    assert (result_record(ResultStore(tmp_path).load(key))
            == result_record(result))


def test_compact_folds_single_cell_segments(tmp_path):
    # One writer instance per cell — the crash-resume worst case —
    # leaves one segment per cell; compact folds them into one.
    for index in range(8):
        store = ResultStore(tmp_path)
        store.save(synthetic_key(index), synthetic_result(index))
        store.close()
    assert len(segment_files(tmp_path)) == 8
    store = ResultStore(tmp_path)
    summary = store.compact()
    assert summary["segments_before"] == 8
    assert summary["segments_after"] == 1
    assert summary["cells"] == 8
    assert len(segment_files(tmp_path)) == 1
    reloaded = ResultStore(tmp_path)
    for index in range(8):
        assert (result_record(reloaded.load(synthetic_key(index)))
                == result_record(synthetic_result(index)))


def test_gc_reports_bytes_reclaimed(tmp_path):
    keys = populate(tmp_path, 10)
    store = ResultStore(tmp_path)
    summary = store.gc(keys[:3])
    assert summary["scanned"] == 10
    assert summary["kept"] == 3
    assert summary["dropped"] == 7
    assert summary["bytes_reclaimed"] > 0
    assert len(store) == 3
    stats = store.stats()
    assert stats["cells"] == 3 and stats["segments"] == 1


def test_store_stats_accounting(tmp_path):
    populate(tmp_path, 12)
    stats = ResultStore(tmp_path).stats()
    assert stats["format"] == "segments-v1"
    assert stats["cells"] == 12
    assert stats["segments"] == 1
    assert stats["segment_bytes"] == stats["live_bytes"]  # no dead bytes
    assert stats["raw_bytes"] > stats["live_bytes"]  # compression won
    assert stats["compression_ratio"] > 1.0
    assert stats["disk_bytes"] >= stats["segment_bytes"]


def test_clear_removes_manifest_and_segments(tmp_path):
    keys = populate(tmp_path, 4)
    store = ResultStore(tmp_path)
    store.clear()
    assert len(store) == 0
    assert store.load(keys[0]) is None
    assert not segment_files(tmp_path)
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
    db.execute("UPDATE meta SET v='segments-v0' WHERE k='format'")
    db.commit()
    db.close()
    with pytest.raises(RuntimeError) as info:
        len(ResultStore(tmp_path))
    message = str(info.value)
    assert "'segments-v0'" in message and repr(FORMAT_VERSION) in message
    assert "cache" in message and "move aside" in message
    assert str(tmp_path) in message
    assert "migrate" not in message


def test_lazy_results_survive_compaction(tmp_path):
    keys = populate(tmp_path, 3)
    # Unusable stats blobs send every read to the segment record.
    db = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    db.execute("UPDATE cells SET stats=NULL")
    db.commit()
    db.close()
    store = ResultStore(tmp_path)
    loaded = store.load_many(keys)
    # Relocate every record while the results are outstanding...
    store.save(synthetic_key(50), synthetic_result(50))
    store.compact()
    # ...then touch their statistics: the stale locators re-resolve
    # through the manifest instead of failing.
    for index, key in enumerate(keys):
        assert (result_record(loaded[key])
                == result_record(synthetic_result(index)))
