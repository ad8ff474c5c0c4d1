"""Durability tests for the crash-safe artifact cache.

The cache's contract: every read-path failure mode -- truncation, bit
flips, stale code versions, races, interrupted writes -- degrades to a
counted cache *miss*, never a crash and never a wrong result.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import threading
import time
from unittest import mock

import pytest

from repro.compiler import CompileOptions, compile_spec
from repro.kernels import make_matmul
from repro.service import checkpoint
from repro.service import CompileService
from repro.service.cache import (
    ArtifactCache,
    cache_key,
    code_fingerprint,
    decode_result,
    encode_result,
    options_fingerprint,
    spec_fingerprint,
    split_record,
)

FAST = CompileOptions(time_limit=5.0, node_limit=20_000, iter_limit=15, validate=False)


@pytest.fixture(scope="module")
def compiled():
    kernel = make_matmul(2, 2, 2)
    return kernel.spec(), compile_spec(kernel.spec(), FAST)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "cache"))


def _entry_path(cache, key):
    return cache._path(key)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


class TestKeys:
    def test_key_is_stable(self, compiled):
        spec, _ = compiled
        assert cache_key(spec, FAST) == cache_key(spec, FAST)

    def test_key_changes_with_options(self, compiled):
        spec, _ = compiled
        other = CompileOptions(time_limit=1.0, node_limit=20_000, iter_limit=15)
        assert cache_key(spec, FAST) != cache_key(spec, other)

    def test_key_changes_with_spec(self, compiled):
        spec, _ = compiled
        other = make_matmul(3, 3, 3).spec()
        assert spec_fingerprint(spec) != spec_fingerprint(other)
        assert cache_key(spec, FAST) != cache_key(other, FAST)

    def test_key_changes_with_code_version(self, compiled):
        spec, _ = compiled
        assert cache_key(spec, FAST, "aaaa") != cache_key(spec, FAST, "bbbb")

    def test_options_fingerprint_covers_rule_switches(self):
        a = options_fingerprint(FAST)
        b = options_fingerprint(
            CompileOptions(
                time_limit=5.0, node_limit=20_000, iter_limit=15,
                validate=False, enable_vector_rules=False,
            )
        )
        assert a != b

    def test_code_fingerprint_is_cached_and_short(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_entry_from_other_code_version_is_a_miss(self, tmp_path, compiled):
        spec, result = compiled
        old = ArtifactCache(str(tmp_path / "c"), code_version="old-code")
        old.store(spec, FAST, result)
        new = ArtifactCache(str(tmp_path / "c"), code_version="new-code")
        # Different code version => different key => plain miss.
        assert new.lookup(spec, FAST) is None
        # Even a forged same-key entry is rejected by the header check.
        forged_key = new.key_for(spec, FAST)
        os.replace(
            old._path(old.key_for(spec, FAST)), new._path(forged_key)
        )
        assert new.get(forged_key) is None
        assert new.stats.corrupt == 1


# ----------------------------------------------------------------------
# Round trip + hit/miss accounting
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_put_get_roundtrip(self, cache, compiled):
        spec, result = compiled
        assert cache.store(spec, FAST, result)
        loaded = cache.lookup(spec, FAST)
        assert loaded is not None
        assert loaded.cost == result.cost
        assert len(loaded.program) == len(result.program)
        assert loaded.spec.name == spec.name
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_cold_lookup_is_a_miss(self, cache, compiled):
        spec, _ = compiled
        assert cache.lookup(spec, FAST) is None
        assert cache.stats.misses == 1

    def test_no_temp_litter_after_put(self, cache, compiled):
        spec, result = compiled
        cache.store(spec, FAST, result)
        litter = [n for n in os.listdir(cache.root) if n.startswith(".tmp-")]
        assert litter == []

    def test_unpicklable_result_degrades_to_not_cached(self, cache, compiled):
        spec, result = compiled
        import copy
        import dataclasses

        # Mutate a shallow copy so the module-scoped fixture stays clean.
        result_bad = copy.copy(result)
        result_bad.options = dataclasses.replace(
            result.options, extra_rules=(lambda: None,)  # closures don't pickle
        )
        assert not cache.put(cache.key_for(spec, FAST), result_bad)
        assert cache.stats.store_failures == 1


# ----------------------------------------------------------------------
# One payload: records carry no spec, readers re-attach theirs
# ----------------------------------------------------------------------


def _record_payload(cache, key):
    with open(_entry_path(cache, key), "rb") as handle:
        return pickle.loads(split_record(handle.read())[1])


class TestSpecLessRecords:
    def test_codec_round_trip(self, compiled):
        spec, result = compiled
        # Encoding sets the attempts: keep the shared fixture's as they are.
        result = dataclasses.replace(
            result, diagnostics=dataclasses.replace(result.diagnostics)
        )
        payload = encode_result(result, attempts=2)
        assert pickle.loads(payload).spec is None
        assert len(payload) < len(pickle.dumps(result))
        decoded = decode_result(payload, spec)
        assert decoded.spec is spec
        assert decoded.diagnostics.attempts == 2
        assert decoded.program == result.program
        assert decoded.program_unoptimized == result.program_unoptimized
        with pytest.raises(ValueError):
            decode_result(pickle.dumps({"not": "a result"}), spec)

    @pytest.mark.parametrize("isolate", [True, False], ids=["forked", "in-process"])
    @pytest.mark.parametrize("lru", [0, 8], ids=["disk", "lru"])
    def test_readers_with_the_request_get_its_spec(self, tmp_path, isolate, lru):
        spec = make_matmul(2, 2, 2).spec()
        cache = ArtifactCache(str(tmp_path / "cache"), lru_capacity=lru)
        service = CompileService(cache=cache, isolate=isolate)
        first = service.compile_spec(spec, FAST)
        assert first.spec is spec
        key = cache.key_for(spec, FAST)
        stored = _record_payload(cache, key)
        assert stored.spec is None
        assert stored.diagnostics.attempts == 1
        assert stored.program_unoptimized == first.program_unoptimized

        request = make_matmul(2, 2, 2).spec()  # an equal, distinct object
        hit = service.compile_spec(request, FAST)
        assert hit.diagnostics.cache_hit and hit.spec is request
        assert cache.get(key, request).spec is request
        assert cache.lookup(request, FAST).spec is request
        assert cache.get(key).spec is None
        # A fresh reader decodes the record from disk.
        fresh = ArtifactCache(cache.root, lru_capacity=lru)
        assert fresh.lookup(request, FAST).spec is request
        assert fresh.get(key, request).spec == spec
        if lru:
            assert cache.lru.get(key).spec is None


# ----------------------------------------------------------------------
# Corruption: every mode degrades to a miss
# ----------------------------------------------------------------------


class _CacheEntry:
    """One artifact-cache entry, as the corruption cases see a store:
    ``write`` stores the record (optionally as older code would have),
    ``read`` loads it, ``corrupt`` counts corrupt reads."""

    def __init__(self, root, compiled):
        spec, self.value = compiled
        self.cache = ArtifactCache(root)
        self.key = self.cache.key_for(spec, FAST)
        self.path = _entry_path(self.cache, self.key)
        self.code = self.cache.code_version

    def write(self, code=None):
        cache = self.cache if code is None else ArtifactCache(
            self.cache.root, code
        )
        assert cache.put(self.key, self.value)

    def read(self):
        return self.cache.get(self.key)

    @property
    def corrupt(self):
        return self.cache.stats.corrupt


class _CheckpointEntry:
    """One saturation checkpoint, seen the same way: it is a record in
    the cache's format, read by the same reader."""

    def __init__(self, root):
        self.key = "c" * 64
        self.path = os.path.join(root, self.key + ".satckpt")
        self.checkpointer = checkpoint.FileCheckpointer(self.path, self.key)
        self.value = checkpoint.SaturationState(
            next_iteration=2,
            egraph={"nodes": list(range(10))},
            applied_keys={("rule", 1)},
            rule_stats={},
        )
        self.code = code_fingerprint()

    def write(self, code=None):
        with mock.patch.object(
            checkpoint, "code_fingerprint", lambda: code or self.code
        ):
            assert self.checkpointer.save(self.value)

    def read(self):
        return self.checkpointer.load()

    @property
    def corrupt(self):
        return self.checkpointer.stats.corrupt


def _assert_corrupt_read(store):
    """The read misses, counts one corrupt read, and moves the file
    aside so it cannot mis-count again."""
    assert store.read() is None
    assert store.corrupt == 1
    assert not os.path.exists(store.path)
    assert os.path.exists(store.path + ".corrupt")


def _rewrite(store, edit):
    with open(store.path, "rb") as handle:
        blob = bytearray(handle.read())
    with open(store.path, "wb") as handle:
        handle.write(bytes(edit(blob)))


class TestCorruption:
    """Every corruption mode of an artifact-cache entry;
    :class:`TestCheckpointCorruption` runs the same cases against a
    saturation checkpoint."""

    @pytest.fixture
    def store(self, tmp_path, compiled):
        return _CacheEntry(str(tmp_path / "cache"), compiled)

    def test_truncated_file_is_a_miss(self, store):
        store.write()
        _rewrite(store, lambda blob: blob[: len(blob) // 2])
        _assert_corrupt_read(store)

    def test_empty_file_is_a_miss(self, store):
        store.write()
        open(store.path, "wb").close()
        _assert_corrupt_read(store)

    def test_bit_flip_in_payload_is_a_miss(self, store):
        def flip(blob):
            blob[-10] ^= 0x40
            return blob

        store.write()
        _rewrite(store, flip)
        _assert_corrupt_read(store)

    def test_bit_flip_in_header_is_a_miss(self, store):
        def flip(blob):
            blob[len(b"RPROCACHE1\n") + 3] ^= 0x01
            return blob

        store.write()
        _rewrite(store, flip)
        _assert_corrupt_read(store)

    def test_garbage_file_is_a_miss(self, store):
        with open(store.path, "wb") as handle:
            handle.write(b"not a cache entry at all")
        _assert_corrupt_read(store)

    def test_wrong_pickle_payload_is_a_miss(self, store):
        """A checksum-valid entry whose payload is not a CompileResult
        (or, for a checkpoint, a SaturationState), e.g. written by a
        confused tool, must still miss."""
        store.write()
        # Rewrite with a payload that unpickles to a plain dict.
        payload = pickle.dumps({"not": "a result"})
        header = json.dumps(
            {
                "format": "repro-cache-v1",
                "key": store.key,
                "code": store.code,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "kernel": "x",
                "created": time.time(),
            }
        ).encode()
        with open(store.path, "wb") as handle:
            handle.write(b"RPROCACHE1\n" + header + b"\n" + payload)
        _assert_corrupt_read(store)

    def test_stale_code_version_is_a_miss(self, store):
        # A same-key record written by other code fails the header check.
        store.write(code="old-code")
        _assert_corrupt_read(store)


class TestCheckpointCorruption(TestCorruption):
    @pytest.fixture
    def store(self, tmp_path):
        return _CheckpointEntry(str(tmp_path))


# ----------------------------------------------------------------------
# Crash safety + races
# ----------------------------------------------------------------------


class TestCrashSafety:
    def test_interrupted_write_leaves_no_entry(self, cache, compiled):
        """Simulate kill -9 mid-write: a partial temp file exists but
        was never published; reads miss, later writes succeed."""
        spec, result = compiled
        key = cache.key_for(spec, FAST)
        with open(os.path.join(cache.root, ".tmp-deadbeef-orphan"), "wb") as h:
            h.write(b"partial")
        assert cache.get(key) is None
        assert cache.put(key, result)
        assert cache.get(key) is not None

    def test_concurrent_writers_same_key(self, cache, compiled):
        spec, result = compiled
        key = cache.key_for(spec, FAST)
        errors = []

        def write():
            try:
                for _ in range(5):
                    assert cache.put(key, result)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.get(key) is not None
        litter = [n for n in os.listdir(cache.root) if n.startswith(".tmp-")]
        assert litter == []

    def test_concurrent_reader_during_writes(self, cache, compiled):
        spec, result = compiled
        key = cache.key_for(spec, FAST)
        cache.put(key, result)
        stop = threading.Event()
        errors = []

        def read():
            while not stop.is_set():
                try:
                    loaded = cache.get(key)
                    assert loaded is None or loaded.cost == result.cost
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        reader = threading.Thread(target=read)
        reader.start()
        for _ in range(20):
            cache.put(key, result)
        stop.set()
        reader.join()
        assert not errors


# ----------------------------------------------------------------------
# Management surface
# ----------------------------------------------------------------------


class TestManagement:
    def test_entries_and_clear(self, cache, compiled):
        spec, result = compiled
        cache.store(spec, FAST, result)
        entries = cache.entries()
        assert len(entries) == 1
        assert entries[0].kernel == spec.name
        assert entries[0].size_bytes > 0
        assert len(cache) == 1
        removed = cache.clear()
        assert removed == 1
        assert cache.entries() == []

    def test_clear_removes_quarantine_and_litter(self, cache, compiled):
        spec, result = compiled
        key = cache.key_for(spec, FAST)
        cache.put(key, result)
        path = _entry_path(cache, key)
        with open(path, "wb") as handle:
            handle.write(b"junk")
        assert cache.get(key) is None  # quarantines to .corrupt
        with open(os.path.join(cache.root, ".tmp-x-y"), "wb") as h:
            h.write(b"x")
        cache.clear()
        assert [
            n
            for n in os.listdir(cache.root)
            if n.endswith((".rcache", ".corrupt")) or n.startswith(".tmp-")
        ] == []
