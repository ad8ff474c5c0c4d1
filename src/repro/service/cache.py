"""Crash-safe, content-keyed on-disk cache for compilation artifacts.

Motivated by the durable-artifact story of the eqsat MLIR dialect work
(see PAPERS.md): equality-saturation results are expensive and
deterministic, so they should survive the process that computed them.
A cache entry is a completed :class:`~repro.compiler.CompileResult`
(lowered VIR, diagnostics, cost, validation verdict) keyed by
everything that could change the answer:

``key = sha256(code version | spec fingerprint | options fingerprint)``

* **code version** -- a digest over the ``repro`` package sources, so
  any compiler change invalidates every entry;
* **spec fingerprint** -- the kernel name, array declarations, and the
  s-expression of the lifted term;
* **options fingerprint** -- the semantically relevant
  :class:`~repro.compiler.CompileOptions` fields (budgets, rule-family
  switches, cost configuration, ...); extra rules contribute their
  names.

This module also owns the crash-safe *record* format that cache entries
and saturation checkpoints (:mod:`repro.service.checkpoint`) share: a
magic line, a JSON header (key, code version, SHA-256 of the payload)
and a pickle payload.  A cache entry's payload is the *result codec*'s
(:func:`encode_result`): the result pickled without its ``Spec``, which
the key already pins and every reader re-attaches from its request, so
a forked worker's payload bytes travel to the supervisor and into the
record unchanged.  Its durability contract (exercised by
``tests/test_service_cache.py`` and ``tests/test_checkpoint_resume.py``):

* :func:`write_record` writes a temp file in the record's directory,
  flushes + fsyncs it, publishes it with ``os.replace`` and fsyncs the
  directory -- a ``kill -9`` mid-write leaves at worst an orphan temp
  file, never a half record;
* :func:`read_record` checks the magic, the header, the payload
  checksum, the key and the code version; truncation, bit flips, a
  stale code version, or any deserialization failure degrade to a
  counted *miss* with the corrupt file quarantined, never a crash or a
  wrong result;
* concurrent writers race benignly: ``os.replace`` is atomic, last
  writer wins, both records were equivalent by construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..chaos.inject import chaos_point
from ..observability.config import count, gauge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..compiler import CompileOptions, CompileResult
    from ..frontend.lift import Spec

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CacheEntryInfo",
    "FsckIssue",
    "FsckReport",
    "LRUTier",
    "LRUStats",
    "cache_key",
    "code_fingerprint",
    "decode_result",
    "encode_result",
    "spec_fingerprint",
    "options_fingerprint",
]

#: Bump to invalidate every existing record on format changes.
_FORMAT = "repro-cache-v1"
_MAGIC = b"RPROCACHE1\n"
_SUFFIX = ".rcache"
_TMP = ".tmp-"

_code_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (cached per process).

    Any edit to any compiler module changes the digest, so stale cache
    entries produced by older code can never be served.  Non-source
    artifacts (``.pyc``, editor droppings) are ignored.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is not None:
        return _code_fingerprint_cache
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package_root).encode())
            try:
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            except OSError:
                digest.update(b"<unreadable>")
    _code_fingerprint_cache = digest.hexdigest()[:16]
    return _code_fingerprint_cache


def spec_fingerprint(spec: "Spec") -> str:
    """Stable digest of a lifted specification."""
    parts = [spec.name]
    for decl in (*spec.inputs, *spec.outputs):
        parts.append(f"{decl.name}:{decl.shape}")
    parts.append(spec.term.to_sexpr())
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def options_fingerprint(options: "CompileOptions") -> str:
    """Digest of the semantically relevant compile options.

    ``track_memory`` changes observability, not the produced artifact,
    but it does change the *diagnostics* we persist -- include
    everything except the unhashable rule objects, which contribute
    their names.

    ``checkpoint_dir`` is excluded outright: it names the scratch
    location where crash-recovery state lives, and two compilations
    that differ only in scratch placement must share one cache entry
    (otherwise every retry pointed at a fresh temp dir would miss).
    ``deadline`` likewise: it says when the *client* stops caring, not
    what is being compiled -- two identical requests with different
    deadlines must coalesce onto one cache entry (and one in-flight
    compile, in the gateway's single-flight path).
    """
    return _options_digest(options, ("checkpoint_dir", "deadline"))


def _options_digest(
    options: "CompileOptions", excluded: Tuple[str, ...]
) -> str:
    """SHA-256 of the JSON of every option not in ``excluded`` (extra
    rules by name); :func:`repro.service.checkpoint.saturation_key`
    digests the same JSON with more fields excluded."""
    payload = {}
    for key, value in sorted(vars(options).items()):
        if key in excluded:
            continue
        if key == "extra_rules":
            value = [getattr(r, "name", repr(r)) for r in value]
        payload[key] = value
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def cache_key(
    spec: "Spec", options: "CompileOptions", code_version: Optional[str] = None
) -> str:
    """Content key for one (spec, options, compiler version) triple."""
    code = code_version if code_version is not None else code_fingerprint()
    joined = "|".join(
        (_FORMAT, code, spec_fingerprint(spec), options_fingerprint(options))
    )
    return hashlib.sha256(joined.encode()).hexdigest()


# ----------------------------------------------------------------------
# The record format
# ----------------------------------------------------------------------


def write_record(
    path: str, key: str, code: str, payload: bytes, site: str, **meta: Any
) -> None:
    """Publish the pickled ``payload`` atomically as the record at
    ``path``; ``meta`` adds header fields.  ``site`` is the chaos seam
    hit before the write.  Raises on any failure, leaving no temp file
    behind."""
    chaos_point(site)
    header = json.dumps(
        {
            "format": _FORMAT,
            "key": key,
            "code": code,
            "sha256": hashlib.sha256(payload).hexdigest(),
            **meta,
        },
        sort_keys=True,
    ).encode()
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=_TMP + key[:12] + "-", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_MAGIC + header + b"\n" + payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # durability best-effort on exotic filesystems


def split_record(blob: bytes) -> Tuple[Dict[str, Any], bytes]:
    """A record's header and still-pickled payload, once the magic, the
    header and the payload checksum check out; ``ValueError`` names the
    first check that failed."""
    if not blob.startswith(_MAGIC):
        raise ValueError("bad magic")
    line, newline, payload = blob[len(_MAGIC):].partition(b"\n")
    try:
        header = json.loads(line.decode())
    except ValueError:
        header = None
    if not newline or not isinstance(header, dict):
        raise ValueError("unparseable header")
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        raise ValueError("payload checksum mismatch")
    return header, payload


def read_record(
    path: str, key: str, code: str, site: str, accept: Callable[[Any], bool]
) -> Any:
    """The value of the record at ``path``, or ``None`` when there is no
    readable file.  The bytes pass the chaos seam ``site``; a record
    that fails a check of :func:`split_record`, names another ``key``
    or ``code`` version, does not unpickle, or holds a value ``accept``
    rejects is moved aside to ``.corrupt`` and ``ValueError`` raised."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    try:
        header, payload = split_record(chaos_point(site, blob))
        if header.get("key") != key:
            raise ValueError("key mismatch")
        if header.get("code") != code:
            raise ValueError("stale code version")
        value = pickle.loads(payload)
        if not accept(value):
            raise ValueError(f"unexpected payload {type(value).__name__}")
    except Exception as exc:
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise ValueError(f"corrupt record {path}: {exc}") from exc
    return value


def encode_result(result: "CompileResult", attempts: int) -> bytes:
    """The record payload of ``result``: its pickle without the
    ``Spec``, with ``diagnostics.attempts`` set to ``attempts``.
    Options whose ``extra_rules`` do not pickle (a closure) lose them
    and the pickle is retried once, so a result always travels; the
    cache key still names the rules."""
    result.diagnostics.attempts = attempts
    try:
        return _pickle_spec_less(result)
    except (pickle.PicklingError, AttributeError, TypeError):
        result.options = dataclasses.replace(result.options, extra_rules=())
        return _pickle_spec_less(result)


def decode_result(payload: bytes, spec: Optional["Spec"]) -> "CompileResult":
    """The result a record payload holds, carrying ``spec``; raises when
    the payload does not unpickle to a result."""
    result = pickle.loads(payload)
    if not _is_result(result):
        raise ValueError(f"unexpected payload {type(result).__name__}")
    result.spec = spec
    return result


def _pickle_spec_less(result: "CompileResult") -> bytes:
    return pickle.dumps(
        dataclasses.replace(result, spec=None), protocol=pickle.HIGHEST_PROTOCOL
    )


def sweep(root: str, suffix: str) -> int:
    """Delete every ``suffix`` record under ``root`` with its quarantined
    and temp-file debris; returns the number of files removed."""
    removed = 0
    for name in os.listdir(root):
        if name.endswith((suffix, ".corrupt")) or name.startswith(_TMP):
            try:
                os.unlink(os.path.join(root, name))
                removed += 1
            except OSError:
                pass
    return removed


@dataclass
class CacheStats:
    """Counters for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    store_failures: int = 0

    def summary(self) -> str:
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.corrupt} corrupt, "
            f"{self.store_failures} store failures"
        )


@dataclass
class CacheEntryInfo:
    """Metadata of one on-disk entry (``ArtifactCache.entries``)."""

    key: str
    kernel: str
    size_bytes: int
    created: float
    code_version: str


@dataclass
class FsckIssue:
    """One problem ``ArtifactCache.fsck`` found.

    ``kind`` is one of ``corrupt`` (bad magic / header / checksum /
    filename-key mismatch), ``stale`` (valid entry from an older code
    version), ``tmp`` (orphaned temp file from an interrupted write),
    or ``quarantine`` (a ``.corrupt`` file a previous read set aside).
    """

    name: str
    kind: str
    detail: str = ""
    repaired: bool = False


@dataclass
class FsckReport:
    """Outcome of one cache integrity scan (``repro cache fsck``)."""

    root: str
    scanned: int = 0
    ok: int = 0
    issues: List[FsckIssue] = field(default_factory=list)
    repaired: int = 0

    def count(self, kind: str) -> int:
        return sum(1 for issue in self.issues if issue.kind == kind)

    @property
    def corrupt(self) -> int:
        return self.count("corrupt")

    @property
    def stale(self) -> int:
        return self.count("stale")

    @property
    def tmp_litter(self) -> int:
        return self.count("tmp")

    @property
    def quarantine_debris(self) -> int:
        return self.count("quarantine")

    @property
    def clean(self) -> bool:
        """No issues of any kind (the chaos invariant is weaker: it
        tolerates ``stale``/``tmp``/``quarantine`` debris, which crash-
        safe writes produce by design, but never ``corrupt``)."""
        return not self.issues

    def summary(self) -> str:
        head = (
            f"fsck {self.root}: {self.scanned} entries scanned, "
            f"{self.ok} ok, {self.corrupt} corrupt, {self.stale} stale, "
            f"{self.tmp_litter} temp litter, "
            f"{self.quarantine_debris} quarantined"
        )
        if self.repaired:
            head += f", {self.repaired} repaired"
        lines = [head]
        for issue in self.issues:
            mark = " (removed)" if issue.repaired else ""
            detail = f": {issue.detail}" if issue.detail else ""
            lines.append(f"  [{issue.kind}] {issue.name}{detail}{mark}")
        return "\n".join(lines)


@dataclass
class LRUStats:
    """Counters for one in-process :class:`LRUTier`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def summary(self) -> str:
        return (
            f"lru: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.evictions} evictions"
        )


class LRUTier:
    """Thread-safe in-process LRU of deserialized compile results.

    The read-through tier the gateway's single-flight path (and any
    long-lived :class:`ArtifactCache` user) sits on: a disk hit costs a
    read + checksum + unpickle per request, which at service request
    rates dominates the cache's benefit; the LRU serves repeat keys
    from memory at dict speed.  Capacity is a hard entry bound --
    eviction is strict LRU -- so a long-lived server's memory cannot
    grow with the key universe.

    :class:`ArtifactCache` keeps results here without their ``Spec``
    and hands each reader a shallow copy carrying the reader's own, so
    the tier holds no spec and its entries' other parts are shared:
    callers must treat them as immutable (the only sanctioned mutation
    is the idempotent ``diagnostics.cache_hit`` flag the supervisor
    sets).  Hit/miss/eviction counts are mirrored into the ambient
    metrics registry as ``repro_cache_lru_{hits,misses,evictions}_total``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self.stats = LRUStats()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        kind = "hits" if entry is not None else "misses"
        count(
            f"repro_cache_lru_{kind}_total", f"In-process LRU cache tier {kind}"
        )
        return entry

    def put(self, key: str, value: object) -> None:
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
        for _ in range(evicted):
            count(
                "repro_cache_lru_evictions_total",
                "In-process LRU cache tier evictions",
            )

    def invalidate(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class ArtifactCache:
    """Content-keyed store of :class:`CompileResult` objects, each
    recorded by :func:`encode_result` without its ``Spec``.  A reader
    that passes its request's spec (``get(key, spec)``, ``lookup``)
    gets it re-attached; the key pins everything a spec holds.

    All failure modes on the read path degrade to a miss; all failure
    modes on the write path degrade to "not cached".  The cache is
    therefore always safe to wire in -- it can slow a run down by at
    most one checksum per kernel, and can never change an answer.

    ``lru_capacity`` > 0 adds an in-process read-through LRU tier in
    front of the disk store (:class:`LRUTier`): reads consult memory
    first, disk hits populate memory, writes populate both.  The
    memory tier never weakens durability -- every store still goes
    through the crash-safe disk protocol.
    """

    def __init__(
        self,
        root: str,
        code_version: Optional[str] = None,
        lru_capacity: int = 0,
    ) -> None:
        self.root = os.path.abspath(root)
        self.code_version = (
            code_version if code_version is not None else code_fingerprint()
        )
        self.stats = CacheStats()
        self.lru: Optional[LRUTier] = (
            LRUTier(lru_capacity) if lru_capacity else None
        )
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------- keys

    def key_for(self, spec: "Spec", options: "CompileOptions") -> str:
        return cache_key(spec, options, self.code_version)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + _SUFFIX)

    # ------------------------------------------------------------- read

    def get(
        self, key: str, spec: Optional["Spec"] = None
    ) -> Optional["CompileResult"]:
        """Load an entry, carrying ``spec`` (the request's, which the
        key pins; ``None`` leaves the result without one); any
        integrity failure is a counted miss.  With the memory tier on,
        a hot key never touches disk and a disk hit populates the tier
        for the next reader."""
        if self.lru is not None:
            cached = self.lru.get(key)
            if cached is not None:
                self.stats.hits += 1
                return dataclasses.replace(cached, spec=spec)
        try:
            result = read_record(
                self._path(key), key, self.code_version, "cache.read",
                _is_result,
            )
        except ValueError:
            self.stats.corrupt += 1
            count(
                "repro_cache_quarantines_total",
                "Corrupt cache entries quarantined on read",
            )
            result = None
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self.lru is not None:
            self.lru.put(key, result)
            return dataclasses.replace(result, spec=spec)
        result.spec = spec
        return result

    def lookup(
        self, spec: "Spec", options: "CompileOptions"
    ) -> Optional["CompileResult"]:
        return self.get(self.key_for(spec, options), spec)

    # ------------------------------------------------------------ write

    def put(
        self, key: str, result: "CompileResult", payload: Optional[bytes] = None
    ) -> bool:
        """Persist an entry atomically; returns False if not cached.
        ``payload`` is ``result``'s :func:`encode_result` bytes when the
        caller has them (a worker sent them); otherwise ``result`` is
        pickled here, without its spec and as it is: options that do
        not pickle leave it uncached."""
        try:
            if payload is None:
                payload = _pickle_spec_less(result)
            write_record(
                self._path(key), key, self.code_version, payload, "cache.write",
                kernel=getattr(result.spec, "name", ""), created=time.time(),
            )
        except Exception:
            self.stats.store_failures += 1
            return False
        self.stats.stores += 1
        if self.lru is not None:
            self.lru.put(key, dataclasses.replace(result, spec=None))
        return True

    def store(
        self, spec: "Spec", options: "CompileOptions", result: "CompileResult"
    ) -> bool:
        return self.put(self.key_for(spec, options), result)

    # ------------------------------------------------------- management

    def entries(self) -> List[CacheEntryInfo]:
        """Metadata of every readable entry (corrupt ones skipped)."""
        infos: List[CacheEntryInfo] = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path, "rb") as handle:
                    header, _ = split_record(handle.read())
                infos.append(
                    CacheEntryInfo(
                        key=header.get("key", name[: -len(_SUFFIX)]),
                        kernel=header.get("kernel", "?"),
                        size_bytes=os.path.getsize(path),
                        created=float(header.get("created", 0.0)),
                        code_version=header.get("code", "?"),
                    )
                )
            except Exception:
                continue
        return infos

    def fsck(self, repair: bool = False) -> FsckReport:
        """Scan the cache directory for integrity problems.

        Validates every ``.rcache`` file without unpickling it (magic,
        parseable header, filename/key agreement, payload checksum) and
        inventories the two kinds of debris crash-safe writes leave
        behind: orphaned ``.tmp-*`` files and quarantined ``.corrupt``
        entries.  With ``repair=True``, every flagged file is deleted.
        Issue counts are mirrored into the ambient metrics registry
        (``repro_cache_fsck_issues_total``); quarantine debris finally
        becomes visible to metrics this way.
        """
        report = FsckReport(root=self.root)
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if name.startswith(_TMP):
                report.issues.append(
                    FsckIssue(name, "tmp", "orphaned temp file")
                )
            elif name.endswith(".corrupt"):
                report.issues.append(
                    FsckIssue(name, "quarantine", "quarantined entry")
                )
            elif name.endswith(_SUFFIX):
                report.scanned += 1
                problem = self._verify_entry(name, path)
                if problem is None:
                    report.ok += 1
                else:
                    report.issues.append(problem)
        if repair:
            for issue in report.issues:
                try:
                    os.unlink(os.path.join(self.root, issue.name))
                    issue.repaired = True
                    report.repaired += 1
                except OSError:
                    pass
        for kind in ("corrupt", "stale", "tmp", "quarantine"):
            if report.count(kind):
                count(
                    "repro_cache_fsck_issues_total",
                    "Cache integrity issues found by fsck, by kind",
                    report.count(kind),
                    kind=kind,
                )
        gauge(
            "repro_cache_fsck_entries",
            "Entries scanned by the last cache fsck",
            report.scanned,
        )
        return report

    def _verify_entry(self, name: str, path: str) -> Optional[FsckIssue]:
        """Integrity-check one entry file (header + checksum only; the
        payload is never unpickled, so fsck is safe on hostile data)."""
        try:
            with open(path, "rb") as handle:
                header, _ = split_record(handle.read())
        except OSError as exc:
            return FsckIssue(name, "corrupt", f"unreadable: {exc}")
        except ValueError as exc:
            return FsckIssue(name, "corrupt", str(exc))
        if header.get("key") != name[: -len(_SUFFIX)]:
            return FsckIssue(name, "corrupt", "key does not match filename")
        if header.get("code") != self.code_version:
            return FsckIssue(
                name, "stale", f"code version {header.get('code', '?')}"
            )
        return None

    def clear(self) -> int:
        """Delete every entry (and quarantined/temp litter); returns
        the number of files removed."""
        if self.lru is not None:
            self.lru.clear()
        return sweep(self.root, _SUFFIX)

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.root) if name.endswith(_SUFFIX)
        )


def _is_result(value: Any) -> bool:
    """Guard against a pickle that deserializes to something other than
    a :class:`~repro.compiler.CompileResult`."""
    return hasattr(value, "program") and hasattr(value, "diagnostics")
