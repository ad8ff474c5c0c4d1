"""Artifact-cache fsck: corruption taxonomy, repair, and metrics.

PR 6 satellite: ``repro cache fsck`` must detect checksum mismatches,
truncated entries, filename/key disagreement, stale code versions,
orphaned temp files, and quarantine debris; ``--repair`` deletes the
flagged files; counts flow through the PR 4 metrics registry.
"""

import hashlib
import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_plan
from repro.compiler import CompileOptions, compile_spec
from repro.frontend.lift import lift
from repro.observability.config import ObservabilitySession, activate
from repro.service import ArtifactCache

FAST = CompileOptions(
    time_limit=5.0, node_limit=20_000, iter_limit=8, validate=False
)


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    clear_plan()
    yield
    clear_plan()


def _spec(name="fsck-k"):
    def body(a, b, out):
        out[0] = a[0] * b[0] + a[1] * b[1]

    return lift(name, body, [("a", 2), ("b", 2)], [("out", 1)])


@pytest.fixture()
def populated(tmp_path):
    """A cache holding one real entry; returns (cache, entry path)."""
    cache = ArtifactCache(str(tmp_path))
    spec = _spec()
    cache.put(cache.key_for(spec, FAST), compile_spec(spec, FAST))
    (entry,) = [n for n in os.listdir(cache.root) if n.endswith(".rcache")]
    return cache, os.path.join(cache.root, entry)


def test_fsck_clean_cache(populated):
    cache, _ = populated
    report = cache.fsck()
    assert report.scanned == 1 and report.ok == 1
    assert report.clean
    assert "1 ok" in report.summary()


def test_fsck_detects_checksum_mismatch(populated):
    cache, path = populated
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0xFF  # flip a payload byte; header stays parseable
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    report = cache.fsck()
    assert report.corrupt == 1 and not report.clean
    assert "checksum mismatch" in report.issues[0].detail


def test_fsck_detects_truncation(populated):
    cache, path = populated
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    report = cache.fsck()
    assert report.corrupt == 1


def test_fsck_detects_bad_magic_and_key_mismatch(populated):
    cache, path = populated
    os.rename(path, os.path.join(cache.root, "f" * 64 + ".rcache"))
    report = cache.fsck()
    assert report.corrupt == 1
    assert "does not match filename" in report.issues[0].detail

    with open(os.path.join(cache.root, "e" * 64 + ".rcache"), "wb") as handle:
        handle.write(b"garbage, no magic")
    report = cache.fsck()
    assert report.corrupt == 2
    assert any("bad magic" in issue.detail for issue in report.issues)


def test_fsck_flags_a_header_that_is_not_an_object(populated):
    """A header line that parses as JSON but not as an object is a
    corrupt entry, not an exception out of fsck."""
    cache, path = populated
    with open(path, "wb") as handle:
        handle.write(b"RPROCACHE1\n[1, 2]\npayload")
    report = cache.fsck()
    assert report.corrupt == 1
    assert "unparseable header" in report.issues[0].detail
    assert cache.entries() == []


def test_fsck_detects_stale_code_version(populated):
    cache, _ = populated
    stale_view = ArtifactCache(cache.root)
    stale_view.code_version = "0123456789abcdef"
    report = stale_view.fsck()
    assert report.stale == 1 and report.corrupt == 0


def test_fsck_inventories_crash_debris(populated):
    cache, _ = populated
    open(os.path.join(cache.root, ".tmp-halfwrite"), "wb").close()
    open(os.path.join(cache.root, "old.rcache.corrupt"), "wb").close()
    report = cache.fsck()
    assert report.tmp_litter == 1 and report.quarantine_debris == 1
    assert report.ok == 1, "debris must not impugn healthy entries"
    assert not report.clean


def test_fsck_repair_removes_flagged_files_only(populated):
    cache, path = populated
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    open(os.path.join(cache.root, ".tmp-halfwrite"), "wb").close()
    # a second, healthy entry must survive repair
    spec = _spec("fsck-keep")
    cache.put(cache.key_for(spec, FAST), compile_spec(spec, FAST))

    report = cache.fsck(repair=True)
    assert report.repaired == 2
    assert all(issue.repaired for issue in report.issues)
    after = cache.fsck()
    assert after.clean and after.scanned == 1 and after.ok == 1


def test_chaos_corruption_is_quarantined_then_fscked(populated):
    """End to end: a chaos-corrupted read quarantines the entry; fsck
    sees the quarantine debris; repair clears it."""
    cache, path = populated
    key = os.path.basename(path)[: -len(".rcache")]
    plan = FaultPlan([FaultSpec("cache.read", "corrupt")])
    with active_plan(plan):
        assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    report = cache.fsck()
    assert report.quarantine_debris == 1 and report.corrupt == 0
    cache.fsck(repair=True)
    assert cache.fsck().clean


def test_fsck_counts_flow_into_metrics(populated):
    cache, path = populated
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    open(os.path.join(cache.root, ".tmp-halfwrite"), "wb").close()

    session = ObservabilitySession()
    with activate(session):
        cache.fsck()
    metrics = session.export().metrics
    text = json.dumps(metrics)
    assert "repro_cache_fsck_issues_total" in text
    assert "repro_cache_fsck_entries" in text


def test_quarantine_counter_reaches_metrics(populated):
    cache, path = populated
    key = os.path.basename(path)[: -len(".rcache")]
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    session = ObservabilitySession()
    with activate(session):
        assert cache.get(key) is None
    assert "repro_cache_quarantines_total" in json.dumps(
        session.export().metrics
    )


# ----------------------------------------------------------------- CLI


def test_cli_cache_fsck(populated, capsys):
    cache, path = populated
    open(os.path.join(cache.root, ".tmp-halfwrite"), "wb").close()

    assert cli_main(["cache", "fsck", "--dir", cache.root]) == 1
    out = capsys.readouterr().out
    assert "1 temp litter" in out

    assert cli_main(["cache", "fsck", "--dir", cache.root, "--repair"]) == 0
    assert cli_main(["cache", "fsck", "--dir", cache.root]) == 0
    out = capsys.readouterr().out
    assert "0 temp litter" in out.splitlines()[-1]
