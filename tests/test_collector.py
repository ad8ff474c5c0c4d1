"""The compile path frees what it drops by reference counting, and
``compile_spec`` pauses the cyclic collector while it runs (DESIGN.md
§8, "No reference cycles, no collector passes").

The cycle checks compile once to warm up (lazy imports, generated
matchers, memoized rule tables), then compile again with the collector
off, drop the result and require that a collection finds nothing.  A
reference cycle anywhere on the compile path -- a recursive closure
that captures its memo, say -- keeps a whole dead e-graph alive until
the collector walks it, and fails here with the garbage's types.

The guard checks run threads, exceptions and a fork against the one
process-wide pause.
"""

import collections
import gc
import os
import signal
import sys
import threading
import time
import warnings

import pytest

from repro import compiler
from repro.compiler import _COLLECTOR_PAUSE, CompileOptions, compile_spec
from repro.errors import DeadlineExceededError
from repro.kernels import get_kernel
from repro.observability import Observability


@pytest.fixture(autouse=True)
def _collector_enabled():
    """Each test starts and ends with automatic collection on."""
    gc.enable()
    yield
    gc.enable()


def _describe(garbage) -> str:
    types = collections.Counter(type(o).__qualname__ for o in garbage)
    functions = collections.Counter(
        o.__qualname__ for o in garbage if type(o).__name__ == "function"
    )
    return f"types {types.most_common(10)}; functions {functions.most_common(10)}"


def _cyclic_garbage(kernel: str, **overrides) -> str:
    """Objects only the cyclic collector could free after one compile,
    described by type and function name; empty when there are none."""
    settings = {"time_limit": None, "validate": True, **overrides}
    options = CompileOptions(**settings)
    spec = get_kernel(kernel).spec()
    compile_spec(spec, options)
    gc.collect()
    gc.disable()
    try:
        result = compile_spec(spec, options)
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        description = _describe(gc.garbage) if found else ""
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.enable()
    gc.collect()
    return f"{found} objects: {description}" if found else ""


@pytest.mark.parametrize(
    "kernel, overrides",
    [
        ("matmul-2x3-3x3", {"phases": "off"}),
        ("2dconv-8x8-4x4", {"phases": "on"}),
    ],
    ids=["monolithic", "phased"],
)
def test_compile_leaves_no_cyclic_garbage(kernel, overrides):
    assert _cyclic_garbage(kernel, **overrides) == ""


@pytest.mark.parametrize(
    "overrides",
    [
        {"observability": Observability(enabled=True)},
        {"select_best_candidate": True},
        {"track_memory": True},
        {"time_limit": 60.0},
    ],
    ids=["observability", "select_best_candidate", "track_memory", "time_limit"],
)
def test_option_variants_leave_no_cyclic_garbage(overrides):
    assert _cyclic_garbage("matmul-2x3-3x3", **overrides) == ""


def test_checkpointed_compile_leaves_no_cyclic_garbage(tmp_path):
    garbage = _cyclic_garbage(
        "matmul-2x3-3x3", checkpoint_dir=str(tmp_path), checkpoint_stride=1
    )
    assert garbage == ""


@pytest.mark.slow
def test_largest_phased_compile_leaves_no_cyclic_garbage():
    assert _cyclic_garbage("matmul-16x16-16x16") == ""


# ---------------------------------------------------------------- the guard


def test_compile_pauses_the_collector_and_restores_it(monkeypatch):
    seen = []
    pipeline = compiler._compile_pipeline

    def probe(spec, options):
        seen.append(gc.isenabled())
        return pipeline(spec, options)

    monkeypatch.setattr(compiler, "_compile_pipeline", probe)
    compile_spec(
        get_kernel("matmul-2x2-2x2").spec(),
        CompileOptions(time_limit=None, validate=False),
    )
    assert seen == [False]
    assert gc.isenabled()


def test_pause_is_held_while_any_thread_is_inside():
    """More threads than cores enter and leave the pause together,
    yielding inside it and between entries.  The collector must be off
    at every check inside and on again once all have left.  A per-call
    ``was = gc.isenabled(); gc.disable()`` toggle fails this: a thread
    leaving re-enables the collector under one still inside, and
    interleaved entries can leave it off for good."""
    threads = 2 * (os.cpu_count() or 1) + 2
    barrier = threading.Barrier(threads)
    enabled_inside = []

    def worker():
        barrier.wait()
        for _ in range(300):
            with _COLLECTOR_PAUSE:
                time.sleep(0)
                if gc.isenabled():
                    enabled_inside.append(threading.get_ident())
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, daemon=True) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert enabled_inside == []
    assert gc.isenabled()


def test_pause_keeps_a_disabled_collector_disabled():
    gc.disable()
    with _COLLECTOR_PAUSE:
        with _COLLECTOR_PAUSE:
            assert not gc.isenabled()
    assert not gc.isenabled()
    compile_spec(
        get_kernel("matmul-2x2-2x2").spec(),
        CompileOptions(time_limit=None, validate=False),
    )
    assert not gc.isenabled()


def test_exception_restores_the_collector():
    with pytest.raises(RuntimeError):
        with _COLLECTOR_PAUSE:
            raise RuntimeError("inside the pause")
    assert gc.isenabled()
    expired = CompileOptions(deadline=time.time() - 1.0)
    with pytest.raises(DeadlineExceededError):
        compile_spec(get_kernel("matmul-2x2-2x2").spec(), expired)
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_under_a_held_pause_starts_released():
    """A helper thread holds the pause across a fork.  The child can
    take and release the pause without deadlocking, and then has the
    collector on; the parent keeps it off until the helper leaves."""
    entered = threading.Event()
    release = threading.Event()

    def holder():
        with _COLLECTOR_PAUSE:
            entered.set()
            release.wait(60)

    helper = threading.Thread(target=holder, daemon=True)
    helper.start()
    try:
        assert entered.wait(10)
        assert not gc.isenabled()
        with warnings.catch_warnings():
            # Python 3.12 warns on fork() in a multi-threaded process.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with _COLLECTOR_PAUSE:
                    pass
                code = 0 if gc.isenabled() else 2
            finally:
                os._exit(code)
        give_up = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > give_up:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child deadlocked on the pause")
            time.sleep(0.01)
        assert not gc.isenabled()
    finally:
        release.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
    assert gc.isenabled()
