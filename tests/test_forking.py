"""`_forking.Child`: a forked child's work returns a value that comes back
whole, a child that fails gives None, and no case leaves a child or an
open file behind."""

import os
import time

import numpy as np
import pytest

from conftest import no_child_left
from forecast_ensembles._forking import Child

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform does not fork")


def descriptors():
    """This process's open file descriptors, or None where /proc does not
    list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture(autouse=True)
def same_descriptors():
    before = descriptors()
    yield
    assert descriptors() == before


def test_value_comes_back_equal():
    """Arrays and a bytes object larger than any fixed buffer a caller
    might have guessed."""
    arrays = (np.arange(7, dtype=np.intp), np.linspace(0.0, 1.0, 5), np.array([np.nan, -0.0]))
    text = bytes(range(256)) * (8 * 4096 + 1)  # just over 8 MiB
    before = descriptors()
    child = Child()
    try:
        child.start(lambda: (arrays, text))
        returned, returned_text = child.wait()
        assert descriptors() == before  # wait closed the result file
    finally:
        child.stop()
    assert returned_text == text
    for array, back in zip(arrays, returned, strict=True):
        assert back.dtype == array.dtype
        assert back.tobytes() == array.tobytes()
    assert no_child_left()


def raises():
    raise RuntimeError("the child fails")


@pytest.mark.parametrize("work", [raises, lambda: os._exit(1)], ids=["raise", "exit"])
def test_a_failing_child_gives_none(work):
    before = descriptors()
    child = Child()
    try:
        child.start(work)
        assert child.wait() is None
        assert descriptors() == before
    finally:
        child.stop()
    assert no_child_left()


def test_wait_without_start_gives_none():
    child = Child()
    assert child.wait() is None
    child.stop()
    assert no_child_left()


def test_a_failing_fork_gives_none(monkeypatch):
    def failing_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", failing_fork)
    child = Child()
    child.start(lambda: 1)
    assert child.pids == []
    assert child.wait() is None
    child.stop()
    assert no_child_left()


def test_stop_kills_and_reaps_a_sleeping_child():
    child = Child()
    started = time.monotonic()
    try:
        child.start(lambda: time.sleep(60) or 1)
        assert len(child.pids) == 1
    finally:
        child.stop()
    assert time.monotonic() - started < 30
    assert child.pids == []
    assert no_child_left()
