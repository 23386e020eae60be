"""`_forking.Child`: a forked child's work returns a value that comes back
whole, the work of a child that fails is done once in this process, and
no case leaves a child or an open file behind."""

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
    child = Child(lambda: (arrays, text))
    try:
        child.start()
        returned, returned_text = child.wait()
        assert descriptors() == before  # wait closed the result file
    finally:
        child.stop()
    assert returned_text == text
    for array, back in zip(arrays, returned, strict=True):
        assert back.dtype == array.dtype
        assert back.tobytes() == array.tobytes()
    assert no_child_left()


def test_a_child_that_ends_well_leaves_no_work_here():
    here = os.getpid()
    runs = []  # a child's append stays in the child
    child = Child(lambda: runs.append(os.getpid()) or os.getpid())
    try:
        child.start()
        assert child.wait() != here
    finally:
        child.stop()
    assert runs == []
    assert no_child_left()


@pytest.mark.parametrize("failure", ["raise", "exit", "no-start", "no-fork"])
def test_a_failed_child_leaves_its_work_here_once(monkeypatch, failure):
    here = os.getpid()
    runs = []

    def work():
        if os.getpid() != here:
            if failure == "exit":
                os._exit(1)
            raise RuntimeError("the child fails")
        runs.append(here)
        return "done here"

    def failing_fork():
        raise OSError("no process to spare")

    if failure == "no-fork":
        monkeypatch.setattr(os, "fork", failing_fork)
    before = descriptors()
    child = Child(work)
    try:
        if failure != "no-start":
            child.start()
        assert len(child.pids) == (failure in ("raise", "exit"))
        assert child.wait() == "done here"
        assert descriptors() == before
    finally:
        child.stop()
    assert runs == [here]
    assert no_child_left()


def test_stop_kills_and_reaps_a_sleeping_child():
    child = Child(lambda: time.sleep(60) or 1)
    started = time.monotonic()
    try:
        child.start()
        assert len(child.pids) == 1
    finally:
        child.stop()
    assert time.monotonic() - started < 30
    assert child.pids == []
    assert no_child_left()
