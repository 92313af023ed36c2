import contextlib
import multiprocessing
from unittest import mock

import pytest


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test that leaves a `multiprocessing` child it started running;
    the child is stopped first, so the next test starts clean."""
    before = set(multiprocessing.active_children())
    yield
    left = [proc for proc in multiprocessing.active_children() if proc not in before]
    for proc in left:
        proc.kill()
        proc.join()
    assert not left, f"worker processes left running: {left}"


@pytest.fixture
def started(monkeypatch):
    """The worker processes started while a test runs, every kind of
    `multiprocessing` process counted."""
    procs = []
    start = multiprocessing.process.BaseProcess.start

    def record(self):
        procs.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record)
    return procs


class Killed(Exception):
    """A simulated kill of the process that runs a sweep."""


@pytest.fixture
def killed_after():
    """`with killed_after(cls, units):` runs its block with `cls.run_units`
    raising Killed once `units` units have run in this process, as a kill
    there would end the sweep: the chunks finished before it stay in the
    checkpoint.  The block must end in that kill."""

    @contextlib.contextmanager
    def kill(cls, units):
        run_units = cls.run_units
        ran = 0

        def counted(self, lo, hi):
            nonlocal ran
            if ran >= units:
                raise Killed
            ran += hi - lo
            return run_units(self, lo, hi)

        with mock.patch.object(cls, "run_units", counted), pytest.raises(Killed):
            yield

    return kill


@pytest.fixture
def pool_at_once(monkeypatch):
    """Start a sweep's pool before its first chunk, as a sweep past the
    runner's in-process time does, so a short test sweep runs one."""
    from rankscatter import runner

    monkeypatch.setattr(runner, "POOL_AFTER_S", 0)
