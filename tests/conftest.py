import contextlib
from unittest import mock

import pytest


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
