"""Test-suite settings: every hypothesis test draws the same examples on every run,
and no test may leave a thread running.

``derandomize`` seeds each test's examples from the test itself, so a
failure reproduces on the next run and the suite takes the same time on
every run; ``deadline=None`` because shared machines time examples unevenly.
A test's own ``@settings`` (``max_examples`` mostly) still applies on top.

The package starts threads (the grid scorer's stage-2 helper, order
selection, ``figure2_experiment``) and must join every one before it
returns, on success and on error alike; ``no_leaked_threads`` holds every
test to that.
"""

import threading

import pytest
from hypothesis import settings

settings.register_profile("samossa", derandomize=True, deadline=None)
settings.load_profile("samossa")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    assert not leaked, f"the test left threads running: {leaked}"
