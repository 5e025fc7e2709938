"""Test-suite settings: every hypothesis test draws the same examples on every run.

``derandomize`` seeds each test's examples from the test itself, so a
failure reproduces on the next run and the suite takes the same time on
every run; ``deadline=None`` because shared machines time examples unevenly.
A test's own ``@settings`` (``max_examples`` mostly) still applies on top.
"""

from hypothesis import settings

settings.register_profile("samossa", derandomize=True, deadline=None)
settings.load_profile("samossa")
