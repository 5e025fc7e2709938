"""Fixed units of work that measure how fast the machine runs right now.

The benchmark's machine changes speed on its own: a fixed Python loop runs
up to 1.8 times slower for stretches that last from a second to many
minutes, whatever the benchmark does (see NOTES.md). Every kind of work
slows down in these phases, but not by the same factor: interpreter-bound
code (the rolling loop, CSV parsing, start-up) slows down more than BLAS
code. So there are two units, one of each kind:

* ``interp``: a Python loop over small numpy arrays (shift a lag buffer,
  take a dot product) with float formatting and parsing, as the program's
  hot loops do;
* ``blas``: the singular values of a fixed 256 x 256 matrix, with the
  benchmark's BLAS thread count, as the program's SVDs do.

Every run times units beside the work it measures, and scales each timing
by ``REF_S[kind]`` over the mean time of the units of its kind run during
it or right next to it (see ``run.py``). Where the benchmark cannot run
units between steps of the work (inside a CLI command), a :class:`Sampler`
runs an ``interp`` unit every ``PERIOD_S`` from a timer signal, and its own
time is taken out of the timing.

The units use only the Python interpreter and numpy, never the package
under test, so no change to the program can move them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Time of one unit on the reference machine (2 vCPUs, "Intel(R) Xeon(R)
# Processor", Python 3.11.7, numpy 2.4.6, OpenBLAS at 1 thread) in its fast
# phase: the 10th percentile of its unit times over ten runs (five each of
# search and fig2_3e6). Scaled times are seconds at that speed.
REF_S = {"interp": 0.00066, "blas": 0.0057}
# Units run back to back at each point of a run where the benchmark calibrates.
BLOCK = {"interp": 40, "blas": 10}
# A Sampler runs one interp unit every PERIOD_S of wall time.
PERIOD_S = 0.05

_LAGS = 64
_STEPS = 250
_BLAS_MATRIX = np.random.default_rng(0).standard_normal((256, 256))


def _interp_unit() -> float:
    weights = np.linspace(0.0, 1.0, _LAGS)
    lags = np.zeros(_LAGS)
    total = 0.0
    started = time.perf_counter()
    for i in range(_STEPS):
        lags = np.concatenate(([float(repr(i * 0.5))], lags[:-1]))
        total += float(lags @ weights)
    elapsed = time.perf_counter() - started
    if not np.isfinite(total):
        raise ArithmeticError("calibration unit produced a non-finite sum")
    return elapsed


def _blas_unit() -> float:
    started = time.perf_counter()
    values = np.linalg.svd(_BLAS_MATRIX, compute_uv=False)
    elapsed = time.perf_counter() - started
    if not np.isfinite(values).all():
        raise ArithmeticError("calibration unit produced non-finite singular values")
    return elapsed


UNITS = {"interp": _interp_unit, "blas": _blas_unit}


def run_units(kind: str, into: list, count: int | None = None) -> None:
    """Run ``count`` units of ``kind`` back to back (a ``BLOCK`` by default);
    append (end time, seconds) of each to ``into``."""
    for _ in range(BLOCK[kind] if count is None else count):
        elapsed = UNITS[kind]()
        into.append((time.perf_counter(), elapsed))


class Sampler:
    """Run an ``interp`` unit every ``PERIOD_S`` while active, from ``SIGALRM``.

    Python runs the handler between bytecodes of the main thread, so the
    units land in the interpreted parts of the work, never inside a BLAS
    call. ``units`` collects (end time, seconds) of each unit and
    ``spent_s`` the handler's total time, to be taken out of the timing.
    """

    def __init__(self):
        self.units: list[tuple[float, float]] = []
        self.spent_s = 0.0
        self._previous = None

    def _handle(self, signum, frame) -> None:
        started = time.perf_counter()
        elapsed = _interp_unit()
        ended = time.perf_counter()
        self.units.append((ended, elapsed))
        self.spent_s += ended - started

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
