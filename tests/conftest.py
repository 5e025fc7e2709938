"""Test-suite settings: every hypothesis test draws the same examples on every run,
and no test may leave a thread running.

``derandomize`` seeds each test's examples from the test itself, so a
failure reproduces on the next run and the suite takes the same time on
every run; ``deadline=None`` because shared machines time examples unevenly.
A test's own ``@settings`` (``max_examples`` mostly) still applies on top.

The package starts threads (``evaluation._run_jobs``, the one pool, which
runs the grid scorer, a p-grid fit and ``figure2_experiment``) and must join
every one before it returns, on success and on error alike;
``no_leaked_threads`` holds every test to that. The pool's size follows the
BLAS thread count (one worker at the default count on a two-core machine);
tests that need other sizes set ``evaluation._workers``.

The ``census`` fixture records which route each of stage 1's factorisations
took, for the tests that count them.
"""

import sys
import threading

import numpy as np
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


class Census:
    """The factorisations stage 1 takes, and the answers of its downdate heads.

    ``taken`` lists each factorisation in the order taken, as (route, shape of
    the matrix): ``"gram"`` for a Gram eigendecomposition
    (``lowrank._gram_svd``), ``"svd"`` for a dense ``lowrank.svd`` and
    ``"topk"`` for one that a block Krylov head answered. ``heads`` lists each
    ``PageSvds._downdate_head`` request as (shape of the Page matrix, whether
    the head answered).
    """

    def __init__(self):
        self.taken, self.heads = [], []

    def count(self, route: str) -> int:
        return sum(taken == route for taken, _ in self.taken)


@pytest.fixture()
def census(monkeypatch):
    """Record stage 1's routes in a :class:`Census`, wrapping ``lowrank.svd`` in every
    samossa module that holds it, and ``lowrank._gram_svd``, ``lowrank._krylov`` and
    ``PageSvds._downdate_head`` in place."""
    from samossa import lowrank

    record, answered = Census(), threading.local()
    svd, gram, krylov, head = (lowrank.svd, lowrank._gram_svd, lowrank._krylov,
                               lowrank.PageSvds._downdate_head)

    def counted_krylov(a, k):
        answered.head = krylov(a, k)
        return answered.head

    def counted_svd(matrix, k=None):
        answered.head = None
        result = svd(matrix, k)
        record.taken.append(("topk" if result is answered.head else "svd", np.shape(matrix)))
        return result

    def counted_gram(matrix):
        result = gram(matrix)
        if result is not None:
            record.taken.append(("gram", np.shape(matrix)))
        return result

    def counted_head(self, k):
        sub = head(self, k)
        record.heads.append((self.matrix.shape, sub is not None))
        return sub

    for name, module in list(sys.modules.items()):
        if name == "samossa" or name.startswith("samossa."):
            for attr, value in list(vars(module).items()):
                if value is svd:
                    monkeypatch.setattr(module, attr, counted_svd)
    monkeypatch.setattr(lowrank, "_gram_svd", counted_gram)
    monkeypatch.setattr(lowrank, "_krylov", counted_krylov)
    monkeypatch.setattr(lowrank.PageSvds, "_downdate_head", counted_head)
    return record
