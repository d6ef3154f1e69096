"""Shared fixtures: small deterministic datasets, references, and models.

Session-scoped fixtures are used for anything expensive (dataset
generation, index construction) so the suite stays fast; all of them are
seeded and therefore stable across runs.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

import repro.kernels.native as native
from repro.genomics.reference import ReferenceGenome
from repro.nanopore.datasets import ECOLI_LIKE, HUMAN_LIKE, generate_dataset, small_profile
from repro.nanopore.pore_model import PoreModel
from repro.runtime.pool import WorkerPool


def fallback(name: str):
    """Context manager forcing the compiled kernel ``name`` onto its
    fallback: the loader reports no library for it."""
    return mock.patch.dict(native._LOADED, {name: None})


def require_native(name: str) -> None:
    """Skips where there is no C compiler (only the fallback of kernel
    ``name`` runs there); fails where one exists but the compiled kernel
    did not load."""
    if native.kernel(name) is not None:
        return
    if native._compiler() is None:
        pytest.skip(f"no C compiler: only the fallback of {name}.c runs here")
    pytest.fail(f"a C compiler exists but the compiled {name}.c did not build or load")


def _native_then_fallback(request, name: str):
    if request.param == "native":
        require_native(name)
        yield request.param
    else:
        with fallback(name):
            yield request.param


def _backends(name: str) -> list[str]:
    return ["native", native.KERNELS[name][0]]


@pytest.fixture(params=_backends("trellis"))
def trellis(request):
    """Runs a test once on the compiled Viterbi trellis, once on the fold."""
    yield from _native_then_fallback(request, "trellis")


@pytest.fixture(params=_backends("gotoh"))
def gotoh(request):
    """Runs a test once on the compiled ``gotoh.c`` (the chain stitch and
    the lane fill), once on its fallback (the Python stitch, ``gotoh_scalar``
    on each lane)."""
    yield from _native_then_fallback(request, "gotoh")


@pytest.fixture(params=_backends("chain"))
def chain(request):
    """Runs a test once on the compiled chain stage, once on its fallback
    (``_gathered`` and ``best_chain`` over ``chain_scores_scalar``)."""
    yield from _native_then_fallback(request, "chain")


@pytest.fixture(params=_backends("seed"))
def seeding(request):
    """Runs a test once on the compiled seeding, once on the numpy path."""
    yield from _native_then_fallback(request, "seed")


@pytest.fixture(params=_backends("surrogate"))
def surrogate(request):
    """Runs a test once on the compiled surrogate decode, once on the
    numpy path."""
    yield from _native_then_fallback(request, "surrogate")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def pore_model():
    return PoreModel.synthetic(k=5, seed=7)


@pytest.fixture(scope="session")
def reference():
    """A 120 kb reference shared by mapping/pipeline tests."""
    return ReferenceGenome.random(length=120_000, seed=11, name="test-ref")


@pytest.fixture(scope="session")
def ecoli_small():
    """~180 reads with capped lengths from the E. coli-like preset."""
    return generate_dataset(small_profile(ECOLI_LIKE), scale=0.003, seed=5)


@pytest.fixture(scope="session")
def human_small():
    """~130 reads with capped lengths from the human-like preset."""
    return generate_dataset(small_profile(HUMAN_LIKE), scale=0.0003, seed=9)


@pytest.fixture
def pickle_fallback(monkeypatch):
    """Fault injection: no shared segment can be created, so a pooled
    run ships the index pickled inside the pipeline (the automatic
    fallback). Units travel on the worker pipes either way."""

    def refuse(*_args, **_kwargs):
        raise OSError("injected: shared memory unavailable")

    monkeypatch.setattr("repro.runtime.pool.publish_index", refuse)


@contextlib.contextmanager
def recorded_submits():
    """Every future ``WorkerPool.submit`` hands out inside the block. A
    unit still queued or on a worker is one whose future is not done."""
    futures = []
    real_submit = WorkerPool.submit

    def recording(self, unit):
        futures.append(real_submit(self, unit))
        return futures[-1]

    with mock.patch.object(WorkerPool, "submit", recording):
        yield futures


@pytest.fixture
def pool_futures():
    """:func:`recorded_submits` for the whole test."""
    with recorded_submits() as futures:
        yield futures
