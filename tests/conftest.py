"""Shared fixtures: small deterministic datasets, references, and models.

Session-scoped fixtures are used for anything expensive (dataset
generation, index construction) so the suite stays fast; all of them are
seeded and therefore stable across runs.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.kernels.align as align_kernels
import repro.kernels.chain as chain_kernels
import repro.kernels.native as native
import repro.kernels.seed as seed_kernels
import repro.kernels.viterbi as viterbi_kernels
from repro.genomics.reference import ReferenceGenome
from repro.nanopore.datasets import ECOLI_LIKE, HUMAN_LIKE, generate_dataset, small_profile
from repro.nanopore.pore_model import PoreModel


def numpy_trellis():
    """Context manager forcing the Viterbi trellis onto the numpy fold:
    the resolver reports no compiled kernel."""
    return mock.patch.object(viterbi_kernels, "_native_trellis", lambda: None)


def scalar_gotoh():
    """Context manager forcing the Gotoh lane fill onto ``gotoh_scalar``:
    the resolver reports no compiled kernel."""
    return mock.patch.object(align_kernels, "_native_gotoh", lambda: None)


def scalar_chain():
    """Context manager forcing the chain DP onto ``chain_scores_scalar``:
    the resolver reports no compiled kernel."""
    return mock.patch.object(chain_kernels, "_native_chain", lambda: None)


def numpy_seeding():
    """Context manager forcing seeding onto the numpy path (the numpy
    minimizer scan and ``seed_anchors_batched``): the resolver reports
    no compiled kernel."""
    return mock.patch.object(seed_kernels, "_native_seed", lambda: None)


def _require_native(library, kernel: str) -> None:
    """Skips where there is no C compiler (only the fallback can run
    there); fails where one exists but the compiled kernel did not load."""
    if library is not None:
        return
    if native._compiler() is None:
        pytest.skip(f"no C compiler: only the fallback of the {kernel} runs here")
    pytest.fail(f"a C compiler exists but the compiled {kernel} did not build or load")


def require_native_trellis() -> None:
    _require_native(viterbi_kernels._native_trellis(), "trellis")


def require_native_gotoh() -> None:
    _require_native(align_kernels._native_gotoh(), "Gotoh fill")


def require_native_chain() -> None:
    _require_native(chain_kernels._native_chain(), "chain DP")


def require_native_seeding() -> None:
    _require_native(seed_kernels._native_seed(), "seeding")


def _native_then_fallback(request, require, fallback):
    if request.param == "native":
        require()
        yield request.param
    else:
        with fallback():
            yield request.param


@pytest.fixture(params=["native", "numpy"])
def trellis(request):
    """Runs a test once on the compiled Viterbi trellis, once on the fold."""
    yield from _native_then_fallback(request, require_native_trellis, numpy_trellis)


@pytest.fixture(params=["native", "scalar"])
def gotoh(request):
    """Runs a test once on the compiled Gotoh fill, once on ``gotoh_scalar``."""
    yield from _native_then_fallback(request, require_native_gotoh, scalar_gotoh)


@pytest.fixture(params=["native", "scalar"])
def chain(request):
    """Runs a test once on the compiled chain DP, once on ``chain_scores_scalar``."""
    yield from _native_then_fallback(request, require_native_chain, scalar_chain)


@pytest.fixture(params=["native", "numpy"])
def seeding(request):
    """Runs a test once on the compiled seeding, once on the numpy path."""
    yield from _native_then_fallback(request, require_native_seeding, numpy_seeding)


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
    run ships the index and every unit by the automatic pickle fallback."""

    def refuse(*_args, **_kwargs):
        raise OSError("injected: shared memory unavailable")

    monkeypatch.setattr("repro.runtime.pool.publish_index", refuse)
    monkeypatch.setattr("repro.runtime.pool.publish_unit", refuse)
