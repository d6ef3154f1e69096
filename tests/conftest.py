"""Shared fixtures: small deterministic datasets, references, and models.

Session-scoped fixtures are used for anything expensive (dataset
generation, index construction) so the suite stays fast; all of them are
seeded and therefore stable across runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.genomics.reference import ReferenceGenome
from repro.nanopore.datasets import ECOLI_LIKE, HUMAN_LIKE, generate_dataset, small_profile
from repro.nanopore.pore_model import PoreModel


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
