"""Benchmark fixtures: shared experiment contexts at benchmark scale.

The first touch of a context builds the dataset, index, and functional
pipeline runs; everything after reuses the in-process cache, so each
bench measures the experiment's evaluation path (workload distillation,
system models, summarisation) on a warm substrate while its printed
output regenerates the paper's rows.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import get_context

#: Benchmark generation scales (a few hundred reads per dataset).
BENCH_SCALE = {"ecoli-like": 0.0015, "human-like": 0.0002}
BENCH_SEED = 7


@pytest.fixture(scope="session")
def primed_contexts():
    """Build both datasets/indices once for the whole bench session."""
    for name, scale in BENCH_SCALE.items():
        context = get_context(name, scale=scale, seed=BENCH_SEED)
        _ = context.index  # force index construction


@pytest.fixture(scope="session")
def bench_scale(primed_contexts):
    """The generation scales; requesting them primes the contexts, so
    only the paper-figure benches pay for building them."""
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_seed():
    return BENCH_SEED
