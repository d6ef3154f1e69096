"""Figs. 12 and 13 measure the early rejection the pipeline runs.

Each sensitivity sweep point counts per-read QSR / CMR decisions; these
tests pin every one of them, score and verdict, to the decision
``GenPIPPipeline`` records on the read's outcome under the same config,
and check that reads the pipeline does not screen (fewer than
``min_chunks_for_er`` chunks) are not screened by the figures either.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import GenPIPConfig, GenPIPPipeline
from repro.experiments.figure12 import qsr_decisions
from repro.experiments.figure13 import cmr_decisions
from repro.mapping import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(small_profile(ECOLI_LIKE, max_read_length=6_000), scale=0.0015, seed=7)


@pytest.fixture(scope="module")
def index(dataset):
    return MinimizerIndex.build(dataset.reference)


@pytest.fixture(scope="module")
def reads(dataset):
    """The dataset plus two one-chunk reads: a clean prefix of a long
    read (which would chain if screened) and a terrible-quality one
    (which QSR would reject if screened)."""
    read = max(dataset.reads, key=len)
    prefix = read.true_codes[:250]
    clean = replace(read, read_id="one-chunk-clean", true_codes=prefix, qualities=read.qualities[:250])
    junk = replace(read, read_id="one-chunk-junk", true_codes=prefix, qualities=np.full(250, 2.0))
    return [*dataset.reads, clean, junk]


def _pipeline_decisions(index, reads, config, stage):
    pipeline = GenPIPPipeline(index, config=config, align=False)
    outcomes = [pipeline.process_read(read) for read in reads]
    return {o.read_id: getattr(o, stage) for o in outcomes if getattr(o, stage) is not None}


@pytest.mark.parametrize("n_cm", [1, 3, 5])
def test_figure13_decisions_are_the_pipelines(index, reads, n_cm):
    # QSR off: Fig. 13 screens every read with CMR, as this pipeline does.
    config = GenPIPConfig(enable_qsr=False, n_cm=n_cm)
    expected = _pipeline_decisions(index, reads, config, "cmr")
    measured = cmr_decisions(index, reads, config)
    assert "one-chunk-clean" not in measured
    assert measured.keys() == expected.keys()
    for read_id, decision in measured.items():
        assert decision == expected[read_id], read_id
    # The sweep point is not trivial: both verdicts occur.
    verdicts = {d.reject for d in measured.values()}
    assert verdicts == {True, False}


@pytest.mark.parametrize("n_qs", [2, 5])
def test_figure12_decisions_are_the_pipelines(index, reads, n_qs):
    config = GenPIPConfig(enable_cmr=False, n_qs=n_qs)
    expected = _pipeline_decisions(index, reads, config, "qsr")
    measured = qsr_decisions(reads, config)
    assert "one-chunk-junk" not in measured
    assert measured == expected
    assert {d.reject for d in measured.values()} == {True, False}
