"""Figs. 12 and 13 count the early rejection the pipeline runs.

Each sensitivity sweep point is a ``GenPIPPipeline`` run that counts the
QSR / CMR decisions recorded on its outcomes. These tests recount every
point from independent ``process_read`` outcomes over the same reads,
check that reads the pipeline does not screen (fewer than
``min_chunks_for_er`` chunks) count in the denominator only, and pin
that no module but the pipeline builds a QSR or CMR policy or a
chunk mapper of its own -- there is one copy of each ER stage.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.core.pipeline import ReadStatus
from repro.experiments.er_sensitivity import sweep
from repro.mapping import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile

ONE_CHUNK = ("one-chunk-clean", "one-chunk-junk")


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
    (which either stage would reject if screened)."""
    read = max(dataset.reads, key=len)
    prefix = read.true_codes[:250]
    clean = replace(read, read_id="one-chunk-clean", true_codes=prefix, qualities=read.qualities[:250])
    junk = replace(read, read_id="one-chunk-junk", true_codes=prefix, qualities=np.full(250, 2.0))
    return [*dataset.reads, clean, junk]


@pytest.fixture(scope="module")
def conventional(index, reads):
    """The conventional pipeline's outcome of every read (the ground truth)."""
    pipeline = GenPIPPipeline(index, GenPIPConfig().conventional(), align=False)
    return [pipeline.process_read(read) for read in reads]


def _assert_point_is_the_pipelines(point, index, reads, config, stage, useful):
    pipeline = GenPIPPipeline(index, config, align=False)
    decisions = {read.read_id: getattr(pipeline.process_read(read), stage) for read in reads}
    rejected = [read_id for read_id, d in decisions.items() if d is not None and d.reject]
    assert point.rejection_ratio == len(rejected) / len(reads)
    assert point.false_negative_ratio == sum(read_id in useful for read_id in rejected) / len(rejected)
    # The one-chunk reads are never screened, though the junk one would
    # be rejected if it were; they count in the denominator above.
    assert [decisions[read_id] for read_id in ONE_CHUNK] == [None, None]
    junk = next(read for read in reads if read.read_id == "one-chunk-junk")
    screening = GenPIPPipeline(index, replace(config, min_chunks_for_er=1), align=False)
    assert getattr(screening.process_read(junk), stage).reject
    # The sweep point is not trivial: both verdicts occur.
    assert {d.reject for d in decisions.values() if d is not None} == {True, False}


@pytest.mark.parametrize("n_cm", [1, 3, 5])
def test_figure13_decisions_are_the_pipelines(index, reads, conventional, n_cm):
    # QSR off: Fig. 13 screens every read with CMR.
    config = GenPIPConfig(enable_qsr=False)
    useful = {o.read_id for o in conventional if o.status is ReadStatus.MAPPED}
    [point] = sweep(index, reads, config, "cmr", [n_cm], useful)
    assert point.n_samples == n_cm
    _assert_point_is_the_pipelines(point, index, reads, replace(config, n_cm=n_cm), "cmr", useful)


@pytest.mark.parametrize("n_qs", [2, 5])
def test_figure12_decisions_are_the_pipelines(index, reads, conventional, n_qs):
    config = GenPIPConfig(enable_cmr=False)
    useful = {o.read_id for o in conventional if o.mean_quality >= config.theta_qs}
    [point] = sweep(index, reads, config, "qsr", [n_qs], useful)
    assert point.n_samples == n_qs
    _assert_point_is_the_pipelines(point, index, reads, replace(config, n_qs=n_qs), "qsr", useful)


#: Where each ER building block may be constructed under ``src/repro``:
#: the pipeline's stages, and ``Mapper``'s whole-read mapping.
CONSTRUCTION_SITES = {
    ("core/pipeline.py", "QSRPolicy"),
    ("core/pipeline.py", "CMRPolicy"),
    ("core/pipeline.py", "IncrementalChunkMapper"),
    ("mapping/mapper.py", "IncrementalChunkMapper"),
}


def test_er_stages_are_built_only_by_the_pipeline():
    src = Path(repro.__file__).parent
    names = {name for _, name in CONSTRUCTION_SITES}
    found = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.add((path.relative_to(src).as_posix(), name))
    assert found == CONSTRUCTION_SITES
