"""Byte-identity of simulated reads and outcome records against committed digests.

``golden_digests.json`` holds the sha-256 of the ordered
``outcome_to_record`` stream of five seeded read sets, plus one of the
read simulator's own output. The first four outcome digests
were taken on the commit *before* seeding moved from one call per chunk
to one call per early-rejection stage. The per-chunk path is gone, so
these digests are what pins "every outcome record stays byte-identical"
from here on. ``er-align`` alone was retaken on purpose, when the Gotoh
row pipeline took the scalar reference's tie-breaks: same statuses and
scores, another co-optimal CIGAR on tied segments.
``ser-signal`` (signal-domain early rejection over carried signal) was
taken on the commit before the SER screen and the signal reader were
each collapsed into one class.
``simulator`` hashes the reads themselves (ids, classes, loci, seeds,
true bases and float64 quality tracks) of both presets at two seeds.
It was taken while the simulator still drew its length quantile and
its AR(1) quality scan from scipy, and pins that the numpy-only
replacements reproduce every bit.
``viterbi-chunks`` hashes the Viterbi engine's chunk output (codes and
float64 qualities) at ``k=3`` and at the production ``k=5``, which no
outcome digest runs. It was taken on the commit before the event-space
decode was deleted, and pins that the one remaining decode kept every bit.
``surrogate-chunks`` hashes the surrogate engine's chunk output of both
presets at chunk sizes 300 and 200. It was taken on the commit before
the surrogate decoded a batch of chunks in one call, when each chunk
had its own call, and is checked through both entry points.
The three digests the Viterbi trellis decodes (``viterbi-signal``,
``ser-signal``, ``viterbi-chunks``) were all taken on the numpy fold,
before the compiled trellis existed; each is checked on the compiled
trellis and on the fold, its fallback. Likewise ``er-align``, the one
digest that runs base-level alignment, was taken on a numpy Gotoh row
pipeline (since deleted) before the compiled Gotoh fill existed, and is
checked on the compiled fill and on ``gotoh_scalar``, its fallback.
Every outcome digest chains; ``er-map``, taken on a numpy chain fold
(since deleted) before the compiled chain DP existed, is checked on the
compiled DP and on ``chain_scores_scalar``. Every digest also seeds;
``er-map``, taken on the numpy seeding path before ``seed.c`` existed,
is checked on the compiled seeding and on that path, its fallback.
``cli-report`` hashes ``python -m repro.runtime --json``'s document,
``report_to_json``, over the ``er-align`` and ``ser-signal`` read sets.
It was taken on the commit before the report's per-read record became
a projection of ``outcome_to_record``, when the report still named each
field itself, and pins that the projection kept every report byte.

Records carry floats (qualities, chain scores) whose last bits depend
on the numeric stack, so the file also records the numpy
``major.minor`` it was taken with and the test skips on any other.
Regenerate (after an *intended* outcome change only) with::

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import require_native_gotoh

import repro.kernels.viterbi as viterbi_kernels
import repro.mapping.alignment as alignment_module
from repro.basecalling import SurrogateBasecaller, ViterbiBackendConfig, ViterbiChunkBasecaller
from repro.core import GenPIPConfig, GenPIPPipeline, GenPIPReport
from repro.mapping import MinimizerIndex
from repro.nanopore import SignalRead
from repro.nanopore.datasets import (
    ECOLI_LIKE,
    HUMAN_LIKE,
    generate_dataset,
    profile_reference,
    small_profile,
)
from repro.nanopore.read_simulator import ReadSimulator
from repro.runtime.cli import report_to_json
from repro.runtime.sink import outcome_to_record
from repro.signal import SignalRejectionPolicy

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def _stack() -> dict[str, str]:
    return {"numpy": ".".join(np.__version__.split(".")[:2])}


def _golden_digests() -> dict:
    """The committed digests; skips the calling test off their numeric stack."""
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["stack"] != _stack():
        pytest.skip(f"digests taken with {golden['stack']}, running {_stack()}")
    return golden["digests"]


def _digest(pipeline: GenPIPPipeline, reads) -> dict:
    sha = hashlib.sha256()
    statuses: dict[str, int] = {}
    for read in reads:
        outcome = pipeline.process_read(read)
        statuses[outcome.status.value] = statuses.get(outcome.status.value, 0) + 1
        sha.update(json.dumps(outcome_to_record(outcome), sort_keys=True).encode())
        sha.update(b"\n")
    # The status counts are not checked; they tell a human which paths
    # (QSR stop, CMR stop, short ER-ineligible read, ...) a digest covers.
    return {"sha256": sha.hexdigest(), "statuses": dict(sorted(statuses.items()))}


def _er_map() -> tuple:
    dataset = generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=6_000), scale=0.0015, seed=7
    )
    index = MinimizerIndex.build(dataset.reference)
    return GenPIPPipeline(index, config=GenPIPConfig(n_qs=2, n_cm=5), align=False), dataset.reads


def _er_align() -> tuple:
    dataset = generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=2_500), scale=0.0005, seed=5
    )
    index = MinimizerIndex.build(dataset.reference)
    return GenPIPPipeline(index, config=GenPIPConfig(), align=True), dataset.reads


def _conventional() -> tuple:
    dataset = generate_dataset(small_profile(HUMAN_LIKE), scale=0.0003, seed=9)
    index = MinimizerIndex.build(dataset.reference)
    return GenPIPPipeline(index, config=GenPIPConfig().conventional(), align=False), dataset.reads


def _viterbi_signal() -> tuple:
    dataset = generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=1_200), scale=0.0001, seed=21
    )
    backend = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))
    reads = [
        SignalRead(read_id=read.read_id, signal=backend.synthesize_signal(read))
        for read in sorted(dataset.reads, key=len)[:8]
    ]
    index = MinimizerIndex.build(dataset.reference)
    return GenPIPPipeline(index, basecaller=backend, config=GenPIPConfig(), align=False), reads


def _ser_signal() -> tuple:
    """Carried signal screened by SER: templates cover the + strand
    genomic reads' loci, so junk, - strand and uncovered reads stop at
    the screen and the covered ones decode and map."""
    dataset = generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=1_200), scale=0.0002, seed=21
    )
    backend = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))
    shortest = sorted(dataset.reads, key=len)[:12]
    reads = [
        SignalRead(read_id=read.read_id, signal=backend.synthesize_signal(read))
        for read in shortest
    ]
    policy = SignalRejectionPolicy.from_reference(
        backend.pore_model,
        dataset.reference.codes,
        segment_starts=[
            read.ref_start
            for read in shortest
            if read.ref_start is not None and read.strand == 1
        ],
    )
    index = MinimizerIndex.build(dataset.reference)
    pipeline = GenPIPPipeline(
        index, basecaller=backend, config=GenPIPConfig(), align=False, ser_policy=policy
    )
    return pipeline, reads


READ_SETS = {
    "er-map": _er_map,
    "er-align": _er_align,
    "conventional": _conventional,
    "viterbi-signal": _viterbi_signal,
    "ser-signal": _ser_signal,
}
#: The read sets decoded by the Viterbi trellis; their digests are
#: checked on the compiled trellis and on the numpy fold.
TRELLIS_SETS = ("viterbi-signal", "ser-signal")
#: The read sets aligned base by base; checked on the compiled Gotoh
#: fill and on the scalar reference.
GOTOH_SETS = ("er-align",)
#: The read set whose digest is checked on the compiled chain DP and on
#: the scalar reference (every set chains; this one maps the most).
CHAIN_SETS = ("er-map",)
#: The read sets whose ``--json`` reports ``cli-report`` hashes: mapped
#: reads with an identity, reads rejected before mapping (``mapping``
#: is None) and per-read ``ser`` records between them.
REPORT_SETS = ("er-align", "ser-signal")


def _outcome_digest(name: str) -> dict:
    return _digest(*READ_SETS[name]())


def _cli_report() -> dict:
    """``report_to_json`` of each :data:`REPORT_SETS` read set, in order."""
    sha = hashlib.sha256()
    n_reads = 0
    for name in REPORT_SETS:
        pipeline, reads = READ_SETS[name]()
        report = GenPIPReport([pipeline.process_read(read) for read in reads], pipeline.config)
        run_args = {"read_set": name, "signal_er": name == "ser-signal"}
        sha.update(report_to_json(report, run_args).encode())
        n_reads += report.n_reads
    return {"sha256": sha.hexdigest(), "reads": n_reads}


def _simulated_reads() -> dict:
    """The simulator's own bits: 300 reads per preset at seeds 7 and 42,
    hashed field by field, the float64 quality tracks byte for byte."""
    sha = hashlib.sha256()
    classes: dict[str, int] = {}
    for profile in (ECOLI_LIKE, HUMAN_LIKE):
        reference = profile_reference(profile)
        for seed in (7, 42):
            for read in ReadSimulator(reference, profile.simulator, seed=seed).iter_reads(300):
                label = read.read_class.value
                classes[label] = classes.get(label, 0) + 1
                header = [read.read_id, label, read.strand, read.ref_start, read.seed]
                sha.update(json.dumps(header).encode())
                sha.update(read.true_codes.tobytes())
                sha.update(read.qualities.tobytes())
    # Like the status counts, the class counts are for a human reader.
    return {"sha256": sha.hexdigest(), "read_classes": dict(sorted(classes.items()))}


def _viterbi_chunks() -> dict:
    """Every 300-base chunk of six simulated reads, decoded at k=3 and
    at the default k=5: codes and float64 qualities, byte for byte."""
    profile = small_profile(ECOLI_LIKE, max_read_length=900)
    reads = list(ReadSimulator(profile_reference(profile), profile.simulator, seed=7).iter_reads(6))
    sha = hashlib.sha256()
    n_chunks = 0
    for config in (ViterbiBackendConfig(pore_k=3), ViterbiBackendConfig()):
        backend = ViterbiChunkBasecaller(config)
        for read in reads:
            for index in range(backend.n_chunks(read, 300)):
                chunk = backend.basecall_chunk(read, index, 300)
                sha.update(chunk.codes.tobytes())
                sha.update(chunk.qualities.astype(np.float64).tobytes())
                n_chunks += 1
    return {"sha256": sha.hexdigest(), "chunks": n_chunks}


def _surrogate_chunks(decode_all=None) -> dict:
    """Every chunk of six simulated reads per preset, decoded by the
    surrogate at chunk sizes 300 and 200: codes and float64 qualities,
    byte for byte. ``decode_all(caller, read, chunk_size)`` returns a
    read's chunks in order; by default, one ``basecall_chunks`` call."""
    if decode_all is None:

        def decode_all(caller, read, chunk_size):
            return caller.basecall_chunks(read, range(caller.n_chunks(read, chunk_size)), chunk_size)

    caller = SurrogateBasecaller()
    sha = hashlib.sha256()
    n_chunks = 0
    for profile in (ECOLI_LIKE, HUMAN_LIKE):
        reads = list(ReadSimulator(profile_reference(profile), profile.simulator, seed=7).iter_reads(6))
        for chunk_size in (300, 200):
            for read in reads:
                for chunk in decode_all(caller, read, chunk_size):
                    sha.update(chunk.codes.tobytes())
                    sha.update(chunk.qualities.tobytes())
                    n_chunks += 1
    return {"sha256": sha.hexdigest(), "chunks": n_chunks}


@pytest.mark.parametrize(
    "name", sorted(set(READ_SETS) - set(TRELLIS_SETS) - set(GOTOH_SETS) - set(CHAIN_SETS))
)
def test_outcome_records_match_parent_digest(name):
    golden = _golden_digests()
    assert _outcome_digest(name)["sha256"] == golden[name]["sha256"]


@pytest.mark.parametrize("name", CHAIN_SETS)
def test_chain_outcome_records_match_parent_digest(name, chain):
    """Chained by the compiled DP, then by ``chain_scores_scalar``
    (``chain`` fixture): the same digest either way."""
    golden = _golden_digests()
    assert _outcome_digest(name)["sha256"] == golden[name]["sha256"]


@pytest.mark.parametrize("name", CHAIN_SETS)
def test_seeding_outcome_records_match_parent_digest(name, seeding):
    """Indexed and seeded by ``seed.c``, then by the numpy path
    (``seeding`` fixture): the same digest either way."""
    golden = _golden_digests()
    assert _outcome_digest(name)["sha256"] == golden[name]["sha256"]


@pytest.mark.parametrize("name", GOTOH_SETS)
def test_gotoh_outcome_records_match_parent_digest(name, gotoh):
    """Aligned by the compiled Gotoh fill, then by ``gotoh_scalar``
    (``gotoh`` fixture): the same digest either way."""
    golden = _golden_digests()
    assert _outcome_digest(name)["sha256"] == golden[name]["sha256"]


@pytest.mark.parametrize("name", TRELLIS_SETS)
def test_trellis_outcome_records_match_parent_digest(name, trellis):
    """Decoded by the compiled trellis, then by the numpy fold
    (``trellis`` fixture): the same digest either way."""
    golden = _golden_digests()
    assert _outcome_digest(name)["sha256"] == golden[name]["sha256"]


def test_simulated_reads_match_parent_digest():
    golden = _golden_digests()
    assert _simulated_reads()["sha256"] == golden["simulator"]["sha256"]


def test_viterbi_chunks_match_parent_digest(trellis):
    golden = _golden_digests()
    assert _viterbi_chunks()["sha256"] == golden["viterbi-chunks"]["sha256"]


def test_surrogate_chunks_match_parent_digest():
    """All of a read's chunks in one ``basecall_chunks`` call."""
    golden = _golden_digests()
    assert _surrogate_chunks() == golden["surrogate-chunks"]


def test_surrogate_chunks_one_by_one_match_parent_digest():
    """Each chunk in its own ``basecall_chunk`` call: the same bytes."""
    golden = _golden_digests()

    def one_by_one(caller, read, chunk_size):
        return [
            caller.basecall_chunk(read, index, chunk_size)
            for index in range(caller.n_chunks(read, chunk_size))
        ]

    assert _surrogate_chunks(one_by_one) == golden["surrogate-chunks"]


def test_er_align_digest_independent_of_lane_mates(monkeypatch):
    """Every Gotoh lane filled in its own call rather than with the rest
    of its read's lanes: which lanes share a call of the compiled fill
    is a speed choice, not an output one. The compiled fill is pinned:
    ``gotoh_scalar`` fills each lane alone anyway."""
    require_native_gotoh()
    golden = _golden_digests()
    fill = alignment_module._fill_lanes

    def alone(lanes, config):
        return [fill([lane], config)[0] for lane in lanes]

    monkeypatch.setattr(alignment_module, "_fill_lanes", alone)
    assert _outcome_digest("er-align")["sha256"] == golden["er-align"]["sha256"]


def test_cli_report_matches_parent_digest():
    """The ``--json`` report's bytes, summary and per-read records."""
    golden = _golden_digests()
    assert _cli_report() == golden["cli-report"]


@pytest.mark.parametrize("block", [1, 10**6])
def test_viterbi_signal_digest_independent_of_trellis_block(block, monkeypatch):
    """One observation per block (1) or the whole chunk in one (10**6):
    the numpy fold's block size is a speed constant, not an output one.
    The fold is pinned: the compiled trellis never reads ``_BLOCK``."""
    golden = _golden_digests()
    monkeypatch.setattr(viterbi_kernels, "_native_trellis", lambda: None)
    monkeypatch.setattr(viterbi_kernels, "_BLOCK", block)
    assert _outcome_digest("viterbi-signal")["sha256"] == golden["viterbi-signal"]["sha256"]
    assert _viterbi_chunks()["sha256"] == golden["viterbi-chunks"]["sha256"]


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "stack": _stack(),
                "digests": {
                    **{name: _outcome_digest(name) for name in READ_SETS},
                    "simulator": _simulated_reads(),
                    "viterbi-chunks": _viterbi_chunks(),
                    "surrogate-chunks": _surrogate_chunks(),
                    "cli-report": _cli_report(),
                },
            },
            indent=2,
        )
    )
