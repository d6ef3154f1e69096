"""Shared, cached state for the experiment suite.

Dataset generation, index construction, and functional pipeline runs are
the expensive parts of every experiment; an :class:`ExperimentContext`
memoises them per (profile, chunk size, ER variant) so that Fig. 10,
Fig. 11, and the benchmark suite can reuse one another's runs. Contexts
themselves are memoised per (profile, scale, seed) in
:func:`get_context`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import GenPIPConfig, GenPIPPipeline
from repro.core.config import VARIANTS, variant_config
from repro.core.genpip import GenPIPReport
from repro.core.registry import create_basecaller, preset_config
from repro.kernels.mapping_ops import process_mapping_ops
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import PRESETS, Dataset, generate_dataset
from repro.perf.workload import PipelineWorkload

__all__ = [
    "DEFAULT_SCALES",
    "VARIANTS",
    "ExperimentContext",
    "get_context",
    "resolve_scale",
]

#: Default generation scales: a few hundred reads per dataset -- enough
#: for stable ratios, small enough for laptop turnaround.
DEFAULT_SCALES = {"ecoli-like": 0.002, "human-like": 0.0004}


@dataclass
class ExperimentContext:
    """Lazily-built dataset, index, and cached pipeline runs.

    ``workers`` shards pipeline runs across processes via
    :mod:`repro.runtime`; the parallel-equivalence invariant guarantees
    cached reports are identical regardless of the setting, so it is
    deliberately *not* part of the report cache key.
    """

    profile_name: str = "ecoli-like"
    scale: float | None = None
    seed: int = 42
    workers: int = 1

    _dataset: Dataset | None = field(default=None, repr=False)
    _index: MinimizerIndex | None = field(default=None, repr=False)
    _reports: dict = field(default_factory=dict, repr=False)
    _mapping_ops: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.profile_name not in PRESETS:
            raise ValueError(f"unknown profile {self.profile_name!r}")
        if self.scale is None:
            self.scale = DEFAULT_SCALES[self.profile_name]

    @property
    def dataset(self) -> Dataset:
        if self._dataset is None:
            self._dataset = generate_dataset(
                PRESETS[self.profile_name], scale=self.scale, seed=self.seed
            )
        return self._dataset

    @property
    def index(self) -> MinimizerIndex:
        if self._index is None:
            self._index = MinimizerIndex.build(self.dataset.reference)
        return self._index

    def base_config(self, chunk_size: int = 300) -> GenPIPConfig:
        """The dataset's Sec. 6.3 parameters at a chunk size (the
        registry preset named after the profile)."""
        return preset_config(self.profile_name).with_chunk_size(chunk_size)

    def report(
        self,
        variant: str = "full_er",
        chunk_size: int = 300,
        align: bool = False,
        basecaller: str = "surrogate",
    ) -> GenPIPReport:
        """Cached functional pipeline run for one variant/chunk size.

        ``align=False`` (default) skips base-level alignment -- the
        performance model derives alignment *work* from mapping status,
        and skipping the DP makes the sweep experiments several times
        faster. Accuracy-focused experiments pass ``align=True``.

        ``basecaller`` selects any registered backend by name; keep the
        signal-space backend (``"viterbi"``) to tiny scales -- it decodes
        real per-read signal.
        """
        key = (variant, chunk_size, align, basecaller)
        if key not in self._reports:
            system = GenPIPPipeline(
                self.index,
                variant_config(self.base_config(chunk_size), variant),
                create_basecaller(basecaller),
                align=align,
            )
            ledger = process_mapping_ops()
            before = ledger.by_key()
            self._reports[key] = system.run(self.dataset, workers=self.workers)
            after = ledger.by_key()
            # Snapshot delta of the process-local mapping-ops counter for
            # this run. Pooled runs chain/align in worker processes, but
            # the engine repatriates each worker's counter delta onto
            # ShardResult.metrics and recharges this parent counter, so
            # the delta is accurate in every mode.
            self._mapping_ops[key] = {
                kind: after.get(kind, 0) - before.get(kind, 0) for kind in after
            }
        return self._reports[key]

    def mapping_ops(
        self,
        variant: str = "full_er",
        chunk_size: int = 300,
        align: bool = False,
        basecaller: str = "surrogate",
    ) -> dict[str, int]:
        """Mapping-ops ledger delta of one cached run (`{kind: ops}`)."""
        self.report(variant, chunk_size, align, basecaller)
        return dict(self._mapping_ops[(variant, chunk_size, align, basecaller)])

    def workloads(self, chunk_size: int = 300) -> dict[str, PipelineWorkload]:
        """The three workload kinds the system models consume."""
        return {
            variant: PipelineWorkload.from_report(
                self.report(variant, chunk_size),
                mapping_ops=self.mapping_ops(variant, chunk_size),
            )
            for variant in VARIANTS
        }


_CONTEXTS: dict[tuple, ExperimentContext] = {}


def resolve_scale(scale, profile_name: str) -> float | None:
    """Normalise a scale argument: float, per-dataset dict, or None."""
    if scale is None or isinstance(scale, (int, float)):
        return scale
    return scale.get(profile_name)


def get_context(
    profile_name: str = "ecoli-like", scale=None, seed: int = 42, workers: int | None = None
) -> ExperimentContext:
    """Process-wide memoised context (shared by experiments and benches).

    ``scale`` may be a float, ``None`` (preset default), or a dict
    mapping profile names to scales. ``workers`` (when passed) sets the
    shared context's runtime parallelism for future *uncached* pipeline runs;
    it is not part of the cache key because any worker count produces
    identical reports.
    """
    scale = resolve_scale(scale, profile_name)
    key = (profile_name, scale, seed)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(profile_name=profile_name, scale=scale, seed=seed)
    context = _CONTEXTS[key]
    if workers is not None:
        context.workers = workers
    return context
