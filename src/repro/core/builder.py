"""Fluent construction of GenPIP systems: ``GenPIP.build()...``.

One chain assembles everything a run needs -- reference index, pipeline
preset, basecaller backend (by registry name or instance), ER variant,
rejection policies -- and defers all construction
to :meth:`PipelineBuilder.build`, so a chain is cheap to create, pass
around, and amend::

    system = (
        GenPIP.build()
        .index(index)
        .preset("ecoli")
        .basecaller("viterbi")
        .align(False)
        .build()
    )
    report = system.run(dataset, workers=4)

Equivalence guarantee: the default chain
(``GenPIP.build().index(ix).build()``) constructs through exactly the
same code path as ``GenPIP(ix)``, so its reports are byte-identical to
the direct constructor's -- asserted by ``tests/test_backends.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends import (
    Basecaller,
    CMRPolicyProtocol,
    QSRPolicyProtocol,
    SignalRejectionPolicyProtocol,
)
from repro.core.config import GenPIPConfig, variant_config
from repro.core.registry import create_basecaller, preset_config
from repro.mapping.index import MinimizerIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.genpip import GenPIP
    from repro.core.pipeline import GenPIPPipeline
    from repro.nanopore.datasets import Dataset


class PipelineBuilder:
    """Accumulates construction choices; ``build()`` materialises them.

    Every setter returns ``self``, so calls chain. Later calls override
    earlier ones (``.config(...)`` and ``.preset(...)`` set the same
    underlying base config; the last call wins). Nothing expensive
    happens until :meth:`build` / :meth:`build_pipeline`.
    """

    def __init__(self) -> None:
        self._index: MinimizerIndex | None = None
        self._dataset: "Dataset | None" = None
        self._base_config: GenPIPConfig | None = None
        self._chunk_size: int | None = None
        self._variant: str | None = None
        self._basecaller_name: str | None = None
        self._basecaller_config: object | None = None
        self._basecaller_instance: Basecaller | None = None
        self._align: bool = True
        self._qsr_policy: QSRPolicyProtocol | None = None
        self._cmr_policy: CMRPolicyProtocol | None = None
        self._ser_policy: SignalRejectionPolicyProtocol | None = None

    # --- data sources -----------------------------------------------------

    def index(self, index: MinimizerIndex) -> "PipelineBuilder":
        """Use a prebuilt reference minimizer index."""
        self._index = index
        self._dataset = None
        return self

    def for_dataset(self, dataset: "Dataset") -> "PipelineBuilder":
        """Derive the index from a dataset's reference at build time."""
        self._dataset = dataset
        self._index = None
        return self

    # --- pipeline configuration -------------------------------------------

    def config(self, config: GenPIPConfig) -> "PipelineBuilder":
        """Use an explicit base :class:`GenPIPConfig`."""
        self._base_config = config
        return self

    def preset(self, name: str) -> "PipelineBuilder":
        """Use a registered preset (``"ecoli"``, ``"human"``, ...)."""
        self._base_config = preset_config(name)
        return self

    def chunk_size(self, chunk_size: int) -> "PipelineBuilder":
        """Override the base config's chunk size."""
        self._chunk_size = chunk_size
        return self

    def variant(self, variant: str) -> "PipelineBuilder":
        """Apply an ER variant (``"conventional"``, ``"qsr_only"``, ``"full_er"``)."""
        self._variant = variant
        return self

    # --- engines ----------------------------------------------------------

    def basecaller(
        self, backend: str | Basecaller, config: object | None = None
    ) -> "PipelineBuilder":
        """Choose the basecaller: a registry name or a live engine.

        With a name, ``config`` is the backend's construction config
        (``None`` for defaults) and the engine is built lazily at
        :meth:`build` time. With an instance, ``config`` must be
        omitted.

        For signal-native runs (a
        :class:`~repro.runtime.source.SignalStoreSource` feeding stored
        raw current) pick the signal-space backend, ``"viterbi"``, since
        the surrogate replays base-space ground truth and cannot decode
        provided signal.
        """
        if isinstance(backend, str):
            self._basecaller_name = backend
            self._basecaller_config = config
            self._basecaller_instance = None
        else:
            if config is not None:
                raise ValueError(
                    "config applies only when the basecaller is given by registry name"
                )
            self._basecaller_instance = backend
            self._basecaller_name = None
            self._basecaller_config = None
        return self

    def align(self, enabled: bool = True) -> "PipelineBuilder":
        """Switch base-level alignment (off for the sweep experiments)."""
        self._align = enabled
        return self

    def qsr_policy(self, policy: QSRPolicyProtocol) -> "PipelineBuilder":
        """Inject a custom quality-score rejection policy."""
        self._qsr_policy = policy
        return self

    def cmr_policy(self, policy: CMRPolicyProtocol) -> "PipelineBuilder":
        """Inject a custom chunk-mapping rejection policy."""
        self._cmr_policy = policy
        return self

    def signal_rejection(
        self, policy: SignalRejectionPolicyProtocol | None
    ) -> "PipelineBuilder":
        """Add the signal-domain early-rejection (SER) stage.

        The policy screens signal-native reads' raw current *before any
        basecalling* (e.g.
        :class:`~repro.signal.rejection.SignalRejectionPolicy` built
        from the backend's pore model and the reference). ``None``
        removes a previously set policy. The stage only fires for
        :class:`~repro.nanopore.signal_read.SignalRead` inputs and only
        while the resolved config's ``enable_ser`` is on.
        """
        self._ser_policy = policy
        return self

    # --- materialisation --------------------------------------------------

    def resolved_config(self) -> GenPIPConfig:
        """The effective config: base, then chunk size, then variant."""
        config = self._base_config or GenPIPConfig()
        if self._chunk_size is not None:
            config = config.with_chunk_size(self._chunk_size)
        if self._variant is not None:
            config = variant_config(config, self._variant)
        return config

    def resolved_basecaller(self) -> Basecaller | None:
        """The engine instance, constructing by registry name if needed.

        ``None`` means "pipeline default" (the surrogate), which keeps
        the default chain on the exact constructor path.
        """
        if self._basecaller_instance is not None:
            return self._basecaller_instance
        if self._basecaller_name is not None:
            return create_basecaller(self._basecaller_name, self._basecaller_config)
        return None

    def _resolved_index(self) -> MinimizerIndex:
        if self._index is not None:
            return self._index
        if self._dataset is not None:
            self._index = MinimizerIndex.build(self._dataset.reference)
            return self._index
        raise ValueError(
            "builder needs a reference index: call .index(prebuilt_index) "
            "or .for_dataset(dataset) before .build()"
        )

    def build(self) -> "GenPIP":
        """Construct the :class:`~repro.core.genpip.GenPIP` system."""
        from repro.core.genpip import GenPIP

        return GenPIP(
            self._resolved_index(),
            self.resolved_config(),
            basecaller=self.resolved_basecaller(),
            align=self._align,
            qsr_policy=self._qsr_policy,
            cmr_policy=self._cmr_policy,
            ser_policy=self._ser_policy,
        )

    def build_pipeline(self) -> "GenPIPPipeline":
        """Construct just the :class:`~repro.core.pipeline.GenPIPPipeline`."""
        return self.build().pipeline
