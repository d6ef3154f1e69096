"""Picklable pipeline factory for worker processes.

A :class:`GenPIPPipeline` is cheap to *build* but expensive to *ship*:
what dominates its pickled size is the minimizer index, which every
worker needs anyway. :class:`PipelineSpec` captures exactly the
constructor arguments of the pipeline, travels to each worker once (via
the pool initializer), and rebuilds an identical pipeline there -- so
per-task messages carry only work-unit payloads and outcomes, never
engine state (and with the shared-memory transport of
:mod:`repro.runtime.transport`, not even read payloads -- just
handles).

The index travels one of two ways: as the
:class:`~repro.mapping.index.MinimizerIndex` itself (pickled through
the initializer args), or -- when the engine published it via
:func:`~repro.runtime.transport.publish_index` -- as a
:class:`~repro.runtime.transport.SharedIndexHandle`, a ~100-byte
name-plus-counts handle each worker attaches and rebuilds from shared
memory. :meth:`resolve_index` hides the difference from :meth:`build`.

The basecaller travels as itself, so it must be picklable (the built-in
engines drop their per-read caches when pickled); under ``fork`` the
initializer args are inherited and nothing is pickled at all. The spec
works under both ``fork`` and ``spawn`` start methods --
``tests/test_backends.py`` rebuilds a non-surrogate spec in a fresh
interpreter and asserts identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.backends import (
    Basecaller,
    CMRPolicyProtocol,
    QSRPolicyProtocol,
    SignalRejectionPolicyProtocol,
)
from repro.core.config import GenPIPConfig
from repro.core.pipeline import GenPIPPipeline
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import MapperConfig
from repro.runtime.transport import SharedIndexHandle, attach_index


@dataclass(frozen=True)
class PipelineSpec:
    """Everything needed to reconstruct a :class:`GenPIPPipeline`.

    All fields are plain dataclasses / numpy containers, picklable
    engines and policies, or shared-memory handles, so the spec is
    picklable under both ``fork`` and ``spawn`` start methods.
    """

    index: MinimizerIndex | SharedIndexHandle
    config: GenPIPConfig
    basecaller: Basecaller
    mapper_config: MapperConfig
    align: bool = True
    qsr_policy: QSRPolicyProtocol | None = None
    cmr_policy: CMRPolicyProtocol | None = None
    ser_policy: SignalRejectionPolicyProtocol | None = None
    #: Enable span tracing in the process that builds from this spec:
    #: pool initializers call ``repro.obs.trace.enable_tracing()``
    #: before the first work unit, so worker-side traces exist for the
    #: engine to ship home. Not a pipeline constructor argument -- the
    #: pipeline reads the process tracer per read.
    trace: bool = False

    @classmethod
    def from_pipeline(cls, pipeline: GenPIPPipeline) -> "PipelineSpec":
        """Capture an existing pipeline's construction arguments.

        The engine and the rejection policies -- QSR/CMR and the
        optional signal-domain (SER) policy -- are carried as instances:
        the default policies are tiny threshold holders (the SER default
        adds its expected-signal templates, still a few KB), and custom
        ones need only be picklable, the same contract as a basecaller.
        """
        return cls(
            index=pipeline.index,
            config=pipeline.config,
            basecaller=pipeline.basecaller,
            mapper_config=pipeline.mapper_config,
            align=pipeline.align,
            qsr_policy=pipeline.qsr_policy,
            cmr_policy=pipeline.cmr_policy,
            ser_policy=pipeline.ser_policy,
        )

    def with_index(self, index: MinimizerIndex | SharedIndexHandle) -> "PipelineSpec":
        """A copy of the spec carrying ``index`` instead (e.g. a
        shared-memory handle the engine just published)."""
        return replace(self, index=index)

    def with_trace(self, trace: bool = True) -> "PipelineSpec":
        """A copy of the spec with worker-side span tracing toggled."""
        return replace(self, trace=trace)

    def resolve_index(self) -> MinimizerIndex:
        """The index instance (attaching the shared segment if needed)."""
        if isinstance(self.index, SharedIndexHandle):
            return attach_index(self.index)
        return self.index

    def accepts_signal_reads(self) -> bool:
        """Whether the configured engine decodes signal-native reads."""
        return bool(getattr(self.basecaller, "accepts_signal_reads", False))

    def signal_rejection_enabled(self) -> bool:
        """Whether the rebuilt pipeline will run the SER stage."""
        return self.ser_policy is not None and self.config.enable_ser

    def build(self) -> GenPIPPipeline:
        """Reconstruct the pipeline (called once per worker process)."""
        return GenPIPPipeline(
            self.resolve_index(),
            self.basecaller,
            self.config,
            self.mapper_config,
            align=self.align,
            qsr_policy=self.qsr_policy,
            cmr_policy=self.cmr_policy,
            ser_policy=self.ser_policy,
        )
