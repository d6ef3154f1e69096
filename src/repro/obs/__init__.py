"""Unified observability plane: span tracing, metrics, exporters.

This package answers the question the five pre-existing telemetry
idioms could not: *for one read, how long did SER, each stage's
basecall, each ER probe, chaining, and alignment take -- and on which
worker?* It has three layers:

:mod:`repro.obs.trace`
    A process-local :class:`~repro.obs.trace.Tracer` (explicit clock
    injection, ~zero-cost :class:`~repro.obs.trace.NullTracer` when
    disabled). The worker loop wraps each unit in a ``batch`` trace,
    which holds the unit's stages: its ``ser`` span, its ``qsr_probe``
    span and its ``cmr_probe`` span -- each probe with the ``basecall``
    that decodes every read's chunks at once, and ``cmr_probe`` with
    the ``seed``/``chain`` spans of each merge set --, then the
    ``basecall`` of every remainder. ``GenPIPPipeline.process_batch``
    then opens one trace per read for its finish (the remainder's
    ``seed``, the final ``chain``, ``align``, ``report``; a read stopped
    early has its root alone); the incremental chunk mapper adds the
    ``seed``/``chain``/``align`` spans at the kernel call sites, and the
    serving dispatcher records an enqueue->verdict ``dispatch`` trace. Worker
    traces ride home as compact tuples on
    :class:`~repro.runtime.merge.ShardResult` and merge in dataset
    order.

:mod:`repro.obs.metrics`
    :class:`~repro.obs.metrics.MetricsRegistry` with
    ``Counter``/``Gauge``/``Histogram`` instruments and
    snapshot/delta/merge semantics matching the ShardResult idiom.
    They are the repo's only ledgers: the process registry carries
    the ``genpip_copied_bytes`` counter (label ``boundary``, charged by
    :func:`~repro.obs.metrics.record_copy`) and the
    ``genpip_mapping_ops`` counter (label ``kind``, charged by
    :func:`repro.kernels.mapping_ops.record_mapping_ops`); the serving
    mux registers the ``genpip_serving_*`` instruments, latency
    ``Histogram`` included; ``RuntimeStats`` / ``ServingStats`` are
    built from registry snapshots (``from_registry``).

:mod:`repro.obs.export`
    Chrome ``trace_event`` JSON (Perfetto-loadable) and a flat JSONL
    span log (both behind ``python -m repro.runtime --trace PATH``),
    plus the Prometheus text exposition used by the serving protocol's
    ``stats`` frame and ``python -m repro.serving drive --metrics-out``.

The standing byte-identity invariant extends: tracing off leaves every
hot path untouched apart from one no-op context per span; tracing on
never changes reports or sink output -- only the side-channel trace and
metrics artifacts.
"""

from repro.obs.export import (
    chrome_trace_document,
    chrome_trace_events,
    prometheus_text,
    span_jsonl,
    span_records,
)
from repro.obs.metrics import (
    COPIED_BYTES,
    MAPPING_OPS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    copied_bytes,
    merge_snapshots,
    process_registry,
    record_copy,
    snapshot_delta,
    worker_metrics_delta,
    worker_metrics_snapshot,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    ReadTrace,
    Tracer,
    active_tracer,
    decode_traces,
    disable_tracing,
    drain_read_traces,
    enable_tracing,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    "COPIED_BYTES",
    "MAPPING_OPS",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "ReadTrace",
    "Tracer",
    "active_tracer",
    "chrome_trace_document",
    "chrome_trace_events",
    "copied_bytes",
    "decode_traces",
    "disable_tracing",
    "drain_read_traces",
    "enable_tracing",
    "merge_snapshots",
    "process_registry",
    "prometheus_text",
    "record_copy",
    "snapshot_delta",
    "span_jsonl",
    "span_records",
    "tracing_enabled",
    "use_tracer",
    "worker_metrics_delta",
    "worker_metrics_snapshot",
]
