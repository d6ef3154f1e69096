"""Trace and metrics exporters: Chrome ``trace_event``, JSONL, Prometheus.

All exporters work on plain data -- decoded
:class:`~repro.obs.trace.ReadTrace` sequences and registry snapshot
dicts -- so they can run in the parent after a pooled run shipped its
spans home, or offline over a saved span log.

* :func:`chrome_trace_document` emits the Chrome ``trace_event`` JSON
  object format (complete ``"X"`` events), loadable by Perfetto /
  ``chrome://tracing``. Timestamps are microseconds, normalised per
  process to that process's earliest span and sorted so ``ts`` is
  monotone per ``tid``.
* :func:`span_records` / :func:`span_jsonl` emit one JSON object
  per span (trace label, kind, pid, name, parent index, start/duration)
  in dataset order -- the grep/pandas-friendly flat log.
* :func:`prometheus_text` renders a registry snapshot in the Prometheus
  text exposition format (``HELP``/``TYPE`` comments, labelled counter
  samples, quantile samples for histograms).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import ReadTrace


def chrome_trace_events(traces: Iterable["ReadTrace"]) -> list[dict]:
    """Flatten traces into Chrome ``trace_event`` complete events.

    Each span becomes one ``"X"`` event; ``pid`` and ``tid`` carry the
    emitting process id (clock domains are per-process, so events are
    grouped and time-normalised per pid and sorted to keep ``ts``
    monotone within each ``tid``).
    """
    traces = list(traces)
    t0_by_pid: dict[int, float] = {}
    for trace in traces:
        for span in trace.spans:
            start = span[2]
            if trace.pid not in t0_by_pid or start < t0_by_pid[trace.pid]:
                t0_by_pid[trace.pid] = start
    events = []
    for trace in traces:
        base = t0_by_pid[trace.pid] if trace.spans else 0.0
        for span in trace.spans:
            name, _parent, start, end = span
            events.append(
                {
                    "name": name,
                    "cat": trace.kind,
                    "ph": "X",
                    "ts": round((start - base) * 1e6, 3),
                    "dur": round(max(end - start, 0.0) * 1e6, 3),
                    "pid": trace.pid,
                    "tid": trace.pid,
                    "args": {"trace": trace.label},
                }
            )
    # Stable sort: slice order already nests children after parents at
    # equal timestamps, so sorting by (pid, ts) keeps ts monotone per
    # tid without reordering a parent behind its children.
    events.sort(key=lambda event: (event["pid"], event["ts"]))
    return events


def chrome_trace_document(traces: Iterable["ReadTrace"]) -> dict:
    """The full JSON-object trace document Perfetto loads directly."""
    return {"traceEvents": chrome_trace_events(traces), "displayTimeUnit": "ms"}


def span_records(traces: Iterable["ReadTrace"]) -> Iterator[dict]:
    """One flat JSON-safe record per span, in trace order."""
    for trace in traces:
        for index, span in enumerate(trace.spans):
            name, parent, start, end = span
            yield {
                "trace": trace.label,
                "kind": trace.kind,
                "pid": trace.pid,
                "span": index,
                "name": name,
                "parent": parent,
                "t0_s": round(start, 9),
                "dur_ms": round(max(end - start, 0.0) * 1e3, 6),
            }


def span_jsonl(traces: Iterable["ReadTrace"]) -> str:
    """The flat span log as text, one compact JSON object per line."""
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in span_records(traces)
    )


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(snapshot: Mapping[str, Mapping]) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Counters emit one labelled ``_total`` sample per key, gauges one
    bare sample, histograms quantile samples (the p50/p95/p99 the
    serving layer promises) plus a ``_count``.
    """
    lines: list[str] = []
    for name, payload in snapshot.items():
        kind = payload.get("kind")
        help_text = payload.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            label = payload.get("label", "key")
            values = payload.get("values", {})
            if not values:
                lines.append(f"{name}_total 0")
            for key in sorted(values):
                lines.append(f'{name}_total{{{label}="{key}"}} {_format_value(values[key])}')
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(payload.get('value', 0))}")
        elif kind == "histogram":
            lines.append(f"# TYPE {name} summary")
            # Quantiles are derived from the counts here, so a delta or a
            # merge of snapshots prints the quantiles of *its* samples.
            histogram = Histogram.from_dict(payload)
            percentiles = histogram.percentiles_ms()
            for quantile, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms")):
                seconds = round(percentiles[key] / 1e3, 9)
                lines.append(f'{name}{{quantile="{quantile}"}} {_format_value(seconds)}')
            lines.append(f"{name}_count {histogram.count}")
    return "\n".join(lines) + "\n"
