"""The repo's one measurement plane: named instruments with snapshot algebra.

A :class:`MetricsRegistry` names a set of **instruments** --
:class:`Counter`, :class:`Gauge`, :class:`Histogram` -- and turns them
into JSON-safe snapshots with delta/merge semantics matching the
ShardResult idiom: a worker snapshots the registry around a work unit,
ships :func:`snapshot_delta` home, and the parent folds deltas together
with :func:`merge_snapshots` (and optionally re-charges them into its
own instruments via :meth:`MetricsRegistry.absorb`).

Every count and latency the repo keeps lives in one of these
instruments. The process registry (:func:`process_registry`) carries
the two process-wide counters -- ``genpip_copied_bytes`` (label
``boundary``, charged by :func:`record_copy`) and
``genpip_mapping_ops`` (label ``kind``, charged by
:func:`repro.kernels.mapping_ops.record_mapping_ops`) -- and
:class:`Histogram` is the log-bucket latency histogram the serving
layer records every verdict into.

This module imports nothing from the rest of ``repro``: the hot paths
in ``repro.core`` / ``repro.mapping`` / ``repro.kernels`` /
``repro.runtime`` charge it, so it sits below all of them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

#: Canonical process-registry instrument names.
COPIED_BYTES = "genpip_copied_bytes"
MAPPING_OPS = "genpip_mapping_ops"


class Counter:
    """A keyed monotonic counter (keys are label values, e.g. a boundary)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label: str = "key"):
        self.name = name
        self.help = help
        self.label = label
        self._values: dict[str, float] = {}

    def inc(self, key: str = "", n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increments must be non-negative, got {n}")
        self._values[key] = self._values.get(key, 0) + n

    def value(self, key: str | None = None) -> float:
        if key is not None:
            return self._values.get(key, 0)
        return sum(self._values.values())

    def by_key(self) -> dict[str, float]:
        return dict(self._values)

    def reset(self) -> None:
        self._values.clear()

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "help": self.help,
            "values": self.by_key(),
        }


class Gauge:
    """A point-in-time value (peaks, live counts)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value: float = 0

    def set(self, value: float) -> None:
        self._value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if higher (peak tracking)."""
        if value > self._value:
            self._value = value

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "help": self.help, "value": self._value}


class Histogram:
    """Log-spaced fixed-bucket histogram over seconds.

    Buckets are fixed at construction -- ``n_buckets`` log-spaced
    between ``lo`` and ``hi`` -- so :meth:`observe` is O(1) (one log,
    one clamp, one increment) and two histograms with the same layout
    :meth:`merge` by elementwise sum. Percentiles are read off the
    cumulative counts and reported as the covering bucket's **upper
    edge**: a deterministic, conservative bound, never an interpolated
    value that moves with sample order. The default range, 10 us ..
    100 s, holds anything a pipeline stage does; samples outside clamp
    to the edge buckets (and are still counted).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str = "",
        help: str = "",
        lo: float = 1e-5,
        hi: float = 100.0,
        n_buckets: int = 64,
        counts: list[int] | None = None,
    ):
        if not (0 < lo < hi):
            raise ValueError("need 0 < lo < hi for log-spaced buckets")
        if n_buckets < 2:
            raise ValueError("need at least 2 buckets")
        if counts is None:
            counts = [0] * n_buckets
        elif len(counts) != n_buckets:
            raise ValueError(f"counts length {len(counts)} != n_buckets {n_buckets}")
        self.name = name
        self.help = help
        self.lo = lo
        self.hi = hi
        self.n_buckets = n_buckets
        self.counts = counts
        self._log_lo = math.log(lo)
        self._scale = n_buckets / (math.log(hi) - self._log_lo)

    def observe(self, seconds: float) -> None:
        """Count one latency sample (out-of-range clamps to the edges)."""
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        if seconds <= self.lo:
            index = 0
        else:
            index = int((math.log(seconds) - self._log_lo) * self._scale)
        self.counts[min(index, self.n_buckets - 1)] += 1

    @property
    def count(self) -> int:
        """Total samples recorded."""
        return sum(self.counts)

    def percentile(self, q: float) -> float:
        """The latency (seconds) below which ``q`` of samples fall
        (the covering bucket's upper edge; 0.0 when empty)."""
        if not 0 < q <= 1:
            raise ValueError(f"percentile must be in (0, 1], got {q}")
        total = self.count
        if total == 0:
            return 0.0
        rank = math.ceil(q * total)
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                break
        return math.exp(self._log_lo + (index + 1) / self._scale)

    def percentiles_ms(self) -> dict[str, float]:
        """The standard p50/p95/p99 summary in milliseconds (rounded)."""
        return {
            "p50_ms": round(self.percentile(0.50) * 1e3, 3),
            "p95_ms": round(self.percentile(0.95) * 1e3, 3),
            "p99_ms": round(self.percentile(0.99) * 1e3, 3),
        }

    def merge(self, other: "Histogram") -> "Histogram":
        """Elementwise-sum another histogram in (same layout required)."""
        if (self.lo, self.hi, self.n_buckets) != (other.lo, other.hi, other.n_buckets):
            raise ValueError("cannot merge histograms with different bucket layouts")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        return self

    def to_dict(self) -> dict:
        """JSON-safe encoding (layout + counts; exact round-trip)."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "n_buckets": self.n_buckets,
            "counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Histogram":
        """Inverse of :meth:`to_dict` (also accepts a :meth:`snapshot`)."""
        return cls(
            lo=data["lo"],
            hi=data["hi"],
            n_buckets=data["n_buckets"],
            counts=list(data["counts"]),
        )

    def snapshot(self) -> dict:
        """Layout + counts only: quantiles are derived where printed, so
        a delta or a merge of snapshots can never carry stale ones."""
        return {"kind": self.kind, "help": self.help, **self.to_dict()}


class MetricsRegistry:
    """An ordered name -> instrument mapping with snapshot semantics."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    # -- construction / lookup ----------------------------------------
    def _get_or_create(self, name: str, factory, expected_type):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if not isinstance(instrument, expected_type):
                raise TypeError(
                    f"instrument {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", label: str = "key") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help, label), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(self, name: str, help: str = "", **layout) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, help, **layout), Histogram)

    def get(self, name: str):
        return self._instruments[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- snapshot / delta / merge / absorb ----------------------------
    def snapshot(self) -> dict[str, dict]:
        """JSON-safe point-in-time encoding of every instrument."""
        return {name: inst.snapshot() for name, inst in self._instruments.items()}

    def absorb(self, delta: Mapping[str, dict], names: Iterable[str] | None = None) -> None:
        """Re-charge a shipped snapshot delta into this registry.

        Counter deltas increment (the pooled mapping-ops repatriation
        path); histogram deltas merge counts; gauge deltas take the max
        (peak semantics). Unknown instrument names are ignored unless
        explicitly requested via ``names``.
        """
        wanted = set(names) if names is not None else None
        for name, payload in delta.items():
            if wanted is not None and name not in wanted:
                continue
            instrument = self._instruments.get(name)
            if instrument is None:
                if wanted is not None:
                    raise KeyError(f"cannot absorb into unknown instrument {name!r}")
                continue
            kind = payload.get("kind")
            if kind == "counter":
                for key, value in payload.get("values", {}).items():
                    instrument.inc(key, value)
            elif kind == "histogram":
                instrument.merge(Histogram.from_dict(payload))
            elif kind == "gauge":
                instrument.set_max(payload.get("value", 0))


def snapshot_delta(before: Mapping[str, dict], after: Mapping[str, dict]) -> dict[str, dict]:
    """What changed between two registry snapshots (ShardResult cargo).

    Counters subtract per key (only positive movement survives);
    histograms subtract per bucket; gauges carry the ``after`` value
    when it moved. Instruments with no movement are dropped, so an idle
    registry ships ``{}``.
    """
    delta: dict[str, dict] = {}
    for name, now in after.items():
        prev = before.get(name)
        kind = now.get("kind")
        if kind == "counter":
            prev_values = (prev or {}).get("values", {})
            moved = {
                key: value - prev_values.get(key, 0)
                for key, value in now.get("values", {}).items()
                if value - prev_values.get(key, 0) > 0
            }
            if moved:
                delta[name] = {**now, "values": moved}
        elif kind == "histogram":
            prev_counts = (prev or {}).get("counts", [0] * len(now["counts"]))
            moved_counts = [a - b for a, b in zip(now["counts"], prev_counts)]
            if any(moved_counts):
                delta[name] = {**now, "counts": moved_counts}
        elif kind == "gauge" and (prev is None or now.get("value") != prev.get("value")):
            delta[name] = dict(now)
    return delta


def merge_snapshots(a: Mapping[str, dict], b: Mapping[str, dict]) -> dict[str, dict]:
    """Fold two snapshots/deltas together (counter add, bucket add,
    gauge max) -- the parent-side merge for pooled shard deltas."""
    merged: dict[str, dict] = {name: dict(payload) for name, payload in a.items()}
    for name, payload in b.items():
        base = merged.get(name)
        if base is None:
            merged[name] = dict(payload)
            continue
        kind = payload.get("kind")
        if kind == "counter":
            values = dict(base.get("values", {}))
            for key, value in payload.get("values", {}).items():
                values[key] = values.get(key, 0) + value
            base["values"] = values
        elif kind == "histogram":
            if (base["lo"], base["hi"], base["n_buckets"]) != (
                payload["lo"],
                payload["hi"],
                payload["n_buckets"],
            ):
                raise ValueError("cannot merge histograms with different bucket layouts")
            base["counts"] = [x + y for x, y in zip(base["counts"], payload["counts"])]
        elif kind == "gauge":
            base["value"] = max(base.get("value", 0), payload.get("value", 0))
    return merged


#: The process-local registry (one per process, workers included) and
#: its two process-wide counters.
_PROCESS_REGISTRY = MetricsRegistry()
_COPIED = _PROCESS_REGISTRY.counter(
    COPIED_BYTES, help="Payload bytes copied per data-plane boundary", label="boundary"
)
_PROCESS_REGISTRY.counter(MAPPING_OPS, help="Mapping kernel operations per kind", label="kind")


def process_registry() -> MetricsRegistry:
    """The process-local registry."""
    return _PROCESS_REGISTRY


def record_copy(boundary: str, nbytes: int) -> None:
    """Charge ``nbytes`` of payload copy traffic to ``boundary``.

    GenPIP's thesis is minimising data movement between analysis steps;
    the transport layers call this exactly where they materialise a
    copy, so the count is an output of the code path itself. Boundaries:

    * ``"publish"`` -- the parent packs a work unit's arrays into the
      columnar image it sends down a worker's pipe. Always paid by a
      pooled run: the image *is* the batch. A serving client packing a
      read frame is the same pack and charges the same boundary in its
      own process.
    * ``"attach"`` -- arrays copied out of a packed batch
      (``ColumnarBatch.reads(copy=True)``). Pool workers view their
      image instead, so a pooled run charges nothing here.

    Workers ship their movement home as a snapshot delta on
    :class:`~repro.runtime.merge.ShardResult`;
    :class:`~repro.runtime.engine.RuntimeStats` surfaces it (never in
    the report, so reports stay byte-identical however payloads
    travelled).
    """
    _COPIED.inc(boundary, int(nbytes))


def copied_bytes(boundary: str | None = None) -> int:
    """Process-local copied bytes (one boundary, or the total)."""
    return _COPIED.value(boundary)


def worker_metrics_snapshot() -> dict[str, dict]:
    """Snapshot the process registry before a work unit (worker side)."""
    return process_registry().snapshot()


def worker_metrics_delta(before: Mapping[str, dict]) -> dict[str, dict]:
    """The registry movement since ``before`` (ShardResult cargo)."""
    return snapshot_delta(before, process_registry().snapshot())
