"""Estimators of the perf benchmark: probe, normalisation, quartiles, spans.

Everything here is arithmetic on numbers the runner collected; nothing
imports ``repro``, so the machine-speed probe stays frozen while the
program under test changes, and the unit tests need no pipeline.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Iterable, Sequence

import numpy as np

#: Seconds the probe takes on the box the benchmark was calibrated on.
#: It only fixes the scale of normalised values: a pass that ran while
#: the probe read twice this long is reported at half its wall time.
PROBE_NOMINAL_S = 0.075

_PROBE_SEED = 20220926
_PROBE_KEYS = 300_000
_PROBE_QUERIES = 100_000
_PROBE_TABLE = 200_000
_PROBE_CHUNK = 2_000
_PROBE_CHUNKS = 1_500
_PROBE_LOOP = 250_000


def probe() -> float:
    """Seconds of one frozen machine-speed kernel (~75 ms).

    Three parts, mixed so that the probe slows down by about as much as
    a pipeline pass does when the box enters a slow phase (measured
    log-log slope of pass on probe 1.1; the sort alone under-reacts at
    1.3, the bare loop over-reacts at 0.8): one large sort plus
    ``searchsorted`` (what index build and seeding do), many small numpy
    calls on chunk-sized arrays with a little bookkeeping between them
    (what a read's chunks cost), and an interpreter-bound loop (glue).
    Inputs are rebuilt from a fixed seed outside the timed region.
    """
    rng = np.random.default_rng(_PROBE_SEED)
    keys = rng.integers(0, 2**63, size=_PROBE_KEYS, dtype=np.uint64)
    queries = rng.integers(0, 2**63, size=_PROBE_QUERIES, dtype=np.uint64)
    table = np.sort(rng.integers(0, 2**63, size=_PROBE_TABLE, dtype=np.uint64))
    chunk = rng.integers(0, 2**63, size=_PROBE_CHUNK, dtype=np.uint64)
    started = time.perf_counter()
    checksum = int(np.searchsorted(np.sort(keys), queries).sum())
    seen: dict[int, tuple[int, int]] = {}
    for i in range(_PROBE_CHUNKS):
        hits = np.searchsorted(table, np.sort(chunk + np.uint64(i))[:300])
        checksum += int(np.cumsum(hits)[-1])
        seen[i & 255] = (checksum, i)
    state = checksum & 0xFFFF
    for i in range(_PROBE_LOOP):
        state = (state * 31 + i) & 0xFFFF
    return time.perf_counter() - started


def speed_factor(probe_before_s: float, probe_after_s: float) -> float:
    """Multiplier that maps a pass's wall seconds to nominal-speed seconds."""
    mean = 0.5 * (probe_before_s + probe_after_s)
    if mean <= 0:
        raise ValueError("probe seconds must be positive")
    return PROBE_NOMINAL_S / mean


def normalise(seconds: float, probe_before_s: float, probe_after_s: float) -> float:
    """A pass's seconds rescaled by the machine speed seen around it."""
    return seconds * speed_factor(probe_before_s, probe_after_s)


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and count of a sample (quartiles need n >= 2)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("inf")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# --- spans -------------------------------------------------------------------

#: One span: (name, start, end, parent index or -1, read id).
Span = tuple[str, float, float, int, str]


def self_times(spans: Iterable[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one parent never overlap (the recorder is a stack), so
    the covered part is the plain sum of the children's durations.
    """
    spans = list(spans)
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by_name(spans: Iterable[Span]) -> dict[str, dict]:
    """Per span name: summed self time, summed duration and call count."""
    spans = list(spans)
    table: dict[str, dict] = {}
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["total_s"] += end - start
        row["calls"] += 1
    return table
