"""Regression gate: compare a fresh BENCH_runtime.json to the baseline.

CI regenerates ``BENCH_runtime.json`` on every push and then runs::

    python benchmarks/compare_baseline.py BENCH_runtime.json

which fails (exit 1) when any lane's throughput drops below
``baseline / tolerance``, or when a lane present in the baseline is
missing from the fresh document (coverage must not silently shrink).
Lanes present only in the fresh document are reported but never fail --
new lanes land before their baseline does.

The tolerance is deliberately generous (default 4x): shared CI runners
vary wildly in steady-state speed, and this gate exists to catch
*structural* regressions -- a kernel silently falling back to its scalar
reference, a lane losing its batching -- not few-percent noise. Real
perf work should read the artifact trail, not this gate.

**Re-baselining**: after a deliberate perf change (or when adding
lanes), regenerate the committed baseline on a quiet machine with the
exact CI arguments and commit it alongside the change::

    python benchmarks/bench_runtime.py --profile ecoli-like \
        --scale 0.0015 --seed 7 \
        --out benchmarks/baselines/BENCH_runtime_baseline.json

or equivalently ``python benchmarks/compare_baseline.py
BENCH_runtime.json --write-baseline`` to promote a document you already
generated. Review the diff: every lane's delta should be explained by
the change you are shipping.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "BENCH_runtime_baseline.json"

#: Fields that identify a lane (everything else is measurement).
#: ``sessions`` distinguishes the serving lane's concurrency points --
#: without it the N-session records would collide as duplicates;
#: ``sink`` does the same for the null-sink lane; ``traced`` for the
#: trace-overhead lane's on/off pair.
IDENTITY_FIELDS = (
    "source",
    "lane",
    "workers",
    "batching",
    "transport",
    "mode",
    "kernel",
    "decode",
    "dnn_batched",
    "signal_er",
    "sessions",
    "sink",
    "traced",
)


def lane_key(record: dict) -> tuple:
    """Stable identity of one grid configuration."""
    return tuple((field, record.get(field)) for field in IDENTITY_FIELDS)


def format_key(key: tuple) -> str:
    return " ".join(f"{field}={value}" for field, value in key if value is not None)


def load_results(path: Path) -> dict[tuple, dict]:
    document = json.loads(path.read_text())
    if document.get("schema") != "genpip-bench-runtime/1":
        raise SystemExit(f"{path}: unexpected schema {document.get('schema')!r}")
    results = {}
    for record in document["results"]:
        key = lane_key(record)
        if key in results:
            raise SystemExit(f"{path}: duplicate lane {format_key(key)}")
        results[key] = record
    return results


def compare(current: dict[tuple, dict], baseline: dict[tuple, dict], tolerance: float) -> int:
    failures = 0
    for key, base in sorted(baseline.items(), key=lambda item: format_key(item[0])):
        fresh = current.get(key)
        if fresh is None:
            print(f"MISSING  {format_key(key)} (lane in baseline, absent now)")
            failures += 1
            continue
        floor = base["reads_per_sec"] / tolerance
        rps = fresh["reads_per_sec"]
        verdict = "ok" if rps >= floor else "REGRESSED"
        failures += verdict != "ok"
        print(
            f"{verdict:<9} {format_key(key)}: {rps:.1f} reads/s "
            f"(baseline {base['reads_per_sec']:.1f}, floor {floor:.1f})"
        )
    for key in sorted(set(current) - set(baseline), key=format_key):
        print(f"new      {format_key(key)} (no baseline yet; not gated)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a BENCH_runtime.json lane regresses beyond tolerance."
    )
    parser.add_argument("current", help="freshly generated BENCH_runtime.json")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline document (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=4.0,
        help="allowed slowdown factor per lane before failing (default: 4.0)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="promote the current document to the baseline path and exit",
    )
    args = parser.parse_args(argv)

    current_path = Path(args.current)
    if args.write_baseline:
        load_results(current_path)  # validate before promoting
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(current_path, args.baseline)
        print(f"promoted {current_path} -> {args.baseline}")
        return 0
    if args.tolerance <= 1.0:
        raise SystemExit("--tolerance must be > 1.0")

    current = load_results(current_path)
    baseline = load_results(args.baseline)
    failures = compare(current, baseline, args.tolerance)
    if failures:
        print(f"{failures} lane(s) regressed or went missing", file=sys.stderr)
        return 1
    print(f"all {len(baseline)} baseline lanes within x{args.tolerance} tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
