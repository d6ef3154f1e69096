"""Compare two sets of benchmark runs against the benchmark's own bounds.

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --out`` appended: any number of
runs per workload. For every workload x end-to-end metric it prints both
sets' medians, how much worse B is than A as a share of A's median, the
bound from ``BENCHMARK.json``, and each set's spread (inter-quartile
distance over its median). Exits 1 when B is worse than A by more than a
bound, or when B's share of failed operations is higher than A's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import measure

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> dict[str, list[dict]]:
    """Records of one set, grouped by workload (end-to-end runs only)."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    return (a - b) / a if better == "higher" else (b - a) / a


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(runs_a: dict, runs_b: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    """The report lines and whether every pairing is within its bound."""
    lines = [
        f"{'workload':<16}{'metric':<20}{'A median':>12}{'B median':>12}"
        f"{'B worse by':>12}{'bound':>8}{'A spread':>10}{'B spread':>10}  verdict"
    ]
    ok = True
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_runs, b_runs = runs_a[workload], runs_b[workload]
        for metric in metrics:
            name = metric["name"]
            a_values = [run["values"][name] for run in a_runs]
            b_values = [run["values"][name] for run in b_runs]
            a_median, b_median = statistics.median(a_values), statistics.median(b_values)
            worse = worsening(a_median, b_median, metric["better"])
            within = worse <= metric["bound"]
            ok &= within
            lines.append(
                f"{workload:<16}{name:<20}{a_median:>12.4f}{b_median:>12.4f}"
                f"{worse:>+12.1%}{metric['bound']:>8.0%}"
                f"{measure.spread(a_values):>10.1%}{measure.spread(b_values):>10.1%}"
                f"  {'ok' if within else 'EXCESS'}"
            )
        a_failed, b_failed = failed_share(a_runs), failed_share(b_runs)
        if b_failed > a_failed:
            ok = False
        lines.append(
            f"{workload:<16}{'failed operations':<20}{a_failed:>12.2%}{b_failed:>12.2%}"
            f"  ({len(a_runs)} vs {len(b_runs)} runs)"
            f"  {'ok' if b_failed <= a_failed else 'MORE FAILURES'}"
        )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="records of the first set (the parent)")
    parser.add_argument("b", help="records of the second set (the change)")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    lines, ok = compare(load_runs(args.a), load_runs(args.b), metrics)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
