"""Cold-start child: fresh interpreter to first pooled outcomes.

What a batch user pays before the first result: imports, reference,
index build, pipeline build, pool spawn and index publication, and the
first few reads. The runner times spawn-to-exit; the stamps printed here
split that wall into its parts.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json

import workloads

from repro.runtime import (
    DatasetEngine,
    SignalStoreSource,
    StoreSource,
    active_segments,
    outcome_to_record,
)

_IMPORTED = time.perf_counter()

WORKERS = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--store", required=True, help="container holding the first reads")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    before_index = time.perf_counter()
    index = workloads.build_index(workload)
    index_built = time.perf_counter()
    pipeline = workloads.build_pipeline(workload, index)
    source = SignalStoreSource(args.store) if workload.signal_native else StoreSource(args.store)
    report = DatasetEngine(pipeline, workers=WORKERS).run(source)
    finished = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": _IMPORTED - _STARTED,
                "index_build_s": index_built - before_index,
                "first_pooled_outcome_s": finished - _STARTED,
                "records": [outcome_to_record(outcome) for outcome in report.outcomes],
                "leaked_segments": len(active_segments()),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
