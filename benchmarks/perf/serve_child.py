"""Serving child: one warm server in its own process for a whole run.

Started once by the runner. Prints ``{"port": N}`` when it is listening,
serves until its stdin closes (so it cannot outlive a dead runner), then
stops the pool and prints ``{"leaked_segments": N}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import workloads

from repro.runtime import active_segments
from repro.serving import PoolDispatcher, ServingServer

WORKERS = 2


async def _serve(dispatcher: PoolDispatcher) -> None:
    loop = asyncio.get_running_loop()
    async with ServingServer(dispatcher) as server:
        print(json.dumps({"port": server.port}), flush=True)
        await loop.run_in_executor(None, sys.stdin.buffer.read)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    pipeline = workloads.build_pipeline(workload, workloads.build_index(workload))
    # Started before the event loop exists, as the serving CLI does.
    with PoolDispatcher(pipeline, workers=WORKERS) as dispatcher:
        asyncio.run(_serve(dispatcher))
    print(json.dumps({"leaked_segments": len(active_segments())}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
