"""Long-lived serving layer: warm pool, sessions, streaming verdicts.

The batch runtime (:mod:`repro.runtime`) answers "run this dataset";
this package answers "keep the pipeline hot and answer reads as they
arrive" -- the adaptive-sampling ("read until") serving shape, where a
sequencer-side client streams raw reads and needs accept/eject verdicts
back within a latency budget. Everything expensive is paid once at
start-up and shared across every session: the worker pool stays warm,
the minimizer index is published into shared memory exactly once, and
SER templates ride along inside the worker pipelines.

Layers (each independently testable):

* :mod:`~repro.serving.protocol` -- protocol v2: NDJSON control lines, read
  frames whose payload is the :mod:`repro.runtime.columnar` bytes
* :mod:`~repro.serving.session`  -- per-session bookkeeping + the mux
* :mod:`~repro.serving.dispatch` -- asyncio -> warm pool bridge
* :mod:`~repro.serving.server`   -- the asyncio loopback front-end
* :mod:`~repro.serving.client`   -- bundled loopback client/driver
* :mod:`~repro.serving.cli`      -- ``python -m repro.serving`` (its
  dataset and pipeline flags are :mod:`repro.runtime.cli`'s)

Standing invariant: the merged, dataset-order verdict stream of N
concurrent sessions is byte-identical to a serial batch report over the
same reads (enforced in tests and the CI serving smoke lane).
"""

from repro.serving.client import (
    SessionResult,
    drive_sessions,
    merged_outcomes,
    partition_reads,
    run_session,
    serve_and_drive,
)
from repro.serving.dispatch import PoolDispatcher, ServingStats
from repro.serving.server import ServingServer
from repro.serving.session import SessionMux, SessionState

__all__ = [
    "PoolDispatcher",
    "ServingServer",
    "ServingStats",
    "SessionMux",
    "SessionResult",
    "SessionState",
    "drive_sessions",
    "merged_outcomes",
    "partition_reads",
    "run_session",
    "serve_and_drive",
]
