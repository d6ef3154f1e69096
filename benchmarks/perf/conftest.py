"""Local pytest set-up for the perf benchmark's own tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (tier-1's
``testpaths`` do not include this directory).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session", autouse=True)
def primed_contexts():
    """Shadow ``benchmarks/conftest.py``'s autouse fixture.

    The inherited one builds both experiment contexts (datasets, indices,
    pipeline runs) before the first test; nothing here uses them.
    """
    return None
