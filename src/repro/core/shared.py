"""The ``/dev/shm`` hygiene check of the end-to-end benchmark.

No module of the package creates a shared-memory segment.
``benchmarks/e2e/selftest.py`` asks :func:`live_segments` that a run
leaves none behind under this process's name prefix; the answer is read
from ``/dev/shm``, so a segment that did appear would fail the check.
"""

import glob
import os

SEGMENT_PREFIX = "repro_ssd_"


def live_segments() -> frozenset[str]:
    """Names of this process's segments still present under ``/dev/shm``."""
    pattern = f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_*"
    return frozenset(os.path.basename(path) for path in glob.glob(pattern))
