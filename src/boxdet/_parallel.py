"""Thread-pool helper with deterministic, order-preserving reduction.

Worker count is capped by the BOXDET_THREADS environment variable, an
integer >= 0 (unset or 0 means auto = cpu count; anything else is an
``InvalidConfigError``).  Work items are independent and
results are always combined in submission order, so any worker count
produces bit-identical output.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidConfigError


def worker_count() -> int:
    raw = os.environ.get("BOXDET_THREADS", "0")
    try:
        workers = int(raw)
    except ValueError:
        workers = -1
    if workers < 0:
        raise InvalidConfigError(
            f"BOXDET_THREADS must be an integer >= 0, got {raw!r}")
    return workers or os.cpu_count() or 1


def ordered_map(fn, items) -> list:
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
