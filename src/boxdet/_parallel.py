"""Thread-pool helper with deterministic, order-preserving reduction.

Worker count is capped by the BOXDET_THREADS environment variable
(unset or 0 means auto = cpu count).  Work items are independent and
results are always combined in submission order, so any worker count
produces bit-identical output.
"""

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    raw = os.environ.get("BOXDET_THREADS", "0")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def ordered_map(fn, items) -> list:
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
