"""Thread-pool helper with deterministic, order-preserving reduction.

Worker count is capped by the BOXDET_THREADS environment variable, an
integer >= 0 (unset or 0 means auto = the CPUs this process may run on;
anything else is an ``InvalidConfigError``).  Work items are independent
and results are always combined in submission order, so any worker count
produces bit-identical output.

Pools never nest: an ``ordered_map`` called on a pool worker runs its
items inline, so one map at the outermost loop of a program path holds the
only pool.  A map of one item runs inline on the caller, which leaves the
maps inside that item free to pool.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidConfigError

_state = threading.local()


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    raw = os.environ.get("BOXDET_THREADS", "0")
    try:
        workers = int(raw)
    except ValueError:
        workers = -1
    if workers < 0:
        raise InvalidConfigError(
            f"BOXDET_THREADS must be an integer >= 0, got {raw!r}")
    return workers or _cpu_count()


def _mark_worker():
    _state.worker = True


def ordered_map(fn, items) -> list:
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or getattr(_state, "worker", False):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_worker) as pool:
        return list(pool.map(fn, items))
