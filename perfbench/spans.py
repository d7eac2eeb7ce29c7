"""Per-layer spans for the traced run.

The tracer wraps boxdet's functions from outside: it replaces the module
attributes through which the program looks them up, and puts them back
afterwards.  Each wrapped call records a span (name, parent span, start,
end); spans live in memory and are reduced to per-layer metrics when the
run ends.

A layer's self time is its spans' duration minus the part covered by their
child spans.  Work the thread pool (``_parallel.ordered_map``) runs for a
caller is recorded as item spans that carry the caller's name, so the
closures a layer hands to the pool count as that layer's self time: the
trial blocks of ``run_experiment`` (projection included) count as
``experiment.self_s``, the randomized sweeps of ``_qmc_probability`` as
``gaussbox.qmc_s``.  Items started from a worker thread keep the map span
as their parent, so the tree crosses threads.
"""

import threading
import time
from collections import defaultdict

# Span name -> per-layer metric (self seconds per operation).
SELF_TIME_METRICS = {
    "model.sample_uniform_x": "model.sample_uniform_x_s",
    "model.sample_noise": "model.sample_noise_s",
    "linalg.qr_positive": "linalg.qr_positive_s",
    "linalg.back_substitute": "linalg.back_substitute_s",
    "detectors.rounding_batch": "detectors.rounding_batch_s",
    "detectors.babai_batch": "detectors.babai_batch_s",
    "experiment.run_experiment": "experiment.self_s",
    "gaussbox.qmc": "gaussbox.qmc_s",
    "gaussbox.mc": "gaussbox.mc_s",
    "gaussbox.quad": "gaussbox.quad_s",
    "gaussbox.sobol_init": "gaussbox.sobol_init_s",
    "success.p_br_uniform": "success.p_br_uniform_s",
    "success.p_bb": "success.p_bb_s",
    "cli.format_rows_csv": "cli.format_rows_csv_s",
    "chart.render_chart": "chart.render_chart_s",
}
MAP = "_parallel.map"


class _ModuleProxy:
    """Stands in for a module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.map_items = {}  # map span index -> item count
        self.counts = defaultdict(int)
        self._workers = 1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent):
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
        return index

    def run(self, name, fn, *args, parent=None, **kwargs):
        """Call fn inside a span; the parent defaults to this thread's
        innermost open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        index = self._open(name, parent)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index][3] = time.perf_counter()

    def _patch(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _span_wrapper(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(args)
                with self._lock:
                    self.counts[key] += amount
            return self.run(name, fn, *args, **kwargs)
        return traced

    def _map_wrapper(self, fn):
        def traced_map(item_fn, items):
            items = list(items)
            stack = self._stack()
            parent = stack[-1] if stack else None
            owner = self.spans[parent][0] if parent is not None else "bench.op"
            index = self._open(MAP, parent)
            self.map_items[index] = len(items)
            stack.append(index)

            def item(arg):
                return self.run(owner, item_fn, arg, parent=index)

            try:
                return fn(item, items)
            finally:
                stack.pop()
                self.spans[index][3] = time.perf_counter()
        return traced_map

    def _counting_wrapper(self, key, fn):
        def counted(*args, **kwargs):
            est = fn(*args, **kwargs)
            with self._lock:
                self.counts[key] += est.samples
            return est
        return counted

    def install(self):
        """Wrap boxdet's layers; ``restore`` undoes it."""
        from boxdet import _parallel, cli, detectors, experiment, gaussbox, success

        span = self._span_wrapper
        self._workers = _parallel.worker_count()
        self._patch(experiment, "sample_uniform_x",
                    span("model.sample_uniform_x", experiment.sample_uniform_x))
        self._patch(experiment, "sample_noise",
                    span("model.sample_noise", experiment.sample_noise))
        for module in (experiment, cli):
            self._patch(module, "qr_positive",
                        span("linalg.qr_positive", module.qr_positive))
        self._patch(detectors, "back_substitute",
                    span("linalg.back_substitute", detectors.back_substitute))
        self._patch(experiment, "rounding_success_batch",
                    span("detectors.rounding_batch", experiment.rounding_success_batch,
                         count=lambda args: ("detectors.trials", len(args[1]))))
        self._patch(experiment, "babai_success_batch",
                    span("detectors.babai_batch", experiment.babai_success_batch))
        self._patch(cli, "run_experiment",
                    span("experiment.run_experiment", cli.run_experiment))
        for module in (experiment, gaussbox, success):
            self._patch(module, "ordered_map", self._map_wrapper(module.ordered_map))
        self._patch(gaussbox, "_qmc_probability",
                    span("gaussbox.qmc", gaussbox._qmc_probability))
        self._patch(gaussbox, "_mc_probability",
                    span("gaussbox.mc", gaussbox._mc_probability))
        self._patch(gaussbox, "_quadrature_probability",
                    span("gaussbox.quad", gaussbox._quadrature_probability))
        self._patch(gaussbox, "qmc", _ModuleProxy(
            gaussbox.qmc, Sobol=span("gaussbox.sobol_init", gaussbox.qmc.Sobol)))
        self._patch(success, "box_probability",
                    self._counting_wrapper("gaussbox.integrand_samples",
                                           success.box_probability))
        self._patch(success, "p_br_uniform",
                    span("success.p_br_uniform", success.p_br_uniform))
        self._patch(experiment, "p_bb_uniform",
                    span("success.p_bb", experiment.p_bb_uniform))
        for attr in ("p_bb_deterministic", "p_bb_bounds"):
            self._patch(success, attr, span("success.p_bb", getattr(success, attr)))
        self._patch(cli, "format_rows_csv",
                    span("cli.format_rows_csv", cli.format_rows_csv))
        self._patch(cli, "render_chart", span("chart.render_chart", cli.render_chart))

    def restore(self):
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def metrics(self, operations):
        """Per-layer metrics per operation of the traced loop."""
        children = defaultdict(list)
        for index, (_, parent, start, end) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        self_time = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            self_time[name] += (end - start) - _covered(children[index], start, end)

        map_s = item_s = capacity_s = 0.0
        for index, items in self.map_items.items():
            if self._inside_map(index):
                continue  # nested maps run inline on a pool worker
            _, _, start, end = self.spans[index]
            workers = min(self._workers, items) if items > 1 else 1
            map_s += end - start
            capacity_s += (end - start) * workers
        for name, parent, start, end in self.spans:
            if parent in self.map_items and not self._inside_map(parent):
                item_s += end - start

        out = {metric: (self_time.get(name, 0.0) / operations, "s/op")
               for name, metric in SELF_TIME_METRICS.items()}
        out["detectors.trials"] = (self.counts["detectors.trials"] / operations, "count/op")
        out["gaussbox.integrand_samples"] = (
            self.counts["gaussbox.integrand_samples"] / operations, "count/op")
        out["parallel.map_s"] = (map_s / operations, "s/op")
        out["parallel.items"] = (sum(self.map_items.values()) / operations, "count/op")
        out["parallel.busy_ratio"] = (item_s / capacity_s if capacity_s else 0.0, "ratio")
        return out

    def _inside_map(self, index):
        parent = self.spans[index][1]
        while parent is not None:
            if parent in self.map_items:
                return True
            parent = self.spans[parent][1]
        return False


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
