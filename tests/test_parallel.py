import os
import threading

import pytest

from boxdet import _parallel
from boxdet._parallel import ordered_map, worker_count


class TestWorkerCount:
    def test_auto_follows_cpu_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        monkeypatch.delenv("BOXDET_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert worker_count() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert worker_count() == 3

    def test_explicit_count_wins(self, monkeypatch):
        monkeypatch.setenv("BOXDET_THREADS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count() == 3


class TestNesting:
    def test_map_on_a_worker_runs_inline(self, monkeypatch):
        monkeypatch.setenv("BOXDET_THREADS", "2")

        def outer(item):
            inner = ordered_map(lambda _: threading.get_ident(), range(4))
            return threading.get_ident(), inner

        results = ordered_map(outer, range(3))
        main = threading.get_ident()
        for ident, inner in results:
            assert ident != main
            assert inner == [ident] * 4

    def test_single_item_map_leaves_inner_map_pooled(self, monkeypatch):
        monkeypatch.setenv("BOXDET_THREADS", "2")
        (inner,) = ordered_map(
            lambda _: ordered_map(lambda _: threading.get_ident(), range(4)), [0])
        assert threading.get_ident() not in inner

    def test_worker_mark_does_not_leak_to_caller(self, monkeypatch):
        monkeypatch.setenv("BOXDET_THREADS", "2")
        ordered_map(lambda k: k, range(4))
        assert not getattr(_parallel._state, "worker", False)
