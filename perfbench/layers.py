"""Span recording around the calls into each layer's public functions.

The traced run patches each layer entry point *where its caller looks
it up* (a module global for names imported with ``from ... import``, a
class attribute for methods), records one span per call — name, start,
end, parent — into in-memory lists, and restores every patch when the
run ends.  Nothing inside the program changes: a patched function is
the original wrapped in a timer.

A span's *self* time is its duration minus the time its child spans
cover.  Each measured round (and each set-up) is a root span, so the
self time of a root is the part of the round no layer span claims: the
unattributed remainder.
"""

from __future__ import annotations

import functools
import heapq
import json
import time
import types
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import repro.cluster.engine.fifo as fifo_mod
import repro.cluster.engine.lifecycle as lifecycle_mod
import repro.cluster.engine.shared_heap as shared_heap_mod
import repro.policies.sp_cache as sp_cache_mod
import repro.system as system_mod
from repro.cluster.engine.batch import BatchPlanner
from repro.cluster.engine.fifo import FifoDiscipline
from repro.cluster.engine.lifecycle import RequestLifecycle
from repro.cluster.engine.shared_heap import PSDiscipline
from repro.obs.causal import CausalCollector
from repro.obs.popularity import PopularityMonitor
from repro.obs.slo import SLOMonitor
from repro.obs.timeline import TimelineCollector
from repro.store.lineage import LineageGraph
from repro.store.store_client import StoreClient
from repro.store.worker import Worker
from repro.workloads.streams import PoissonStream

__all__ = ["SpanRecorder", "install_layer_patches"]


class SpanRecorder:
    """Flat in-memory span store; spans are written out once at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]
        #: Per-root tallies (calls, flows, heap pushes, blocks fetched).
        self.tallies: Counter[str] = Counter()
        #: ``(kind, span index, tallies during the root)`` per root span.
        self.roots: list[tuple[str, int, dict[str, int]]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str) -> Iterator[None]:
        """One set-up or measured round; tallies are taken per root."""
        before = Counter(self.tallies)
        i = self._open(self._name_id(f"bench.{kind}"))
        try:
            yield
        finally:
            self._close(i)
            delta = Counter(self.tallies)
            delta.subtract(before)
            self.roots.append((kind, i, dict(delta)))

    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """``fn`` inside a span; ``tally(args, result)`` adds to
        ``tallies[name + '.flows']`` (e.g. flows planned by the call)."""
        nid = self._name_id(name)
        calls_key = name + ".calls"
        flows_key = name + ".flows"
        tallies = self.tallies
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            tallies[calls_key] += 1
            if tally is not None:
                tallies[flows_key] += tally(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A span around each ``next()`` of the generator ``fn`` returns."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(i)
                yield item

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span (per-block calls)."""
        tallies = self.tallies

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tallies[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis -----------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(duration, self time, root index)`` per span."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        root_of = list(range(len(self.parents)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                root_of[i] = root_of[p]
        return dur, dur - child, np.asarray(root_of, dtype=np.int64)

    def per_root(
        self, kind: str, inclusive: tuple[str, ...] = ()
    ) -> list[dict[str, float]]:
        """Self seconds per span name, plus the root's tallies, for each
        root of ``kind``.  ``"<root>"`` holds the root's own wall,
        ``"<unattributed>"`` its self time, and ``"<incl>NAME"`` the
        inclusive seconds of each layer named in ``inclusive``."""
        if not self.roots:
            return []
        dur, self_t, root_of = self.self_times()
        names = np.asarray(self.span_name, dtype=np.int64)
        rows = []
        for k, i, tallies in self.roots:
            if k != kind:
                continue
            mask = root_of == i
            mask[i] = False
            sums = np.bincount(
                names[mask], weights=self_t[mask], minlength=len(self.names)
            )
            row: dict[str, float] = {
                self.names[n]: float(sums[n])
                for n in np.flatnonzero(sums > 0)
            }
            for name in inclusive:
                nid = self._name_ids.get(name)
                row["<incl>" + name] = (
                    float(dur[mask & (names == nid)].sum())
                    if nid is not None
                    else 0.0
                )
            row.update(tallies)
            row["<root>"] = float(dur[i])
            row["<unattributed>"] = float(self_t[i])
            rows.append(row)
        return rows

    def write(self, path: Path, meta: dict) -> None:
        """Write every span once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta)
        doc["names"] = self.names
        doc["columns"] = ["name", "start_s", "end_s", "parent"]
        t0 = self.starts[0] if self.starts else 0.0
        doc["spans"] = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(
                self.span_name, self.starts, self.ends, self.parents
            )
        ]
        doc["roots"] = [
            {"kind": k, "span": i, "tallies": t} for k, i, t in self.roots
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def _n_flows_planned(args: tuple, batch) -> int:
    return int(batch.servers.size)


def _n_flows_scheduled(args: tuple, result) -> int:
    return int(np.asarray(args[0]).size)


@contextmanager
def install_layer_patches(rec: SpanRecorder) -> Iterator[None]:
    """Patch every measured layer entry point for the block, then restore.

    Each span name is a layer (``engine.plan``, ``obs.causal.ingest``,
    ``store.read``, ...); ``README.md`` lists the call behind each.
    Methods are patched on their class; functions a module imported by
    name (``fifo_schedule_grouped``, ``record_run_metrics``,
    ``optimal_scale_factor``, ``plan_repartition``) and ``shared_heap``'s
    ``heapq`` are patched in the importing module.
    """
    ingest_hooks = (
        "record_partition",
        "record_partitions",
        "record_request",
        "record_join",
        "record_partition_frame",
        "record_request_frame",
        "record_join_frame",
    )
    patches: list[tuple[object, str, Callable]] = [
        (PoissonStream, "chunks",
         rec.wrap_generator("workloads.stream", PoissonStream.chunks)),
        (PoissonStream, "materialize",
         rec.wrap("workloads.stream", PoissonStream.materialize)),
        (sp_cache_mod.SPCachePolicy, "__init__",
         rec.wrap("policies.build", sp_cache_mod.SPCachePolicy.__init__)),
        (BatchPlanner, "plan_batch",
         rec.wrap("engine.plan", BatchPlanner.plan_batch, _n_flows_planned)),
        (fifo_mod, "fifo_schedule_grouped",
         rec.wrap("engine.fifo_schedule", fifo_mod.fifo_schedule_grouped,
                  _n_flows_scheduled)),
        (FifoDiscipline, "run", rec.wrap("engine.fifo", FifoDiscipline.run)),
        (PSDiscipline, "run", rec.wrap("engine.ps", PSDiscipline.run)),
        (RequestLifecycle, "__init__",
         rec.wrap("engine.lifecycle_init", RequestLifecycle.__init__)),
        (RequestLifecycle, "plan",
         rec.wrap("engine.lifecycle_plan", RequestLifecycle.plan)),
        (RequestLifecycle, "result",
         rec.wrap("engine.result", RequestLifecycle.result)),
        (shared_heap_mod, "heapq", types.SimpleNamespace(
            heapify=heapq.heapify,
            heappop=heapq.heappop,
            heappush=rec.count("engine.ps_heap.pushes", heapq.heappush),
        )),
        (RequestLifecycle, "observe_popularity",
         rec.wrap("obs.popularity.ingest",
                  RequestLifecycle.observe_popularity)),
        (PopularityMonitor, "observe",
         rec.wrap("obs.popularity.ingest", PopularityMonitor.observe)),
        (PopularityMonitor, "finalize",
         rec.wrap("obs.popularity.finalize", PopularityMonitor.finalize)),
        (SLOMonitor, "evaluate",
         rec.wrap("obs.slo.finalize", SLOMonitor.evaluate)),
        (lifecycle_mod, "record_run_metrics",
         rec.wrap("obs.metrics.flush", lifecycle_mod.record_run_metrics)),
        (StoreClient, "read", rec.wrap("store.read", StoreClient.read)),
        (StoreClient, "write", rec.wrap("store.write", StoreClient.write)),
        (StoreClient, "checkpoint",
         rec.wrap("store.checkpoint", StoreClient.checkpoint)),
        (StoreClient, "repartition",
         rec.wrap("store.repartition", StoreClient.repartition)),
        (LineageGraph, "recover",
         rec.wrap("store.lineage_recover", LineageGraph.recover)),
        (system_mod.SPCacheSystem, "rebalance",
         rec.wrap("store.rebalance", system_mod.SPCacheSystem.rebalance)),
        (Worker, "get_block",
         rec.count("store.block_gets", Worker.get_block)),
        (system_mod, "optimal_scale_factor",
         rec.wrap("core.scale_factor", system_mod.optimal_scale_factor)),
        (sp_cache_mod, "optimal_scale_factor",
         rec.wrap("core.scale_factor", sp_cache_mod.optimal_scale_factor)),
        (system_mod, "plan_repartition",
         rec.wrap("core.repartition_plan", system_mod.plan_repartition)),
    ]
    for cls, layer in ((TimelineCollector, "timeline"),
                       (CausalCollector, "causal")):
        for hook in ingest_hooks:
            patches.append(
                (cls, hook, rec.wrap(f"obs.{layer}.ingest", getattr(cls, hook)))
            )
        patches.append(
            (cls, "finalize", rec.wrap(f"obs.{layer}.finalize", cls.finalize))
        )

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
