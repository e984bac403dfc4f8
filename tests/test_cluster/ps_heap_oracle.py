"""Test-only differential oracle for the ``ps`` / ``limited(c)`` engine.

``_run_heap`` below is the per-flow event-heap engine that
``repro.cluster.engine.shared_heap`` ran before its slot-table rewrite,
kept verbatim: every active flow carries a lazily invalidated
completion candidate ``(eta, 1, flow, generation)`` in one heap next to
the arrivals ``(t, 0, request, 0)`` and straggler reports
``(t, 2, flow, 0)``, and each arrival or completion re-pushes every
co-located flow.  It is slow (hundreds of pushes per request) but
obviously follows the rate model, so the shipped engine must reproduce
it bit for bit (``tests/test_cluster/test_ps_oracle.py``).
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.cluster.engine.batch import _SegView
from repro.cluster.engine.lifecycle import (
    RequestLifecycle,
    SimulationConfig,
    SimulationResult,
)
from repro.cluster.engine.registry import resolve_discipline

__all__ = ["run_oracle"]


def run_oracle(trace, planner, cluster, config: SimulationConfig):
    """``simulate_reads`` with ``config``'s ``ps``/``limited(c)``
    discipline driven by the reference heap engine instead."""
    discipline = resolve_discipline(config.discipline)
    concurrency = getattr(discipline, "concurrency", float("inf"))
    capacity = None if concurrency == float("inf") else int(concurrency)
    lc = RequestLifecycle(trace, planner, cluster, config, discipline.name)
    return _run_heap(lc, capacity)


def _run_heap(
    lc: RequestLifecycle, capacity: int | None
) -> SimulationResult:
    """Drive the event heap; ``capacity=None`` means unbounded (pure PS)."""
    config = lc.config
    rng = lc.rng
    bandwidths = lc.bandwidths
    client_bw = lc.cluster.effective_client_bandwidth
    n_requests = lc.n_requests
    trace = lc.trace
    injector = lc.injector
    goodput = lc.goodput
    exponential = lc.exponential
    emit = lc.emit
    record = lc.record
    recorders = lc.recorders
    track = lc.track

    server_bytes = np.zeros(lc.cluster.n_servers)
    if track:
        # Window loads come from snapshot-diffing this vector (accrued
        # at flow completion in this engine).
        lc.popularity.attach_cumulative_loads(server_bytes)
    latencies = np.full(n_requests, np.nan)

    # Request bookkeeping.
    req_remaining = np.empty(n_requests, dtype=np.int64)
    req_post_fraction = np.empty(n_requests)
    req_post_seconds = np.empty(n_requests)
    req_miss = np.zeros(n_requests, dtype=bool)

    # Flow state (parallel lists indexed by flow id).
    f_server: list[int] = []
    f_request: list[int] = []
    f_remaining: list[float] = []
    f_rate: list[float] = []
    f_last: list[float] = []
    f_gen: list[int] = []
    f_extra: list[float] = []  # straggler report delay, seconds
    # Recorder bookkeeping, appended only when recording (indices stay
    # aligned with the lists above because ``record`` is run-constant).
    f_pos: list[int] = []  # partition position within the fork-join
    f_start: list[float] = []  # activation time (first holds bandwidth)
    f_bytes: list[float] = []  # nominal partition bytes
    f_gfactor: list[float] = []  # per-connection goodput factor

    # Only *active* flows hold bandwidth and appear in these sets; under
    # a finite capacity the overflow waits, rate-0, in per-server FIFOs.
    server_active: list[set[int]] = [
        set() for _ in range(lc.cluster.n_servers)
    ]
    request_active: list[set[int]] = [set() for _ in range(n_requests)]
    server_waiting: list[deque[int]] = [
        deque() for _ in range(lc.cluster.n_servers)
    ]

    # Heap of (time, kind, a, b): kind 0 = arrival of request a; kind 1 =
    # completion candidate for flow a with generation b; kind 2 = delayed
    # join notification for flow a (straggler report).
    heap: list[tuple[float, int, int, int]] = [
        (float(t), 0, j, 0) for j, t in enumerate(trace.times)
    ]
    heapq.heapify(heap)

    # Batched planning: arrivals pop in request order (kind 0 sorts
    # before completions at equal times, ties break on the request id,
    # and the trace is time-sorted), and this engine consumes RNG only
    # while processing arrivals — so planning the next ``batch_size``
    # requests when the first of them arrives replays the scalar RNG
    # stream byte for byte.
    planner_b = lc.batch_planner
    batch = None
    batch_j0 = 0
    batch_end = 0
    batch_eff: np.ndarray | None = None

    def advance(fid: int, t: float) -> None:
        f_remaining[fid] = max(
            f_remaining[fid] - f_rate[fid] * (t - f_last[fid]), 0.0
        )
        f_last[fid] = t

    def rate_of(fid: int) -> float:
        sid = f_server[fid]
        rid = f_request[fid]
        return min(
            float(bandwidths[sid]) / len(server_active[sid]),
            client_bw / len(request_active[rid]),
        )

    def reschedule(fid: int) -> None:
        f_rate[fid] = rate_of(fid)
        f_gen[fid] += 1
        eta = f_last[fid] + f_remaining[fid] / f_rate[fid]
        heapq.heappush(heap, (eta, 1, fid, f_gen[fid]))

    def notify(j: int, t: float, pos: int) -> None:
        """One partition read reported complete to request ``j``'s join.

        ``pos`` is the reporting flow's partition position — when it
        fires the join it is the critical partition for attribution.
        """
        req_remaining[j] -= 1
        if req_remaining[j] == 0:
            if record:
                for c in recorders:
                    c.record_join(j, pos)
            latency = lc.request_latency(
                float(trace.times[j]),
                t,
                req_post_fraction[j],
                req_post_seconds[j],
                bool(req_miss[j]),
            )
            latencies[j] = latency
            if emit:
                lc.emit_read_done(
                    ts=t,
                    req=j,
                    file_id=int(trace.file_ids[j]),
                    latency=latency,
                )

    while heap:
        t, kind, ident, gen = heapq.heappop(heap)

        if kind == 0:
            j = ident
            fid0 = int(trace.file_ids[j])
            if planner_b is not None:
                if j >= batch_end:
                    hi = min(j + lc.batch_size, n_requests)
                    batch = planner_b.plan_batch(
                        trace.times[j:hi], trace.file_ids[j:hi]
                    )
                    batch_j0 = j
                    batch_end = hi
                    # Effective bytes for the whole batch at once:
                    # divide-by-goodput then multiply-by-jitter are the
                    # scalar loop's elementwise ops (goodput off means
                    # dividing by exactly 1.0 — a bitwise identity).
                    batch_eff = batch.sizes / batch.gfactors
                    if batch.jitter is not None:
                        batch_eff = batch_eff * batch.jitter
                b_ix = j - batch_j0
                lo = int(batch.req_off[b_ix])
                hi_f = int(batch.req_off[b_ix + 1])
                op_servers = batch.servers[lo:hi_f]
                op_sizes = batch.sizes[lo:hi_f]
                op = _SegView(op_servers, op_sizes)
                k = hi_f - lo
                sizes = batch_eff[lo:hi_f]
                gfactors = batch.gfactors[lo:hi_f] if record else None
                if track:
                    lc.observe_popularity(t, fid0, op)
                straggled = False
                if injector.enabled:
                    extra = batch.extra[lo:hi_f]
                    straggled = bool(batch.straggled_extra[b_ix])
                    lc.count_straggled(straggled)
                else:
                    extra = np.zeros(k)
                req_remaining[j] = batch.join_count[b_ix]
                req_post_fraction[j] = batch.post_fraction[b_ix]
                req_post_seconds[j] = batch.post_seconds[b_ix]
            else:
                op = lc.plan(fid0)
                if track:
                    # Arrivals pop in nondecreasing time, so sim-time
                    # window rollover inside the monitor stays monotone.
                    lc.observe_popularity(t, fid0, op)
                op_servers = op.server_ids
                op_sizes = op.sizes
                k = op.parallelism
                sizes = op.sizes.astype(np.float64).copy()
                gfactors = [] if record else None
                if goodput is not None:
                    for pos in range(k):
                        b = float(bandwidths[op_servers[pos]])
                        g = lc.goodput_factor(k, b)
                        sizes[pos] /= g
                        if gfactors is not None:
                            gfactors.append(g)
                elif gfactors is not None:
                    gfactors = [1.0] * k
                if exponential:
                    sizes *= rng.exponential(1.0, size=k)
                straggled = False
                if injector.enabled:
                    extra, _mult = lc.report_delays(op)
                    straggled = bool(np.any(extra > 0.0))
                    lc.count_straggled(straggled)
                else:
                    extra = np.zeros(k)
                req_remaining[j] = op.join_count
                req_post_fraction[j] = op.post_fraction
                req_post_seconds[j] = op.post_seconds
            req_miss[j] = lc.admit(fid0)

            affected: set[int] = set()
            new_active: list[int] = []
            for pos in range(k):
                sid = int(op_servers[pos])
                fid = len(f_server)
                f_server.append(sid)
                f_request.append(j)
                f_remaining.append(max(float(sizes[pos]), 1e-12))
                f_rate.append(0.0)
                f_last.append(t)
                f_gen.append(0)
                f_extra.append(float(extra[pos]))
                if record:
                    f_pos.append(pos)
                    f_start.append(t)  # overwritten if the flow waits
                    f_bytes.append(float(op_sizes[pos]))
                    f_gfactor.append(float(gfactors[pos]))
                server_bytes[sid] += op_sizes[pos]
                if capacity is None or len(server_active[sid]) < capacity:
                    affected.update(server_active[sid])
                    server_active[sid].add(fid)
                    request_active[j].add(fid)
                    new_active.append(fid)
                else:
                    server_waiting[sid].append(fid)
            if emit:
                lc.emit_read(
                    ts=float(t),
                    req=j,
                    file_id=fid0,
                    op=op,
                    straggled=straggled,
                    missed=bool(req_miss[j]),
                )
            if record:
                for c in recorders:
                    c.record_request(
                        j, missed=bool(req_miss[j]), straggled=straggled
                    )
            # Flows already active on touched servers lose share; bring
            # them to t first, then recompute every rate under the new
            # memberships.
            for fid in affected:
                advance(fid, t)
            for fid in affected:
                reschedule(fid)
            for fid in new_active:
                reschedule(fid)

        elif kind == 1:
            fid = ident
            if gen != f_gen[fid]:
                continue  # stale candidate
            advance(fid, t)
            sid = f_server[fid]
            j = f_request[fid]
            server_active[sid].discard(fid)
            request_active[j].discard(fid)
            f_gen[fid] += 1  # invalidate any residual candidates
            if record:
                for c in recorders:
                    c.record_partition(
                        j,
                        f_pos[fid],
                        sid,
                        f_bytes[fid],
                        f_start[fid],
                        t,
                        f_extra[fid],
                        f_gfactor[fid],
                    )

            if f_extra[fid] > 0.0:
                # Straggler: bandwidth freed now, completion reported late.
                heapq.heappush(heap, (t + f_extra[fid], 2, fid, 0))
            else:
                notify(j, t, f_pos[fid] if record else -1)

            affected = server_active[sid] | request_active[j]
            if capacity is not None and server_waiting[sid]:
                # A slot freed: promote the longest-waiting flow.  Its
                # activation also squeezes its request's flows elsewhere.
                woken = server_waiting[sid].popleft()
                f_last[woken] = t
                if record:
                    f_start[woken] = t
                server_active[sid].add(woken)
                request_active[f_request[woken]].add(woken)
                affected |= server_active[sid]
                affected |= request_active[f_request[woken]]
            for ofid in affected:
                advance(ofid, t)
            for ofid in affected:
                reschedule(ofid)

        else:  # kind == 2: delayed straggler report reaches the client
            notify(f_request[ident], t, f_pos[ident] if record else -1)

    if np.isnan(latencies).any():  # pragma: no cover - engine invariant
        raise AssertionError("some requests never completed")

    return lc.result(latencies, server_bytes)
