"""Bandwidth-sharing disciplines on a slot table of active flows.

Two registered disciplines run on the same engine:

* ``ps`` — full processor sharing with server- and client-side NIC caps.
  A real Alluxio worker serves concurrent reads over parallel TCP streams
  that *share* its NIC, and the reading client's own NIC caps the
  aggregate rate of one request's parallel partition streams.  Fair
  sharing at the server means a 3 MB hot-partition read is never stuck
  behind an entire 100 MB cold transfer; the client-side cap is precisely
  why ever-finer splitting stops paying and the optimal scale factor sits
  at an elbow.
* ``limited(c)`` — at most ``c`` flows are served concurrently per
  server (fair-sharing among themselves), later arrivals wait in a FIFO
  queue.  This is the connection-pool middle ground between the two pure
  models: ``limited(1)`` degenerates to the FIFO discipline and
  ``limited(inf)`` is exactly ``ps``.

Rate model: an *active* flow ``f`` of request ``r`` on server ``s``
receives ``min(B_s / n_s, B_c / n_r)`` bytes/second, where ``n_s`` counts
active flows on the server and ``n_r`` active flows of the request.
(Bottleneck-cap allocation without residual-share redistribution —
slightly conservative relative to full max-min water-filling, identical
when one side clearly bottlenecks.)  Rates change only at flow
activation/completion, so an event-driven engine simulates it exactly.

Engine: in-flight flows live in a :class:`_SlotTable` of numpy columns
(flow id, server, request, remaining bytes, rate, last update, ``eta``)
next to per-server and per-request active counts.  An arrival or a
completion re-rates exactly the flows whose share it changes — every
active flow on the touched servers and of the touched requests — in one
vectorized update::

    rem  = max(rem - rate * (t - last), 0)
    rate = min(B_s / n_s, B_c / n_r)
    eta  = t + rem / rate

the same IEEE operations, in the same order, as a per-flow event loop,
so ``ps``/``limited(c)`` results are bitwise reproducible
(``tests/test_cluster/test_ps_oracle.py`` checks them against a kept
per-flow heap engine).  The next completion is ``argmin(eta)``: flows
take slots in flow-id order at arrival and compaction is stable, so
equal ``eta`` resolves to the smaller flow id.  A heap holds only the
arrivals and straggler reports; at equal times an arrival runs first,
then a completion, then a report.

A flow's *effective* bytes fold in the per-connection goodput loss
(``size / g(fan_out)``) and an optional exponential jitter factor.
Straggler injection follows the paper's "sleep the server thread"
semantics: a straggling read's completion is *reported* late to the
fork-join (by ``(m - 1) x`` its nominal transfer time) but the flow frees
its bandwidth on time — a sleeping thread occupies no NIC.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from repro.cluster.engine.batch import _SegView
from repro.cluster.engine.lifecycle import RequestLifecycle, SimulationResult
from repro.cluster.engine.registry import register_discipline

__all__ = ["LimitedDiscipline", "PSDiscipline", "simulate_reads_ps"]


class _SlotTable:
    """In-flight flows as numpy columns, in flow-id order.

    Slots ``[0, top)`` are in use, and ``fid[:top]`` is increasing (a
    freed slot keeps its id and clears ``live``).  A free or waiting
    slot has the sentinels ``n_servers`` / ``n_requests`` as its server
    / request (so no membership test matches it) and ``eta == +inf``.
    ``n_server`` / ``n_request`` count the active flows per server /
    request (the sentinel entries stay 0).
    """

    def __init__(
        self,
        bandwidths: np.ndarray,
        client_bw: float,
        n_servers: int,
        n_requests: int,
    ) -> None:
        self.bandwidths = bandwidths
        self.client_bw = client_bw
        self.no_server = n_servers
        self.no_request = n_requests
        self.n_server = np.zeros(n_servers + 1, dtype=np.int64)
        self.n_request = np.zeros(n_requests + 1, dtype=np.int64)
        self.top = 0
        self._alloc(64)

    def _alloc(self, capacity: int) -> None:
        self.fid = np.zeros(capacity, dtype=np.int64)
        self.live = np.zeros(capacity, dtype=bool)
        self.server = np.full(capacity, self.no_server, dtype=np.int64)
        self.request = np.full(capacity, self.no_request, dtype=np.int64)
        self.extra = np.zeros(capacity)
        self.remaining = np.zeros(capacity)
        self.rate = np.zeros(capacity)
        self.last = np.zeros(capacity)
        self.eta = np.full(capacity, np.inf)

    def reserve(self, k: int) -> int:
        """First of ``k`` fresh slots at the top, compacting when full.

        Compaction keeps the live slots in order, so slot order stays
        flow-id order; it doubles the table when more than half is live.
        """
        top = self.top
        if top + k > self.fid.size:
            cols = ("fid", "live", "server", "request", "extra",
                    "remaining", "rate", "last", "eta")
            live = self.live[:top]
            kept = [getattr(self, name)[:top][live] for name in cols]
            top = kept[0].size
            self._alloc(max(self.fid.size, 2 * (top + k)))
            for name, col in zip(cols, kept):
                getattr(self, name)[:top] = col
        self.top = top + k
        return top

    def activate(self, i: int, sid: int, rid: int, t: float) -> None:
        """Slot ``i``'s flow starts to hold bandwidth at time ``t``."""
        self.server[i] = sid
        self.request[i] = rid
        self.last[i] = t
        self.n_server[sid] += 1
        self.n_request[rid] += 1

    def release(self, i: int, sid: int, rid: int) -> None:
        """Slot ``i``'s active flow finished; the slot becomes free."""
        self.live[i] = False
        self.server[i] = self.no_server
        self.request[i] = self.no_request
        self.eta[i] = np.inf
        self.n_server[sid] -= 1
        self.n_request[rid] -= 1

    def rerate(self, idx: np.ndarray, t: float) -> None:
        """Bring the flows in slots ``idx`` to ``t`` and re-rate them."""
        srv = self.server[idx]
        rem = self.remaining[idx] - self.rate[idx] * (t - self.last[idx])
        np.maximum(rem, 0.0, out=rem)
        rate = np.minimum(
            self.bandwidths[srv] / self.n_server[srv],
            self.client_bw / self.n_request[self.request[idx]],
        )
        self.remaining[idx] = rem
        self.last[idx] = t
        self.rate[idx] = rate
        self.eta[idx] = t + rem / rate


class _FlowColumns:
    """Per-flow recorder columns, indexed by flow id, doubled as needed."""

    COLUMNS = {
        "request": np.int64,
        "pos": np.int64,
        "server": np.int64,
        "bytes": np.float64,
        "start": np.float64,
        "end": np.float64,
        "extra": np.float64,
        "gfactor": np.float64,
    }

    def __init__(self) -> None:
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, np.empty(0, dtype=dtype))

    def reserve(self, n: int) -> None:
        """Make room for flow ids ``< n``."""
        size = self.request.size
        if n > size:
            size = max(2 * size, n, 1024)
            for name in self.COLUMNS:
                col = getattr(self, name)
                grown = np.empty(size, dtype=col.dtype)
                grown[: col.size] = col
                setattr(self, name, grown)

    def frame(self, n: int) -> tuple[np.ndarray, ...]:
        """``record_partition_frame`` arguments for flows ``0..n-1``."""
        return tuple(getattr(self, name)[:n] for name in self.COLUMNS)


def _run_heap(
    lc: RequestLifecycle, capacity: int | None
) -> SimulationResult:
    """Run every read; ``capacity=None`` means unbounded (pure PS)."""
    rng = lc.rng
    bandwidths = lc.bandwidths
    n_servers = lc.cluster.n_servers
    n_requests = lc.n_requests
    trace = lc.trace
    injector = lc.injector
    goodput = lc.goodput
    exponential = lc.exponential
    emit = lc.emit
    record = lc.record
    recorders = lc.recorders
    track = lc.track

    server_bytes = np.zeros(n_servers)
    if track:
        # Window loads come from snapshot-diffing this vector (accrued
        # at request arrival in this engine).
        lc.popularity.attach_cumulative_loads(server_bytes)
    latencies = np.full(n_requests, np.nan)

    # Request bookkeeping.
    req_remaining = np.empty(n_requests, dtype=np.int64)
    req_post_fraction = np.empty(n_requests)
    req_post_seconds = np.empty(n_requests)
    req_miss = np.zeros(n_requests, dtype=bool)

    slots = _SlotTable(
        bandwidths,
        lc.cluster.effective_client_bandwidth,
        n_servers,
        n_requests,
    )
    n_server = slots.n_server
    # Flows past a finite capacity wait, holding a slot but no
    # bandwidth, in per-server FIFOs of ``(flow id, request)``.
    server_waiting: list[deque[tuple[int, int]]] = [
        deque() for _ in range(n_servers)
    ]
    # Servers an arrival activated flows on (plus the sentinel entry),
    # cleared after the arrival's re-rate.
    touched = np.zeros(n_servers + 1, dtype=bool)
    n_flows = 0
    flows = _FlowColumns() if record else None

    # Heap of (time, kind, a, b): kind 0 = arrival of request a; kind 2 =
    # delayed join notification for flow a of request b (straggler
    # report).  Completions (kind 1) come from the slot table.
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

    while True:
        top = slots.top
        t_done = math.inf
        if top:
            i = int(slots.eta[:top].argmin())
            t_done = float(slots.eta[i])
        if heap and (
            heap[0][0] < t_done or (heap[0][0] == t_done and heap[0][1] == 0)
        ):
            t, kind, ident, rid = heapq.heappop(heap)
        elif t_done < math.inf:
            t, kind = t_done, 1
        else:
            break

        if kind == 0:
            # Arrival of request ``j`` at time ``t``.
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
                    extra = 0.0
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
                    extra = 0.0
                req_remaining[j] = op.join_count
                req_post_fraction[j] = op.post_fraction
                req_post_seconds[j] = op.post_seconds
            req_miss[j] = lc.admit(fid0)

            # The request's flows take ``k`` fresh slots (and flow ids
            # ``n_flows..``) in partition order; each activates unless its
            # server is at capacity.
            base = slots.reserve(k)
            new = slice(base, base + k)
            slots.fid[new] = np.arange(n_flows, n_flows + k)
            slots.live[new] = True
            slots.extra[new] = extra
            slots.remaining[new] = np.maximum(sizes, 1e-12)
            if record:
                flows.reserve(n_flows + k)
                rows = slice(n_flows, n_flows + k)
                flows.request[rows] = j
                flows.pos[rows] = np.arange(k)
                flows.server[rows] = op_servers
                flows.bytes[rows] = op_sizes
                flows.start[rows] = t  # overwritten if the flow waits
                flows.extra[rows] = extra
                flows.gfactor[rows] = gfactors
            any_active = False
            for pos, sid in enumerate(op_servers.tolist()):
                server_bytes[sid] += op_sizes[pos]
                if capacity is None or n_server[sid] < capacity:
                    slots.activate(base + pos, sid, j, t)
                    touched[sid] = True
                    any_active = True
                else:
                    server_waiting[sid].append((n_flows + pos, j))
            n_flows += k
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
            if any_active:
                # Flows already active on touched servers lose share; bring
                # them to t and re-rate them together with the new flows.
                on_touched = touched[slots.server[: slots.top]]
                slots.rerate(on_touched.nonzero()[0], t)
                touched[:] = False

        elif kind == 1:
            # Completion of the flow in slot ``i``.
            fid = int(slots.fid[i])
            sid = int(slots.server[i])
            j = int(slots.request[i])
            extra_f = float(slots.extra[i])
            slots.release(i, sid, j)
            pos = -1
            if record:
                flows.end[fid] = t
                pos = int(flows.pos[fid])
            if extra_f > 0.0:
                # Straggler: bandwidth freed now, completion reported late.
                heapq.heappush(heap, (t + extra_f, 2, fid, j))
            else:
                notify(j, t, pos)

            hit = slots.request[:top] == j
            if capacity is not None and server_waiting[sid]:
                # A slot freed: promote the longest-waiting flow.  Its
                # activation also squeezes its request's flows elsewhere.
                woken, rw = server_waiting[sid].popleft()
                slots.activate(
                    int(slots.fid[:top].searchsorted(woken)),
                    sid,
                    rw,
                    t,
                )
                if record:
                    flows.start[woken] = t
                hit |= slots.request[:top] == rw
            hit |= slots.server[:top] == sid
            slots.rerate(hit.nonzero()[0], t)

        else:  # kind == 2: delayed straggler report reaches the client
            notify(rid, t, int(flows.pos[ident]) if record else -1)

    if np.isnan(latencies).any():  # pragma: no cover - engine invariant
        raise AssertionError("some requests never completed")

    if record:
        for c in recorders:
            c.record_partition_frame(*flows.frame(n_flows))
    return lc.result(latencies, server_bytes)


class PSDiscipline:
    """Unbounded two-sided processor sharing (the testbed's behaviour)."""

    name = "ps"

    def run(self, lc: RequestLifecycle) -> SimulationResult:
        return _run_heap(lc, capacity=None)


class LimitedDiscipline:
    """At most ``c`` concurrent flows per server, FIFO beyond that."""

    def __init__(self, concurrency: float):
        # ``not >=`` also rejects NaN, and ``-inf`` never reaches int().
        if not concurrency >= 1 or (
            concurrency != math.inf and concurrency != int(concurrency)
        ):
            raise ValueError(
                "limited(c) needs an integer concurrency >= 1 or inf, "
                f"got {concurrency!r}"
            )
        self.concurrency = concurrency
        self.name = f"limited({concurrency:g})"

    def run(self, lc: RequestLifecycle) -> SimulationResult:
        capacity = (
            None if self.concurrency == math.inf else int(self.concurrency)
        )
        return _run_heap(lc, capacity=capacity)


def simulate_reads_ps(trace, planner, cluster, config) -> SimulationResult:
    """Back-compat entry point: run ``trace`` under pure processor sharing.

    Same signature and result type as
    :func:`repro.cluster.simulation.simulate_reads`.
    """
    from repro.cluster.engine.lifecycle import SimulationConfig

    config = config or SimulationConfig()
    discipline = PSDiscipline()
    return discipline.run(
        RequestLifecycle(trace, planner, cluster, config, discipline.name)
    )


register_discipline(PSDiscipline.name, PSDiscipline)
register_discipline("limited", LimitedDiscipline)
