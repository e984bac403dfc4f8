"""Vectorized batch planning for the request lifecycle.

One scalar simulated request costs a ``plan_read`` call, a goodput memo
lookup per flow, one or two RNG draws, and a handful of tiny-array numpy
ops — tens of microseconds of Python overhead that caps runs near 10⁴–10⁵
requests.  :class:`BatchPlanner` lifts the *planning* stations (layout
gather, goodput factors, jitter, straggler draws) out of the per-request
loop into per-batch array operations, producing a :class:`PlanBatch` the
disciplines consume: the ``fifo`` discipline schedules whole batches with
array arithmetic, while the heap disciplines (``ps``/``limited``) pop one
request's slice per arrival event.

The contract is **bitwise parity with the scalar path**, not merely
statistical equivalence — the golden suites compare ``float.hex``.  Two
facts about numpy's PCG64 generator carry the whole design (pinned by
``tests/test_cluster/test_batch_engine.py``):

* chunked ``Generator.random``/``exponential``/``choice(..., p=...)``
  draws concatenate bitwise to the single-call draw, and zero-size draws
  consume no state, so per-batch draws replay the per-request stream; and
* ``rng.exponential(scale_array)`` equals
  ``rng.exponential(1.0, n) * scale_array`` bitwise, so jitter can be
  stored as standard draws and applied by multiplication.

RNG stream keying: the scalar engines consume draws strictly in request
order — plan, then jitter, then straggler multipliers — with no consumer
between requests.  The planner therefore picks, per configuration, the
widest batching that preserves that exact order:

* deterministic plans + jitter only → one standard-exponential draw per
  batch (chunk concatenation);
* deterministic plans + per-read stragglers only → the uniform draws are
  the run's *only* RNG consumer, so they are drawn into a persistent
  buffer in large chunks and scanned with per-request offsets (a handful
  of unused draws may remain at end of run — nothing observes them);
* deterministic plans + per-server stragglers only → straggler hits are
  a deterministic mask lookup, so exactly ``total_hits`` uniforms are
  drawn per batch;
* jitter *and* stragglers together, or a policy that overrides
  ``plan_read`` (EC-Cache late binding, selective replication) → a
  per-request loop that replays the scalar call sequence verbatim.  The
  batch arrays are still built, so scheduling downstream stays
  vectorized.

A policy whose reads never randomize (``plan_read`` not overridden) is
planned from template pools gathered once from its ``servers_of``/
``piece_sizes`` layout, with goodput factors memoized per flow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ContextManager

import numpy as np

from repro.obs.channel import Channel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.engine.lifecycle import RequestLifecycle

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchPlanner",
    "PlanBatch",
    "get_batch_size",
    "use_batching",
]

#: Requests per planned batch when batching is on without an explicit size.
DEFAULT_BATCH_SIZE = 8192

#: Ambient batch size (:class:`~repro.obs.channel.Channel`);
#: :class:`~repro.cluster.engine.lifecycle.RequestLifecycle` reads it
#: when its config carries no explicit ``batch_size``, so a harness
#: (``run_all --batch-size``) can switch whole experiments over.
BATCHING: Channel[int] = Channel("batching", int)
get_batch_size = BATCHING.current


def use_batching(batch_size: int = DEFAULT_BATCH_SIZE) -> ContextManager[int]:
    """Ambiently enable batched planning for the block."""
    if not isinstance(batch_size, int) or isinstance(batch_size, bool):
        raise TypeError(
            f"batch_size must be an int, got {type(batch_size).__name__}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return BATCHING.use(batch_size)


class _SegView:
    """One request's flow slice, quacking like a ``ReadOp`` for the
    tracing/popularity hooks (which read only these two attributes)."""

    __slots__ = ("server_ids", "sizes")

    def __init__(self, server_ids: np.ndarray, sizes: np.ndarray) -> None:
        self.server_ids = server_ids
        self.sizes = sizes


class PlanBatch:
    """Planned fork-joins for a contiguous run of requests, CSR layout.

    Request ``b`` of the batch owns flows
    ``req_off[b]:req_off[b + 1]`` of the flow-major arrays.  ``sizes``
    are the *nominal* partition bytes (what the server serves and the
    byte ledger counts); disciplines fold ``gfactors``/``jitter`` into
    effective service themselves, because fifo divides by bandwidth
    first and the heap does not.
    """

    __slots__ = (
        "n", "times", "file_ids", "k", "req_off", "servers", "sizes",
        "bw", "gfactors", "service0", "pos", "jitter", "mult", "extra",
        "straggled_mult", "straggled_extra", "join_count",
        "post_fraction", "post_seconds", "has_dup",
    )

    def __init__(
        self,
        *,
        n: int,
        times: np.ndarray,
        file_ids: np.ndarray,
        k: np.ndarray,
        req_off: np.ndarray,
        servers: np.ndarray,
        sizes: np.ndarray,
        bw: np.ndarray | None,
        gfactors: np.ndarray,
        pos: np.ndarray,
        service0: np.ndarray | None = None,
        jitter: np.ndarray | None,
        mult: np.ndarray | None,
        extra: np.ndarray | None,
        straggled_mult: np.ndarray,
        straggled_extra: np.ndarray,
        join_count: np.ndarray,
        post_fraction: np.ndarray,
        post_seconds: np.ndarray,
        has_dup: bool,
    ) -> None:
        self.n = n
        self.times = times
        self.file_ids = file_ids
        self.k = k
        self.req_off = req_off
        self.servers = servers
        self.sizes = sizes
        self.bw = bw
        self.gfactors = gfactors
        self.service0 = service0
        self.pos = pos
        self.jitter = jitter
        self.mult = mult
        self.extra = extra
        self.straggled_mult = straggled_mult
        self.straggled_extra = straggled_extra
        self.join_count = join_count
        self.post_fraction = post_fraction
        self.post_seconds = post_seconds
        self.has_dup = has_dup


class _UniformStream:
    """Chunk-buffered view of one generator's uniform stream.

    Chunked ``Generator.random`` draws concatenate bitwise, so reading
    this buffer left to right observes exactly the uniforms a scalar
    per-request consumer would draw.  ``reserve`` may overdraw past what
    the run consumes — callers use it only when these uniforms are the
    run's sole RNG consumer, so the surplus is never observable.
    """

    def __init__(self, rng: np.random.Generator, chunk: int = 1 << 17) -> None:
        self.rng = rng
        self.chunk = chunk
        self.buf = np.empty(0, dtype=np.float64)
        self.pos = 0

    def reserve(self, need: int) -> np.ndarray:
        """Return a view of at least ``need`` upcoming uniforms."""
        avail = self.buf.size - self.pos
        if avail < need:
            parts = [self.buf[self.pos:]]
            while avail < need:
                draw = self.rng.random(max(self.chunk, need - avail))
                parts.append(draw)
                avail += draw.size
            self.buf = np.concatenate(parts)
            self.pos = 0
        return self.buf[self.pos : self.pos + need]

    def advance(self, consumed: int) -> None:
        self.pos += consumed


class BatchPlanner:
    """Plans request batches with the same RNG stream as the scalar path."""

    def __init__(self, lc: "RequestLifecycle") -> None:
        from repro.cluster.stragglers import StragglerInjector
        from repro.policies.base import CachePolicy
        from repro.workloads.bing import BingStragglerProfile

        self.lc = lc
        planner = lc.planner
        injector = lc.injector
        #: Deterministic plans: the stock layout-gather ``plan_read`` —
        #: any override may draw RNG or reshape the fork-join.
        self.deterministic = (
            isinstance(planner, CachePolicy)
            and type(planner).plan_read is CachePolicy.plan_read
        )
        stock_injector = (
            type(injector).multipliers is StragglerInjector.multipliers
            and isinstance(injector.profile, BingStragglerProfile)
            and type(injector.profile).sample_multipliers
            is BingStragglerProfile.sample_multipliers
            and type(injector.profile).sample_factors
            is BingStragglerProfile.sample_factors
        )
        # Which RNG strategy keeps the stream byte-identical (see module
        # docstring).  ``loop`` replays the scalar call sequence.
        if not self.deterministic:
            self.rng_mode = "loop"
        elif lc.exponential and injector.enabled:
            self.rng_mode = "loop"
        elif lc.exponential:
            self.rng_mode = "jitter"
        elif injector.enabled and stock_injector and injector.mode == "per_read":
            self.rng_mode = "scan"
        elif injector.enabled and stock_injector and injector.mode == "per_server":
            self.rng_mode = "mask"
        elif injector.enabled:
            self.rng_mode = "loop"
        else:
            self.rng_mode = "none"
        self._ustream = (
            _UniformStream(lc.rng) if self.rng_mode == "scan" else None
        )
        self._pools_built = False

    # -- template pools (deterministic planners) ----------------------

    def _build_pools(self) -> None:
        planner = self.lc.planner
        bandwidths = self.lc.bandwidths
        servers_of = [
            np.asarray(s, dtype=np.int64) for s in planner.servers_of
        ]
        piece_sizes = [
            np.asarray(p, dtype=np.float64) for p in planner.piece_sizes
        ]
        n_files = len(servers_of)
        self._k_file = np.array([s.size for s in servers_of], dtype=np.int64)
        self._off_file = np.zeros(n_files + 1, dtype=np.int64)
        np.cumsum(self._k_file, out=self._off_file[1:])
        self._pool_servers = (
            np.concatenate(servers_of)
            if n_files
            else np.empty(0, dtype=np.int64)
        )
        self._pool_sizes = (
            np.concatenate(piece_sizes) if n_files else np.empty(0)
        )
        pool_g = np.empty(self._pool_servers.size, dtype=np.float64)
        for f in range(n_files):
            kf = int(self._k_file[f])
            for flow in range(int(self._off_file[f]), int(self._off_file[f + 1])):
                pool_g[flow] = self.lc.goodput_factor(
                    kf, float(bandwidths[self._pool_servers[flow]])
                )
        self._pool_g = pool_g
        # Per-flow effective service and straggler scale are pure
        # functions of the layout — hoist the float ops out of the
        # per-batch path (the divisions are elementwise, so gathering
        # the precomputed values is bitwise-equal to recomputing them).
        pool_bw = bandwidths[self._pool_servers]
        self._pool_service = self._pool_sizes / (pool_bw * pool_g)
        self._pool_sob = self._pool_sizes / pool_bw
        self._dup_file = np.array(
            [np.unique(s).size < s.size for s in servers_of], dtype=bool
        )
        self._pools_built = True

    # -- batch construction -------------------------------------------

    def plan_batch(self, times: np.ndarray, file_ids: np.ndarray) -> PlanBatch:
        """Plan one contiguous batch, consuming RNG exactly as the scalar
        engines would at these requests' arrivals."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        file_ids = np.ascontiguousarray(file_ids, dtype=np.int64)
        if self.deterministic:
            return self._plan_template(times, file_ids)
        return self._plan_generic(times, file_ids)

    def _plan_template(
        self, times: np.ndarray, file_ids: np.ndarray
    ) -> PlanBatch:
        if not self._pools_built:
            self._build_pools()
        lc = self.lc
        n = int(times.size)
        k = self._k_file[file_ids]
        req_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(k, out=req_off[1:])
        total = int(req_off[-1])
        pos = np.arange(total, dtype=np.int64) - np.repeat(req_off[:-1], k)
        src = np.repeat(self._off_file[file_ids], k) + pos
        servers = self._pool_servers[src]
        sizes = self._pool_sizes[src]
        gfactors = self._pool_g[src]
        service0 = self._pool_service[src]
        has_dup = bool(self._dup_file[file_ids].any())

        jitter: np.ndarray | None = None
        mult: np.ndarray | None = None
        rng = lc.rng
        injector = lc.injector
        if self.rng_mode == "loop":
            # Jitter and straggler draws interleave per request — replay
            # the scalar order verbatim.
            jitter = np.empty(total) if lc.exponential else None
            mult = np.empty(total) if injector.enabled else None
            mask = lc.straggler_mask
            off_list = req_off.tolist()
            for b in range(n):
                lo, hi = off_list[b], off_list[b + 1]
                if jitter is not None:
                    jitter[lo:hi] = rng.exponential(1.0, size=hi - lo)
                if mult is not None:
                    mult[lo:hi] = injector.multipliers(
                        servers[lo:hi], straggler_mask=mask, seed=rng
                    )
        elif self.rng_mode == "jitter":
            jitter = rng.exponential(1.0, size=total)
        elif self.rng_mode == "scan":
            mult = self._scan_per_read(n, k, req_off, total, pos)
        elif self.rng_mode == "mask":
            mult = self._mask_per_server(servers, total)

        extra: np.ndarray | None = None
        if mult is not None:
            extra = (mult - 1.0) * self._pool_sob[src]
            straggled_mult = np.logical_or.reduceat(mult > 1.0, req_off[:-1])
            straggled_extra = np.logical_or.reduceat(extra > 0.0, req_off[:-1])
        else:
            straggled_mult = np.zeros(n, dtype=bool)
            straggled_extra = np.zeros(n, dtype=bool)

        return PlanBatch(
            n=n,
            times=times,
            file_ids=file_ids,
            k=k,
            req_off=req_off,
            servers=servers,
            sizes=sizes,
            bw=None,
            gfactors=gfactors,
            pos=pos,
            service0=service0,
            jitter=jitter,
            mult=mult,
            extra=extra,
            straggled_mult=straggled_mult,
            straggled_extra=straggled_extra,
            join_count=k,
            post_fraction=np.zeros(n),
            post_seconds=np.zeros(n),
            has_dup=has_dup,
        )

    def _scan_per_read(
        self,
        n: int,
        k: np.ndarray,
        req_off: np.ndarray,
        total: int,
        pos: np.ndarray,
    ) -> np.ndarray:
        """Per-read straggler multipliers from the buffered uniform stream.

        Scalar ``sample_multipliers`` draws, per request, ``k`` test
        uniforms then ``hits`` factor uniforms (skipping the factor draw
        when nothing hit).  The per-request offsets into the shared
        stream depend on earlier hit counts; :meth:`_scan_offsets`
        recovers them exactly with a vectorized fixpoint iteration, so
        every op — integer and float alike — stays vectorized.

        The reserve starts at expectation plus generous slack rather
        than the ``2 * total`` worst case — overdrawn uniforms are never
        observable (the buffer persists), but the cumulative-hit table
        costs a pass per element, so sizing it to ~``(1 + 2p) * total``
        halves the scan's fixed cost.  If a batch's hits genuinely
        outrun the slack the scan retries with a doubled reserve; the
        offsets are a pure function of the stream so the replay is
        exact.
        """
        us = self._ustream
        p = self.lc.injector.profile.probability
        slack = max(256, int(2.0 * p * total) + 8 * int(total**0.5))
        reserve = min(total + slack, 2 * total)
        while True:
            local = us.reserve(reserve)
            hcum = np.empty(reserve + 1, dtype=np.int64)
            hcum[0] = 0
            np.cumsum(local < p, out=hcum[1:])
            offs = self._scan_offsets(k, hcum, reserve)
            if offs is not None:
                o = int(offs[-1]) + int(k[-1])
                o += int(hcum[o]) - int(hcum[offs[-1]])
                if o <= reserve:
                    break
            # Hits outran the slack (vanishingly rare): double up.
            reserve = min(reserve * 2, 2 * total)
        us.advance(o)

        test_idx = np.repeat(offs, k) + pos
        u_test = local[test_idx]
        hit = u_test < p
        mult = np.ones(total)
        if hit.any():
            csum = np.cumsum(hit)
            csum0 = np.concatenate(([0], csum))
            hits_before = csum0[np.repeat(req_off[:-1], k)]
            rank = csum - 1 - hits_before
            fac_idx = np.repeat(offs + k, k) + rank
            profile = self.lc.injector.profile
            mult[hit] = np.interp(
                local[fac_idx[hit]], profile.quantiles, profile.factors
            )
        return mult

    def _scan_offsets(
        self, k: np.ndarray, hcum: np.ndarray, reserve: int
    ) -> np.ndarray | None:
        """Exact per-request stream offsets as a vectorized fixpoint.

        The scalar recurrence ``o_{b+1} = o_b + k_b + hits[o_b, o_b+k_b)``
        tiles the uniform tape contiguously, so with ``K`` the exclusive
        cumsum of ``k`` the offsets are ``K + D`` where ``D`` is the
        unique fixpoint of ``D = exclusive-cumsum(window hits at K + D)``
        — any self-consistent ``D`` replays the forward recurrence from
        ``o_0 = 0``, which has exactly one trajectory.  The system is
        lower-triangular, so the Jacobi rounds are guaranteed exact
        after at most the block length (in practice each round settles
        tens of requests), confirmed by an unchanged pass.  Rounds
        scale with block length, making the cost quadratic per block —
        so the batch is cut into modest blocks with the exact offset
        carried between them, keeping total work a small multiple of
        one request-sized pass.  Returns ``None`` when a proposal
        indexes past the reserved tape (the caller re-reserves and
        retries; offsets are bounded by ``2 * total``, so a full
        reserve always fits).
        """
        n = k.size
        offs = np.empty(n, dtype=np.int64)
        o = 0
        tests_done = 0
        p = float(self.lc.injector.profile.probability)
        block = 256
        for lo in range(0, n, block):
            kb = k[lo : lo + block]
            nb = kb.size
            K = np.empty(nb, dtype=np.int64)
            K[0] = o
            np.cumsum(kb[:-1], out=K[1:])
            K[1:] += o
            # Warm start from the observed hit rate so far: the exact
            # fixpoint is unaffected by the guess, but starting near it
            # (error ~ a random-walk deviation instead of the full
            # expected drift) cuts the rounds to a handful.
            rho = (o - tests_done) / tests_done if tests_done else p
            D = np.rint((K - o) * rho).astype(np.int64)
            D[0] = 0
            while True:
                x = K + D
                win_end = x + kb
                try:
                    h = hcum[win_end] - hcum[x]
                except IndexError:
                    # Proposal left the reserved tape: re-reserve.
                    return None
                D_new = np.empty(nb, dtype=np.int64)
                D_new[0] = 0
                np.cumsum(h[:-1], out=D_new[1:])
                if bool((D_new == D).all()):
                    break
                D = D_new
            offs[lo : lo + block] = x
            o = int(x[-1]) + int(kb[-1]) + int(h[-1])
            tests_done += int(K[-1]) - int(K[0]) + int(kb[-1])
        return offs

    def _mask_per_server(self, servers: np.ndarray, total: int) -> np.ndarray:
        """Per-server straggler multipliers: hits are a deterministic mask
        lookup, so exactly ``total_hits`` uniforms are drawn (zero-size
        scalar draws consume no state, so batching them is exact)."""
        lc = self.lc
        hit = lc.straggler_mask[servers]
        mult = np.ones(total)
        n_hit = int(hit.sum())
        if n_hit:
            profile = lc.injector.profile
            mult[hit] = np.interp(
                lc.rng.random(n_hit), profile.quantiles, profile.factors
            )
        return mult

    def _plan_generic(
        self, times: np.ndarray, file_ids: np.ndarray
    ) -> PlanBatch:
        """Per-request planning for policies that override ``plan_read``.

        Replays the scalar RNG call sequence (plan, jitter, multipliers)
        verbatim and packs the results into batch arrays so scheduling
        downstream stays vectorized.
        """
        lc = self.lc
        rng = lc.rng
        injector = lc.injector
        exponential = lc.exponential
        mask = lc.straggler_mask
        n = int(times.size)
        servers_parts: list[np.ndarray] = []
        sizes_parts: list[np.ndarray] = []
        jitter_parts: list[np.ndarray] = []
        mult_parts: list[np.ndarray] = []
        k = np.empty(n, dtype=np.int64)
        join_count = np.empty(n, dtype=np.int64)
        post_fraction = np.empty(n)
        post_seconds = np.empty(n)
        has_dup = False
        for b in range(n):
            op = lc.plan(int(file_ids[b]))
            srv = op.server_ids
            kb = srv.size
            servers_parts.append(srv)
            sizes_parts.append(op.sizes)
            k[b] = kb
            join_count[b] = op.join_count
            post_fraction[b] = op.post_fraction
            post_seconds[b] = op.post_seconds
            if not has_dup and np.unique(srv).size < kb:
                has_dup = True
            if exponential:
                jitter_parts.append(rng.exponential(1.0, size=kb))
            if injector.enabled:
                mult_parts.append(
                    injector.multipliers(srv, straggler_mask=mask, seed=rng)
                )
        req_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(k, out=req_off[1:])
        total = int(req_off[-1])
        servers = (
            np.concatenate(servers_parts)
            if n
            else np.empty(0, dtype=np.int64)
        )
        sizes = np.concatenate(sizes_parts) if n else np.empty(0)
        pos = np.arange(total, dtype=np.int64) - np.repeat(req_off[:-1], k)
        bw = lc.bandwidths[servers]
        gfactors = np.empty(total)
        goodput = lc.goodput
        if goodput is None:
            gfactors.fill(1.0)
        else:
            bw_list = bw.tolist()
            k_flow = np.repeat(k, k).tolist()
            factor = lc.goodput_factor
            for i in range(total):
                gfactors[i] = factor(k_flow[i], bw_list[i])
        jitter = np.concatenate(jitter_parts) if jitter_parts else None
        mult = np.concatenate(mult_parts) if mult_parts else None
        extra: np.ndarray | None = None
        if mult is not None:
            extra = (mult - 1.0) * (sizes / bw)
            straggled_mult = np.logical_or.reduceat(mult > 1.0, req_off[:-1])
            straggled_extra = np.logical_or.reduceat(extra > 0.0, req_off[:-1])
        else:
            straggled_mult = np.zeros(n, dtype=bool)
            straggled_extra = np.zeros(n, dtype=bool)
        return PlanBatch(
            n=n,
            times=times,
            file_ids=file_ids,
            k=k,
            req_off=req_off,
            servers=servers,
            sizes=sizes,
            bw=bw,
            gfactors=gfactors,
            pos=pos,
            jitter=jitter,
            mult=mult,
            extra=extra,
            straggled_mult=straggled_mult,
            straggled_extra=straggled_extra,
            join_count=join_count,
            post_fraction=post_fraction,
            post_seconds=post_seconds,
            has_dup=has_dup,
        )


def fifo_schedule(
    t: np.ndarray, svc: np.ndarray, free: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact FIFO schedule of one server's flow sequence.

    ``t``/``svc`` are one server's arrival and service times in request
    order; ``free`` is the server's clock entering the batch.  Returns
    ``(start, completion, free_out)`` bitwise-equal to the scalar
    recurrence ``start = max(t, free); free = start + svc``.

    The recurrence is a max-plus scan — the idle/busy alternation is
    data-dependent, so any blocked numpy formulation degenerates to one
    ufunc dispatch per (typically short) run, ~40µs each.  A tight loop
    over plain Python floats performs the *identical* IEEE-754 ops
    (CPython floats are doubles) at ~100ns per flow, which is faster
    than ufunc dispatch until runs average thousands of flows, and stays
    bitwise exact by construction.
    """
    start = []
    comp = []
    append_s = start.append
    append_c = comp.append
    for tv, sv in zip(t.tolist(), svc.tolist()):
        s = tv if tv >= free else free
        free = s + sv
        append_s(s)
        append_c(free)
    return np.asarray(start), np.asarray(comp), free


def fifo_schedule_grouped(
    t: np.ndarray,
    svc: np.ndarray,
    group_off: np.ndarray,
    free_in: np.ndarray,
    need_start: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact FIFO schedules for many servers' flow sequences at once.

    ``t``/``svc`` hold the concatenation of per-server flow segments in
    request order (``group_off``, length ``G + 1``, delimits them);
    ``free_in[g]`` is segment ``g``'s server clock entering the batch.
    Returns ``(start, completion, free_out)`` bitwise-equal to running
    :func:`fifo_schedule` over each segment separately; with
    ``need_start=False`` the start array is skipped (``None``) — the
    fast path only consumes completions.

    The scalar recurrence ``s = max(t, free); free = s + svc`` is a
    max-plus scan, so it has no direct ufunc — but its *structure* (the
    partition into idle-started busy runs) can be proposed cheaply with
    an approximate algebraic scan, after which the completions inside a
    run are plain left-to-right additions:

    1. propose run boundaries from ``free_j ≈ S_j + max_i (t_i - P_i)``
       (prefix sums ``S``/``P`` of ``svc``), a rounded rearrangement of
       the exact clock good enough to classify idle vs busy except
       within a few ulps of a tie;
    2. compute completions *exactly*: each run's chain
       ``comp_j = comp_{j-1} + svc_j`` is a row of a length-bucketed
       padded matrix under ``np.add.accumulate`` — per row strictly
       sequential, the identical IEEE-754 adds the scalar loop performs;
    3. verify every proposed boundary against the exact completions
       (``t_j >= comp_{j-1}``) and recompute any mismatching group
       suffix with the scalar loop.  Mismatches require the approximate
       and exact clocks to straddle an arrival, which continuous
       arrival processes essentially never produce — the repair path is
       a correctness backstop, not a steady-state cost.
    """
    n = t.size
    free_out = np.asarray(free_in, dtype=np.float64).copy()
    if n == 0:
        empty = np.empty(0)
        return (empty if need_start else None), np.empty(0), free_out
    gstart = group_off[:-1]
    gend = group_off[1:]
    nonempty = gend > gstart
    gs_pos = gstart[nonempty]
    fi = free_out[nonempty]

    # -- 1. approximate clock -> proposed idle-run boundaries ----------
    S = np.cumsum(svc)
    A = t - S
    A += svc  # A = t - P with P the exclusive service prefix
    # Seed each segment with its entering clock, then run the max scan
    # segment-by-segment: the group count is tiny, so in-place
    # accumulates over views beat any single-pass segmentation trick.
    A[gs_pos] = np.maximum(A[gs_pos], fi - (S[gs_pos] - svc[gs_pos]))
    for lo, hi in zip(group_off[:-1].tolist(), group_off[1:].tolist()):
        if hi > lo:
            np.maximum.accumulate(A[lo:hi], out=A[lo:hi])
    A += S  # approximate free clock after each flow
    idle = np.empty(n, dtype=bool)
    idle[0] = True
    np.greater_equal(t[1:], A[:-1], out=idle[1:])
    idle[gs_pos] = True  # segment starts are forced run boundaries

    # -- 2. exact completions per proposed run -------------------------
    starts_idx = np.flatnonzero(idle)
    run_len = np.diff(starts_idx, append=n)
    s0 = t[starts_idx].copy()
    # Segment-start runs seed from max(t, free_in): a selection between
    # two exact values, no arithmetic.
    gs_run = np.searchsorted(starts_idx, gs_pos)
    tg = t[gs_pos]
    s0[gs_run] = np.where(tg >= fi, tg, fi)
    comp0 = s0 + svc[starts_idx]

    comp = np.empty(n)
    comp[starts_idx] = comp0
    n_runs = starts_idx.size
    max_len = int(run_len.max())
    if max_len > 1:
        # Column stepping: sort runs by length (descending), then march
        # column c across all still-active runs at once — each round is
        # one vectorized ``comp[p] = comp[p-1] + svc[p]``, the identical
        # chained adds the scalar loop performs.  Once only a handful of
        # long tails remain, finish them in a single padded
        # ``add.accumulate`` (rows seeded from the last done column).
        order_r = np.argsort(
            run_len.astype(np.min_scalar_type(max_len)), kind="stable"
        )[::-1]
        starts_desc = starts_idx[order_r]
        cum = np.cumsum(np.bincount(run_len, minlength=max_len + 1))
        c = 1
        tail = 256
        while c < max_len:
            cnt = n_runs - int(cum[c])
            if cnt <= tail:
                break
            p = starts_desc[:cnt] + c
            comp[p] = comp[p - 1] + svc[p]
            c += 1
        if c < max_len:
            cnt = n_runs - int(cum[c])
            if cnt:
                a = starts_desc[:cnt]
                rem = run_len[order_r[:cnt]] - (c - 1)
                base = a + (c - 1)
                cols = np.arange(max_len - (c - 1))
                pos = base[:, None] + cols[None, :]
                valid = cols[None, :] < rem[:, None]
                vals = np.where(valid, svc[np.minimum(pos, n - 1)], 0.0)
                vals[:, 0] = comp[base]
                acc = np.add.accumulate(vals, axis=1)
                comp[pos[valid]] = acc[valid]
    start: np.ndarray | None = None
    if need_start:
        start = np.empty(n)
        start[1:] = comp[:-1]
        start[starts_idx] = s0
    free_out[nonempty] = comp[gend[nonempty] - 1]

    # -- 3. exact verification + scalar repair of any wrong suffix -----
    mism = np.empty(n - 1, dtype=bool) if n > 1 else np.empty(0, dtype=bool)
    if n > 1:
        np.not_equal(t[1:] >= comp[:-1], idle[1:], out=mism)
        mism[gs_pos[gs_pos > 0] - 1] = False
    if mism.any():
        bad = np.flatnonzero(mism) + 1
        bad_groups = np.unique(
            np.searchsorted(group_off, bad, side="right") - 1
        )
        for g in bad_groups.tolist():
            lo, hi = int(group_off[g]), int(group_off[g + 1])
            in_g = bad[(bad >= lo) & (bad < hi)]
            if in_g.size == 0:
                continue
            m = int(in_g[0])
            st, cp, free = fifo_schedule(t[m:hi], svc[m:hi], float(comp[m - 1]))
            if start is not None:
                start[m:hi] = st
            comp[m:hi] = cp
            free_out[g] = free
    return start, comp, free_out
