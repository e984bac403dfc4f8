"""The slot-table ``ps``/``limited(c)`` engine against the heap oracle.

``ps_heap_oracle._run_heap`` is the per-flow event-heap engine the slot
table replaced.  Both must agree bit for bit — latencies, per-server
bytes, hit/miss counts, the metrics snapshot, and the timeline and
causal sections (floats compared through ``float.hex`` / exact JSON) —
on hypothesis-drawn workloads, and on three hand-built event ties whose
order is visible in the trace.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimulationConfig, StragglerInjector, simulate_reads
from repro.cluster.client import ReadOp
from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec
from repro.obs import CausalConfig, RingBufferSink, TimelineConfig, Tracer
from repro.obs.events import READ, READ_DONE
from repro.policies import ECCachePolicy, SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.arrivals import ArrivalTrace

from .ps_heap_oracle import run_oracle

DISCIPLINES = ("ps", "limited(1)", "limited(2)", "limited(3)", "limited(inf)")


def _hexes(values) -> list[str]:
    return [float(x).hex() for x in np.asarray(values, dtype=np.float64)]


def _canonical(section) -> str:
    return json.dumps(section, sort_keys=True)


def _assert_bitwise(new, old) -> None:
    assert _hexes(new.latencies) == _hexes(old.latencies)
    assert _hexes(new.server_bytes) == _hexes(old.server_bytes)
    assert (new.hits, new.misses) == (old.hits, old.misses)
    assert _canonical(new.metrics) == _canonical(old.metrics)
    assert _canonical(new.timeline) == _canonical(old.timeline)
    assert _canonical(new.causal) == _canonical(old.causal)


@st.composite
def _workloads(draw):
    n_servers = draw(st.integers(1, 8))
    client = draw(st.sampled_from([None, 1e15, 6e7]))
    cluster = ClusterSpec(
        n_servers=n_servers, bandwidth=1e8, client_bandwidth=client
    )
    pop = paper_fileset(
        draw(st.integers(2, 12)),
        size_mb=draw(st.sampled_from([5, 20])),
        zipf_exponent=draw(st.floats(0.6, 1.4)),
        total_rate=draw(st.floats(0.5, 30.0)),
    )
    if n_servers >= 3 and draw(st.booleans()):
        policy = ECCachePolicy(pop, cluster, k=2, n=3)
    else:
        policy = SPCachePolicy(
            pop, cluster, alpha=draw(st.sampled_from([5e-8, 2e-7, 1e-6])),
            seed=5,
        )
    trace = poisson_trace(
        pop, n_requests=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 2**16)),
    )
    stragglers = draw(
        st.sampled_from(
            [
                StragglerInjector.none(),
                StragglerInjector.injected(),
                StragglerInjector.intensive(),
            ]
        )
    )
    # A budget that holds the largest footprint but not every file.
    footprints = [policy.footprint(f) for f in range(pop.n_files)]
    budget = max(max(footprints), 0.6 * sum(footprints))
    observe = draw(st.booleans())
    config = SimulationConfig(
        discipline=draw(st.sampled_from(DISCIPLINES)),
        batch_size=draw(st.sampled_from([None, 1, 7, 64])),
        jitter=draw(st.sampled_from(["deterministic", "exponential"])),
        goodput=GoodputModel() if draw(st.booleans()) else None,
        stragglers=stragglers,
        cache_budget=budget if draw(st.booleans()) else None,
        miss_penalty=2.0,
        seed=draw(st.integers(0, 2**16)),
        timeline=TimelineConfig() if observe else None,
        causal=CausalConfig() if observe else None,
    )
    return trace, policy, cluster, config


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_workloads())
def test_slot_table_matches_heap_oracle(workload):
    trace, policy, cluster, config = workload
    new = simulate_reads(trace, policy, cluster, config)
    old = run_oracle(trace, policy, cluster, config)
    _assert_bitwise(new, old)


# -- event ties the oracle pins ---------------------------------------------


class _FixedPlans:
    """File ``f`` is read as ``plans[f] = (servers, sizes)``."""

    def __init__(self, plans):
        self.plans = plans

    def plan_read(self, fid, rng):
        servers, sizes = self.plans[fid]
        return ReadOp(
            server_ids=np.array(servers), sizes=np.array(sizes, dtype=float)
        )

    def footprint(self, fid):
        return float(sum(self.plans[fid][1]))


class _ServerZeroStraggles:
    """Reads served by server 0 report late by their own transfer time
    (multiplier 2); every other read reports on time."""

    enabled = True
    mode = "per_read"

    def multipliers(self, server_ids, straggler_mask=None, seed=None):
        return np.where(np.asarray(server_ids) == 0, 2.0, 1.0)


def _traced_pair(times, plans, discipline, **overrides):
    """Run both engines on a two-server, 1 byte/s cluster; return the
    ``(event, req)`` sequence of each trace."""
    trace = ArrivalTrace(np.array(times), np.arange(len(times)))
    cluster = ClusterSpec(n_servers=2, bandwidth=1.0, client_bandwidth=1e12)
    orders = []
    for run in (simulate_reads, run_oracle):
        sink = RingBufferSink()
        config = SimulationConfig(
            discipline=discipline,
            jitter="deterministic",
            goodput=None,
            seed=0,
            tracer=Tracer(sink),
            **overrides,
        )
        run(trace, _FixedPlans(plans), cluster, config)
        orders.append(
            [
                (r["event"], r["req"])
                for r in sink.records
                if r["event"] in (READ, READ_DONE)
            ]
        )
    return orders


@pytest.mark.parametrize("discipline", ["ps", "limited(2)"])
def test_tie_equal_completions_smaller_flow_first(discipline):
    # Request 0 (flow 0) moves 2 bytes from t=0, request 1 (flow 1)
    # moves 1 byte from t=1: both finish at exactly t=2.
    new, old = _traced_pair(
        [0.0, 1.0], {0: ([0], [2.0]), 1: ([1], [1.0])}, discipline
    )
    assert new == old
    assert new[-2:] == [(READ_DONE, 0), (READ_DONE, 1)]


@pytest.mark.parametrize("discipline", ["ps", "limited(2)"])
def test_tie_equal_completions_within_a_request(discipline):
    # One request, two equal flows on two servers: both finish at t=1,
    # so the larger flow id completes last and fires the join.
    trace = ArrivalTrace(np.array([0.0]), np.array([0]))
    cluster = ClusterSpec(n_servers=2, bandwidth=1.0, client_bandwidth=1e12)
    planner = _FixedPlans({0: ([0, 1], [1.0, 1.0])})
    config = SimulationConfig(
        discipline=discipline,
        jitter="deterministic",
        goodput=None,
        seed=0,
        causal=CausalConfig(),
    )
    new = simulate_reads(trace, planner, cluster, config)
    old = run_oracle(trace, planner, cluster, config)
    _assert_bitwise(new, old)
    assert new.causal["chains"][0]["crit"] == 1


@pytest.mark.parametrize("discipline", ["ps", "limited(1)"])
def test_tie_arrival_before_completion(discipline):
    # Request 0's 1-byte flow finishes at t=1, the instant request 1
    # arrives on the same server: the arrival is processed first.
    new, old = _traced_pair(
        [0.0, 1.0], {0: ([0], [1.0]), 1: ([0], [1.0])}, discipline
    )
    assert new == old
    assert new == [(READ, 0), (READ, 1), (READ_DONE, 0), (READ_DONE, 1)]


@pytest.mark.parametrize("discipline", ["ps", "limited(1)"])
def test_tie_completion_before_straggler_report(discipline):
    # Request 0's flow on server 0 finishes at t=1 and reports at t=2;
    # request 1's 2-byte flow on server 1 completes at t=2 on time.
    new, old = _traced_pair(
        [0.0, 0.0],
        {0: ([0], [1.0]), 1: ([1], [2.0])},
        discipline,
        stragglers=_ServerZeroStraggles(),
    )
    assert new == old
    assert new[-2:] == [(READ_DONE, 1), (READ_DONE, 0)]
