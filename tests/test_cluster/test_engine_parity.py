"""Cross-discipline parity suite for the pluggable engine core.

Three layers of evidence that the refactor changed *structure*, not
*physics*:

* golden values — ``golden_engine_parity.json`` was generated by the
  pre-refactor monolithic engines (``simulation.py`` / ``ps_engine.py``)
  on a fixed-seed scenario exercising goodput, exponential jitter,
  stragglers, and a throttled LRU; today's ``fifo``/``ps`` disciplines
  must reproduce it byte-for-byte (floats compared via ``float.hex``);
* discipline endpoints — ``limited(1)`` collapses to ``fifo`` and
  ``limited(inf)`` / large-``c`` ``limited`` collapse to ``ps`` on a
  shared scenario;
* registry semantics — spec parsing, instances, and custom
  registrations.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    SimulationConfig,
    StragglerInjector,
    available_disciplines,
    register_discipline,
    resolve_discipline,
    simulate_reads,
)
from repro.cluster.engine import (
    FifoDiscipline,
    LimitedDiscipline,
    PSDiscipline,
    RequestLifecycle,
)
from repro.cluster.engine.registry import _REGISTRY
from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.bing import BingStragglerProfile

GOLDEN = Path(__file__).parent / "golden_engine_parity.json"


def _golden_scenario():
    """Must stay in lockstep with the generator that wrote the JSON."""
    cluster = ClusterSpec(n_servers=6, bandwidth=1e8, client_bandwidth=4e8)
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    policy = SPCachePolicy(pop, cluster, alpha=2e-7, seed=5)
    trace = poisson_trace(pop, n_requests=400, seed=11)
    return trace, policy, cluster, pop


@pytest.mark.parametrize("discipline", ["fifo", "ps"])
def test_refactored_engines_match_pre_refactor_golden(discipline):
    """Fixed seeds reproduce the monolithic engines byte-for-byte."""
    trace, policy, cluster, pop = _golden_scenario()
    config = SimulationConfig(
        discipline=discipline,
        jitter="exponential",
        goodput=GoodputModel(),
        stragglers=StragglerInjector(BingStragglerProfile(probability=0.2)),
        cache_budget=pop.total_bytes * 0.6,
        miss_penalty=2.0,
        seed=23,
    )
    result = simulate_reads(trace, policy, cluster, config)
    golden = json.loads(GOLDEN.read_text())[discipline]
    assert [float(x).hex() for x in result.latencies] == golden["latencies"]
    assert [
        float(x).hex() for x in result.server_bytes
    ] == golden["server_bytes"]
    assert result.hits == golden["hits"]
    assert result.misses == golden["misses"]


def _shared_scenario():
    cluster = ClusterSpec(n_servers=5, bandwidth=1e8, client_bandwidth=1e15)
    pop = paper_fileset(30, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    policy = SPCachePolicy(pop, cluster, alpha=2e-7, seed=5)
    trace = poisson_trace(pop, n_requests=300, seed=11)
    return trace, policy, cluster


def _run(discipline, **overrides):
    trace, policy, cluster = _shared_scenario()
    base = dict(
        discipline=discipline, jitter="deterministic", goodput=None, seed=23
    )
    base.update(overrides)
    return simulate_reads(trace, policy, cluster, SimulationConfig(**base))


def test_limited_one_matches_fifo():
    """c=1 serializes each server: the FIFO M/G/1 model falls out."""
    fifo = _run("fifo")
    lim1 = _run("limited(1)")
    np.testing.assert_allclose(lim1.latencies, fifo.latencies)
    np.testing.assert_allclose(lim1.server_bytes, fifo.server_bytes)


def test_limited_inf_is_exactly_ps():
    """Unbounded concurrency *is* processor sharing, bit for bit."""
    ps = _run("ps")
    inf = _run("limited(inf)")
    assert np.array_equal(inf.latencies, ps.latencies)
    assert np.array_equal(inf.server_bytes, ps.server_bytes)


def test_limited_large_c_matches_ps():
    """A never-binding finite cap behaves like pure PS."""
    ps = _run("ps")
    big = _run("limited(1000000)")
    np.testing.assert_allclose(big.latencies, ps.latencies)


def test_limited_interpolates_between_fifo_and_ps():
    """A binding cap lands the mean between the two pure disciplines."""
    fifo_mean = _run("fifo").latencies.mean()
    ps_mean = _run("ps").latencies.mean()
    lim_mean = _run("limited(4)").latencies.mean()
    lo, hi = sorted((fifo_mean, ps_mean))
    assert lo <= lim_mean <= hi


def test_limited_queues_beyond_capacity():
    """Three simultaneous unit flows, cap 2, rate-1 server: the first two
    share (done at t=2), the third then runs alone (done at t=3)."""
    from repro.cluster.client import ReadOp
    from repro.workloads.arrivals import ArrivalTrace

    class One:
        def plan_read(self, fid, rng):
            return ReadOp(server_ids=np.array([0]), sizes=np.array([1.0]))

        def footprint(self, fid):
            return 1.0

    trace = ArrivalTrace(np.zeros(3), np.zeros(3, dtype=np.int64))
    cluster = ClusterSpec(n_servers=1, bandwidth=1.0, client_bandwidth=1e12)
    config = SimulationConfig(
        discipline="limited(2)", jitter="deterministic", goodput=None, seed=0
    )
    result = simulate_reads(trace, One(), cluster, config)
    assert np.allclose(np.sort(result.latencies), [2.0, 2.0, 3.0])


# -- registry semantics -------------------------------------------------


def test_builtins_are_registered():
    assert {"fifo", "ps", "limited"} <= set(available_disciplines())


def test_resolve_spec_strings():
    assert isinstance(resolve_discipline("fifo"), FifoDiscipline)
    assert isinstance(resolve_discipline("ps"), PSDiscipline)
    lim = resolve_discipline("limited(4)")
    assert isinstance(lim, LimitedDiscipline)
    assert lim.concurrency == 4
    assert resolve_discipline("limited(inf)").concurrency == math.inf


def test_resolve_passes_instances_through():
    instance = LimitedDiscipline(3)
    assert resolve_discipline(instance) is instance
    config = SimulationConfig(discipline=instance)
    result = _run(config.discipline)
    assert result.metrics["engine"] == "limited(3)"


def test_resolve_rejects_bad_specs():
    with pytest.raises(ValueError, match="malformed discipline spec"):
        resolve_discipline("m/g/k")
    with pytest.raises(ValueError, match="unknown discipline"):
        SimulationConfig(discipline="bogus")
    with pytest.raises(ValueError, match="not a number"):
        resolve_discipline("limited(soon)")
    with pytest.raises(ValueError):
        resolve_discipline("limited(0)")
    with pytest.raises(TypeError):
        resolve_discipline(42)


@pytest.mark.parametrize("spec", ["limited(nan)", "limited(-inf)"])
def test_resolve_rejects_non_finite_limited_specs(spec):
    with pytest.raises(ValueError, match="limited\\(c\\) needs an integer"):
        resolve_discipline(spec)


@pytest.mark.parametrize("concurrency", [math.nan, -math.inf])
def test_limited_rejects_non_finite_concurrency(concurrency):
    with pytest.raises(ValueError, match="limited\\(c\\) needs an integer"):
        LimitedDiscipline(concurrency)


def test_custom_discipline_registration():
    """Third-party disciplines plug into simulate_reads by name."""

    class InstantDiscipline:
        """Every read completes in zero time — a degenerate but legal model."""

        name = "instant"

        def run(self, lc):
            latencies = np.zeros(lc.n_requests)
            server_bytes = np.zeros(lc.cluster.n_servers)
            for j in range(lc.n_requests):
                op = lc.plan(int(lc.trace.file_ids[j]))
                server_bytes[op.server_ids] += op.sizes
                missed = lc.admit(int(lc.trace.file_ids[j]))
                latencies[j] = lc.request_latency(
                    0.0, 0.0, op.post_fraction, op.post_seconds, missed
                )
            return lc.result(latencies, server_bytes)

    register_discipline("instant", InstantDiscipline)
    try:
        trace, policy, cluster = _shared_scenario()
        result = simulate_reads(
            trace,
            policy,
            cluster,
            SimulationConfig(discipline="instant", seed=1),
        )
        assert result.metrics["engine"] == "instant"
        assert np.all(result.latencies == 0.0)
        assert result.server_bytes.sum() > 0
    finally:
        _REGISTRY.pop("instant", None)


def test_lifecycle_validates_inputs_with_type_errors():
    """Real exceptions, not asserts — they must survive ``python -O``."""
    trace, policy, cluster = _shared_scenario()
    config = SimulationConfig(seed=0)
    with pytest.raises(TypeError, match="ArrivalTrace"):
        simulate_reads([(0.0, 1)], policy, cluster, config)
    with pytest.raises(TypeError, match="ClusterSpec"):
        simulate_reads(trace, policy, object(), config)
    with pytest.raises(TypeError, match="ReadPlanner"):
        simulate_reads(trace, object(), cluster, config)
    with pytest.raises(TypeError, match="SimulationConfig"):
        RequestLifecycle(trace, policy, cluster, {"seed": 0}, engine="x")
