"""The benchmark's four workloads: set-up, one measured round, checks.

Every workload is a function of its seed only.  A workload is measured
in *rounds* of fixed size, each with inputs drawn from the run seed and
the round index, and the reported figure is a median over rounds:

* the three ``fig13-*`` workloads are offline batch runs — one round is
  one ``simulate_reads`` call over a seeded Poisson stream;
* ``store-rw`` is a closed loop with one client — one round is a fixed
  number of reads and writes followed by one ``rebalance()``, on a copy
  of the warmed-up store.

Each round checks the program's outputs; ``failed`` counts the
operations whose check did not hold.  The fig13 population comes from
``bench_engine_scale._workload``, the helper the engine-scale harness
already uses, so the population is built in one place.
"""

from __future__ import annotations

import copy
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from bench_engine_scale import _workload as fig13_workload
from repro.cluster.engine import RequestLifecycle, resolve_discipline
from repro.cluster.simulation import SimulationConfig, simulate_reads
from repro.cluster.stragglers import StragglerInjector
from repro.common import ClusterSpec, Gbps
from repro.obs.causal import CausalConfig
from repro.obs.popularity import PopularityConfig
from repro.obs.slo import default_slo_config
from repro.obs.timeline import TimelineConfig
from repro.system import SPCacheSystem
from repro.workloads import PoissonStream

__all__ = ["SCENARIOS", "RoundOutcome"]

#: fig13: 500 Zipf(1.05) files of 100 MB on 30 x 1 Gbps, 20 req/s total.
FIG13_RATE = 20.0
#: Requests per planned batch on the batched fifo workloads.
BATCH = 4096


@dataclass
class RoundOutcome:
    """One measured round: work done, host wall, and what it produced."""

    ops: int
    failed: int
    wall: float
    #: Host-time samples in seconds (``store-rw``: per read, per write,
    #: per rebalance).
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Counts and model outputs the round produced (not timed).
    extra: dict[str, float] = field(default_factory=dict)


# -- simulator workloads --------------------------------------------------


def _fast_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        discipline="fifo",
        jitter="deterministic",
        stragglers=StragglerInjector.natural(),
        seed=seed,
        batch_size=BATCH,
    )


def _observed_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        discipline="fifo",
        stragglers=StragglerInjector.natural(),
        seed=seed,
        batch_size=BATCH,
        timeline=TimelineConfig(),
        causal=CausalConfig(),
        popularity=PopularityConfig(),
        slo=default_slo_config(),
    )


def _ps_config(seed: int) -> SimulationConfig:
    return SimulationConfig(stragglers=StragglerInjector.natural(), seed=seed)


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run.  Rounds draw independent inputs,
    so a run's median averages over inputs as well as over host noise."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class SimState:
    pop: Any
    cluster: Any
    policy: Any
    seed: int
    #: Rounds handed out so far.
    rounds: int = 0


@dataclass
class SimRound:
    state: SimState
    stream: PoissonStream
    config: SimulationConfig
    file_ids: np.ndarray
    expected_bytes: float


class SimScenario:
    """SP-Cache on the fig13 population through ``simulate_reads``."""

    mode = "batch"
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5

    def __init__(
        self,
        name: str,
        why: str,
        n_requests: int,
        make_config,
        describe: str,
        expect: tuple[str, str],
    ) -> None:
        self.name = name
        self.why = why
        self.n_requests = n_requests
        self.make_config = make_config
        self.describe = describe
        #: ``(attribute, value)`` the path assertion requires.
        self.expect = expect

    def params(self) -> dict[str, Any]:
        return {
            "population": "500 files x 100 MB, Zipf(1.05)",
            "cluster": "30 servers x 1 Gbps",
            "rate_rps": FIG13_RATE,
            "policy": "SP-Cache (Algorithm 1, seed 0)",
            "config": self.describe,
            "requests_per_round": self.n_requests,
            "round_input": "PoissonStream and engine seed from "
            "SeedSequence([seed, round])",
        }

    def setup(self, seed: int) -> SimState:
        """Population + policy build (Algorithm 1); streams are lazy."""
        pop, cluster, policy = fig13_workload(FIG13_RATE)
        return SimState(pop, cluster, policy, seed)

    def prepare(self, state: SimState) -> None:
        """Untimed warm-up run on a small stream."""
        warm = PoissonStream(
            state.pop, n_requests=max(self.n_requests // 20, 50), seed=0
        )
        simulate_reads(
            warm, state.policy, state.cluster, self.make_config(state.seed)
        )

    def round_input(self, state: SimState) -> SimRound:
        """The next round's stream and config, and its expected outputs."""
        seed = round_seed(state.seed, state.rounds)
        state.rounds += 1
        stream = PoissonStream(state.pop, n_requests=self.n_requests, seed=seed)
        file_ids = stream.materialize().file_ids
        return SimRound(
            state,
            stream,
            self.make_config(seed),
            file_ids,
            float(state.pop.sizes[file_ids].sum()),
        )

    def path_checks(
        self, state: SimState, rounds: list[RoundOutcome]
    ) -> list[tuple[str, bool]]:
        """Does the workload still reach the layer it is named for?"""
        config = self.make_config(state.seed)
        engine = resolve_discipline(config.discipline).name
        probe = PoissonStream(state.pop, n_requests=1, seed=0)
        lc = RequestLifecycle(probe, state.policy, state.cluster, config, engine)
        attr, want = self.expect
        got = (
            engine
            if attr == "discipline"
            else getattr(lc.batch_planner, "rng_mode", None)
        )
        return [(f"{attr} == {want!r} (got {got!r})", got == want)]

    def round(self, r: SimRound) -> RoundOutcome:
        n = self.n_requests
        t0 = time.perf_counter()
        try:
            res = simulate_reads(
                r.stream, r.state.policy, r.state.cluster, r.config
            )
        except Exception:  # one failed round counts all its requests
            traceback.print_exc(file=sys.stderr)
            return RoundOutcome(n, n, time.perf_counter() - t0)
        wall = time.perf_counter() - t0
        failed, extra = _check_sim(res, r, n)
        return RoundOutcome(n, failed, wall, extra=extra)


def _check_sim(res, r: SimRound, n: int) -> tuple[int, dict]:
    """Requests whose output check failed, and the model outputs.

    A request fails when its latency is not finite and positive.  Every
    request of the round fails when a whole-run check does not hold:
    the completed count equals the count issued and the engine saw the
    issued files; the hit/miss ledger covers every request (the engine
    keeps one only under a cache budget, which no fig13 workload sets,
    so both counts must then be zero); the bytes served equal the sum of
    the requested files' sizes, because SP-Cache pieces sum to the file;
    and eta is finite.
    """
    lat = res.latencies
    m = res.metrics
    ledger = res.hits + res.misses
    whole_run = (
        lat.size == n
        and m["requests"] == n
        and np.array_equal(res.file_ids, r.file_ids)
        and ledger == (n if r.config.cache_budget is not None else 0)
        and math.isclose(
            m["bytes_served"], r.expected_bytes, rel_tol=1e-9
        )
        and math.isfinite(m["imbalance_eta"])
    )
    if not whole_run:
        print(f"{n} requests failed a whole-run check", file=sys.stderr)
        return n, {}
    ok = np.isfinite(lat) & (lat > 0)
    summary = res.summary()
    extra = {
        "sim_p50_s": summary.p50,
        "sim_p99_s": summary.p99,
        "sim_eta": float(m["imbalance_eta"]),
        "sim_hit_ratio": res.hit_ratio,
    }
    return int(n - np.count_nonzero(ok)), extra


# -- store workload -------------------------------------------------------


@dataclass
class StoreState:
    system: SPCacheSystem
    expected: dict[int, bytes]
    #: Slot -> file id; reads draw a slot from a fixed Zipf, so the read
    #: distribution stays the same while writes replace hot slots.
    slots: np.ndarray
    slot_cdf: np.ndarray
    #: The hottest slots, which new files take over.
    hot_slots: np.ndarray
    op_rng: np.random.Generator
    next_id: int
    seed: int
    #: Rounds handed out so far.
    rounds: int = 0


class StoreScenario:
    """The byte-level ``SPCacheSystem``: one closed-loop client."""

    name = "store-rw"
    mode = "closed-loop, 1 client"
    why = (
        "only workload that writes beside reads; reaches the store, "
        "LRU eviction, under-store recovery and live Algorithm 1/2 "
        "rebalances"
    )
    #: The preload takes tens of milliseconds: more set-ups steady it.
    setups = 9
    n_servers = 30
    n_files = 300
    #: Equal-sized files, as in the paper's populations: which file a
    #: seed makes hot then does not change the bytes a read moves.
    file_bytes = 64 << 10
    #: Per-worker LRU capacity as a share of the preloaded bytes per
    #: worker: below 1, so evictions and recoveries happen.
    capacity_share = 0.5
    ops_per_round = 4000
    write_share = 0.02
    zipf = 1.05
    #: New files replace a slot among the hottest ``hot_share`` slots, so
    #: every rebalance finds freshly written hot files to split.
    hot_share = 0.1

    def params(self) -> dict[str, Any]:
        return {
            "cluster": f"{self.n_servers} workers",
            "preload": f"{self.n_files} files of "
            f"{self.file_bytes >> 10} KiB, written and checkpointed",
            "writes": f"new {self.file_bytes >> 10} KiB file + checkpoint",
            "worker_lru_capacity": f"{self.capacity_share} x preload "
            "bytes per worker",
            "ops_per_round": self.ops_per_round,
            "write_share": self.write_share,
            "reads": f"Zipf({self.zipf}) over {self.n_files} slots",
            "rebalance": "one per round",
        }

    def setup(self, seed: int) -> StoreState:
        """The preload: build the system, write and checkpoint each file."""
        rng = np.random.default_rng(seed)
        capacity = (
            self.capacity_share * self.file_bytes * self.n_files
            / self.n_servers
        )
        system = SPCacheSystem(
            ClusterSpec(n_servers=self.n_servers, bandwidth=Gbps),
            worker_capacity=capacity,
            seed=seed,
        )
        expected: dict[int, bytes] = {}
        for fid in range(self.n_files):
            data = rng.bytes(self.file_bytes)
            system.write(fid, data)
            system.checkpoint(fid)
            expected[fid] = data
        weights = (rng.permutation(self.n_files) + 1.0) ** -self.zipf
        cdf = np.cumsum(weights)
        n_hot = max(1, int(self.hot_share * self.n_files))
        return StoreState(
            system=system,
            expected=expected,
            slots=np.arange(self.n_files),
            slot_cdf=cdf / cdf[-1],
            hot_slots=np.argsort(-weights, kind="stable")[:n_hot],
            op_rng=rng,
            next_id=self.n_files,
            seed=seed,
        )

    def prepare(self, state: StoreState) -> None:
        """Untimed warm-up round: its rebalance splits the hot files."""
        self.round(state)

    def round_input(self, state: StoreState) -> StoreState:
        """A copy of the warmed-up store with the round's own operation
        RNG: every round starts from the same store, so the file count and
        memory do not grow from round to round."""
        work = copy.deepcopy(state)
        work.op_rng = np.random.default_rng(
            round_seed(state.seed, state.rounds)
        )
        state.rounds += 1
        return work

    def path_checks(
        self, state: StoreState, rounds: list[RoundOutcome]
    ) -> list[tuple[str, bool]]:
        evicted = sum(r.extra["evicted_blocks"] for r in rounds)
        recoveries = sum(r.extra["recoveries"] for r in rounds)
        moved = [r.extra["moved_bytes"] for r in rounds]
        return [
            (f"evictions > 0 (got {evicted:.0f})", evicted > 0),
            (f"recoveries > 0 (got {recoveries:.0f})", recoveries > 0),
            (
                f"every rebalance moves bytes > 0 (least {min(moved):.0f})",
                min(moved) > 0,
            ),
        ]

    def round(self, state: StoreState) -> RoundOutcome:
        system = state.system
        rng = state.op_rng
        n_ops = self.ops_per_round
        is_write = rng.random(n_ops) < self.write_share
        picks = np.searchsorted(state.slot_cdf, rng.random(n_ops), "right")
        read_s: list[float] = []
        write_s: list[float] = []
        failed = 0
        evicted0 = sum(len(w.evicted_blocks) for w in system.workers)
        recov0 = system.client.recoveries
        clock = time.perf_counter
        t_round = clock()
        for j in range(n_ops):
            try:
                if is_write[j]:
                    fid = state.next_id
                    state.next_id += 1
                    data = rng.bytes(self.file_bytes)
                    t0 = clock()
                    system.write(fid, data)
                    system.checkpoint(fid)
                    write_s.append(clock() - t0)
                    state.expected[fid] = data
                    slot = rng.choice(state.hot_slots)
                    state.slots[slot] = fid
                else:
                    fid = int(state.slots[picks[j]])
                    t0 = clock()
                    got = system.read(fid)
                    read_s.append(clock() - t0)
                    if got != state.expected[fid]:
                        failed += 1
            except Exception:  # count the op as failed and keep going
                traceback.print_exc(file=sys.stderr)
                failed += 1
        t0 = clock()
        report = system.rebalance()
        rebalance_s = clock() - t0
        wall = clock() - t_round
        extra = {
            "reads": float(len(read_s)),
            "evicted_blocks": float(
                sum(len(w.evicted_blocks) for w in system.workers) - evicted0
            ),
            "recoveries": float(system.client.recoveries - recov0),
            "moved_bytes": float(report.moved_bytes),
            "repartitioned_fraction": report.repartitioned_fraction,
        }
        return RoundOutcome(
            n_ops,
            failed,
            wall,
            samples={"read": read_s, "write": write_s,
                     "rebalance": [rebalance_s]},
            extra=extra,
        )


SCENARIOS = {
    s.name: s
    for s in (
        SimScenario(
            "fig13-fifo-fast",
            "batched fifo, deterministic service: BatchPlanner scan mode "
            "and fifo_schedule_grouped do nearly all the work, no heap, "
            "no observers",
            1 << 18,
            _fast_config,
            "fifo, deterministic service, natural stragglers, "
            f"batch {BATCH}, observers off",
            ("rng_mode", "scan"),
        ),
        SimScenario(
            "fig13-fifo-observed",
            "batched fifo with jitter and stragglers (loop planning) and "
            "all four observers on: observer ingest/finalize dominate",
            25_000,
            _observed_config,
            "fifo, exponential service, natural stragglers, "
            f"batch {BATCH}, timeline+causal+popularity+SLO on",
            ("rng_mode", "loop"),
        ),
        SimScenario(
            "fig13-ps",
            "the default ps discipline (testbed model): the shared event "
            "heap dominates, planning and observers barely register",
            500,
            _ps_config,
            "ps, exponential service, natural stragglers, no batching, "
            "observers off",
            ("discipline", "ps"),
        ),
        StoreScenario(),
    )
}
