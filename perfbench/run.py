"""The repository benchmark: end-to-end and per-layer figures per workload.

Run one workload (what the figures in ``BENCHMARK.json`` come from)::

    python3 perfbench/run.py --workload fig13-fifo-fast --seed 1 \\
        --seconds 20 --trace 0

or every workload, each in its own process so each peak RSS is that
workload's own, with a summary table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with nothing
patched.  ``--trace 1`` alternates untraced rounds with rounds whose
layer entry points record spans (``layers.py``), reports the per-layer
metrics, and writes the spans to ``perfbench/out/``.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``; a metric the run cannot produce is an error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]

import numpy as np  # noqa: E402

from layers import SpanRecorder, install_layer_patches  # noqa: E402
from repro.obs.runinfo import peak_rss_bytes  # noqa: E402
from scenarios import SCENARIOS, RoundOutcome  # noqa: E402

#: Fewest measured rounds per run (per side when tracing).
MIN_ROUNDS = 3
#: Each run (and each workload subprocess of ``--workload all``) must end
#: within this many seconds.
RUN_TIMEOUT_S = 170


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else float("nan")


def _git_sha() -> str:
    """HEAD of this checkout; git is told not to look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown (not a git checkout)"


def _provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _measure(scn, state, seconds: float, rec: SpanRecorder | None):
    """Rounds until ``seconds`` have passed; with ``rec``, untraced and
    traced rounds alternate.  Returns ``(untraced, traced)`` outcomes."""
    untraced: list[RoundOutcome] = []
    traced: list[RoundOutcome] = []
    start = time.perf_counter()
    i = 0
    while True:
        work = scn.round_input(state)
        if rec is not None and i % 2 == 1:
            with install_layer_patches(rec), rec.root("round"):
                traced.append(scn.round(work))
        else:
            untraced.append(scn.round(work))
        del work
        gc.collect()
        i += 1
        enough = len(untraced) >= MIN_ROUNDS and (
            rec is None or len(traced) >= MIN_ROUNDS
        )
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced


def _per_layer(rec: SpanRecorder, untraced, traced) -> dict[str, float]:
    """Every per-layer figure: medians over traced rounds (self seconds
    per layer, tallies per round), set-up figures over set-ups."""
    rounds = rec.per_root("round")
    setups = rec.per_root("setup", inclusive=("policies.build",))

    def med(key: str) -> float:
        return _median(r.get(key, 0.0) for r in rounds)

    def per_unit(key: str, unit_key: str, scale: float) -> float:
        return _median(
            r.get(key, 0.0) / r[unit_key] * scale if r.get(unit_key) else 0.0
            for r in rounds
        )

    def extra(key: str) -> float:
        return _median(o.extra.get(key, 0.0) for o in traced)

    requests = [o.ops for o in traced]
    for r, n in zip(rounds, requests):
        r["<requests>"] = n
    out = {
        "workloads.stream_s": med("workloads.stream"),
        "policies.build_s": _median(
            s["<incl>policies.build"] for s in setups
        ),
        "engine.lifecycle_init_s": med("engine.lifecycle_init"),
        "engine.plan_s": med("engine.plan"),
        "engine.plan_flows": med("engine.plan.flows"),
        "engine.plan_us_per_flow": per_unit(
            "engine.plan", "engine.plan.flows", 1e6
        ),
        "engine.fifo_schedule_s": med("engine.fifo_schedule"),
        "engine.fifo_ns_per_flow": per_unit(
            "engine.fifo_schedule", "engine.fifo_schedule.flows", 1e9
        ),
        "engine.fifo_self_s": med("engine.fifo"),
        "engine.ps_self_s": med("engine.ps"),
        "engine.ps_heap_pushes_per_request": per_unit(
            "engine.ps_heap.pushes", "<requests>", 1.0
        ),
        "engine.lifecycle_plan_s": med("engine.lifecycle_plan"),
        "engine.lifecycle_plan_calls": med("engine.lifecycle_plan.calls"),
        "engine.result_s": med("engine.result"),
        "store.read_s": med("store.read"),
        "store.write_s": med("store.write"),
        "store.checkpoint_s": med("store.checkpoint"),
        "store.lineage_recover_s": med("store.lineage_recover"),
        "store.repartition_s": med("store.repartition"),
        "store.rebalance_self_s": med("store.rebalance"),
        "store.block_gets": med("store.block_gets"),
        "store.evicted_blocks": extra("evicted_blocks"),
        "store.recoveries": extra("recoveries"),
        "store.recovery_ratio": _median(
            o.extra["recoveries"] / o.extra["reads"]
            if o.extra.get("reads")
            else 0.0
            for o in traced
        ),
        "core.scale_factor_s": med("core.scale_factor"),
        "core.repartition_plan_s": med("core.repartition_plan"),
        "core.moved_bytes": extra("moved_bytes"),
        "core.repartitioned_fraction": extra("repartitioned_fraction"),
        "trace.unattributed_s": med("<unattributed>"),
        "trace.unattributed_frac": _median(
            r["<unattributed>"] / r["<root>"] for r in rounds
        ),
        "trace.overhead_frac": _median(o.wall for o in traced)
        / _median(o.wall for o in untraced)
        - 1.0,
    }
    for layer in ("timeline", "causal", "popularity"):
        out[f"obs.{layer}.ingest_s"] = med(f"obs.{layer}.ingest")
        out[f"obs.{layer}.finalize_s"] = med(f"obs.{layer}.finalize")
    out["obs.slo.finalize_s"] = med("obs.slo.finalize")
    out["obs.metrics.flush_s"] = med("obs.metrics.flush")
    return out


def _end_to_end(setup_walls, rounds) -> dict[str, float]:
    return {
        "throughput_rps": _median(o.ops / o.wall for o in rounds),
        "peak_rss_mib": peak_rss_bytes() / 2**20,
        "setup_s": _median(setup_walls),
    }


def _select(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
    }


def _print_store_latencies(rounds: list[RoundOutcome]) -> None:
    """Host-time latencies of the closed loop, with sample counts; each
    tail percentile leaves at least ten samples beyond it."""
    reads = [s for o in rounds for s in o.samples["read"]]
    writes = [s for o in rounds for s in o.samples["write"]]
    rebalances = [s for o in rounds for s in o.samples["rebalance"]]
    print("  store-rw host latencies (samples pooled over untraced rounds)")
    rows = [
        ("read_p50_ms", _percentile(reads, 50) * 1e3, "ms", len(reads)),
        ("read_p99_ms", _percentile(reads, 99) * 1e3, "ms", len(reads)),
        ("write_p50_ms", _percentile(writes, 50) * 1e3, "ms", len(writes)),
        ("write_p95_ms", _percentile(writes, 95) * 1e3, "ms", len(writes)),
        ("rebalance_s", _median(rebalances), "s", len(rebalances)),
    ]
    for name, value, unit, n in rows:
        print(f"    {name:<16} {value:>12.4f} {unit:<4} (n={n})")


def _print_model_outputs(rounds: list[RoundOutcome]) -> None:
    print(
        "  model outputs (simulated time, seeded; median over untraced"
        " rounds; printed, not gated)"
    )
    for key, label, unit in (
        ("sim_p50_s", "latency p50", "s"),
        ("sim_p99_s", "latency p99", "s"),
        ("sim_eta", "eta", ""),
        ("sim_hit_ratio", "hit ratio", ""),
    ):
        value = _median(o.extra[key] for o in rounds if key in o.extra)
        print(f"    {label:<16} {value:>12.4f} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = _spec()
    scn = SCENARIOS[name]
    rec = SpanRecorder() if trace else None

    setup_walls = []
    state = None
    for _ in range(scn.setups):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        if rec is not None:
            with install_layer_patches(rec), rec.root("setup"):
                state = scn.setup(seed)
        else:
            state = scn.setup(seed)
        setup_walls.append(time.perf_counter() - t0)
    scn.prepare(state)
    untraced, traced = _measure(scn, state, seconds, rec)
    rounds = untraced + traced
    paths = scn.path_checks(state, rounds)

    attempted = sum(o.ops for o in rounds)
    failed = sum(o.failed for o in rounds)
    paths_ok = all(ok for _, ok in paths)

    print(f"== {name} (seed {seed}, {scn.mode}, trace {int(trace)})")
    print(f"  why: {scn.why}")
    print("  params: " + json.dumps(scn.params()))
    print("  provenance: " + json.dumps(_provenance()))
    print(
        f"  rounds: {len(untraced)} untraced, {len(traced)} traced;"
        f" {attempted} operations, {failed} failed,"
        f" error_rate {failed / attempted:.6f}"
    )
    for text, ok in paths:
        print(f"  path {'ok  ' if ok else 'FAIL'} {text}")

    if rec is None:
        values = _end_to_end(setup_walls, untraced)
        metrics = _select(spec["end_to_end"], values)
        print("  end-to-end (host time)")
        print(f"    {'error_rate':<36} {failed / attempted:>14.6g} ratio")
    else:
        values = _per_layer(rec, untraced, traced)
        metrics = _select(spec["per_layer"], values)
        out = HERE / "out" / f"spans-{name}-seed{seed}.json"
        rec.write(out, {"workload": name, "seed": seed, **_provenance()})
        print(f"  per-layer (traced rounds; spans -> {out.relative_to(ROOT)})")
    for key, m in metrics.items():
        print(f"    {key:<36} {m['value']:>14.6g} {m['unit']}")
    if "read" in untraced[0].samples:
        _print_store_latencies(untraced)
    else:
        _print_model_outputs(untraced)

    print(
        json.dumps(
            {
                "correct": failed == 0 and paths_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; a table of every metric."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
    for name in SCENARIOS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument(
        "--workload", required=True, choices=[*SCENARIOS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )


if __name__ == "__main__":
    raise SystemExit(main())
