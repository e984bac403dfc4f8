"""The run_all CLI: argument handling, output files, and run telemetry."""

from __future__ import annotations

import json
import math

import pytest

from repro.cluster.engine import get_batch_size
from repro.experiments import registry as experiment_registry
from repro.experiments.registry import experiment
from repro.experiments.run_all import main, run_experiment
from repro.obs import (
    get_registry,
    load_events,
    load_manifest,
    span_tree,
    validate_manifest,
)
from repro.obs.report import diff_manifests
from repro.obs.timeline import get_timeline_config
from tests.test_obs.test_channel import assert_channels_idle


def test_single_cheap_experiment(tmp_path, capsys):
    code = main(["--only", "fig06", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig06" in out and "goodput_1gbps" in out
    written = (tmp_path / "fig06.txt").read_text()
    assert "partitions" in written


def test_unknown_experiment_errors(tmp_path, capsys):
    code = main(["--only", "fig99", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "fig01" in err and "theorem1" in err  # fail-fast lists valid names


def test_only_accepts_comma_lists_and_globs(tmp_path, capsys):
    code = main(["--only", "fig06,fig0[34]", "--scale", "0.05",
                 "--out", str(tmp_path)])
    assert code == 0
    for name in ("fig03", "fig04", "fig06"):
        assert (tmp_path / f"{name}.json").exists()
    assert not (tmp_path / "fig05.json").exists()


def test_list_prints_registry_table(tmp_path, capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "experiment registry" in out
    assert "fig13" in out and "theorem1" in out
    assert "sweep_params" in out and "timeline" in out


def test_jobs_rejects_tracing_and_bad_counts(tmp_path, capsys):
    assert main(["--jobs", "0", "--out", str(tmp_path)]) == 2
    assert main(["--jobs", "2", "--trace", str(tmp_path / "t.jsonl"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--jobs" in err


@pytest.mark.parametrize(
    "bad",
    [["--batch-size", "0"], ["--slo", "p99<<"], ["--jobs", "0"],
     ["--only", "fig99"]],
    ids=["batch-size", "slo", "jobs", "only"],
)
def test_rejected_arguments_leave_no_out_dir(tmp_path, capsys, bad):
    out = tmp_path / "results"
    assert main([*bad, "--out", str(out)]) == 2
    assert not out.exists()


def test_parallel_pass_matches_serial_modulo_wall(tmp_path, capsys):
    """Acceptance: a --jobs pass produces the same rows and diff-clean
    manifests (wall-clock spans excepted) as a serial pass."""
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["--only", "fig03,fig06", "--scale", "0.05",
                 "--out", str(serial)]) == 0
    assert main(["--only", "fig03,fig06", "--scale", "0.05", "--jobs", "2",
                 "--out", str(parallel)]) == 0
    base, new = {}, {}
    for name in ("fig03", "fig06"):
        base[name] = load_manifest(serial / f"{name}.json")
        new[name] = load_manifest(parallel / f"{name}.json")
        assert new[name]["rows"] == base[name]["rows"]
        assert new[name]["config_hash"] == base[name]["config_hash"]
    assert diff_manifests(base, new, wall_tolerance=math.inf) == []


def test_run_experiment_restores_registry_when_runner_raises():
    """Regression (teardown in try/finally): a raising runner must not
    leak the private metrics registry, an ambient observer config, or a
    section sink into the process."""

    @experiment(paper={"claim": "boom"}, name="zz_failing", timeline=True)
    def run_zz_failing(scale: float = 1.0) -> list[dict]:
        """Deliberately failing spec."""
        assert get_timeline_config() is not None
        assert get_batch_size() == 16
        raise RuntimeError("runner exploded")

    before = get_registry()
    try:
        with pytest.raises(RuntimeError, match="runner exploded"):
            run_experiment("zz_failing", scale=0.5, batch_size=16)
        assert get_registry() is before
        assert_channels_idle()
        # The wrapper is reusable afterwards: telemetry contexts unwound.
        rows, manifest = run_experiment("fig06")
        assert manifest["experiment"] == "fig06" and rows
        assert get_registry() is before
    finally:
        experiment_registry._REGISTRY.pop("zz_failing", None)


def test_run_experiment_forwards_sweep_params():
    rows, manifest = run_experiment("fig06", ks=(1, 2))
    assert [r["partitions"] for r in rows] == [1, 2]
    assert manifest["config"]["params"] == {"ks": "(1, 2)"}


def test_scale_flag_reaches_runner(tmp_path, capsys):
    code = main(["--only", "fig03", "--scale", "0.05", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fig03.txt").exists()


def test_fig10_emits_schema_valid_manifest(tmp_path, capsys):
    """Acceptance: `run_all --only fig10 --scale 0.1` writes a manifest
    that passes schema validation and carries spans + metrics."""
    assert main(["--only", "fig10", "--scale", "0.1",
                 "--out", str(tmp_path)]) == 0
    manifest = load_manifest(tmp_path / "fig10.json")
    assert validate_manifest(manifest) is manifest
    assert manifest["experiment"] == "fig10"
    assert manifest["scale"] == 0.1
    assert manifest["config"]["timing_rows"] is True
    assert manifest["wall_s"] > 0
    assert len(manifest["rows"]) >= 1
    names = {s["name"] for s in manifest["spans"]}
    assert "experiment" in names and "scale_search" in names
    assert any(k.startswith("span.") for k in manifest["metrics"])


def test_run_experiment_isolates_metrics_registry():
    from repro.obs import get_registry

    before = get_registry()
    rows, manifest = run_experiment("fig06")
    assert get_registry() is before  # restored after the run
    assert manifest["rows"] == rows
    assert manifest["scale"] is None  # fig06 takes no --scale


def test_traced_run_replays_to_span_tree(tmp_path, capsys):
    """Satellite: a traced pass reconstructs the span hierarchy — parent
    ids resolve, durations are non-negative, the root covers children."""
    trace = tmp_path / "run.jsonl"
    chrome = tmp_path / "run.trace.json"
    assert main(["--only", "fig10", "--scale", "0.1",
                 "--out", str(tmp_path), "--trace", str(trace),
                 "--chrome-trace", str(chrome)]) == 0

    roots = span_tree(load_events(trace))
    exp_roots = [r for r in roots if r["name"] == "experiment"]
    assert len(exp_roots) == 1
    root = exp_roots[0]
    assert root["parent"] is None and root["children"]

    def walk(node):
        yield node
        for child in node["children"]:
            yield from walk(child)

    nodes = list(walk(root))
    ids = {n["span_id"] for n in nodes}
    for node in nodes:
        assert node["wall_s"] >= 0
        for child in node["children"]:
            assert child["parent"] in ids
            assert node["ts"] <= child["ts"]
            assert node["ts"] + node["wall_s"] >= child["ts"] + child["wall_s"]

    # The Chrome export of the same pass is structurally valid.
    doc = json.loads(chrome.read_text())
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == len(nodes)
    assert all(e["dur"] >= 0 for e in xs)


def test_timeline_experiment_manifest_carries_sections(tmp_path, capsys):
    """fig12 is in the timeline set: its manifest must carry schema-valid
    sections, one per scheme simulated, and flag it in the config."""
    chrome = tmp_path / "run.trace.json"
    assert main(["--only", "fig12", "--scale", "0.1", "--out", str(tmp_path),
                 "--chrome-trace", str(chrome)]) == 0
    manifest = load_manifest(tmp_path / "fig12.json")
    assert validate_manifest(manifest) is manifest
    assert manifest["config"]["timelines"] is True
    sections = manifest["timelines"]
    assert sections
    for section in sections:
        assert section["scheme"]
        assert section["n_windows"] >= 0
        assert "attribution" in section["tail"]

    # The Chrome trace of the same pass embeds the counter events.
    doc = json.loads(chrome.read_text())
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters
    assert {e["name"].rsplit(" ", 1)[-1] for e in counters} == {
        "bytes", "busy", "queue",
    }


def test_non_timeline_experiment_manifest_has_empty_sections(tmp_path, capsys):
    assert main(["--only", "fig10", "--scale", "0.1",
                 "--out", str(tmp_path)]) == 0
    manifest = load_manifest(tmp_path / "fig10.json")
    assert manifest["timelines"] == []
    assert manifest["config"]["timelines"] is False
    assert manifest["membership"] == []


def test_churn_experiment_manifest_carries_membership(tmp_path, capsys):
    """fig_churn publishes one schema-valid membership section per
    placement strategy, with per-epoch bytes-moved accounting."""
    assert main(["--only", "fig_churn", "--scale", "0.1",
                 "--out", str(tmp_path)]) == 0
    manifest = load_manifest(tmp_path / "fig_churn.json")
    assert validate_manifest(manifest) is manifest
    sections = manifest["membership"]
    assert {s["scheme"] for s in sections} == {
        "hash-mod", "ring", "sp-cache"
    }
    for section in sections:
        assert section["n_epochs"] == len(section["epochs"]) >= 2
        assert section["events"]
        for entry in section["epochs"]:
            assert entry["moved_bytes"] >= 0.0
            assert entry["disruption_window_s"] >= 0.0
        # The epoch-0 baseline never moves anything.
        assert section["epochs"][0]["moved_bytes"] == 0.0
