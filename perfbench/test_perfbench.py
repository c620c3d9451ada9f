"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from statistics import quantiles

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import metrics  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402


def snapshot(self_s=None, top_s=0.0, pid=1, spans=(), **counters):
    base = {key: 0 for key in (
        "sim_refs", "sim_end_time", "gen_refs", "churn_refs", "cached_jobs",
        "mol_accesses", "mol_hits", "mol_probes", "resize_rounds",
        "lines_moved", "grants", "denials", "sa_accesses", "sa_hits",
    )}
    base.update(counters)
    return {
        "pid": pid,
        "self_s": {layer: (self_s or {}).get(layer, 0.0) for layer in LAYERS},
        "top_s": top_s,
        "counters": base,
        "first_ref": None,
        "spans": list(spans),
    }


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_nested_layers(tmp_path):
    tracer = Tracer("t", full=True, dump_dir=tmp_path)
    clock = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    import layers

    original = layers.perf_counter
    layers.perf_counter = lambda: next(clock)
    try:
        inner = tracer.span("inner", "resize", lambda: None)
        outer = tracer.span("outer", "molecular", inner)
        outer()
    finally:
        layers.perf_counter = original
    assert tracer.self_s["resize"] == [2.0, 1]
    assert tracer.self_s["molecular"] == [8.0, 1]
    assert tracer.stack == [10.0]  # top-level time = sum of all self times
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None


def test_timed_wrapper_nests_inside_spans_and_survives_errors(tmp_path):
    tracer = Tracer("t", full=True, dump_dir=tmp_path)

    def boom():
        raise ValueError

    hot = tracer.timed("caches", boom)
    run = tracer.span("run", "sim", lambda: [pytest.raises(ValueError, hot)])
    run()
    sim, caches = tracer.self_s["sim"][0], tracer.self_s["caches"][0]
    assert tracer.self_s["caches"][1] == 1
    assert len(tracer.stack) == 1
    assert tracer.stack[0] == pytest.approx(sim + caches)


def test_reset_clears_in_place(tmp_path):
    tracer = Tracer("t", full=True, dump_dir=tmp_path)
    stack, cell = tracer.stack, tracer.self_s["sim"]
    tracer.span("run", "sim", lambda: None)()
    tracer.reset()
    assert tracer.stack is stack and stack == [0.0]
    assert cell == [0.0, 0] and tracer.spans == []


def test_worker_dump_round_trips(tmp_path):
    tracer = Tracer("t", full=True, dump_dir=tmp_path)
    tracer.span("job", "campaign", lambda: None)()
    tracer.dump_worker_job()
    (path,) = tmp_path.glob("*.json")
    assert path.name == f"{os.getpid()}-1.json"
    data = json.loads(path.read_text())
    assert data["top_s"] == pytest.approx(data["self_s"]["campaign"])


# ------------------------------------------------------- split and merging


def test_split_adds_up_to_wall():
    self_s = {"workloads": 0.5, "sim": 2.0, "molecular": 3.0, "caches": 2.5,
              "resize": 0.5, "campaign": 0.0}
    out = metrics.split(self_s, 10.0)
    assert out["molecular.share"] == pytest.approx(0.3)
    assert out["trace.remainder_s"] == pytest.approx(1.5)
    total = sum(out[f"{layer}.share"] for layer in LAYERS) + out["trace.remainder_share"]
    assert total == pytest.approx(1.0)


def test_merge_converts_worker_time_to_parent_wall():
    parent = snapshot({"campaign": 10.0}, top_s=10.0)
    workers = [
        snapshot({"campaign": 1.0, "sim": 4.0, "molecular": 3.0}, top_s=8.0, pid=11),
        snapshot({"campaign": 1.0, "sim": 5.0, "molecular": 4.0}, top_s=10.0, pid=12),
    ]
    wall_self, busy_self, n = metrics.merge(parent, workers)
    assert n == 2
    assert wall_self["sim"] == pytest.approx(4.5)
    assert busy_self["sim"] == pytest.approx(9.0)
    # The parent's campaign span gives up job time / workers = 9 s.
    assert wall_self["campaign"] == pytest.approx(10.0 - 9.0 + 1.0)
    assert sum(wall_self.values()) == pytest.approx(parent["top_s"])


def test_merge_without_workers_is_identity():
    parent = snapshot({"sim": 1.0, "caches": 2.0}, top_s=3.0)
    wall_self, busy_self, n = metrics.merge(parent, [])
    assert n == 0 and wall_self == busy_self == parent["self_s"]


# ------------------------------------------------------------ campaign math


def test_campaign_overhead_and_parallel_efficiency():
    assert metrics.overhead_s(5.0, 8.0, 2) == pytest.approx(1.0)
    assert metrics.parallel_eff(5.0, 8.0, 2) == pytest.approx(0.8)
    assert metrics.parallel_eff(0.0, 8.0, 2) == 0.0


def test_campaign_metrics_from_store_records():
    records = [{"elapsed": 2.0, "attempts": 1}, {"elapsed": 4.0, "attempts": 2}]
    out = metrics.campaign_metrics(records, campaign_wall=4.0, workers=2, cached_jobs=0)
    assert out["campaign.jobs"] == 2
    assert out["campaign.job_s"] == pytest.approx(6.0)
    assert out["campaign.overhead_s"] == pytest.approx(1.0)
    assert out["campaign.parallel_eff"] == pytest.approx(0.75)
    assert out["campaign.attempts_per_job"] == pytest.approx(1.5)
    empty = metrics.campaign_metrics([], 0.0, 1, 0)
    assert all(value == 0 for value in empty.values())


def test_layer_metrics_ratio_bases():
    parent = snapshot(
        {"sim": 1.0, "molecular": 2.0, "caches": 1.0, "resize": 0.5},
        top_s=4.5, mol_accesses=1000, mol_hits=250, mol_probes=4000,
        sa_accesses=500, sa_hits=400, grants=3, denials=1,
        spans=[{"name": "CMPRunner.run", "start": 0.0, "end": 4.0}],
    )
    out = metrics.layer_metrics(parent, [], wall=5.0, records=[])
    assert out["molecular.hit_ratio"] == pytest.approx(0.25)
    assert out["molecular.probes_per_ref"] == pytest.approx(4.0)
    assert out["molecular.ns_per_ref"] == pytest.approx(2e6)
    assert out["caches.hit_ratio"] == pytest.approx(0.8)
    assert out["resize.grant_ratio"] == pytest.approx(0.75)
    assert out["sim.run_s"] == pytest.approx(4.0)
    assert out["trace.remainder_share"] == pytest.approx(0.1)


# ------------------------------------------------------------ output checks


def expected_digests():
    return metrics.output_digests("table", {"a": {"x": 0.1}, "b": {"x": 0.2}})


def test_matching_output_fails_nothing():
    want = expected_digests()
    assert metrics.failed_ops(want, expected_digests()) == 0


def test_perturbed_cell_fails_one_op():
    want = expected_digests()
    got = metrics.output_digests("table", {"a": {"x": 0.1}, "b": {"x": 0.2 + 1e-12}})
    assert metrics.failed_ops(want, got) == 1


def test_perturbed_render_fails_every_op():
    want = expected_digests()
    got = metrics.output_digests("table ", {"a": {"x": 0.1}, "b": {"x": 0.2}})
    assert metrics.failed_ops(want, got) == 2


def test_missing_and_cached_cells_fail():
    want = expected_digests()
    got = metrics.output_digests("table", {"a": {"x": 0.1}})
    assert metrics.failed_ops(want, got) == 1
    assert metrics.failed_ops(want, expected_digests(), cached_jobs=1) == 1


def test_perturbed_digest_raises_failed_ratio(monkeypatch, tmp_path):
    import run

    want = expected_digests()
    good = {"ops": 2, "digests": want, "cached_jobs": 0, "miss_rate": 0.3,
            "paper_abs_err": None, "wall_s": 1.0, "setup_s": 0.1,
            "refs_per_s": 1.0, "peak_rss_mb": 1.0}
    bad = {**good, "digests": {**want, "cells": {**want["cells"], "b": "0" * 16}}}
    # The untimed warm-up, then two timed repetitions.
    reps = iter([{**good, "wall_s": 9.0}, good, bad])
    monkeypatch.setattr(run, "run_rep", lambda *a: next(reps))
    monkeypatch.setattr(run, "load_expected", lambda *a: want)
    # A host twice as fast as the reference: reported times double.
    monkeypatch.setattr(run, "calibrate", lambda: run.CALIBRATION_REF_S / 2)
    ticks = iter(range(100))
    monkeypatch.setattr(run, "perf_counter", lambda: 0.3 * next(ticks))
    result, _ = run.run_workload("resize-churn", 1, 1.5, 0, tmp_path)
    assert (result["attempted"], result["failed"]) == (6, 1)
    assert result["metrics"]["wall_s"]["value"] == 2.0
    assert result["correct"] is False


def test_reference_speed_rescales_times_not_memory():
    rep = {"wall_s": 3.0, "setup_s": 0.5, "refs_per_s": 1000.0, "peak_rss_mb": 80.0}
    # The calibration loop ran twice as long as at the reference speed.
    slow = metrics.at_reference_speed(rep, calibration_s=0.3, reference_s=0.15)
    assert slow == {"wall_s": 1.5, "setup_s": 0.25, "refs_per_s": 2000.0,
                    "peak_rss_mb": 80.0}
    assert metrics.at_reference_speed(rep, 0.15, 0.15) == rep


def test_summarize_uses_statistics_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, _, q3 = quantiles(values, n=4)
    assert metrics.summarize(values) == {"median": 3.0, "q1": q1, "q3": q3, "n": 5}
    assert metrics.summarize([2.0])["median"] == 2.0



def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] for m in spec["end_to_end"])
