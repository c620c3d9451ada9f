"""The benchmark's arithmetic and output checks, kept free of I/O so the
tests in ``test_perfbench.py`` can pin them.

Ratio bases used throughout:

* ``{layer}.share`` and ``trace.remainder_share``: base is the traced
  repetition's wall (``trace.wall_s``); the shares add up to 1.
* ``molecular.hit_ratio``/``caches.hit_ratio``: base is that layer's
  simulated L2 references.
* ``molecular.probes_per_ref``: molecules probed per molecular reference.
* ``resize.grant_ratio``: base is grow and repair requests (granted plus
  denied); withdrawals are not requests.
* ``campaign.parallel_eff``: base is workers x campaign wall.
* ``trace.overhead_ratio``: base is the untraced wall.
"""

from __future__ import annotations

import hashlib
import json
from statistics import median, quantiles

from layers import LAYERS


def digest(value) -> str:
    """Short SHA-256 of ``value`` (text as is, anything else as canonical
    JSON with full float precision)."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()[:16]


def output_digests(text: str, cells: dict) -> dict:
    """The digests one repetition's output is checked by: the rendered
    artifact and each cell (cache run, grid cell or campaign job)."""
    return {
        "render": digest(text),
        "cells": {name: digest(cell) for name, cell in cells.items()},
    }


def failed_ops(expected: dict, observed: dict, cached_jobs: int = 0) -> int:
    """Ops (cells) of one repetition that fail their output check.

    A cell fails when its digest differs from the expected one or is
    missing; a rendered output that differs fails every cell, since the
    artifact as a whole is then wrong. A campaign job served from a
    resume cache did not run, so each such job counts as failed too.
    """
    cells = expected["cells"]
    if observed["render"] != expected["render"]:
        return len(cells)
    bad = sum(observed["cells"].get(name) != want for name, want in cells.items())
    bad += len(set(observed["cells"]) - set(cells))
    return min(len(cells), bad + cached_jobs)


def at_reference_speed(rep: dict, calibration_s: float, reference_s: float) -> dict:
    """``rep`` with its end-to-end times rescaled to the reference host
    speed, at which the calibration loop takes ``reference_s``.

    ``calibration_s`` is the loop's time measured around the repetition.
    On a host running at half the reference speed the loop takes twice
    ``reference_s``, and the repetition's times are halved. Memory is not
    rescaled.
    """
    factor = reference_s / calibration_s
    return {
        **rep,
        "wall_s": rep["wall_s"] * factor,
        "setup_s": rep["setup_s"] * factor,
        "refs_per_s": rep["refs_per_s"] / factor,
    }


def overhead_s(campaign_wall: float, job_s: float, workers: int) -> float:
    """Campaign time not explained by the jobs themselves:
    ``wall - job_s / workers``."""
    return campaign_wall - job_s / workers


def parallel_eff(campaign_wall: float, job_s: float, workers: int) -> float:
    """Share of the workers' capacity spent in jobs:
    ``job_s / (workers x wall)``."""
    return job_s / (workers * campaign_wall) if campaign_wall > 0 else 0.0


def span_total(snapshot: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in snapshot["spans"] if s["name"] == name)


def merge(parent: dict, workers: list[dict]) -> tuple[dict, dict, int]:
    """Fold campaign workers' totals into the parent's.

    Returns ``(wall_self, busy_self, n)``: per-layer self time converted
    to the parent's wall (worker time divided by the ``n`` workers that
    ran in parallel), the same summed over processes, and ``n``. In the
    wall-based view the parent's campaign span gives up ``job / n`` for
    the jobs the workers ran, so the layers still add up to the time
    spent inside top-level wrapped calls of the parent.
    """
    n = len({w["pid"] for w in workers})
    wall_self = dict(parent["self_s"])
    busy_self = dict(parent["self_s"])
    if n:
        wall_self["campaign"] -= sum(w["top_s"] for w in workers) / n
        for w in workers:
            for layer, seconds in w["self_s"].items():
                wall_self[layer] += seconds / n
                busy_self[layer] += seconds
    return wall_self, busy_self, n


def split(wall_self: dict, wall: float) -> dict:
    """Each layer's self time as a share of ``wall``, plus the remainder."""
    out = {f"{layer}.share": wall_self[layer] / wall for layer in LAYERS}
    remainder = wall - sum(wall_self[layer] for layer in LAYERS)
    out["trace.remainder_s"] = remainder
    out["trace.remainder_share"] = remainder / wall
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    parent: dict, workers: list[dict], wall: float, records: list[dict]
) -> dict:
    """Every per-layer metric of one traced repetition.

    ``records`` are the campaign store's job records (empty outside a
    campaign). Times named ``*_s`` are wall-based (see :func:`merge`);
    ``ns_per_ref`` uses the time summed over processes.
    """
    wall_self, busy_self, n = merge(parent, workers)
    counters = dict(parent["counters"])
    for w in workers:
        for key, value in w["counters"].items():
            counters[key] = counters.get(key, 0) + value
    run_s = span_total(parent, "CMPRunner.run") + sum(
        span_total(w, "CMPRunner.run") for w in workers
    ) / max(n, 1)
    mol_refs = counters["mol_accesses"]
    sa_refs = counters["sa_accesses"]
    out = {
        "workloads.gen_s": wall_self["workloads"],
        "workloads.refs": counters["gen_refs"],
        "sim.run_s": run_s,
        "sim.sched_self_s": wall_self["sim"],
        "sim.refs": counters["sim_refs"],
        "sim.end_time": counters["sim_end_time"],
        "molecular.access_s": wall_self["molecular"],
        "molecular.refs": mol_refs,
        "molecular.ns_per_ref": _ratio(busy_self["molecular"] * 1e9, mol_refs),
        "molecular.hit_ratio": _ratio(counters["mol_hits"], mol_refs),
        "molecular.probes_per_ref": _ratio(counters["mol_probes"], mol_refs),
        "caches.access_s": wall_self["caches"],
        "caches.refs": sa_refs,
        "caches.ns_per_ref": _ratio(busy_self["caches"] * 1e9, sa_refs),
        "caches.hit_ratio": _ratio(counters["sa_hits"], sa_refs),
        "resize.s": wall_self["resize"],
        "resize.rounds": counters["resize_rounds"],
        "resize.lines_moved": counters["lines_moved"],
        "resize.grant_ratio": _ratio(
            counters["grants"], counters["grants"] + counters["denials"]
        ),
        "campaign.self_s": wall_self["campaign"],
    }
    out.update(campaign_metrics(records, span_total(parent, "CampaignRunner.run"),
                                max(n, 1), counters["cached_jobs"]))
    out.update(split(wall_self, wall))
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(parent["spans"]) + sum(len(w["spans"]) for w in workers)
    return out


def campaign_metrics(
    records: list[dict], campaign_wall: float, workers: int, cached_jobs: int
) -> dict:
    """``campaign.*`` from the store's job records (zeros without a
    campaign)."""
    job_s = sum(r["elapsed"] for r in records)
    attempts = sum(r["attempts"] for r in records)
    return {
        "campaign.jobs": len(records),
        "campaign.job_s": job_s,
        "campaign.overhead_s": (
            overhead_s(campaign_wall, job_s, workers) if records else 0.0
        ),
        "campaign.parallel_eff": (
            parallel_eff(campaign_wall, job_s, workers) if records else 0.0
        ),
        "campaign.attempts_per_job": _ratio(attempts, len(records)),
        "campaign.cached_jobs": cached_jobs,
    }


def summarize(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of a sample."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
