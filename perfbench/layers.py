"""Benchmark-side instrumentation of the simulator's layers.

Nothing here edits ``src/``: :func:`instrument` replaces a handful of
class attributes and module functions with timing wrappers, from the
benchmark process only, before the workload runs. Forked campaign
workers inherit the wrappers.

Two modes:

* **light** (the untraced, end-to-end run) wraps only run-level entry
  points, a few dozen calls per repetition: trace generation, each
  ``CMPRunner.run``, the campaign run and each campaign job. It notes
  when the first simulated reference is issued (the end of set-up) and
  counts the references each run simulated. No per-access wrapper is
  installed.
* **full** (the traced run) also wraps every L2 access, every resize
  round and mechanism call, and every store write.

Layers are named after ``src/repro`` modules: ``workloads`` (trace
generation), ``sim`` (the ``CMPRunner`` loop), ``molecular`` and
``caches`` (L2 access), ``resize`` (resize rounds and mechanisms) and
``campaign`` (executor, store and worker IPC).

A layer's *self time* is the time spent inside its calls minus the part
covered by calls into other wrapped layers (for example, resize rounds
nested inside a molecular access). Because every wrapped call subtracts
itself from its caller, the self times of all layers add up to the time
spent inside top-level wrapped calls; the rest of the wall is the
unattributed remainder.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

LAYERS = ("workloads", "sim", "molecular", "caches", "resize", "campaign")


class Tracer:
    """Span stack, per-layer self time and counters for one process.

    ``stack`` holds one child-time accumulator per open wrapped call, the
    root at index 0 (so ``stack[0]`` is the time inside top-level calls).
    State is cleared in place, never rebound, because the wrappers hold
    direct references to these containers.
    """

    def __init__(self, workload: str, full: bool, dump_dir: Path) -> None:
        self.workload = workload
        self.full = full
        #: Where forked campaign workers write their per-job totals.
        self.dump_dir = dump_dir
        self.parent_pid = os.getpid()
        self.dumps = 0
        self.stack: list[float] = [0.0]
        self.open_ids: list[int] = []
        self.spans: list[dict] = []
        self.self_s = {layer: [0.0, 0] for layer in LAYERS}
        self.counters: dict[str, float] = {}
        self.caches: list = []
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack.clear()
        self.stack.append(0.0)
        self.open_ids.clear()
        self.spans.clear()
        for cell in self.self_s.values():
            cell[0] = 0.0
            cell[1] = 0
        self.counters.clear()
        self.counters.update(
            sim_refs=0, sim_end_time=0.0, gen_refs=0, churn_refs=0,
            cached_jobs=0, mol_accesses=0, mol_hits=0, mol_probes=0,
            resize_rounds=0, lines_moved=0, grants=0, denials=0,
            sa_accesses=0, sa_hits=0,
        )
        self.caches.clear()
        self.first_ref: float | None = None
        self.next_id = 0

    # ------------------------------------------------------------ wrappers

    def span(self, name: str, layer: str, fn, after=None):
        """Wrap ``fn`` as a recorded span; ``after(args, result)`` runs
        on return, outside the timed interval."""
        stack, open_ids, spans = self.stack, self.open_ids, self.spans
        cell = self.self_s[layer]
        tracer = self

        def wrapped(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = open_ids[-1] if open_ids else None
            open_ids.append(span_id)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = stack.pop()
                open_ids.pop()
                stack[-1] += end - start
                cell[0] += end - start - child
                cell[1] += 1
                spans.append({
                    "id": span_id, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "workload": tracer.workload, "pid": tracer.pid,
                })
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def timed(self, layer: str, fn):
        """Wrap a hot call (one L2 access): self time and call count, no
        span record."""
        stack, cell = self.stack, self.self_s[layer]

        def wrapped(*args):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stack[-1] += duration
                cell[0] += duration - child
                cell[1] += 1

        return wrapped

    # ------------------------------------------------------------- harvest

    def harvest_caches(self) -> None:
        """Fold the statistics of every cache built so far into counters."""
        c = self.counters
        for cache in self.caches:
            total = cache.stats.total
            if hasattr(cache, "resizer"):
                stats = cache.stats
                actions = [entry[2] for entry in cache.resizer.log]
                c["mol_accesses"] += total.accesses
                c["mol_hits"] += total.hits
                c["mol_probes"] += stats.molecules_probed
                c["resize_rounds"] += stats.resize_events
                c["lines_moved"] += stats.resize_blocks_moved
                c["grants"] += sum(a in ("grow", "repair") for a in actions)
                c["denials"] += sum(
                    a in ("grow-denied", "repair-denied") for a in actions
                )
            else:
                c["sa_accesses"] += total.accesses
                c["sa_hits"] += total.hits
        self.caches.clear()

    def snapshot(self) -> dict:
        """This process's totals as a JSON-able dict."""
        self.harvest_caches()
        return {
            "pid": self.pid,
            "self_s": {k: v[0] for k, v in self.self_s.items()},
            "calls": {k: v[1] for k, v in self.self_s.items()},
            "top_s": self.stack[0],
            "counters": dict(self.counters),
            "first_ref": self.first_ref,
            "spans": list(self.spans),
        }

    def dump_worker_job(self) -> None:
        """In a forked worker: write this job's totals to ``dump_dir``."""
        self.dumps += 1
        path = self.dump_dir / f"{self.pid}-{self.dumps}.json"
        path.write_text(json.dumps(self.snapshot()))


class _Session:
    """Stands in for a cache's access session, with a wrapped ``access``."""

    def __init__(self, inner, access) -> None:
        self._inner = inner
        self.access = access

    def __getattr__(self, name):
        return getattr(self._inner, name)


def instrument(tracer: Tracer) -> None:
    """Install the wrappers for ``tracer``'s mode. Call once per process,
    before the workload runs."""
    from repro.caches.setassoc import SetAssociativeCache
    from repro.campaign import runner as campaign_runner
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import ResultStore
    from repro.molecular.cache import MolecularCache
    from repro.molecular.resize import ResizeMechanism, Resizer
    from repro.sim.cmp import CMPRunner
    from repro.sim.experiments import resize_mechanism
    from repro.workloads.model import BenchmarkModel

    counters = tracer.counters

    def after_generate(args, trace):
        counters["gen_refs"] += len(trace)

    def after_churn(args, ops):
        # The churn cell issues its first access right after this.
        if tracer.first_ref is None:
            tracer.first_ref = perf_counter()
        counters["gen_refs"] += len(ops)
        counters["churn_refs"] += len(ops)

    def after_run(args, result):
        counters["sim_refs"] += result.total_refs
        counters["sim_end_time"] += result.end_time

    def after_campaign(args, result):
        counters["cached_jobs"] += len(result.cached)

    BenchmarkModel.generate = tracer.span(
        "generate", "workloads", BenchmarkModel.generate, after_generate
    )
    resize_mechanism.churn_trace = tracer.span(
        "churn_trace", "workloads", resize_mechanism.churn_trace, after_churn
    )
    CMPRunner.run = tracer.span("CMPRunner.run", "sim", CMPRunner.run, after_run)
    CampaignRunner.run = tracer.span(
        "CampaignRunner.run", "campaign", CampaignRunner.run, after_campaign
    )
    campaign_runner.execute_spec = _job_entry(
        tracer, tracer.span("job", "campaign", campaign_runner.execute_spec)
    )

    for cls, layer in ((MolecularCache, "molecular"), (SetAssociativeCache, "caches")):
        cls.access_session = _session_factory(tracer, layer, cls.access_session)

    if not tracer.full:
        return

    for cls in (MolecularCache, SetAssociativeCache):
        cls.__init__ = _registering_init(tracer, cls.__init__)
    MolecularCache.access_block = tracer.timed(
        "molecular", MolecularCache.access_block
    )
    for name in ("_resize_all", "_resize_one"):
        setattr(Resizer, name, tracer.span(
            f"Resizer.{name}", "resize", getattr(Resizer, name)
        ))
    for name in ("grow", "withdraw", "repair"):
        setattr(ResizeMechanism, name, tracer.span(
            f"ResizeMechanism.{name}", "resize", getattr(ResizeMechanism, name)
        ))
    ResultStore.save = tracer.span("ResultStore.save", "campaign", ResultStore.save)


def _session_factory(tracer: Tracer, layer: str, original):
    """``access_session`` marks the first simulated reference and, in the
    full mode, hands the runner a timed ``access``."""

    def access_session(cache):
        if tracer.first_ref is None:
            tracer.first_ref = perf_counter()
        session = original(cache)
        if not tracer.full:
            return session
        return _Session(session, tracer.timed(layer, session.access))

    return access_session


def _registering_init(tracer: Tracer, original):
    def __init__(cache, *args, **kwargs):
        original(cache, *args, **kwargs)
        tracer.caches.append(cache)

    return __init__


def _job_entry(tracer: Tracer, job):
    """Wrap the campaign job entry point.

    A forked worker inherits the parent's tracer state, so there each job
    starts from a reset tracer and writes its totals to
    ``tracer.dump_dir`` when it ends; the parent merges those files.
    """

    def execute_spec(payload):
        if os.getpid() == tracer.parent_pid:
            return job(payload)
        tracer.reset()
        try:
            return job(payload)
        finally:
            tracer.dump_worker_job()

    return execute_spec
