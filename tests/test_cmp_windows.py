"""The two CMP drivers agree: the window driver against the heap loop.

``CMPRunner`` runs set-associative LRU/FIFO caches through the window
driver (speculated issue order, replayed by the vectorised stamp kernel)
and everything else through the heap loop, the reference driver. The
grid below runs both on the same inputs and compares every result field,
the cumulative and window statistics (per-ASID tables in insertion
order), and the final contents of every set in LRU order with owner and
dirty bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches import setassoc
from repro.caches.setassoc import SetAssociativeCache
from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig
from repro.sim import cmp
from repro.sim.cmp import CMPRunConfig, CMPRunner
from repro.sim.experiments.common import build_traces, run_traditional_workload
from repro.trace.container import Trace
from repro.workloads.mixed import MIXED_SUITE


class _PerAccessOnly:
    """A session stripped to ``access``: the runner must use the heap loop."""

    def __init__(self, session) -> None:
        self.access = session.access


def _force_heap(cache) -> None:
    factory = cache.access_session
    cache.access_session = lambda: _PerAccessOnly(factory())


def _traces(rng, cores: int, refs: int, span: int) -> dict[int, Trace]:
    """Unequal-length traces, a hot subset plus a wide tail, some writes.

    ASIDs are spaced out (not 0..n-1) and address spaces are disjoint.
    """
    traces = {}
    for core in range(cores):
        length = refs + int(rng.integers(0, refs // 2 + 1))
        hot = rng.integers(0, span // 8 + 1, length)
        cold = rng.integers(0, span, length)
        blocks = np.where(rng.random(length) < 0.6, hot, cold) + core * span * 3
        traces[core * 3 + 1] = Trace(
            blocks * 64, asids=core, writes=rng.random(length) < 0.3
        )
    return traces


def _state(cache, result):
    stats = cache.stats
    return {
        "result": (
            result.total_refs,
            result.measured_refs,
            result.end_time,
            list(result.per_asid.items()),
        ),
        "cumulative": (stats.total, list(stats.per_asid.items())),
        "window": (stats.window_total, list(stats.window_per_asid.items())),
        "sets": [
            [(block, line.asid, line.dirty) for block, line in cache_set.items()]
            for cache_set in cache.iter_sets()
        ],
    }


def _run_both(traces, size, ways, policy, config, prewarm=()):
    states = []
    sessions = []
    for heap in (True, False):
        cache = SetAssociativeCache(size, ways, policy=policy)
        for block, asid, write in prewarm:
            cache.access_block(block, asid, write)
        # Lines now belong to owners absent from the statistics: their
        # evictions add per-ASID entries mid-run.
        cache.stats.reset()
        if heap:
            _force_heap(cache)
        else:
            factory = cache.access_session
            cache.access_session = lambda: sessions.append(factory()) or sessions[-1]
        result = CMPRunner(cache, config).run(traces)
        states.append(_state(cache, result))
    return states[0], states[1], sessions[0]


#: (miss_penalty, warm-up) pairs; ``None`` warm-up = mid-run, -1 = past
#: the end of the run (no snapshot is ever taken).
TIMINGS = ((0.0, 0), (0.1, 1), (2.7, None), (10.0, -1))


@pytest.mark.parametrize("policy", ["lru", "fifo"])
@pytest.mark.parametrize("ways", [1, 2, 4, 16])
@pytest.mark.parametrize("cores", [1, 4, 12])
def test_window_driver_matches_heap_loop(cores, ways, policy, monkeypatch):
    # Small windows, so that a short run spans many of them.
    monkeypatch.setattr(cmp, "WINDOW_REFS", 512)
    rng = np.random.default_rng(cores * 100 + ways * 10 + (policy == "lru"))
    traces = _traces(rng, cores, int(rng.integers(300, 900)), int(rng.integers(200, 3000)))
    total = sum(len(t) for t in traces.values())
    counts = {"windows": 0, "replays": 0, "cuts": 0}
    for (penalty, warmup), sets in zip(TIMINGS, (4, 16, 64, 256)):
        if warmup is None:
            warmup = total // 3
        elif warmup < 0:
            warmup = 2 * total
        config = CMPRunConfig(miss_penalty=penalty, warmup_refs=warmup)
        heap, window, session = _run_both(traces, 64 * ways * sets, ways, policy, config)
        assert window == heap, (penalty, warmup, sets)
        for name in counts:
            counts[name] += getattr(session, name)
    assert counts["windows"] > 1


def test_cut_and_refinement_paths_are_taken(monkeypatch):
    """Small caches under a heavy penalty mispredict a lot: windows get
    re-ordered with the replay's outcomes, and some are still cut."""
    monkeypatch.setattr(cmp, "WINDOW_REFS", 1024)
    rng = np.random.default_rng(7)
    traces = _traces(rng, 4, 3000, 4000)
    config = CMPRunConfig(miss_penalty=10.0, warmup_refs=500)
    heap, window, session = _run_both(traces, 64 * 64, 1, "lru", config)
    assert window == heap
    assert session.replays > session.windows  # refinement
    assert session.cuts > 0


def test_prewarmed_cache_and_later_scalar_use(monkeypatch):
    """The kernel starts from per-set maps built by ``access_block`` (the
    statistics then reset) and hands its arrays back to the scalar paths
    afterwards."""
    monkeypatch.setattr(cmp, "WINDOW_REFS", 256)
    rng = np.random.default_rng(11)
    traces = _traces(rng, 3, 800, 1500)
    prewarm = [
        (int(b), int(a), bool(w))
        for b, a, w in zip(
            rng.integers(0, 6000, 700), rng.integers(0, 20, 700), rng.random(700) < 0.5
        )
    ]
    config = CMPRunConfig(miss_penalty=2.7, warmup_refs=100)
    heap, window, _ = _run_both(traces, 64 * 4 * 32, 4, "lru", config, prewarm)
    assert window == heap

    caches = []
    for heap_driver in (True, False):
        cache = SetAssociativeCache(64 * 4 * 32, 4)
        if heap_driver:
            _force_heap(cache)
        CMPRunner(cache, config).run(traces)
        caches.append(cache)
    reference, windowed = caches
    assert windowed.occupancy() == reference.occupancy()
    assert windowed.occupancy_by_asid() == reference.occupancy_by_asid()
    assert sorted(windowed.resident_blocks()) == sorted(reference.resident_blocks())
    probe = reference.resident_blocks()[:50] + [10**9 + 7]
    assert [windowed.contains_block(b) for b in probe] == [
        reference.contains_block(b) for b in probe
    ]
    stream = rng.integers(0, 6000, 400).tolist()
    assert [windowed.access_block(b, 5, True).hit for b in stream] == [
        reference.access_block(b, 5, True).hit for b in stream
    ]
    # A second run starts the kernel again from the per-set maps.
    for cache in caches:
        CMPRunner(cache, config).run(traces)
    assert windowed.stats == reference.stats
    assert windowed.flush() == reference.flush()
    assert windowed.occupancy() == 0


def test_audit_points_cut_windows(monkeypatch):
    """With an audit cadence the driver audits the kernel's state at
    exactly the heap loop's audit points."""
    monkeypatch.setattr(cmp, "WINDOW_REFS", 512)
    audited = []
    inner = cmp.audit_and_emit

    def audit(cache, counters=None):
        audited.append(cache.stats.total.accesses)
        return inner(cache, counters)

    monkeypatch.setattr(cmp, "audit_and_emit", audit)
    rng = np.random.default_rng(3)
    traces = _traces(rng, 4, 700, 2000)
    config = CMPRunConfig(miss_penalty=10.0, warmup_refs=300, audit_every=97)
    points = []
    states = []
    for heap in (True, False):
        audited.clear()
        cache = SetAssociativeCache(64 * 2 * 64, 2)
        if heap:
            _force_heap(cache)
        states.append(_state(cache, CMPRunner(cache, config).run(traces)))
        points.append(list(audited))
    assert states[0] == states[1]
    assert points[0] == points[1]
    assert points[1] and all(p % 97 == 0 for p in points[1])


def test_random_policy_and_plain_sessions_take_the_heap_loop(monkeypatch):
    def no_windows(*args, **kwargs):
        raise AssertionError("window driver used")

    monkeypatch.setattr(CMPRunner, "_run_windows", no_windows)
    rng = np.random.default_rng(5)
    traces = _traces(rng, 2, 400, 500)
    config = CMPRunConfig(miss_penalty=10.0, warmup_refs=0)

    cache = SetAssociativeCache(64 * 64, 4, policy="random", rng=XorShift64(3))
    assert not hasattr(cache.access_session(), "open_window")
    assert CMPRunner(cache, config).run(traces).total_refs > 0

    lru = SetAssociativeCache(64 * 64, 4)
    _force_heap(lru)
    assert CMPRunner(lru, config).run(traces).total_refs > 0

    molecular = MolecularCache(
        MolecularCacheConfig.for_total_size(1 << 20, clusters=1, tiles_per_cluster=4)
    )
    for asid in traces:
        molecular.assign_application(asid, goal=0.1)
    assert not hasattr(molecular.access_session(), "open_window")
    assert CMPRunner(molecular, config).run(traces).total_refs > 0


def test_table2_shaped_run_skips_per_access_calls(monkeypatch):
    """The set-associative baselines never call the per-access paths."""

    def per_access(*args, **kwargs):
        raise AssertionError("per-access set-associative path called")

    monkeypatch.setattr(setassoc._SetAssocSession, "access", per_access)
    monkeypatch.setattr(SetAssociativeCache, "access_block", per_access)
    traces = build_traces(list(MIXED_SUITE), 3000, seed=2)
    result = run_traditional_workload(traces, 4 << 20, 4)
    assert result.total_refs > 3000 and len(result.per_asid) == len(MIXED_SUITE)


@settings(max_examples=40, deadline=None)
@given(
    stream=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=300),
            st.sampled_from([2, 5, 9]),
            st.booleans(),
        ),
        min_size=1,
        max_size=120,
    ),
    ways=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from(["lru", "fifo"]),
    shuffle=st.randoms(use_true_random=False),
)
def test_replay_commits_only_what_was_predicted(stream, ways, policy, shuffle):
    """A replay that mispredicts commits nothing, unless asked to cut:
    then exactly the prefix through the first misprediction, as the
    per-access path would leave it."""
    blocks = np.array([b for b, _a, _w in stream], dtype=np.int64)
    asids = np.array([a for _b, a, _w in stream], dtype=np.int64)
    writes = np.array([w for _b, _a, w in stream], dtype=np.bool_)
    order = np.arange(len(stream))
    shuffle.shuffle(order)

    reference = SetAssociativeCache(64 * ways * 8, ways, policy=policy)
    access = reference.access_session().access
    actual = np.array([access(*stream[i]) for i in order])

    cache = SetAssociativeCache(64 * ways * 8, ways, policy=policy)
    window = cache.access_session().open_window(blocks, asids, writes)
    wrong = ~actual  # every outcome mispredicted
    committed, hits = window.replay(order, wrong)
    assert committed == 0 and (hits == actual).all()
    assert cache.stats.total.accesses == 0
    committed, hits = window.replay(order, wrong, cut=True)
    assert committed == 1 and (hits == actual).all()
    assert cache.stats.total.accesses == 1

    prefix = SetAssociativeCache(64 * ways * 8, ways, policy=policy)
    prefix.access_session().access(*stream[order[0]])
    assert cache.stats == prefix.stats
    assert [list(s.items()) for s in cache.iter_sets()] == [
        list(s.items()) for s in prefix.iter_sets()
    ]

    rest = order[1:]
    if len(rest):
        window = cache.access_session().open_window(blocks, asids, writes)
        committed, _ = window.replay(rest, actual[1:])
        assert committed == len(rest)
    assert cache.stats == reference.stats
    assert [list(s.items()) for s in cache.iter_sets()] == [
        list(s.items()) for s in reference.iter_sets()
    ]
