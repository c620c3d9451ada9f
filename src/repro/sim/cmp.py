"""CMP execution model: cores issuing their traces against a shared cache.

The paper gathers its traces on SESC, a cycle-level CMP simulator, where a
core that misses in the shared L2 *stalls* while the line is fetched. That
feedback matters: a capacity-starved application (mcf) issues references
more slowly than a cache-friendly one, and therefore pollutes the shared
cache far less than a rate-equal interleaving would suggest. Table 1's
pattern (art survives a pair with mcf but collapses with three co-runners)
only emerges with this throttling.

:class:`CMPRunner` reproduces the effect with a simple timing model:

* each core issues its next reference one time unit after the previous one
  *hits*, or ``1 + miss_penalty`` units after a *miss*;
* the shared cache services references in global time order;
* the run ends when the first core exhausts its trace (all applications are
  co-running for the entire measured window);
* per-application miss rates are measured from a post-warm-up snapshot
  (``warmup_refs`` total references) to exclude cold-start effects that the
  paper's 3.9 M-reference traces amortise away.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.audit.invariants import audit_and_emit, resolve_cadence
from repro.caches.stats import AsidCounters
from repro.common.errors import ConfigError
from repro.faults.spec import FaultPlan
from repro.telemetry.bus import EventBus, attach_telemetry
from repro.trace.container import Trace


#: Candidate references per window of the window driver, summed over the
#: cores (each core speculates ``WINDOW_REFS / cores`` references ahead).
WINDOW_REFS = 4096
#: Re-orderings of a window with the replay's actual outcomes before the
#: window is cut at its first misprediction.
REFINEMENTS = 3


def _repeats(blocks: np.ndarray) -> np.ndarray:
    """Which elements repeat a block seen earlier in the array."""
    by_block = np.argsort(blocks)
    grouped = blocks[by_block]
    group = np.empty(len(blocks), dtype=np.bool_)
    group[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=group[1:])
    repeats = np.ones(len(blocks), dtype=np.bool_)
    repeats[np.minimum.reduceat(by_block, np.flatnonzero(group))] = False
    return repeats


@dataclass(frozen=True, slots=True)
class CMPRunConfig:
    """Timing parameters for a CMP run.

    ``miss_penalty`` is the stall, in units of the inter-reference gap of a
    hitting core, that a shared-cache miss inflicts on its core. 10 is a
    reasonable ratio of memory latency to the mean time between post-L1
    references of a well-cached application.

    ``audit_every`` runs the full-state invariant auditor every that many
    issued references (``None`` consults ``$REPRO_AUDIT``; 0 disables —
    the access closure is then exactly the un-audited one).

    ``faults`` schedules a :class:`~repro.faults.spec.FaultPlan` against
    the run; a spec's ``at`` counts *globally issued* references (the
    interleaved stream, not any one core's). ``None``/empty leaves the
    access closure exactly as before.
    """

    miss_penalty: float = 10.0
    warmup_refs: int = 100_000
    audit_every: int | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.miss_penalty < 0:
            raise ConfigError("miss penalty cannot be negative")
        if self.warmup_refs < 0:
            raise ConfigError("warmup_refs cannot be negative")
        if self.audit_every is not None and self.audit_every < 0:
            raise ConfigError("audit_every cannot be negative")


@dataclass(slots=True)
class CMPRunResult:
    """Measured (post-warm-up) statistics of one CMP run."""

    per_asid: dict[int, AsidCounters] = field(default_factory=dict)
    total_refs: int = 0
    measured_refs: int = 0
    end_time: float = 0.0

    def miss_rate(self, asid: int) -> float:
        counters = self.per_asid.get(asid)
        if counters is None or counters.accesses == 0:
            return 0.0
        return counters.miss_rate

    def overall_miss_rate(self) -> float:
        accesses = sum(c.accesses for c in self.per_asid.values())
        misses = sum(c.misses for c in self.per_asid.values())
        return misses / accesses if accesses else 0.0

    def miss_rates(self) -> dict[int, float]:
        return {asid: c.miss_rate for asid, c in sorted(self.per_asid.items())}


class CMPRunner:
    """Run several applications concurrently against one shared cache.

    The cache may be a :class:`~repro.caches.SetAssociativeCache`, a
    :class:`~repro.molecular.MolecularCache`, or anything else exposing
    ``access_block(block, asid, write) -> AccessResult`` and a ``stats``
    attribute with ``per_asid`` counters.

    Two drivers produce the same result. The heap loop issues one
    reference at a time through the cache's per-access session (or
    ``access_block``); it is the reference, and runs every cache whose
    session has no window methods (molecular caches, Random
    replacement) and every run with a fault plan. Sessions that offer
    ``open_window``/``probe_window`` (set-associative LRU and FIFO) run
    through the window driver (:meth:`_run_windows`).
    """

    def __init__(
        self,
        cache,
        config: CMPRunConfig | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        self.cache = cache
        self.config = config or CMPRunConfig()
        #: Optional event bus attached to the cache at run start (ignored
        #: by caches without telemetry support). The runner flushes the
        #: tail epoch after the run; closing the bus is the caller's job.
        self.telemetry = telemetry

    def run(self, traces: dict[int, Trace], line_bytes: int = 64) -> CMPRunResult:
        """Execute the traces concurrently; returns post-warm-up statistics.

        ``traces`` maps each application's ASID to its (private) trace.
        """
        if not traces:
            raise ConfigError("CMPRunner.run needs at least one trace")
        attach_telemetry(self.cache, self.telemetry)
        for asid, trace in traces.items():
            if len(trace) == 0:
                raise ConfigError(f"trace for asid {asid} is empty")
        cache = self.cache
        session_factory = getattr(cache, "access_session", None)
        if session_factory is not None:
            # Allocation-free per-access path: same stats/telemetry as
            # access_block, returns a bare hit flag for the timing loop.
            session = session_factory()
            access = session.access
            if hasattr(session, "open_window") and not self.config.faults:
                snapshot, issued, end_time = self._run_windows(
                    session, traces, line_bytes
                )
                return self._finish(snapshot, issued, end_time)
        else:
            access_block = cache.access_block

            def access(block: int, asid: int, write: bool) -> bool:
                return access_block(block, asid, write).hit

        streams = {
            asid: (trace.block_list(line_bytes), trace.write_list())
            for asid, trace in traces.items()
        }
        snapshot, issued, end_time = self._run_heap(access, streams)
        return self._finish(snapshot, issued, end_time)

    def _run_heap(self, access, streams):
        """The reference driver: one reference at a time off a heap."""
        cache = self.cache
        penalty = self.config.miss_penalty
        if self.config.faults:
            if not hasattr(cache, "regions"):
                raise ConfigError(
                    "fault injection requires a molecular cache, got "
                    f"{type(cache).__name__}"
                )
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(cache, self.config.faults)
            fault_inner = access
            fault_issued = [0]

            def access(block: int, asid: int, write: bool) -> bool:
                injector.fire_due(fault_issued[0])
                fault_issued[0] += 1
                return fault_inner(block, asid, write)

        cadence = resolve_cadence(self.config.audit_every)
        if cadence:
            # Wrap (rather than branch in the hot loop) so a disabled
            # audit leaves the access path untouched.
            inner_access = access
            audit_countdown = [cadence]

            def access(block: int, asid: int, write: bool) -> bool:
                hit = inner_access(block, asid, write)
                audit_countdown[0] -= 1
                if audit_countdown[0] <= 0:
                    audit_countdown[0] = cadence
                    audit_and_emit(cache)
                return hit

        # (time, tiebreak, asid, index) — the tiebreak keeps ordering
        # deterministic and avoids comparing beyond the asid.
        heap: list[tuple[float, int, int, int]] = [
            (0.0, asid, asid, 0) for asid in sorted(streams)
        ]
        heapq.heapify(heap)

        issued = 0
        snapshot: dict[int, AsidCounters] | None = None
        warmup = self.config.warmup_refs
        end_time = 0.0
        push = heapq.heappush
        pop = heapq.heappop

        while True:
            time_now, tiebreak, asid, index = pop(heap)
            blocks, writes = streams[asid]
            hit = access(blocks[index], asid, writes[index])
            issued += 1
            index += 1
            if snapshot is None and warmup and issued >= warmup:
                snapshot = {
                    a: c.copy() for a, c in cache.stats.per_asid.items()
                }
            if index >= len(blocks):
                end_time = time_now
                break
            gap = 1.0 if hit else 1.0 + penalty
            push(heap, (time_now + gap, tiebreak, asid, index))
        return snapshot, issued, end_time

    def _run_windows(self, session, traces: dict[int, Trace], line_bytes: int):
        """The window driver: the heap loop's issue order, speculated.

        Each window takes about ``WINDOW_REFS`` candidate references, the
        next few of every core, shared out in proportion to how many each
        core issued in the previous window. It predicts their outcomes: a
        hit if the block is resident at window start
        (``session.probe_window``) or occurs earlier in the window. A
        cumulative sum of the predicted gaps gives every candidate's
        issue time, exactly as the heap loop adds them, and a stable sort
        on time (candidates are in asid order) gives the global order.
        The window ends before the earliest ``(time, asid)`` among the
        cores' first references outside it, after the reference that
        exhausts a trace, and at the warm-up snapshot and audit points.
        The session replays the ordered window
        (``session.open_window(...).replay``); if an outcome was
        mispredicted, the actual outcomes become the predictions and the
        window is re-ordered, up to ``REFINEMENTS`` times, before the
        replay commits only the prefix up to and including the first
        misprediction. Every committed reference is thus issued at the
        heap loop's time and in its order, so the result is the heap
        loop's, bit for bit.
        """
        cache = self.cache
        probe = session.probe_window
        asids = sorted(traces)
        cores = len(asids)
        core_ids = np.arange(cores)
        asid_of = np.array(asids, dtype=np.int64)
        lengths = np.array([len(traces[a]) for a in asids], dtype=np.int64)
        first_ref = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        all_blocks = np.concatenate(
            [traces[a].block_column(line_bytes) for a in asids]
        )
        all_writes = np.concatenate([traces[a].writes for a in asids])
        miss_gap = 1.0 + self.config.miss_penalty
        position = np.zeros(cores, dtype=np.int64)
        next_time = np.zeros(cores, dtype=np.float64)
        # References each core issued in the previous window.
        pace = np.ones(cores, dtype=np.int64)

        cadence = resolve_cadence(self.config.audit_every)
        audit_countdown = cadence
        warmup = self.config.warmup_refs
        snapshot: dict[int, AsidCounters] | None = None
        issued = 0
        while True:
            remaining = lengths - position
            share = -(-WINDOW_REFS * (pace + 1) // (pace.sum() + cores))
            widths = np.minimum(share, remaining)
            span = int(widths.max())
            cells = np.flatnonzero(np.arange(span) < widths[:, None])
            cell_core = cells // span
            cell_col = cells - cell_core * span
            source = first_ref[cell_core] + position[cell_core] + cell_col
            blocks = all_blocks[source]
            writes = all_writes[source]
            hit = probe(blocks) | _repeats(blocks)
            # Where each candidate's issue time sits in ``times``.
            cell_time = cell_core * (span + 1) + cell_col
            exhausting = cell_col == remaining[cell_core] - 1
            # Cores whose trace continues past their candidates bound
            # the window with their first reference outside it.
            bounding = core_ids[remaining > widths]
            bound_at = bounding * (span + 1) + widths[bounding]
            # Window ends fixed in advance: the warm-up snapshot, audits.
            limits = [audit_countdown] if cadence else []
            if snapshot is None and warmup:
                limits.append(warmup - issued)

            candidates = session.open_window(blocks, asid_of[cell_core], writes)
            steps = np.empty((cores, span + 1))
            steps[:, 0] = next_time
            gaps = steps.reshape(-1)
            for attempt in range(REFINEMENTS + 1):
                gaps[cell_time + 1] = np.where(hit, 1.0, miss_gap)
                times = np.cumsum(steps, axis=1).reshape(-1)
                when = times[cell_time]
                bound_time, bound_core = np.inf, cores
                if len(bounding):
                    bound = times[bound_at]
                    bound_time = bound.min()
                    bound_core = bounding[bound == bound_time][0]
                inside = (when < bound_time) | (
                    (when == bound_time) & (cell_core < bound_core)
                )
                window = np.flatnonzero(inside)
                window = window[np.argsort(when[window], kind="stable")]
                ends = exhausting[window]
                size = int(ends.argmax()) + 1 if ends.any() else len(window)
                size = min([size, *limits])
                window = window[:size]
                committed, outcome = candidates.replay(
                    window, hit[window], attempt == REFINEMENTS
                )
                hit[window] = outcome
                if committed:
                    break

            window = window[:committed]
            pace = np.bincount(cell_core[window], minlength=cores)
            gaps[cell_time + 1] = np.where(hit, 1.0, miss_gap)
            times = np.cumsum(steps, axis=1)
            next_time = times[core_ids, pace]
            position += pace
            issued += committed
            if cadence:
                audit_countdown -= committed
                if audit_countdown == 0:
                    audit_countdown = cadence
                    audit_and_emit(cache)
            if snapshot is None and warmup and issued >= warmup:
                snapshot = {
                    a: c.copy() for a, c in cache.stats.per_asid.items()
                }
            last = window[-1]
            if exhausting[last]:
                return snapshot, issued, float(times[cell_core[last], cell_col[last]])

    def _finish(self, snapshot, issued: int, end_time: float) -> CMPRunResult:
        if self.telemetry is not None:
            self.telemetry.flush_epoch()
        return self._collect(snapshot, issued, end_time)

    def _collect(
        self,
        snapshot: dict[int, AsidCounters] | None,
        issued: int,
        end_time: float,
    ) -> CMPRunResult:
        result = CMPRunResult(total_refs=issued, end_time=end_time)
        measured = 0
        for asid, counters in self.cache.stats.per_asid.items():
            base = (snapshot or {}).get(asid)
            net = counters.copy()
            if base is not None:
                net.accesses -= base.accesses
                net.hits -= base.hits
                net.evictions -= base.evictions
                net.writebacks -= base.writebacks
            if net.accesses > 0:
                result.per_asid[asid] = net
                measured += net.accesses
        result.measured_refs = measured
        return result
