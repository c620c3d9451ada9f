"""Campaign execution: a worker pool over deterministic job specs.

The runner takes an ordered list of :class:`~repro.campaign.spec.JobSpec`
and produces one result payload per spec, in spec order, persisting each
to the :class:`~repro.campaign.store.ResultStore` the moment it
completes. Execution modes:

* ``jobs > 1`` — a ``ProcessPoolExecutor`` (capped at the core count)
  with a sliding submission window; jobs travel in *chunks* of several
  specs per submission so short jobs amortise pickling/IPC and worker
  start-up across warm workers, and the per-chunk timeout scales with
  chunk length (``timeout`` stays a per-job bound);
* ``jobs <= 1`` — in-process serial execution, no pool;
* **fallback** — if the pool cannot be created or keeps breaking (some
  sandboxes forbid the semaphores ``multiprocessing`` needs), the
  remaining jobs run serially in-process and the campaign still
  completes (``CampaignResult.mode == "serial-fallback"``).

Failure policy: a job that raises is retried up to ``retries`` times
with exponential backoff; :class:`~repro.common.errors.ConfigError` is
never retried (a bad parameter is deterministic). A job exceeding
``timeout`` seconds tears the pool down (a stuck worker cannot be
cancelled individually), re-queues everything unfinished, and counts as
one failed attempt for the offender. Retries exhausted raise
:class:`~repro.common.errors.CampaignError`; everything already
persisted survives for a ``--resume``.

Determinism: each job re-derives its inputs from its spec (traces are
regenerated from the seed inside the worker), so a parallel campaign's
reassembled results are byte-identical to a serial run — the *order* of
completion varies, the *content* cannot.

Fault injection: ``CampaignRunner(fault_hook=...)`` calls the hook with
the number of jobs persisted so far after each save; a hook that raises
simulates a mid-campaign crash *after* durable progress, which is
exactly what the resume tests need.

Chaos testing: ``CampaignRunner(chaos=ChaosPolicy(...))`` adversarially
exercises the pool's failure handling with *deterministic* worker
crashes, hangs and corrupted result payloads (see
:mod:`repro.faults.chaos`). Each job is sabotaged at most once, and only
on the pool path — serial and fallback execution stay untouched — so a
chaos campaign always converges to the same results a clean run
produces. With ``chaos=None`` the pool submissions are byte-identical to
a runner built without the feature.

Interruption: SIGINT/SIGTERM (and any ``KeyboardInterrupt``/
``SystemExit``) abort the dispatch loop, but every job persisted before
the signal survives in the store — a ``--resume`` completes just the
rest. The runner emits a ``CampaignInterrupted`` telemetry event and
re-raises.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.spec import JobSpec
from repro.campaign.store import ResultStore
from repro.common.clock import tick
from repro.common.errors import CampaignError, ConfigError
from repro.faults.chaos import ChaosPolicy
from repro.prof.spans import DISPATCHER_TID, SpanRecorder
from repro.telemetry.events import (
    CampaignInterrupted,
    ChaosInjected,
    JobCompleted,
    JobRetried,
    JobStarted,
    JobSubmitted,
)

try:  # pragma: no cover - always present on CPython
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    BrokenProcessPool = RuntimeError  # type: ignore[misc,assignment]

#: Seconds between completion polls in the pool dispatch loop.
_POLL_INTERVAL = 0.05
#: Cap on one backoff sleep, whatever the retry count.
_MAX_BACKOFF = 10.0


@contextmanager
def _scale_env(scale: float):
    """Pin ``REPRO_SCALE`` to the spec's captured factor for one job."""
    previous = os.environ.get("REPRO_SCALE")
    os.environ["REPRO_SCALE"] = repr(scale)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_SCALE", None)
        else:
            os.environ["REPRO_SCALE"] = previous


def execute_spec(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: run one job from its JSON payload.

    Top-level so it pickles across process boundaries; also used verbatim
    by the in-process serial path, which is what guarantees serial and
    parallel campaigns execute identical code.
    """
    from repro.campaign.registry import execute_job

    spec = JobSpec.from_payload(payload)
    # One clock (repro.common.clock.tick) for elapsed, deadlines and span
    # timestamps; monotonic is system-wide, so these worker-side marks
    # are directly comparable with the dispatcher's submission times.
    started = tick()
    with _scale_env(spec.scale):
        result = execute_job(spec)
    ended = tick()
    return {
        "result": result,
        "elapsed": ended - started,
        "started": started,
        "ended": ended,
        "pid": os.getpid(),
    }


def guided_chunk_sizes(jobs: int, workers: int) -> list[int]:
    """Chunk lengths for ``jobs`` jobs on ``workers`` workers.

    Each chunk takes ``ceil(remaining / (2 * workers))`` jobs: large
    chunks first, so per-submission overhead amortises, then ever
    smaller ones, so no worker is left running a long chunk alone at the
    end while the others idle (24 jobs on 2 workers: 6, 5, 4, 3, 2, 1,
    1, 1, 1).
    """
    sizes = []
    remaining = jobs
    while remaining > 0:
        size = -(-remaining // (2 * workers))
        sizes.append(size)
        remaining -= size
    return sizes


def execute_chunk(
    payloads: list[dict[str, Any]],
    directives: list[dict[str, Any] | None] | None = None,
) -> list[dict[str, Any]]:
    """Worker entry point: run several jobs in one pool submission.

    Short jobs are dominated by per-submission pickling/IPC and by cold
    worker start-up, so the pool dispatcher parcels them into chunks and
    each warm worker burns through a parcel at in-process speed. One
    outcome dict is returned per payload, in order; a failing job yields
    ``{"error": exception}`` instead of aborting its chunk-mates, and the
    dispatcher requeues it as a singleton so retry accounting stays per
    spec.

    ``directives`` carries chaos sabotage per payload (``None`` entries
    are benign): ``crash`` kills the worker process outright, ``hang``
    sleeps before executing (long enough to trip the dispatcher's
    timeout), and ``corrupt`` returns a malformed outcome in place of the
    job's result. The parameter is only ever passed by a chaos-enabled
    runner.
    """
    outcomes: list[dict[str, Any]] = []
    for position, payload in enumerate(payloads):
        directive = directives[position] if directives else None
        if directive is not None:
            action = directive.get("action")
            if action == "crash":
                os._exit(13)  # the pool sees BrokenProcessPool
            elif action == "hang":
                time.sleep(float(directive.get("seconds", 30.0)))
            elif action == "corrupt":
                # Missing "elapsed": fails the dispatcher's outcome-shape
                # validation, so the job is retried, never persisted.
                outcomes.append({"result": "\x00corrupt"})
                continue
        try:
            outcomes.append(execute_spec(payload))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:
            outcomes.append({"error": error})
    return outcomes


@dataclass(slots=True)
class CampaignConfig:
    """Execution knobs for one campaign run."""

    jobs: int = 1
    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.5
    resume: bool = True

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ConfigError("jobs must be >= 0 (0 = one worker per CPU)")
        if self.jobs == 0:
            self.jobs = os.cpu_count() or 1
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError("per-job timeout must be positive")
        if self.retries < 0:
            raise ConfigError("retries cannot be negative")


@dataclass(slots=True)
class CampaignResult:
    """Everything a completed campaign produced, reassembled in spec order."""

    campaign: str
    specs: list[JobSpec]
    payloads: dict[str, Any] = field(default_factory=dict)
    cached: set[str] = field(default_factory=set)
    executed: int = 0
    retried: int = 0
    elapsed: float = 0.0
    mode: str = "serial"

    def results_in_order(self) -> list[Any]:
        """One result payload per spec, in the original spec order."""
        return [self.payloads[spec.content_hash()] for spec in self.specs]

    def summary(self) -> str:
        return (
            f"campaign {self.campaign}: {len(self.specs)} jobs "
            f"({self.executed} run, {len(self.cached)} cached, "
            f"{self.retried} retried) in {self.elapsed:.1f}s [{self.mode}]"
        )


class CampaignRunner:
    """Executes job specs against a store, optionally in parallel."""

    def __init__(
        self,
        store: ResultStore,
        config: CampaignConfig | None = None,
        telemetry=None,
        fault_hook: Callable[[int], None] | None = None,
        chaos: ChaosPolicy | None = None,
        spans: SpanRecorder | None = None,
    ) -> None:
        self.store = store
        self.config = config or CampaignConfig()
        self.telemetry = telemetry
        self.fault_hook = fault_hook
        self.chaos = chaos
        #: Span recorder for queue/execute/store timelines, or None.
        #: Worker outcomes may lack timestamps (tests monkeypatch
        #: execute_spec with bare {"result", "elapsed"} dicts), so every
        #: span site reads them with ``.get`` and skips what is missing.
        self.spans = spans
        #: Job hashes already sabotaged — each job is chaos'd at most
        #: once, so retries make progress and the campaign converges.
        self._chaos_fired: set[str] = set()
        self._persisted = 0

    # ------------------------------------------------------------ plumbing

    def _emit(self, event) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event)

    def _persist(
        self,
        result: CampaignResult,
        index: int,
        spec: JobSpec,
        outcome: dict[str, Any],
        attempt: int,
    ) -> None:
        save_started = tick()
        job_hash = self.store.save(
            spec, outcome["result"], outcome["elapsed"], attempt
        )
        if self.spans is not None:
            self.spans.span(
                f"store {spec.label()}", "store", save_started, tick(),
                args={"job": job_hash, "attempt": attempt},
            )
            self._record_job_span(spec, outcome, attempt)
        result.payloads[job_hash] = outcome["result"]
        result.executed += 1
        self._persisted += 1
        self._emit(
            JobCompleted(
                campaign=result.campaign,
                job=job_hash,
                index=index,
                attempts=attempt,
                elapsed=outcome["elapsed"],
                cached=False,
            )
        )
        if self.fault_hook is not None:
            self.fault_hook(self._persisted)

    def _record_job_span(
        self, spec: JobSpec, outcome: dict[str, Any], attempt: int
    ) -> None:
        """One ``job`` span on the executing worker's track, if timed."""
        started = outcome.get("started")
        ended = outcome.get("ended")
        if started is None or ended is None:
            return  # a monkeypatched/legacy worker without timestamps
        pid = outcome.get("pid", DISPATCHER_TID)
        self.spans.name_track(
            pid, "dispatcher" if pid == DISPATCHER_TID else f"worker {pid}"
        )
        self.spans.span(
            spec.label(), "job", started, ended, tid=pid,
            args={"attempt": attempt, "experiment": spec.experiment},
        )

    def _record_chunk_spans(
        self,
        chunk: list[tuple[int, JobSpec, int]],
        outcomes: list[dict[str, Any]],
        submitted: float,
    ) -> None:
        """``queue`` + ``chunk`` spans for one pool submission.

        Queue-wait runs from the dispatcher's submit mark to the first
        worker-side ``started`` timestamp — both on the shared monotonic
        clock, so the difference is meaningful across processes.
        """
        timed = [
            outcome
            for outcome in outcomes
            if isinstance(outcome, dict)
            and outcome.get("started") is not None
            and outcome.get("ended") is not None
        ]
        if not timed:
            return
        first_start = min(outcome["started"] for outcome in timed)
        last_end = max(outcome["ended"] for outcome in timed)
        pid = timed[0].get("pid", DISPATCHER_TID)
        self.spans.name_track(
            pid, "dispatcher" if pid == DISPATCHER_TID else f"worker {pid}"
        )
        self.spans.span(
            f"queue ({len(chunk)} job(s))", "queue", submitted, first_start,
            args={"jobs": len(chunk)},
        )
        self.spans.span(
            f"chunk ({len(chunk)} job(s))", "chunk", first_start, last_end,
            tid=pid, args={"jobs": len(chunk)},
        )

    def _chaos_directives(
        self, campaign: str, chunk: list[tuple[int, JobSpec, int]]
    ) -> list[dict[str, Any] | None] | None:
        """Sabotage orders for one chunk submission (None = chaos off).

        Deterministic in the policy seed and each job's content hash, and
        at most one strike per job across the whole campaign.
        """
        if self.chaos is None or not self.chaos.active:
            return None
        directives: list[dict[str, Any] | None] = []
        for _index, spec, _attempt in chunk:
            job_hash = spec.content_hash()
            directive = None
            if job_hash not in self._chaos_fired:
                directive = self.chaos.directive(job_hash)
                if directive is not None:
                    self._chaos_fired.add(job_hash)
                    self._emit(
                        ChaosInjected(
                            campaign=campaign,
                            job=job_hash,
                            action=directive["action"],
                        )
                    )
            directives.append(directive)
        return directives

    def _next_attempt(
        self, result: CampaignResult, index: int, spec: JobSpec,
        attempt: int, error: BaseException,
    ) -> int:
        """Account one failure; returns the next attempt number."""
        if isinstance(error, CampaignError):
            # The worker already classified this as deterministic (e.g.
            # an invariant-audit failure): retrying cannot help.
            raise error
        if isinstance(error, ConfigError):
            raise CampaignError(
                f"job {spec.label()} is misconfigured: {error}"
            ) from error
        if attempt > self.config.retries:
            raise CampaignError(
                f"job {spec.label()} failed after {attempt} attempt(s): {error}"
            ) from error
        result.retried += 1
        if self.spans is not None:
            self.spans.instant(
                "retry", "retry", tick(),
                args={
                    "job": spec.label(),
                    "attempt": attempt + 1,
                    "error": str(error) or type(error).__name__,
                },
            )
        self._emit(
            JobRetried(
                campaign=result.campaign,
                job=spec.content_hash(),
                index=index,
                attempt=attempt + 1,
                error=str(error) or type(error).__name__,
            )
        )
        delay = min(self.config.backoff * (2 ** (attempt - 1)), _MAX_BACKOFF)
        if delay > 0:
            time.sleep(delay)
        return attempt + 1

    # ----------------------------------------------------------------- run

    def run(
        self,
        specs: list[JobSpec],
        campaign: str = "campaign",
        options: dict[str, Any] | None = None,
    ) -> CampaignResult:
        """Execute ``specs``; every completed job lands in the store."""
        if not specs:
            raise ConfigError("a campaign needs at least one job spec")
        started = tick()
        result = CampaignResult(campaign=campaign, specs=list(specs))
        self._persisted = 0
        self.store.write_manifest(campaign, result.specs, options or {})

        hashes = [spec.content_hash() for spec in result.specs]
        cached = self.store.completed(hashes) if self.config.resume else set()
        pending: list[tuple[int, JobSpec]] = []
        seen: set[str] = set()
        for index, (spec, job_hash) in enumerate(zip(result.specs, hashes)):
            self._emit(
                JobSubmitted(
                    campaign=campaign,
                    job=job_hash,
                    experiment=spec.experiment,
                    index=index,
                )
            )
            record = None
            if job_hash in cached:
                try:
                    record = self.store.load(job_hash)
                except ConfigError as error:
                    # The stored result was corrupt: load() quarantined
                    # it to <hash>.json.corrupt, so the job is simply
                    # incomplete again — demote it to pending instead of
                    # failing the whole resume.
                    print(
                        f"campaign: {error}", file=sys.stderr
                    )
            if record is not None:
                result.payloads[job_hash] = record["result"]
                result.cached.add(job_hash)
                self._emit(
                    JobCompleted(
                        campaign=campaign,
                        job=job_hash,
                        index=index,
                        attempts=record.get("attempts", 1),
                        elapsed=record.get("elapsed", 0.0),
                        cached=True,
                    )
                )
            elif job_hash not in seen:  # identical specs run once
                seen.add(job_hash)
                pending.append((index, spec))

        # SIGTERM normally kills the process outright; translate it into
        # SystemExit for the duration of the dispatch so the interrupt
        # path below runs (installable only from the main thread).
        def raise_sigterm(_signum, _frame):
            raise SystemExit(143)

        previous_handler = None
        try:
            previous_handler = signal.signal(signal.SIGTERM, raise_sigterm)
        except ValueError:  # not the main thread
            pass
        try:
            if self.config.jobs > 1 and len(pending) > 1:
                result.mode = "pool"
                self._run_pool(result, pending)
            else:
                result.mode = "serial"
                self._run_serial(result, pending)
        except (KeyboardInterrupt, SystemExit) as error:
            # Everything persisted before the signal survives in the
            # store; announce how much is left and let the signal
            # propagate — a --resume completes just the rest.
            done = sum(1 for h in hashes if h in result.payloads)
            self._emit(
                CampaignInterrupted(
                    campaign=campaign,
                    signal=(
                        "SIGINT"
                        if isinstance(error, KeyboardInterrupt)
                        else "SIGTERM"
                    ),
                    completed=done,
                    pending=len(hashes) - done,
                )
            )
            raise
        finally:
            if previous_handler is not None:
                signal.signal(signal.SIGTERM, previous_handler)
            if self.spans is not None:
                self.spans.name_track(DISPATCHER_TID, "dispatcher")
                self.spans.span(
                    f"campaign {campaign}", "campaign", started, tick(),
                    args={
                        "jobs": len(result.specs),
                        "executed": result.executed,
                        "cached": len(result.cached),
                        "retried": result.retried,
                        "mode": result.mode,
                    },
                )
        result.elapsed = tick() - started
        return result

    # -------------------------------------------------------------- serial

    def _run_serial(
        self, result: CampaignResult, pending: list[tuple[int, JobSpec]]
    ) -> None:
        for index, spec in pending:
            attempt = 1
            while True:
                self._emit(
                    JobStarted(
                        campaign=result.campaign,
                        job=spec.content_hash(),
                        index=index,
                        attempt=attempt,
                    )
                )
                try:
                    outcome = execute_spec(spec.as_payload())
                except (KeyboardInterrupt, SystemExit, CampaignError):
                    raise
                except Exception as error:
                    attempt = self._next_attempt(
                        result, index, spec, attempt, error
                    )
                else:
                    self._persist(result, index, spec, outcome, attempt)
                    break

    # ---------------------------------------------------------------- pool

    def _run_pool(
        self, result: CampaignResult, pending: list[tuple[int, JobSpec]]
    ) -> None:
        # Never spawn more workers than cores: oversubscribed process
        # pools lose to serial execution outright on few-core machines
        # (start-up cost per worker, then contention).
        cores = os.cpu_count() or self.config.jobs
        workers = max(1, min(self.config.jobs, len(pending), cores))
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except Exception as error:  # pool unavailable: sandboxed env etc.
            print(
                f"campaign: worker pool unavailable ({error}); "
                "falling back to serial execution",
                file=sys.stderr,
            )
            result.mode = "serial-fallback"
            self._run_serial(result, pending)
            return

        # Parcel the jobs into guided chunks (see ``guided_chunk_sizes``).
        # Requeued work (retries, timeouts) travels as singleton chunks
        # to keep attribution per spec.
        items = [(index, spec, 1) for index, spec in pending]
        queue: deque[list[tuple[int, JobSpec, int]]] = deque()
        start = 0
        for size in guided_chunk_sizes(len(items), workers):
            queue.append(items[start : start + size])
            start += size
        active: dict[Any, tuple[list[tuple[int, JobSpec, int]], float]] = {}
        pool_breaks = 0

        def requeue_active() -> None:
            for other_chunk, _t in active.values():
                queue.append(other_chunk)
            active.clear()

        try:
            while queue or active:
                while queue and len(active) < workers:
                    chunk = queue.popleft()
                    payloads = [spec.as_payload() for _i, spec, _a in chunk]
                    directives = self._chaos_directives(
                        result.campaign, chunk
                    )
                    if directives is None:
                        # Chaos off: the submission is byte-identical to
                        # a runner without the feature.
                        future = pool.submit(execute_chunk, payloads)
                    else:
                        future = pool.submit(
                            execute_chunk, payloads, directives
                        )
                    active[future] = (chunk, tick())
                    for index, spec, attempt in chunk:
                        self._emit(
                            JobStarted(
                                campaign=result.campaign,
                                job=spec.content_hash(),
                                index=index,
                                attempt=attempt,
                            )
                        )
                done, _ = wait(
                    set(active), timeout=_POLL_INTERVAL,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    chunk, submitted = active.pop(future)
                    try:
                        outcomes = future.result()
                    except (BrokenProcessPool, OSError) as error:
                        # The pool died under us; every in-flight chunk
                        # is lost. Requeue them all, charge the first
                        # job of the surfacing chunk one attempt, and
                        # rebuild the pool.
                        pool_breaks += 1
                        if self.spans is not None:
                            self.spans.instant(
                                "pool-break", "pool", tick(),
                                args={
                                    "breaks": pool_breaks,
                                    "error": str(error)
                                    or type(error).__name__,
                                },
                            )
                        if pool_breaks > self.config.retries + 1:
                            print(
                                "campaign: worker pool keeps breaking; "
                                "falling back to serial execution",
                                file=sys.stderr,
                            )
                            queue.appendleft(chunk)
                            requeue_active()
                            pool.shutdown(wait=False, cancel_futures=True)
                            result.mode = "serial-fallback"
                            self._run_serial(result, [
                                (i, s)
                                for queued in queue
                                for i, s, _a in queued
                            ])
                            return
                        index, spec, attempt = chunk[0]
                        chunk[0] = (
                            index, spec,
                            self._next_attempt(
                                result, index, spec, attempt, error
                            ),
                        )
                        queue.appendleft(chunk)
                        requeue_active()
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=workers)
                        broken = True
                        break
                    except Exception as error:
                        # The chunk call itself failed (e.g. an outcome
                        # that would not pickle); isolate its specs and
                        # charge the first one the attempt.
                        index, spec, attempt = chunk[0]
                        attempt = self._next_attempt(
                            result, index, spec, attempt, error
                        )
                        queue.append([(index, spec, attempt)])
                        for index, spec, attempt in chunk[1:]:
                            queue.append([(index, spec, attempt)])
                    else:
                        if (
                            not isinstance(outcomes, list)
                            or len(outcomes) != len(chunk)
                        ):
                            # A corrupted chunk return: requeue every job
                            # as a singleton, charging the first one.
                            error = RuntimeError(
                                "worker returned a malformed chunk: "
                                f"{type(outcomes).__name__} for "
                                f"{len(chunk)} job(s)"
                            )
                            index, spec, attempt = chunk[0]
                            attempt = self._next_attempt(
                                result, index, spec, attempt, error
                            )
                            queue.append([(index, spec, attempt)])
                            for index, spec, attempt in chunk[1:]:
                                queue.append([(index, spec, attempt)])
                            continue
                        if self.spans is not None:
                            self._record_chunk_spans(
                                chunk, outcomes, submitted
                            )
                        for (index, spec, attempt), outcome in zip(
                            chunk, outcomes
                        ):
                            if not isinstance(outcome, dict):
                                error = RuntimeError(
                                    "worker returned a malformed outcome: "
                                    f"{type(outcome).__name__}"
                                )
                            else:
                                error = outcome.get("error")
                                if error is None and (
                                    "result" not in outcome
                                    or "elapsed" not in outcome
                                ):
                                    error = RuntimeError(
                                        "worker returned a malformed "
                                        "outcome: missing result/elapsed"
                                    )
                            if error is not None:
                                attempt = self._next_attempt(
                                    result, index, spec, attempt, error
                                )
                                queue.append([(index, spec, attempt)])
                            else:
                                self._persist(
                                    result, index, spec, outcome, attempt
                                )
                if broken:
                    continue
                if self.config.timeout is not None and active:
                    # The budget scales with chunk length: ``timeout``
                    # stays a *per-job* bound, as in serial mode.
                    now = tick()
                    expired = [
                        future
                        for future, (queued, t0) in active.items()
                        if now - t0 > self.config.timeout * len(queued)
                    ]
                    if expired:
                        # A stuck worker cannot be cancelled
                        # individually: tear the pool down, requeue
                        # survivors unchanged and the expired chunk's
                        # jobs as singletons with one attempt charged —
                        # the true offender then times out alone on the
                        # next round.
                        for future in expired:
                            chunk, _t0 = active.pop(future)
                            if self.spans is not None:
                                self.spans.instant(
                                    "timeout", "timeout", now,
                                    args={
                                        "jobs": len(chunk),
                                        "budget_s": self.config.timeout
                                        * len(chunk),
                                    },
                                )
                            for index, spec, attempt in chunk:
                                attempt = self._next_attempt(
                                    result, index, spec, attempt,
                                    TimeoutError(
                                        f"exceeded "
                                        f"{self.config.timeout:.1f}s/job"
                                    ),
                                )
                                queue.append([(index, spec, attempt)])
                        requeue_active()
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = ProcessPoolExecutor(max_workers=workers)
        finally:
            # Normal completion has drained queue and active, so waiting
            # is instant and joins the worker/management threads before
            # interpreter exit (otherwise the atexit hook races their
            # pipe teardown and prints an ignored OSError). Abnormal
            # exits may leave stuck workers in flight: don't block.
            pool.shutdown(wait=not (queue or active), cancel_futures=True)
