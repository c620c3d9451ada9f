"""The repository benchmark: paper-artifact wall time, end to end and by layer.

    python3 perfbench/run.py --workload table2 --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 40 --trace 1

Workloads (one client, closed loop: each repetition starts when the
previous one has ended; one process, except the 2 campaign workers of
``figure5-sweep``):

* ``table2`` — ``run_table2`` at ``REPRO_SCALE=0.1``: 12 apps, four
  set-associative and two molecular shared-L2 runs through ``CMPRunner``.
* ``figure5-sweep`` — ``repro sweep figure5 --jobs 2`` into a fresh
  store at ``REPRO_SCALE=0.1``: 24 small cells, each regenerating its
  traces.
* ``resize-churn`` — ``run_resize_mechanism`` at ``REPRO_SCALE=1``:
  3 triggers x flush/chash over write-heavy phased churn with fault
  bursts, straight through ``access_block``.

Each repetition runs in a fresh process (``perfbench/rep.py``) until
``--seconds`` have passed; the first is an untimed warm-up. A fixed
calibration loop timed between repetitions gauges the host's speed, and
each timed repetition's end-to-end times are rescaled to a reference
host speed before the medians are taken, so that a shared host slowing
down for minutes does not read as a slower program. With ``--trace 1``,
untraced and traced repetitions alternate, and the per-layer metrics
(not rescaled) come from the traced repetition with the median wall; its
spans are written under ``.perfbench/spans/``.

Every repetition's output is checked against ``perfbench/digests.json``
(recorded by ``perfbench/record.py``). For a seed without a recorded
digest, the first repetition is the reference, and ``figure5-sweep`` is
also compared with the serial ``run_figure5`` at the same scale and seed.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (ops: one cache run, grid cell or campaign job plus its output
check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import at_reference_speed, failed_ops, summarize  # noqa: E402

WORKLOADS = ("table2", "figure5-sweep", "resize-churn")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("refs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Per-layer metrics and their units, in report order.
PER_LAYER = (
    ("workloads.gen_s", "s"), ("workloads.refs", "count"), ("workloads.share", "ratio"),
    ("sim.run_s", "s"), ("sim.sched_self_s", "s"), ("sim.refs", "count"),
    ("sim.end_time", "sim_units"), ("sim.share", "ratio"),
    ("molecular.access_s", "s"), ("molecular.refs", "count"),
    ("molecular.ns_per_ref", "ns"), ("molecular.hit_ratio", "ratio"),
    ("molecular.probes_per_ref", "count"), ("molecular.miss_rate", "ratio"),
    ("molecular.share", "ratio"),
    ("caches.access_s", "s"), ("caches.refs", "count"), ("caches.ns_per_ref", "ns"),
    ("caches.hit_ratio", "ratio"), ("caches.share", "ratio"),
    ("resize.s", "s"), ("resize.rounds", "count"), ("resize.lines_moved", "count"),
    ("resize.grant_ratio", "ratio"), ("resize.share", "ratio"),
    ("campaign.jobs", "count"), ("campaign.job_s", "s"), ("campaign.overhead_s", "s"),
    ("campaign.parallel_eff", "ratio"), ("campaign.attempts_per_job", "count"),
    ("campaign.cached_jobs", "count"), ("campaign.self_s", "s"),
    ("campaign.share", "ratio"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.remainder_s", "s"),
    ("trace.remainder_share", "ratio"), ("trace.spans", "count"),
)
LAYER_ROWS = ("workloads", "sim", "molecular", "caches", "resize", "campaign")
#: A repetition normally takes 3-7 s; the whole run must end within 180 s.
REP_TIMEOUT_S = 60
#: Time of :func:`calibrate` at the reference host speed the end-to-end
#: times are reported at: about its median on a 2-vCPU Xeon KVM guest.
CALIBRATION_REF_S = 0.15
_CALIBRATION_TRACE: list[int] = []


class RepFailed(RuntimeError):
    pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_rep(workload: str, seed: int, trace: int, work: Path) -> dict:
    """One repetition in a fresh process; returns its JSON result."""
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--work", str(work),
    ]
    # A session of its own, so a timeout also stops the campaign workers.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{workload} repetition timed out after {REP_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise RepFailed(f"{workload} repetition exited with {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Time a fixed loop to gauge how fast the host runs right now.

    The host is shared: identical repetitions run up to twice as slow for
    minutes at a time, and a loop of the same kind of work (a pure-Python
    LRU cache over a fixed trace, none of it from ``src/``) slows with
    them. It runs in this process between repetitions, so it competes
    with nothing of the benchmark's own.
    """
    if not _CALIBRATION_TRACE:
        rng = random.Random(0)
        _CALIBRATION_TRACE.extend(rng.randrange(1 << 14) for _ in range(60_000))
    start = perf_counter()
    sets: list[list[int]] = [[] for _ in range(256)]
    for _ in range(10):
        for block in _CALIBRATION_TRACE:
            ways = sets[block & 255]
            if block in ways:
                ways.remove(block)
            elif len(ways) >= 8:
                ways.pop(0)
            ways.append(block)
    return perf_counter() - start


def load_expected(workload: str, seed: int) -> dict | None:
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded["workloads"][workload].get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: int, scratch: Path):
    """Repeat ``workload`` for ``seconds``; returns ``(result, lines)``."""
    expected = load_expected(workload, seed)
    started = perf_counter()
    # The first repetition after a pause ran up to 30 % slower than the
    # ones after it: it is checked like the others but not timed.
    warmup = run_rep(workload, seed, 0, scratch / f"{workload}-warmup")
    reps: list[tuple[int, dict | None]] = []  # (trace flag, result or None)
    # Host speed before and after each timed repetition.
    calibrations = [calibrate()]
    durations: list[float] = [perf_counter() - started]
    # Stop before a repetition that would likely end past the deadline,
    # so a run takes about ``seconds`` whatever the repetition length.
    while len(reps) < (2 if trace else 1) or (
        perf_counter() - started + max(durations) <= seconds
    ):
        flag = int(trace and len(reps) % 2 == 1)
        work = scratch / f"{workload}-{len(reps)}"
        rep_started = perf_counter()
        try:
            rep = run_rep(workload, seed, flag, work)
        except RepFailed as error:
            if not reps:
                raise
            log(f"error: {error}")
            rep = None
        calibrations.append(calibrate())
        if rep is not None:
            rep["calibration_s"] = (calibrations[-2] + calibrations[-1]) / 2
        reps.append((flag, rep))
        durations.append(perf_counter() - rep_started)
    done = [r for _, r in reps if r is not None]
    ops_per_rep = warmup["ops"]

    source = "perfbench/digests.json"
    if expected is None:
        if workload == "figure5-sweep":
            expected = run_rep("figure5-serial", seed, 0, scratch / "serial")["digests"]
            source = "serial run_figure5 (seed not in perfbench/digests.json)"
        else:
            expected = warmup["digests"]
            source = "first repetition (seed not in perfbench/digests.json)"

    attempted = failed = 0
    for rep in [warmup, *(r for _, r in reps)]:
        attempted += ops_per_rep
        if rep is None:
            failed += ops_per_rep
            continue
        bad = failed_ops(expected, rep["digests"], rep["cached_jobs"])
        if not 0.0 < rep["miss_rate"] < 1.0:
            bad = ops_per_rep
        failed += bad

    untraced = [r for flag, r in reps if r is not None and not flag]
    metrics = {}
    lines = [
        f"{workload} seed {seed}: 1 warm-up and {len(reps)} timed repetitions in "
        f"{perf_counter() - started:.1f}s, outputs checked against {source}"
    ]
    if not trace:
        scaled = [
            at_reference_speed(r, r["calibration_s"], CALIBRATION_REF_S)
            for r in untraced
        ]
        for name, unit in END_TO_END:
            stats = summarize([r[name] for r in scaled])
            metrics[name] = {"value": stats["median"], "unit": unit}
            lines.append(
                f"  {name:<14} {stats['median']:>14.6g} {unit:<6} "
                f"(median; q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})"
            )
        raw_wall = summarize([r["wall_s"] for r in untraced])["median"]
        calibration = summarize([r["calibration_s"] for r in untraced])["median"]
        lines.append(
            f"  times above are at the reference host speed; as measured, "
            f"wall_s {raw_wall:.6g} s with calibration {calibration:.6g} s "
            f"(reference {CALIBRATION_REF_S} s)"
        )
    else:
        traced = sorted(
            (r for flag, r in reps if r is not None and flag),
            key=lambda r: r["wall_s"],
        )
        chosen = traced[(len(traced) - 1) // 2]
        layers = dict(chosen["layers"])
        untraced_wall = summarize([r["wall_s"] for r in untraced])["median"]
        layers["trace.untraced_wall_s"] = untraced_wall
        layers["trace.overhead_ratio"] = chosen["wall_s"] / untraced_wall - 1.0
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
        lines += format_split(layers)
        lines += [f"  {name:<26} {layers[name]:>14.6g} {unit}" for name, unit in PER_LAYER]
        spans_dir = ROOT / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        index = next(i for i, (_, r) in enumerate(reps) if r is chosen)
        target = spans_dir / f"{workload}-seed{seed}.json"
        shutil.copyfile(scratch / f"{workload}-{index}" / "spans.json", target)
        lines.append(f"  spans of the reported repetition -> {target.relative_to(ROOT)}")
    lines.append(f"  failed_ratio   {failed}/{attempted} ops")
    if warmup["paper_abs_err"] is not None:
        err = summarize([r["paper_abs_err"] for r in [warmup, *done]])["median"]
        lines.append(f"  paper_abs_err  {err:.6g} (mean |ours - PAPER_TABLE2| over 6 designs)")
    else:
        lines.append("  paper_abs_err  n/a (no reference in the repository: unvalidated)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def format_split(layers: dict) -> list[str]:
    wall = layers["trace.wall_s"]
    lines = [f"  layer split of the traced wall ({wall:.3f}s):"]
    for layer in LAYER_ROWS:
        share = layers[f"{layer}.share"]
        lines.append(f"    {layer:<10} {share * wall:9.3f}s {share:7.1%}")
    share = layers["trace.remainder_share"]
    lines.append(f"    {'remainder':<10} {share * wall:9.3f}s {share:7.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        log(f"error: no repro sources under {ROOT / 'src'}")
        return 2
    scratch = ROOT / ".perfbench" / f"work-{os.getpid()}"
    scratch.mkdir(parents=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, lines = run_workload(
                workload, args.seed, args.seconds, args.trace, scratch
            )
            print("\n".join(lines), flush=True)
            results[workload] = result
    except RepFailed as error:
        log(f"error: {error}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{name}": value
                for w, r in results.items() for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
