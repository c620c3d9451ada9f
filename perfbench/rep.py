"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/rep.py --workload table2 --seed 3 --trace 0 --work DIR

Runs the workload through the repository's public entry points, then
prints one JSON object on stdout: wall and set-up time, simulated
references, peak RSS, the output digests and, with ``--trace 1``, every
per-layer metric. ``perfbench/run.py`` drives it; it writes only under
``--work``.

Each repetition is its own process so that set-up (imports, trace
generation, cache and store construction) and peak memory are measured
afresh every time.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``REPRO_SCALE`` per workload. Fixed: the recorded digests hold only at
#: these scales. ``figure5-serial`` is not a workload but the serial
#: reference the sweep's output must equal.
SCALES = {
    "table2": "0.1",
    "figure5-sweep": "0.1",
    "figure5-serial": "0.1",
    "resize-churn": "1",
}
#: Campaign workers ``figure5-sweep`` asks for.
SWEEP_JOBS = 2


def table2(seed: int, work: Path) -> dict:
    from repro.sim.experiments.table2 import PAPER_TABLE2, run_table2

    result = run_table2(seed=seed)
    end = perf_counter()
    cells = {
        label: {"deviation": result.deviations[label], "miss_rates": result.miss_rates[label]}
        for label in result.deviations
    }
    molecular = [
        rate for label, rates in result.miss_rates.items()
        if "Molecular" in label for rate in rates.values()
    ]
    errors = [abs(dev - PAPER_TABLE2[label]) for label, dev in result.deviations.items()]
    return {
        "end": end,
        "text": result.format(),
        "cells": cells,
        "molecular_rates": molecular,
        "paper_abs_err": sum(errors) / len(errors),
    }


def _figure5_cells(series: dict, miss_rates: dict, sizes) -> dict:
    return {
        f"{label}@{size}MB": {"deviation": values[i], "rates": miss_rates[(label, size)]}
        for label, values in series.items()
        for i, size in enumerate(sizes)
    }


def _figure5_molecular(cells: dict) -> list[float]:
    return [
        rate for name, cell in cells.items()
        if name.startswith("Molecular") for rate in cell["rates"].values()
    ]


def figure5_sweep(seed: int, work: Path) -> dict:
    from repro.cli import main as repro_main

    store = work / "store"
    if store.exists():
        raise SystemExit(f"campaign store {store} is not fresh")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro_main([
            "sweep", "figure5", "--jobs", str(SWEEP_JOBS),
            "--out", str(store), "--seed", str(seed),
        ])
    end = perf_counter()
    if code != 0:
        raise SystemExit(f"repro sweep exited with {code}")
    records = [
        json.loads(path.read_text())
        for path in sorted((store / "results").glob("*.json"))
    ]
    cells = {}
    for record in records:
        params = record["spec"]["params"]
        cells[f"{params['label']}@{params['size_mb']}MB"] = record["result"]
    return {
        "end": end,
        "text": out.getvalue(),
        "cells": cells,
        "molecular_rates": _figure5_molecular(cells),
        "records": records,
    }


def figure5_serial(seed: int, work: Path) -> dict:
    from repro.sim.experiments.figure5 import run_figure5

    result = run_figure5(seed=seed)
    end = perf_counter()
    cells = _figure5_cells(result.series, result.miss_rates, result.sizes_mb)
    # `repro sweep` prints the rendered table with print().
    return {
        "end": end,
        "text": result.format() + "\n",
        "cells": cells,
        "molecular_rates": _figure5_molecular(cells),
    }


def resize_churn(seed: int, work: Path) -> dict:
    from repro.sim.experiments.resize_mechanism import run_resize_mechanism

    result = run_resize_mechanism(seed=seed)
    end = perf_counter()
    return {
        "end": end,
        "text": result.format(),
        "cells": {f"{c['trigger']}/{c['mechanism']}": c for c in result.cells},
        "molecular_rates": [c["miss_rate"] for c in result.cells],
    }


RUNNERS = {
    "table2": table2,
    "figure5-sweep": figure5_sweep,
    "figure5-serial": figure5_serial,
    "resize-churn": resize_churn,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)

    # Only the scale reaches the program: an inherited audit cadence or
    # other REPRO_* setting would change what runs.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_SCALE"] = SCALES[args.workload]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import metrics
    from layers import Tracer, instrument

    dump_dir = args.work / "workers"
    dump_dir.mkdir(parents=True)
    tracer = Tracer(args.workload, full=bool(args.trace), dump_dir=dump_dir)
    instrument(tracer)
    out = RUNNERS[args.workload](args.seed, args.work)

    wall = out["end"] - T0
    parent = tracer.snapshot()
    workers = [json.loads(p.read_text()) for p in sorted(dump_dir.glob("*.json"))]
    n_workers = len({w["pid"] for w in workers})
    first = [s["first_ref"] for s in [parent, *workers] if s["first_ref"] is not None]
    if not first:
        raise SystemExit("no simulated reference was issued")
    setup = min(first) - T0
    refs = parent["counters"]["sim_refs"] + parent["counters"]["churn_refs"] + sum(
        w["counters"]["sim_refs"] for w in workers
    )
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rates = out["molecular_rates"]
    result = {
        "wall_s": wall,
        "setup_s": setup,
        "refs": refs,
        "refs_per_s": refs / (wall - setup),
        # Upper bound: the workers' peaks are taken as simultaneous.
        "peak_rss_mb": (self_kb + n_workers * child_kb) / 1024,
        "miss_rate": sum(rates) / len(rates),
        "paper_abs_err": out.get("paper_abs_err"),
        "ops": len(out["cells"]),
        "cached_jobs": parent["counters"]["cached_jobs"],
        "workers": n_workers,
        "digests": metrics.output_digests(out["text"], out["cells"]),
    }
    if args.trace:
        result["layers"] = metrics.layer_metrics(
            parent, workers, wall, out.get("records", [])
        )
        result["layers"]["molecular.miss_rate"] = result["miss_rate"]
        spans = parent["spans"] + [s for w in workers for s in w["spans"]]
        (args.work / "spans.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
