"""Golden artifacts: byte-for-byte rendered experiment outputs.

Each file under ``tests/golden/`` is the ``format()`` rendering (exactly
what ``repro experiment NAME`` prints) of one experiment at
``REPRO_SCALE=0.05`` with its default seed. A perf refactor of any layer
those experiments drive must leave every byte alone; a diff here means
the change moved a simulated number, not just the wall time.

Regenerate (only when a change is *meant* to move the numbers, and say
why in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.sim.experiments.degradation import run_degradation
from repro.sim.experiments.figure5 import run_figure5
from repro.sim.experiments.figure6 import run_figure6
from repro.sim.experiments.resize_mechanism import run_resize_mechanism
from repro.sim.experiments.table1 import run_table1
from repro.sim.experiments.table2 import run_table2
from repro.sim.experiments.table4 import run_table4
from repro.sim.experiments.table5 import run_table5
from repro.sim.experiments.tenancy import run_tenancy

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SCALE = "0.05"

#: Golden file name -> renderer (run under ``REPRO_SCALE=GOLDEN_SCALE``).
ARTIFACTS = {
    "resize_mechanism.txt": lambda: run_resize_mechanism().format(),
    "table1.txt": lambda: run_table1().format(),
    "table2.txt": lambda: run_table2().format(),
    "table4.txt": lambda: run_table4().format(),
    "table5.txt": lambda: run_table5().format(),
    "figure5_A.txt": lambda: run_figure5(graph="A").format(),
    "figure5_B.txt": lambda: run_figure5(graph="B").format(),
    "figure6.txt": lambda: run_figure6().format(),
    "degradation.txt": lambda: run_degradation().format(),
    "tenancy.txt": lambda: run_tenancy().format(),
}


def render(name: str) -> str:
    return ARTIFACTS[name]() + "\n"


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_rendered_output_matches_golden(name, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", GOLDEN_SCALE)
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert render(name) == expected


def main() -> int:
    os.environ["REPRO_SCALE"] = GOLDEN_SCALE
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(ARTIFACTS):
        (GOLDEN_DIR / name).write_text(render(name), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
