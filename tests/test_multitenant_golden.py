"""The multi-tenant scheduler's result documents, pinned.

Four ``repro smp`` runs on the fast engine cover the scheduler's wiring:
CoW-shared images (the dedup group's ``base`` records where the loader
put the shared run), private images, the asynchronous move queue with
the fairness arbiter on a tiered machine, and DMA agents under safety
mode.  Each run's ``carat.multitenant.v1`` document (``--json``) must
equal the one in ``benchmarks/golden/multitenant.txt``.

Regenerate the golden file only when a change moves a multi-tenant run
on purpose, and say why in ``CHANGES.md``::

    PYTHONPATH=src python tests/test_multitenant_golden.py > benchmarks/golden/multitenant.txt
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.cli import main

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "golden" / "multitenant.txt"
)

RUNS = (
    "smp ep --tenants 8 --engine fast",
    "smp ep --tenants 8 --no-cow --engine fast",
    "smp ep --tenants 8 --async-moves --arbiter --fast-kb 1024 --engine fast",
    "smp dmastream --tenants 2 --agents 1 --safety --engine fast",
)


def multitenant_documents() -> str:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "smp.json"
        for run in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(run.split() + ["--json", str(path)])
            assert status == 0, f"{run}: exit {status}"
            out.append(f"## {run}")
            out.append(path.read_text())
    return "".join(line if line.endswith("\n") else line + "\n" for line in out)


def test_multitenant_documents_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = multitenant_documents().splitlines()
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"golden line {number} differs"
    assert len(actual) == len(expected)


if __name__ == "__main__":
    sys.stdout.write(multitenant_documents())
