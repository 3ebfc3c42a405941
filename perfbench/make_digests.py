"""Regenerate digests.json: the summary digest of every cell any seed
can draw, for every workload.

    PYTHONPATH=src python3 perfbench/make_digests.py

Run it only when a change is meant to alter simulated results; the
benchmark's output check compares every cell against this file.
"""

from __future__ import annotations

import json
import sys

import cells as bench_cells
from campaign import DIGESTS, summary_digest


def main() -> int:
    from repro.harness.experiment import clear_cache
    from repro.harness.sweep import run_sweep

    doc = {}
    for workload in bench_cells.WORKLOADS:
        labelled = bench_cells.all_cells(workload)
        result = run_sweep([cell for _name, cell in labelled], jobs=1)
        doc[workload] = {
            name: summary_digest(res.stats)
            for (name, _cell), res in zip(labelled, result.cells)
        }
        clear_cache()
        print(f"{workload}: {len(labelled)} cells", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
