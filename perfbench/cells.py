"""The benchmark's four workloads: which cells each one runs.

``SweepCell`` carries no workload seed (generation keeps the harness's
fixed ``WorkloadConfig``), so the benchmark seed chooses the cells
instead: machine-config variants (design-grid) and cell order.  campaign-j2 is the ``repro sweep`` grid in
its natural product order and does not depend on the seed.

Every cell any seed can draw has a readable label; ``digests.json`` holds
the committed ``MachineStats.summary()`` digest of each of them.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.harness.experiment import ALL_DESIGNS, ALL_MODELS
from repro.harness.figures import BENCH_ORDER, FIG9_CONFIGS
from repro.harness.sweep import SweepCell
from repro.sim.config import TABLE_I, MachineConfig
from repro.workloads import MICROBENCHMARKS

WORKLOADS = ("regions-sfr", "design-grid", "campaign-j2", "phases-ref")

#: ops per thread of every cell.  Each workload is sized so one campaign
#: takes a few seconds on one core, so a run holds several campaigns.
OPS_PER_THREAD = {
    "regions-sfr": 16,
    "design-grid": 64,
    "campaign-j2": 32,
    "phases-ref": 8,
}

#: pool size of each workload's ``run_sweep`` call.
JOBS = {"regions-sfr": 1, "design-grid": 1, "campaign-j2": 2, "phases-ref": 1}

#: regions-sfr runs every ops-per-region value of 1..8.
REGION_CHOICES = tuple(range(1, 9))

#: PM timing variants of design-grid, crossed with Figure 9's strand sizes.
PM_VARIANTS = {
    "pm-base": {},
    "pm-slow": {"write_to_media": 2000, "media_banks": 8},
    "pm-narrow": {"write_queue_entries": 16, "accept_interval": 16},
    "pm-fast": {
        "write_to_media": 500,
        "media_banks": 32,
        "write_queue_entries": 128,
        "accept_interval": 4,
    },
}
CONFIGS_DRAWN = 6


def machine_configs() -> Dict[str, MachineConfig]:
    """Every design-grid machine config, by name (24 of them)."""
    out = {}
    for n_buffers, entries in FIG9_CONFIGS:
        strand_cfg = TABLE_I.with_strand(n_buffers, entries)
        for pm_name, fields in PM_VARIANTS.items():
            cfg = replace(strand_cfg, pm=replace(strand_cfg.pm, **fields))
            out[f"sb{n_buffers}x{entries}-{pm_name}"] = cfg
    return out


def label(cell: SweepCell, cfg_name: str) -> str:
    return (
        f"{cell.benchmark}/{cell.design}/{cell.model}"
        f"/t{cell.ops_per_thread}/r{cell.ops_per_region}/{cfg_name}"
    )


def all_cells(workload: str) -> List[Tuple[str, SweepCell]]:
    """Every (label, cell) the workload can draw, for any seed."""
    ops = OPS_PER_THREAD[workload]
    if workload == "regions-sfr":
        cells = [
            SweepCell(bench, design, "sfr", ops, opr)
            for bench in MICROBENCHMARKS
            for opr in REGION_CHOICES
            for design in ("intel-x86", "strandweaver")
        ]
        return [(label(c, "table1"), c) for c in cells]
    if workload == "design-grid":
        return [
            (label(c, name), c)
            for name, cfg in machine_configs().items()
            for c in (
                SweepCell(bench, design, "txn", ops, machine_cfg=cfg)
                for bench in BENCH_ORDER
                for design in ALL_DESIGNS
            )
        ]
    if workload == "campaign-j2":
        cells = [
            SweepCell(bench, design, model, ops)
            for bench in BENCH_ORDER
            for design in ALL_DESIGNS
            for model in ALL_MODELS
        ]
        return [(label(c, "table1"), c) for c in cells]
    if workload == "phases-ref":
        cells = [
            SweepCell(bench, design, "txn", ops)
            for bench in MICROBENCHMARKS
            for design in ALL_DESIGNS
        ]
        return [(label(c, "table1"), c) for c in cells]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def cells_for(workload: str, seed: int) -> List[Tuple[str, SweepCell]]:
    """The (label, cell) list one run of ``workload`` submits."""
    rng = random.Random(f"{workload}:{seed}")
    cells = all_cells(workload)
    if workload == "campaign-j2":
        return cells
    if workload == "design-grid":
        drawn = set(rng.sample(sorted(machine_configs()), CONFIGS_DRAWN))
        cells = [(name, c) for name, c in cells if name.rsplit("/", 1)[1] in drawn]
    rng.shuffle(cells)
    return cells
