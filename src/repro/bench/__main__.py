"""Regenerate and gate every evaluation artifact from the command line.

Usage::

    python -m repro.bench                         # everything
    python -m repro.bench table1 fig6             # selected artifacts
    python -m repro.bench --json BENCH_paper.json # ... and write records

Tables are printed and saved under ``benchmarks/out/``.  Every table
also keeps its floats as records (``artifact``, ``row``, ``measured``,
``paper``, ``ratio``, ``band``, ``in_band``); ``--json`` writes them
with the gate's ``violations``.  The exit status is non-zero when any
banded record falls outside its band.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (
    fig5_mandelbrot_distribution,
    fig6_send,
    fig7_broadcast,
    future_hw_table,
    localcomm_table,
    multislot_table,
    overhead_breakdown,
    polling_tradeoff_table,
    sec51_cannon,
    sec51_mandelbrot,
    sec51_nbody,
    slots_table,
    table1_barriers,
)
from .harness import save_table, violations

ARTIFACTS = {
    "table1": ("Table 1 (barriers)", table1_barriers),
    "fig5": ("Figure 5 (Mandelbrot distribution)",
             fig5_mandelbrot_distribution),
    "fig6": ("Figure 6 (sends)", fig6_send),
    "fig7": ("Figure 7 (broadcasts)", fig7_broadcast),
    "mandelbrot": ("§5.1 Mandelbrot", sec51_mandelbrot),
    "cannon": ("§5.1 Cannon", sec51_cannon),
    "nbody": ("§5.1 N-body", sec51_nbody),
    "breakdown": ("Overhead breakdown", overhead_breakdown),
    "future": ("Future hardware (§7)", future_hw_table),
    "polling": ("Ablation A1 (polling interval)", polling_tradeoff_table),
    "slots": ("Ablation A2 (slots under skew)", slots_table),
    "localcomm": ("Ablation A3 (memcpy vs loopback MPI)", localcomm_table),
    "multislot": ("Multi-slot latency", multislot_table),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate and gate the paper's evaluation artifacts.",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        help=f"which artifacts to regenerate: {', '.join(ARTIFACTS)}, "
        "or 'all' (default)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write every record and the gate's violations to PATH "
        "(the committed artifact is BENCH_paper.json)",
    )
    args = parser.parse_args(argv)
    unknown = [a for a in args.artifacts if a != "all" and a not in ARTIFACTS]
    if unknown:
        parser.error(
            f"unknown artifact(s): {', '.join(unknown)} "
            f"(choose from {', '.join(ARTIFACTS)}, all)"
        )
    wanted = (
        list(ARTIFACTS)
        if "all" in args.artifacts or not args.artifacts
        else args.artifacts
    )
    records = []
    for key in wanted:
        label, builder = ARTIFACTS[key]
        print(f"\n--- {label} ---")
        t0 = time.time()
        table = builder()
        print(table.render())
        path = save_table(key, table)
        print(f"  [saved to {path}; {time.time() - t0:.1f}s wall]")
        records += [{"artifact": key, **r} for r in table.records]
    failed = violations(records)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"benchmark": "paper", "records": records,
                 "violations": failed},
                fh, indent=2,
            )
            fh.write("\n")
    gated = sum(r["band"] is not None for r in records)
    if failed:
        print("\nGATE VIOLATIONS:", file=sys.stderr)
        for v in failed:
            print(f"  - {v}", file=sys.stderr)
        return 1
    print(f"\ngate: all {gated} banded records of {len(records)} in band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
