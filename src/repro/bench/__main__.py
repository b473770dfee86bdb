"""Regenerate and gate every evaluation artifact from the command line.

Usage::

    python -m repro.bench                         # the paper's artifacts
    python -m repro.bench table1 fig6             # selected artifacts
    python -m repro.bench --json BENCH_paper.json # ... and write records
    python -m repro.bench --smoke --json BENCH_rma.json rma  # CI shape

Names are artifact keys, benchmark names (``paper`` is the paper's
thirteen artifacts; every other benchmark is one artifact of the same
name) or ``all``.  Tables are printed and saved under
``benchmarks/out/``.  Every table keeps its floats as records
(``artifact``, ``row``, ``measured``, ``paper``, ``ratio``, ``band``,
``in_band``); ``--json`` writes one ``BENCH_<benchmark>.json``:
``benchmark``, ``mode``, the simulated ``records``, the gate's
``violations`` and the ``host``-time records.  ``--smoke`` runs each
gated bench in its reduced CI shape (the paper's artifacts have one
shape).  The exit status is non-zero when any banded record, simulated
or host, falls outside its band.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from .harness import save_table, violations

#: key → (benchmark, label, builder).  The benchmark names the
#: ``BENCH_<benchmark>.json`` the artifact's records belong to; a
#: builder ``"module:function"`` is imported only when it runs.  Every
#: builder outside ``paper`` takes ``smoke``, which picks its CI shape.
ARTIFACTS = {
    "table1": ("paper", "Table 1 (barriers)", "figures:table1_barriers"),
    "fig5": ("paper", "Figure 5 (Mandelbrot distribution)",
             "figures:fig5_mandelbrot_distribution"),
    "fig6": ("paper", "Figure 6 (sends)", "figures:fig6_send"),
    "fig7": ("paper", "Figure 7 (broadcasts)", "figures:fig7_broadcast"),
    "mandelbrot": ("paper", "§5.1 Mandelbrot", "figures:sec51_mandelbrot"),
    "cannon": ("paper", "§5.1 Cannon", "figures:sec51_cannon"),
    "nbody": ("paper", "§5.1 N-body", "figures:sec51_nbody"),
    "breakdown": ("paper", "Overhead breakdown",
                  "breakdown:overhead_breakdown"),
    "future": ("paper", "Future hardware (§7)", "future:future_hw_table"),
    "polling": ("paper", "Ablation A1 (polling interval)",
                "ablations:polling_tradeoff_table"),
    "slots": ("paper", "Ablation A2 (slots under skew)",
              "ablations:slots_table"),
    "localcomm": ("paper", "Ablation A3 (memcpy vs loopback MPI)",
                  "ablations:localcomm_table"),
    "multislot": ("paper", "Multi-slot latency", "ablations:multislot_table"),
    "collectives": ("collectives", "Size-adaptive collectives vs seed",
                    "sweeps:collectives_table"),
    "topology": ("topology", "Topology autotuning vs flat constants",
                 "sweeps:topology_table"),
    "subcomm": ("subcomm", "Communicator groups", "sweeps:subcomm_table"),
    "overlap": ("overlap", "Nonblocking overlap", "workloads:overlap_table"),
    "rma": ("rma", "One-sided RMA halo exchange", "workloads:rma_table"),
    "serving": ("serving", "Serving under placement policies",
                "workloads:serving_table"),
    "scale": ("scale", "Fast-path backends at scale", "host:scale_table"),
    "tracing": ("tracing", "Span-tracing overhead", "host:tracing_table"),
}


def builder(ref):
    """The callable behind an :data:`ARTIFACTS` builder entry."""
    if callable(ref):
        return ref
    module, name = ref.split(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def select(names):
    """Artifact keys for command-line names (default: ``paper``)."""
    keys = []
    for name in names or ["paper"]:
        keys += [k for k, (bench, _, _) in ARTIFACTS.items()
                 if name in ("all", k, bench)]
    return list(dict.fromkeys(keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate and gate the evaluation artifacts.",
    )
    parser.add_argument(
        "artifacts",
        nargs="*",
        help=f"artifacts or benchmarks to regenerate: {', '.join(ARTIFACTS)}"
        ", paper (default) or all",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the records, host records and the gate's violations "
        "to PATH (the committed artifacts are BENCH_<benchmark>.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run each gated bench in its reduced CI shape",
    )
    args = parser.parse_args(argv)
    unknown = [a for a in args.artifacts if not select([a])]
    if unknown:
        parser.error(
            f"unknown artifact(s): {', '.join(unknown)} "
            f"(choose from {', '.join(ARTIFACTS)}, paper, all)"
        )
    wanted = select(args.artifacts)
    records, host = [], []
    for key in wanted:
        bench, label, ref = ARTIFACTS[key]
        print(f"\n--- {label} ---")
        t0 = time.time()
        build = builder(ref)
        table = build() if bench == "paper" else build(smoke=args.smoke)
        print(table.render())
        path = save_table(key, table)
        print(f"  [saved to {path}; {time.time() - t0:.1f}s wall]")
        records += [{"artifact": key, **r} for r in table.records]
        host += [{"artifact": key, **r} for r in table.host]
    failed = violations(records + host)
    if args.json:
        benchmark = "+".join(dict.fromkeys(ARTIFACTS[k][0] for k in wanted))
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {"benchmark": benchmark,
                 "mode": "smoke" if args.smoke else "full",
                 "records": records, "violations": failed, "host": host},
                fh, indent=2,
            )
            fh.write("\n")
    if failed:
        print("\nGATE VIOLATIONS:", file=sys.stderr)
        for v in failed:
            print(f"  - {v}", file=sys.stderr)
        return 1
    gated = sum(r["band"] is not None for r in records + host)
    print(f"\ngate: all {gated} banded records of "
          f"{len(records) + len(host)} in band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
