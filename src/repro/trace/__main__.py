"""CLI over the observability layer: run traced apps, profile, export.

Examples::

    # Run the MPI stencil on 8 nodes and write a Perfetto trace:
    python -m repro.trace run jacobi --nodes 8 --perfetto trace.json

    # Critical-path + per-collective profile + link utilization:
    python -m repro.trace report jacobi --nodes 8 --links --top 10

    # Perfetto export only (report suppressed):
    python -m repro.trace export serve --nodes 32 --backend analytic \\
        --perfetto serve.json

Open the JSON at https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import APPS, run_traced
from ..obs import (
    critical_path,
    format_critical_path,
    collective_profile,
    format_collective_profile,
    format_link_report,
    link_report,
    write_chrome_trace,
)


def _summary(run) -> None:
    rec = run.recorder
    info = " ".join(f"{k}={v}" for k, v in run.info.items())
    print(
        f"{run.app}: {len(rec.spans)} spans on {len(rec.tracks())} "
        f"tracks, wall {run.wall_s * 1e3:.3f} ms  ({info})"
    )


def _report(run, top: Optional[int], links: bool) -> None:
    print("\ncritical path:")
    print(format_critical_path(critical_path(run.recorder)))
    rows = collective_profile(run.recorder, top=top)
    if rows:
        print("\ncollectives:")
        print(format_collective_profile(rows))
    if links:
        print("\nlink utilization:")
        print(
            format_link_report(
                link_report(run.topology, wall_s=run.wall_s),
                top=top,
            )
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description=(
            "Run an instrumented app with span tracing attached, then "
            "report the critical path / collective profile / link "
            "utilization and optionally export a Perfetto trace."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, doc in (
        ("run", "run traced; print a summary (plus any requested outputs)"),
        ("report", "run traced; print critical path + profiles"),
        ("export", "run traced; write the Perfetto JSON only"),
    ):
        p = sub.add_parser(cmd, help=doc)
        p.add_argument("app", choices=APPS, help="which demo app to run")
        p.add_argument(
            "--nodes", type=int, default=8, help="cluster size (default 8)"
        )
        p.add_argument(
            "--backend",
            default="exact",
            choices=("exact", "analytic", "pricing"),
            help="timing engine (default exact)",
        )
        p.add_argument(
            "--maxlen",
            type=int,
            default=None,
            metavar="N",
            help="keep only the most recent N spans",
        )
        p.add_argument(
            "--perfetto",
            metavar="OUT.json",
            default=None,
            help="write a Chrome-trace/Perfetto JSON here",
        )
        p.add_argument(
            "--top",
            type=int,
            default=None,
            metavar="N",
            help="limit profile/link tables to the top N rows",
        )
        p.add_argument(
            "--links",
            action="store_true",
            help="include the per-channel utilization report",
        )
    args = parser.parse_args(argv)
    if args.cmd == "export" and args.perfetto is None:
        parser.error("export requires --perfetto OUT.json")

    run = run_traced(
        args.app, nodes=args.nodes, backend=args.backend,
        maxlen=args.maxlen,
    )
    _summary(run)
    if args.cmd in ("run", "report") and (
        args.cmd == "report" or args.links
    ):
        _report(run, args.top, args.links or args.cmd == "report")
    if args.perfetto is not None:
        doc = write_chrome_trace(run.recorder, args.perfetto)
        print(
            f"wrote {args.perfetto}: {len(doc['traceEvents'])} events "
            f"({len(run.recorder.tracks())} tracks)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
