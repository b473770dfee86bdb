#!/usr/bin/env python
"""Aggregate the committed ``BENCH_*.json`` artifacts into one table.

Every artifact is written by ``python -m repro.bench --json
BENCH_<name>.json <name>`` in one schema: ``benchmark``, ``mode``, the
simulated ``records``, the gate's ``violations`` and the ``host``-time
records, each record a ``Table.record`` row with an optional band.  This
script folds all of them into a single markdown trajectory report — one
row per benchmark with its record counts, gate status and tightest
banded record — plus the violations of each.  CI runs it and uploads
the result, so every PR carries a capsule view of where the numbers
stand.

Usage::

    python tools/bench_report.py [--out BENCH_REPORT.md] [--root DIR]

Exits 0 even when gates were violated (the harness itself gates); the
report *records* violations, it does not re-enforce them.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, List, Optional

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)


def load_artifacts(root: str = REPO_ROOT) -> Dict[str, Dict[str, Any]]:
    """``{name: parsed json}`` for every ``BENCH_*.json`` under root."""
    out: Dict[str, Dict[str, Any]] = {}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_"):-len(".json")]
        with open(path, encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def _margin(record: Dict[str, Any]) -> float:
    """Relative distance of a banded record to its nearest bound
    (negative when outside the band)."""
    lo, hi = record["band"]
    m = record["measured"]
    gaps = []
    if lo is not None:
        gaps.append((m - lo) / (abs(lo) or 1.0))
    if hi is not None:
        gaps.append((hi - m) / (abs(hi) or 1.0))
    return min(gaps, default=float("inf"))


def _tightest(doc: Dict[str, Any]) -> str:
    """The banded record closest to its bound."""
    banded = [r for r in doc["records"] + doc["host"] if r["band"]]
    if not banded:
        return "-"
    r = min(banded, key=_margin)
    return f"{r['artifact']}/{r['row']} = {r['measured']:g}, band {r['band']}"


def build_report(artifacts: Dict[str, Dict[str, Any]]) -> str:
    lines = [
        "# Benchmark trajectory",
        "",
        "Aggregated from the committed `BENCH_*.json` artifacts "
        f"({len(artifacts)} benchmarks).",
        "",
        "| benchmark | mode | records | host | banded | gates | "
        "tightest banded record |",
        "|---|---|---:|---:|---:|---|---|",
    ]
    for name, doc in artifacts.items():
        violations = doc["violations"]
        banded = sum(r["band"] is not None
                     for r in doc["records"] + doc["host"])
        gates = "PASS" if not violations else f"{len(violations)} VIOLATED"
        lines.append(
            f"| {name} | {doc['mode']} | {len(doc['records'])} | "
            f"{len(doc['host'])} | {banded} | {gates} | {_tightest(doc)} |"
        )
    lines.append("")
    for name, doc in artifacts.items():
        if doc["violations"]:
            lines.append(f"## {name}: gate violations")
            lines.extend(f"- {v}" for v in doc["violations"])
            lines.append("")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_REPORT.md"),
        help="markdown output path (default repo-root BENCH_REPORT.md)",
    )
    parser.add_argument(
        "--root", default=REPO_ROOT,
        help="directory holding the BENCH_*.json artifacts",
    )
    args = parser.parse_args(argv)
    artifacts = load_artifacts(args.root)
    if not artifacts:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    report = build_report(artifacts)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(f"wrote {args.out}: {len(artifacts)} benchmarks")
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
