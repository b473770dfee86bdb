"""Compare benchmark runs of a parent commit and a change.

Usage::

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced run records ``run.py --out DIR``
writes (``<workload>.s<seed>.json``).  Runs pair by workload and seed:
run the parent and the change once per seed, alternating which side
runs first, with the same ``--seconds``.

For every end-to-end metric of ``BENCHMARK.json`` x workload it prints
both sides' median and quartiles, the share of pairs the change won
(ties count for neither) and a verdict:

``improved``
    the change won at least 9/10 of the pairs and the medians differ by
    more than the parent's interquartile distance;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound;
``unresolved``
    fewer than :data:`MIN_PAIRS` pairs, or the parent's spread
    (interquartile distance / median) is wider than the bound -- unless
    every change run reads better than every parent run;
``unchanged``
    otherwise.

It also prints each side's failure share (any increase is a
regression) and whether the simulated outputs (their sha256 digest)
changed.  It refuses runs whose recorded environment differs.  Exits 1
when anything regressed, 2 when it refuses.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")

#: Pairs a verdict needs (choosing-metrics guide, section 8).
MIN_PAIRS = 10

#: Environment fields that must match between the two sides.
ENV_KEYS = ("python", "numpy", "nproc", "cpu_model")

_RUN_FILE = re.compile(r"^(?P<workload>.+)\.s(?P<seed>-?\d+)\.json$")


def load_runs(directory: str) -> Dict[Tuple[str, int], dict]:
    """(workload, seed) -> untraced run record."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        m = _RUN_FILE.match(os.path.basename(path))
        if m is None:
            continue
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace"):
            continue
        runs[m["workload"], int(m["seed"])] = rec
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    parent: List[float], change: List[float], better: str, bound: float,
) -> Tuple[str, float]:
    """(verdict, share of pairs the change won) for paired samples.

    Every end-to-end metric is non-zero by construction, so the
    parent's median can divide.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    won = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    if len(parent) < MIN_PAIRS:
        return "unresolved", won
    if won >= 0.9 and gain > p3 - p1:
        return "improved", won
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "unchanged", won
    if (p3 - p1) / abs(pm) > bound:
        return "unresolved", won
    if -gain / abs(pm) > bound:
        return "regressed", won
    return "unchanged", won


def check_env(pairs) -> Optional[str]:
    """Why the pairs may not be compared, or None."""
    for (workload, seed), (p, c) in pairs.items():
        for key in ENV_KEYS:
            if p["env"].get(key) != c["env"].get(key):
                return (f"{workload} seed {seed}: {key} differs "
                        f"({p['env'].get(key)!r} vs {c['env'].get(key)!r})")
        if p["seconds"] != c["seconds"]:
            return f"{workload} seed {seed}: run lengths differ"
    return None


def fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g} {q[2]:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    args = ap.parse_args(argv)

    with open(BENCHMARK_JSON) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    pairs = {k: (parent[k], change[k]) for k in sorted(parent) if k in change}
    if not pairs:
        print("error: no (workload, seed) run present on both sides",
              file=sys.stderr)
        return 2
    why = check_env(pairs)
    if why is not None:
        print(f"error: refusing to compare: {why}", file=sys.stderr)
        return 2

    regressed = False
    for workload in sorted({w for w, _ in pairs}):
        wp = [pairs[k] for k in sorted(pairs) if k[0] == workload]
        first = sum(1 for p, c in wp if p["started_at"] < c["started_at"])
        print(f"{workload}: {len(wp)} pairs, parent ran first in {first}")
        print(f"  {'metric':10} {'parent median [q1 q3]':34} "
              f"{'change median [q1 q3]':34} {'won':>5}  verdict")
        for m in metrics:
            name = m["name"]
            pv = [p["metrics"][name]["value"] for p, _ in wp]
            cv = [c["metrics"][name]["value"] for _, c in wp]
            v, won = verdict(pv, cv, m["better"], m["bound"])
            regressed |= v == "regressed"
            same = " (identical)" if pv == cv else ""
            print(f"  {name:10} {fmt(quartiles(pv)):34} "
                  f"{fmt(quartiles(cv)):34} {won:5.0%}  {v}{same}")
        p_fail = sum(p["failed"] for p, _ in wp) / sum(
            p["attempted"] for p, _ in wp)
        c_fail = sum(c["failed"] for _, c in wp) / sum(
            c["attempted"] for _, c in wp)
        if c_fail > p_fail:
            regressed = True
        print(f"  failures: parent {p_fail:.3g}, change {c_fail:.3g}"
              f"{'  regressed' if c_fail > p_fail else ''}")
        changed = sum(1 for p, c in wp if p["digest"] != c["digest"])
        print("  simulated outputs: "
              + (f"CHANGED in {changed}/{len(wp)} pairs" if changed
                 else "identical in every pair"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
