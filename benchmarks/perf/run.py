"""The repo benchmark: host throughput, set-up cost, memory and model
fidelity of the simulator on four workloads, plus a per-layer traced run.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload NAME [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

Without ``--workload`` every workload runs, one after another.  Each
workload runs in fresh child interpreters (``child.py``), one at a
time and single-threaded: :data:`SETUP_PROBES` short children that
only measure set-up, then one child that warms up, measures for
``--seconds`` and verifies.  For every metric one line
``workload metric value unit (n=...)`` is printed; the last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).  ``--out DIR`` also writes the run
record ``DIR/<workload>.s<seed>.json`` (environment, raw per-repetition
values, simulated outputs and their digest) that ``compare.py`` reads,
and with ``--trace 1`` the spans ``DIR/<workload>.trace.json``.

Exits 1 when any op fails verification, 2 when the benchmark cannot run
(no ``src/repro`` next to it, or a child died or ran past
2 x ``--seconds`` + :data:`SLACK_S`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Workloads, metrics and run length are declared in ``BENCHMARK.json``.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

#: Set-up-only children per run; with the measuring child's own set-up
#: they give ``setup_s`` as a median of SETUP_PROBES + 1 samples.
SETUP_PROBES = 4

#: Wall time one workload's children may take on top of twice
#: ``--seconds`` (set-up children, warm-up, the last repetition's
#: overrun, fidelity checks).
SLACK_S = 120.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` to completion; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()), text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child exited {proc.returncode}: {' '.join(args)}"
        )
    return json.loads(lines[-1])


def environment(seed: int, numpy_version: str, python: str) -> Dict[str, Any]:
    """What must match for two runs to be compared."""
    return {
        "commit": git_commit(),
        "python": python,
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout (None when it is not a git checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def measure_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    out_dir: Optional[str],
) -> Dict[str, Any]:
    """Run one workload's children; returns its run record."""
    started = time.time()
    deadline = time.monotonic() + 2 * seconds + SLACK_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [
        run_child(common + ["--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    args = common + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if out_dir is not None:
        args += ["--out", out_dir]
    res = run_child(args, deadline)
    setups.append(res["setup_s"])

    if trace:
        metrics = {name: {"value": value, "unit": unit, "n": 1}
                   for name, (value, unit) in res["layers"].items()}
    else:
        e2e = end_to_end(res, setups)
        metrics = {}
        for m in BENCHMARK["end_to_end"]:
            value, n = e2e[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"], "n": n}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started_at": started,
        "env": environment(seed, res["numpy"], res["python"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"],
        "metrics": metrics,
        "raw": {"ops_per_s": res["ops_per_s"], "setup_s": setups,
                "host_speed": res["host_speed"]},
        "digest": res["digest"],
        "sim_outputs": res["outputs"],
    }


def end_to_end(res: Dict[str, Any], setups: List[float]) -> Dict[str, Any]:
    """End-to-end metric -> (value, samples) from an untraced child's
    result and the set-up samples."""
    return {
        "ops_per_s": (statistics.median(res["ops_per_s"]),
                      len(res["ops_per_s"])),
        "setup_s": (statistics.median(setups), len(setups)),
        "rss_mb": (res["rss_mb"], 1),
        "paper_err": (res["fidelity"]["paper_err"], 1),
        "agree_err": (res["fidelity"]["agree_err"], 1),
    }


def report(record: Dict[str, Any]) -> str:
    """Print one line per metric; return the final JSON line."""
    w = record["workload"]
    for name, m in record["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"{w} error_rate {record['error_rate']:.6g} ratio "
          f"(n={record['attempted']})")
    print(f"{w} sim_digest {record['digest']}")
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one at a time)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory for run records and spans")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    out_dir = None
    if args.out is not None:
        out_dir = os.path.abspath(args.out)
        os.makedirs(out_dir, exist_ok=True)

    failed = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            record = measure_workload(
                workload, args.seed, args.seconds, bool(args.trace), out_dir
            )
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if out_dir is not None:
            suffix = ".traced" if args.trace else ""
            path = os.path.join(
                out_dir, f"{workload}.s{args.seed}{suffix}.json"
            )
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
        print(report(record), flush=True)
        failed += record["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
