"""Benchmark — compute/communication overlap via nonblocking slot requests.

Measures the end-to-end win of DCGN's nonblocking kernel APIs
(``isend``/``irecv``/``ibroadcast`` — the paper-style iSendTo/iRecvFrom
slot requests) over the blocking paths, using the two communicating
apps:

* **Cannon halo rotation** — each step posts the A/B block rotation
  into spare device buffers, then computes the current block product
  while the comm thread moves the payloads (double-buffered halo
  exchange).  This is the headline overlap number.
* **N-body one-to-all** — every step's P broadcasts are issued
  nonblockingly and pipelined by the comm thread instead of paying a
  full post→poll→wire→write-back round trip per root.

Both runs verify their numerics, so the overlap path is exercised for
correctness as well as timing.  Results land in ``BENCH_overlap.json``
at the repository root.

Acceptance gates (exit non-zero on violation):

* Cannon overlapped ≥ 1.3× faster than blocking on ≥ 8 nodes;
* no overlap point anywhere is slower than its blocking twin.

Run standalone:       python benchmarks/bench_overlap.py
Fast smoke (CI):      python benchmarks/bench_overlap.py --smoke
"""

import sys

import common

from repro.apps.cannon import CannonConfig, run_dcgn as cannon_dcgn
from repro.apps.nbody import NBodyConfig, run_dcgn as nbody_dcgn
from repro.bench.harness import Table, fmt_time
from repro.hw import build_cluster, paper_cluster
from repro.sim import Simulator

#: (label, nodes, config factory) — Cannon grids sized so each node
#: computes a ~1 MB block whose rotation time is comparable to the
#: block product, the regime overlap is designed for.
CANNON_POINTS = [
    ("cannon-3x3", 9, lambda: CannonConfig(n=1536, grid=3)),
    ("cannon-4x4", 16, lambda: CannonConfig(n=2048, grid=4)),
]
SMOKE_CANNON = [CANNON_POINTS[0]]

NBODY_POINTS = [
    ("nbody-4k", 8, lambda: NBodyConfig(n_bodies=4096, steps=3)),
    ("nbody-8k", 8,
     lambda: NBodyConfig(n_bodies=8192, steps=3, verify=False)),
]
SMOKE_NBODY = [NBODY_POINTS[0]]

#: Acceptance: overlapped halo exchange must win this much end-to-end.
MIN_OVERLAP_WIN = 1.3

JSON_PATH = common.json_path("overlap")


def _run(app, nodes, cfg, overlap):
    sim = Simulator()
    cluster = build_cluster(sim, paper_cluster(nodes=nodes, gpus_per_node=1))
    runner = cannon_dcgn if app == "cannon" else nbody_dcgn
    elapsed = runner(cluster, cfg, overlap=overlap).elapsed
    common.track(sim)
    return elapsed


def sweep(cannon_points, nbody_points):
    """Run the sweep; returns (points, violations)."""
    points = []
    violations = []
    for app, series in (("cannon", cannon_points), ("nbody", nbody_points)):
        for label, nodes, make_cfg in series:
            t_block = _run(app, nodes, make_cfg(), overlap=False)
            t_over = _run(app, nodes, make_cfg(), overlap=True)
            ratio = t_block / t_over if t_over > 0 else 1.0
            points.append({
                "app": app,
                "label": label,
                "nodes": nodes,
                "t_blocking_s": t_block,
                "t_overlap_s": t_over,
                "speedup": ratio,
            })
            if t_over > t_block * (1 + 1e-9):
                violations.append((
                    "overlap_slower",
                    f"{label} @ {nodes} nodes: overlap {t_over:.6e}s > "
                    f"blocking {t_block:.6e}s",
                ))
            if app == "cannon" and nodes >= 8 and ratio < MIN_OVERLAP_WIN:
                violations.append((
                    "no_overlap_win",
                    f"{label} @ {nodes} nodes: overlap win only "
                    f"{ratio:.2f}× (need >={MIN_OVERLAP_WIN}×)",
                ))
    return points, violations


def build_table(points):
    table = Table(
        title="Nonblocking slot requests: overlapped vs blocking exchange",
        columns=["app", "workload", "nodes", "blocking", "overlapped",
                 "speedup"],
    )
    for p in points:
        table.add(
            p["app"],
            p["label"],
            p["nodes"],
            fmt_time(p["t_blocking_s"]),
            fmt_time(p["t_overlap_s"]),
            f"{p['speedup']:.2f}×",
        )
    table.note(
        "cannon: per-step A/B halo rotation double-buffered through "
        "isend/irecv slot requests, hidden under the block product"
    )
    table.note(
        "nbody: the P per-step broadcasts issued via ibroadcast and "
        "pipelined by the comm thread"
    )
    return table


def run(smoke=False, json_path=JSON_PATH):
    cannon_points = SMOKE_CANNON if smoke else CANNON_POINTS
    nbody_points = SMOKE_NBODY if smoke else NBODY_POINTS
    points, violations = sweep(cannon_points, nbody_points)
    table = build_table(points)
    payload = {
        "benchmark": "bench_overlap",
        "mode": "smoke" if smoke else "full",
        "acceptance": {
            "overlap_never_slower": not any(
                kind == "overlap_slower" for kind, _ in violations
            ),
            "halo_overlap_strict_win": not any(
                kind == "no_overlap_win" for kind, _ in violations
            ),
            "min_win": MIN_OVERLAP_WIN,
            "violations": [msg for _, msg in violations],
        },
        "points": points,
    }
    common.write_json(json_path, payload)
    return table, points, violations


def main(argv=None):
    parser = common.make_parser(
        __doc__, JSON_PATH,
        smoke_help="fast subset for CI (one Cannon + one n-body point)",
    )
    args = parser.parse_args(argv)
    table, points, violations = run(smoke=args.smoke, json_path=args.json)
    print(table.render())
    return common.finish(
        args.json, len(points), [msg for _, msg in violations],
        f"overlap never slower; >={MIN_OVERLAP_WIN}x win for "
        "overlapped Cannon halo rotation on >=8 nodes",
    )


if __name__ == "__main__":
    sys.exit(main())
