"""Data generators for every table and figure of the evaluation.

Each function runs the necessary simulations and returns a
:class:`~repro.bench.harness.Table` mirroring the paper's artifact,
with its floats kept as records for ``BENCH_paper.json``.  The bands
gate the paper's shape claims: who wins, by roughly how much, and
which way a curve bends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps import cannon, efficiency, mandelbrot, micro, nbody, speedup
from ..hw import HWParams, build_cluster, paper_cluster
from ..hw.params import KB, MB
from ..sim.core import Simulator, us
from .calibration import FIG6_ANCHORS, SEC51_PAPER, TABLE1_PAPER
from .harness import Table, fmt_ratio, fmt_size, fmt_time

__all__ = [
    "table1_barriers",
    "fig6_send",
    "fig7_broadcast",
    "fig5_mandelbrot_distribution",
    "sec51_mandelbrot",
    "sec51_cannon",
    "sec51_nbody",
]

#: Default message-size sweep of Figure 6 ("one byte to sixty-four
#: megabytes" in the text; the plotted axis tops out at 1 MB).
FIG6_SIZES: Tuple[int, ...] = (0, 1 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB)

#: Figure 7 axis: 1 kB – 512 kB.
FIG7_SIZES: Tuple[int, ...] = (1 * KB, 8 * KB, 64 * KB, 512 * KB)

#: Gates on the §5.2 send anchors (``FIG6_ANCHORS`` keys).
FIG6_BANDS = {
    "0B cpu:cpu / mpi": (10.0, 60.0),
    "0B gpu:gpu / mpi": (100.0, 700.0),
    "1MB cpu:cpu / mpi": (1.0, 1.25),
}


def table1_barriers(iters: int = 10, seed: int = 0) -> Table:
    """Reproduce Table 1: barrier timings for every configuration."""
    t = Table(
        "Table 1 — Barrier timings (µs per barrier)",
        [
            "Nodes",
            "Config",
            "MPI (paper)",
            "MPI (ours)",
            "DCGN (paper)",
            "DCGN (ours)",
            "Ratio (paper)",
            "Ratio (ours)",
        ],
    )
    mpi_cache: Dict[Tuple[int, int], float] = {}
    dcgn_by_label: Dict[str, float] = {}
    for row in TABLE1_PAPER:
        total_kernels = row.cpus + row.gpus
        mpi_ours: Optional[float] = None
        if row.mpi_us is not None:
            # Equal-kernel-count MPI baseline (Table 1 footnote): spread
            # the ranks over as many nodes as the DCGN job uses... the
            # paper compares against MPI rows with that many CPUs, which
            # appear in the table with their own node counts.
            key = (total_kernels, max(1, total_kernels // 2))
            if key not in mpi_cache:
                n_nodes = max(1, total_kernels // 2)
                mpi_cache[key] = micro.mpi_barrier_time(
                    total_kernels, n_nodes, iters=iters, seed=seed
                )
            mpi_ours = mpi_cache[key]
        marks = micro.dcgn_barrier_time(
            row.nodes,
            cpu_threads=row.cpus_per_node,
            gpus=row.gpus_per_node,
            iters=iters,
            seed=seed,
        )
        dcgn_ours = marks.get("cpu", marks.get("gpu"))
        ratio_ours = (
            dcgn_ours / mpi_ours if (mpi_ours and dcgn_ours) else None
        )
        dcgn_by_label[row.label] = dcgn_ours
        t.record(f"{row.label} DCGN (us)", dcgn_ours * 1e6, row.dcgn_us)
        if ratio_ours is not None:
            t.record(f"{row.label} MPI (us)", mpi_ours * 1e6, row.mpi_us)
            t.record(f"{row.label} DCGN/MPI", ratio_ours, row.ratio)
        t.add(
            row.nodes,
            f"{row.cpus_per_node}C/{row.gpus_per_node}G per node",
            f"{row.mpi_us:.0f} µs" if row.mpi_us else "—",
            fmt_time(mpi_ours),
            f"{row.dcgn_us:.0f} µs",
            fmt_time(dcgn_ours),
            fmt_ratio(row.ratio),
            fmt_ratio(ratio_ours),
        )
    t.record(
        "1n GPU-only / CPU-only DCGN",
        dcgn_by_label["1n 0C/2G"] / dcgn_by_label["1n 2C/0G"],
        band=(3.0, None),
    )
    t.note(
        "DCGN timings measured at a CPU kernel when present, else at the "
        "last GPU slot (paper footnote: mixed rows compare against MPI "
        "with an equal total kernel count)."
    )
    return t


def fig6_send(
    sizes: Sequence[int] = FIG6_SIZES, iters: int = 5, seed: int = 0
) -> Table:
    """Reproduce Figure 6: send time vs message size, five series."""
    t = Table(
        "Figure 6 — Send timings (per one-way message)",
        [
            "Size",
            "MVAPICH2",
            "DCGN CPU:CPU",
            "DCGN CPU:GPU",
            "DCGN GPU:CPU",
            "DCGN GPU:GPU",
        ],
    )
    ratios: Dict[str, float] = {}
    for nbytes in sizes:
        t_mpi = micro.mpi_send_time(nbytes, iters=iters, seed=seed)
        t_cc = micro.dcgn_send_time(nbytes, "cpu", "cpu", iters=iters, seed=seed)
        t_cg = micro.dcgn_send_time(nbytes, "cpu", "gpu", iters=iters, seed=seed)
        t_gc = micro.dcgn_send_time(nbytes, "gpu", "cpu", iters=iters, seed=seed)
        t_gg = micro.dcgn_send_time(nbytes, "gpu", "gpu", iters=iters, seed=seed)
        label = fmt_size(nbytes)
        series = {"MVAPICH2": t_mpi, "CPU:CPU": t_cc, "CPU:GPU": t_cg,
                  "GPU:CPU": t_gc, "GPU:GPU": t_gg}
        t.add(label, *[fmt_time(x) for x in series.values()])
        for name, x in series.items():
            t.record(f"{label} {name} (us)", x * 1e6)
        if nbytes == 0:
            ratios["0B cpu:cpu / mpi"] = t_cc / t_mpi
            ratios["0B gpu:gpu / mpi"] = t_gg / t_mpi
        if nbytes == MB:
            ratios["1MB cpu:cpu / mpi"] = t_cc / t_mpi
            ratios["1MB gpu:gpu / mpi(cpu)"] = t_gg / t_mpi
    for key, paper_val in FIG6_ANCHORS.items():
        if key in ratios:
            t.note(
                f"{key}: paper {paper_val:g}×, measured {ratios[key]:.2f}×"
            )
            t.record(key, ratios[key], paper_val, FIG6_BANDS.get(key))
    return t


def fig7_broadcast(
    sizes: Sequence[int] = FIG7_SIZES, iters: int = 5, seed: int = 0
) -> Table:
    """Reproduce Figure 7: broadcast time vs size, three series."""
    t = Table(
        "Figure 7 — Broadcast timings (8 ranks over 4 nodes)",
        ["Size", "MVAPICH2 8 CPUs", "DCGN 8 CPUs", "DCGN 8 GPUs"],
    )
    crossover_noted = False
    for nbytes in sizes:
        t_mpi = micro.mpi_bcast_time(nbytes, iters=iters, seed=seed)
        t_cpu = micro.dcgn_bcast_time(nbytes, "cpu", iters=iters, seed=seed)
        t_gpu = micro.dcgn_bcast_time(nbytes, "gpu", iters=iters, seed=seed)
        label = fmt_size(nbytes)
        t.add(label, fmt_time(t_mpi), fmt_time(t_cpu), fmt_time(t_gpu))
        t.record(f"{label} MVAPICH2 (us)", t_mpi * 1e6)
        t.record(f"{label} DCGN CPU (us)", t_cpu * 1e6)
        t.record(f"{label} DCGN GPU (us)", t_gpu * 1e6)
        # Two PCIe trips per payload: the GPU series trails everywhere.
        t.record(f"{label} GPU/CPU", t_gpu / t_cpu, band=(1.0, None))
        if not crossover_noted and t_cpu < t_mpi:
            t.note(
                f"DCGN 8-CPU beats MVAPICH2 at {label} (paper: DCGN wins "
                "small/medium sizes because its MPI bcast runs with half "
                "as many ranks + local memcpy)"
            )
            crossover_noted = True
    # Largest size: DCGN-CPU within 25% of MVAPICH2 (paper: equal to
    # faster, since its MPI bcast runs with half as many ranks).
    t.record(f"{label} CPU/MVAPICH2", t_cpu / t_mpi, band=(None, 1.25))
    t.note("GPU series slower throughout: two PCIe trips per payload.")
    return t


def fig5_mandelbrot_distribution(
    seeds: Sequence[int] = (1, 2),
    jitter_us: float = 8.0,
) -> Table:
    """Reproduce Figure 5: run-to-run strip ownership variation."""
    cfg = mandelbrot.MandelbrotConfig(
        width=256, height=256, strip_height=8, max_iter=256
    )
    params = HWParams(jitter_us=jitter_us)
    owner_maps: List[np.ndarray] = []
    for seed in seeds:
        sim = Simulator()
        cluster = build_cluster(
            sim, paper_cluster(nodes=4, params=params, seed=seed)
        )
        res = mandelbrot.run_dcgn(cluster, cfg)
        owner_maps.append(res.extras["owners"])
    t = Table(
        "Figure 5 — Mandelbrot strip ownership across runs "
        f"({cfg.n_strips} strips, 8 GPU workers)",
        ["Strip"] + [f"run (seed {s})" for s in seeds],
    )
    for i in range(cfg.n_strips):
        t.add(i, *[int(m[i]) for m in owner_maps])
    diff = int(np.sum(owner_maps[0] != owner_maps[1]))
    for seed, m in zip(seeds, owner_maps):
        # Each run spreads the strips over at least half the 8 workers.
        t.record(f"distinct owners (seed {seed})", len(set(m.tolist())),
                 band=(3.5, None))
    t.record("unassigned strips",
             sum(int(np.sum(m < 0)) for m in owner_maps), band=(None, 0.5))
    t.record("strips that changed owner", diff, band=(0.5, None))
    t.note(
        f"{diff}/{cfg.n_strips} strips changed owner between runs — the "
        "dynamic work queue reacts to device/network timing (paper: 'two "
        "separate runs ... produce a different work distribution')."
    )
    return t


def _single_gas_dcgn(app, cfg, nodes: int, seed: int):
    """``app``'s single-GPU baseline, then its GAS and DCGN runs on
    ``nodes`` paper nodes, each on a fresh simulator."""
    return [
        run(build_cluster(Simulator(), spec), cfg)
        for run, spec in (
            (app.run_single_gpu,
             paper_cluster(nodes=1, gpus_per_node=1, seed=seed)),
            (app.run_gas, paper_cluster(nodes=nodes, seed=seed)),
            (app.run_dcgn, paper_cluster(nodes=nodes, seed=seed)),
        )
    ]


def sec51_mandelbrot(seed: int = 0) -> Table:
    """§5.1 Mandelbrot: speedup/efficiency/Mpixels per second."""
    cfg = mandelbrot.MandelbrotConfig()
    paper = SEC51_PAPER["mandelbrot"]

    single, gas, dcgn = _single_gas_dcgn(mandelbrot, cfg, 4, seed)
    t = Table(
        "§5.1 Mandelbrot (8 GPUs; single-GPU baseline)",
        ["Metric", "Paper GAS", "Ours GAS", "Paper DCGN", "Ours DCGN"],
    )
    sp_gas = speedup(single.elapsed, gas.elapsed)
    sp_dcgn = speedup(single.elapsed, dcgn.elapsed)
    measured = {
        "gas_mpix_s": gas.extras["pixels_per_s"] / 1e6,
        "dcgn_mpix_s": dcgn.extras["pixels_per_s"] / 1e6,
        "gas_speedup_8gpu": sp_gas,
        "dcgn_speedup_8gpu": sp_dcgn,
        "gas_efficiency": sp_gas / 8,
        "dcgn_efficiency": sp_dcgn / 8,
    }
    bands = {"gas_speedup_8gpu": (2.2, 4.5), "dcgn_speedup_8gpu": (1.2, None)}
    for key, value in measured.items():
        t.record(key, value, paper[key], bands.get(key))
    # Who wins: GAS ahead of DCGN, as in the paper.
    t.record(
        "DCGN/GAS speedup", sp_dcgn / sp_gas,
        paper["dcgn_speedup_8gpu"] / paper["gas_speedup_8gpu"],
        (None, 1.0),
    )
    t.add(
        "speedup (8 GPUs)",
        f"{paper['gas_speedup_8gpu']:.2f}×",
        f"{sp_gas:.2f}×",
        f"{paper['dcgn_speedup_8gpu']:.2f}×",
        f"{sp_dcgn:.2f}×",
    )
    t.add(
        "efficiency",
        f"{paper['gas_efficiency']:.0%}",
        f"{sp_gas / 8:.0%}",
        f"{paper['dcgn_efficiency']:.0%}",
        f"{sp_dcgn / 8:.0%}",
    )
    t.add(
        "Mpixels/s",
        f"{paper['gas_mpix_s']:.0f}",
        f"{gas.extras['pixels_per_s'] / 1e6:.1f}",
        f"{paper['dcgn_mpix_s']:.0f}",
        f"{dcgn.extras['pixels_per_s'] / 1e6:.1f}",
    )
    t.add(
        "DCGN/GAS throughput",
        "—",
        "—",
        f"{paper['dcgn_mpix_s'] / paper['gas_mpix_s']:.2f}",
        f"{dcgn.extras['pixels_per_s'] / gas.extras['pixels_per_s']:.2f}",
    )
    t.note(
        "Absolute Mpixels/s differ (simulated device, calibrated "
        "arithmetic intensity); who-wins and the DCGN/GAS gap are the "
        "reproduction targets."
    )
    return t


def sec51_cannon(seed: int = 0) -> Table:
    """§5.1 Cannon's matrix multiplication: 1024², 4 GPUs."""
    cfg = cannon.CannonConfig(n=1024, grid=2)
    paper = SEC51_PAPER["cannon"]
    single, gas, dcgn = _single_gas_dcgn(cannon, cfg, 2, seed)
    t = Table(
        "§5.1 Cannon matrix multiply (1024×1024, 4 GPUs)",
        ["Metric", "Paper", "Ours"],
    )
    eff_gas = efficiency(single.elapsed, gas.elapsed, 4)
    eff_dcgn = efficiency(single.elapsed, dcgn.elapsed, 4)
    t.record("n", cfg.n, paper["n"])
    t.record("gpus", gas.units, paper["gpus"])
    t.record("gas_efficiency", eff_gas, paper["gas_efficiency"], (0.40, 0.90))
    t.record("dcgn_efficiency", eff_dcgn, paper["dcgn_efficiency"])
    # DCGN trails GAS, by at most 20%.
    t.record(
        "DCGN/GAS", eff_dcgn / eff_gas,
        paper["dcgn_efficiency"] / paper["gas_efficiency"], (0.80, 1.0),
    )
    t.add("GAS efficiency", f"{paper['gas_efficiency']:.0%}", f"{eff_gas:.0%}")
    t.add(
        "DCGN efficiency", f"{paper['dcgn_efficiency']:.0%}", f"{eff_dcgn:.0%}"
    )
    t.add(
        "DCGN/GAS",
        f"{paper['dcgn_efficiency'] / paper['gas_efficiency']:.2f}",
        f"{eff_dcgn / eff_gas:.2f}",
    )
    return t


#: Gates on the N-body curve, by ``eff_<N/1024>k`` key: GAS at the
#: paper's three points, and DCGN converging on GAS at 64k bodies.
NBODY_GAS_BANDS = {
    "eff_4k": (0.20, 0.40), "eff_16k": (0.50, 0.75), "eff_32k": (0.65, 0.95),
}
NBODY_RATIO_BANDS = {"eff_64k": (0.85, None)}


def sec51_nbody(
    body_counts: Sequence[int] = (4096, 16384, 32768, 65536),
    steps: int = 3,
    seed: int = 0,
) -> Table:
    """§5.1 N-body efficiency curve (8 GPUs)."""
    paper = SEC51_PAPER["nbody"]
    t = Table(
        "§5.1 N-body efficiency (8 GPUs, brute force)",
        ["Bodies", "Paper eff.", "GAS eff.", "DCGN eff.", "DCGN/GAS"],
    )
    prev: Optional[Tuple[str, Dict[str, float]]] = None
    for n in body_counts:
        cfg = nbody.NBodyConfig(n_bodies=n, steps=steps, verify=False)
        single, gas, dcgn = _single_gas_dcgn(nbody, cfg, 4, seed)
        eff_gas = efficiency(single.elapsed, gas.elapsed, gas.units)
        eff_dcgn = efficiency(single.elapsed, dcgn.elapsed, dcgn.units)
        key = f"eff_{n // 1024}k"
        paper_e = paper.get(key)
        t.add(
            n,
            f"{paper_e:.0%}" if paper_e else "—",
            f"{eff_gas:.0%}",
            f"{eff_dcgn:.0%}",
            f"{eff_dcgn / eff_gas:.2f}",
        )
        curve = {"GAS": eff_gas, "DCGN": eff_dcgn,
                 "DCGN/GAS": eff_dcgn / eff_gas}
        t.record(f"{key} GAS", eff_gas, paper_e, NBODY_GAS_BANDS.get(key))
        t.record(f"{key} DCGN", eff_dcgn, paper_e)
        t.record(f"{key} DCGN/GAS", curve["DCGN/GAS"], None,
                 NBODY_RATIO_BANDS.get(key))
        if prev is not None:
            # Efficiency rises with N, and DCGN closes in on GAS.
            prev_key, prev_curve = prev
            for name, value in curve.items():
                t.record(f"{name} {key}/{prev_key}", value / prev_curve[name],
                         band=(1.0, None))
        prev = (key, curve)
    t.record("gpus", gas.units, paper["gpus"])
    t.note(
        "Paper: 'Both the DCGN and GAS implementations yielded the same "
        "efficiency' — computation dominates communication as N grows."
    )
    return t
