"""Paper-reported numbers, as structured data (the calibration targets).

Each artifact of the evaluation section is encoded here so
``python -m repro.bench`` can record paper-vs-measured side by side in
``BENCH_paper.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TABLE1_PAPER",
    "FIG6_ANCHORS",
    "SEC51_PAPER",
    "Table1Row",
]


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table 1 (barrier timings)."""

    nodes: int
    cpus: int  #: total CPU kernels in the job
    gpus: int  #: total GPU kernels in the job
    mpi_us: Optional[float]  #: MVAPICH2 with equal kernel count
    dcgn_us: float
    ratio: Optional[float]

    @property
    def cpus_per_node(self) -> int:
        return self.cpus // self.nodes

    @property
    def gpus_per_node(self) -> int:
        return self.gpus // self.nodes

    @property
    def label(self) -> str:
        """The row's name in ``BENCH_paper.json``, e.g. ``"2n 2C/2G"``
        (kernels per node)."""
        return f"{self.nodes}n {self.cpus_per_node}C/{self.gpus_per_node}G"


#: Paper Table 1.  The MPI baseline compares against an MPI job whose
#: rank count equals the DCGN job's *total kernel count* (footnote).
TABLE1_PAPER: List[Table1Row] = [
    Table1Row(1, 2, 0, 3.0, 38.0, 12.67),
    Table1Row(1, 0, 2, 3.0, 313.0, 104.3),
    Table1Row(1, 1, 1, 3.0, 50.0, 16.67),
    Table1Row(1, 2, 2, 5.0, 53.0, 10.60),
    Table1Row(2, 4, 0, 5.0, 41.0, 8.20),
    Table1Row(2, 0, 4, 5.0, 747.0, 149.40),
    Table1Row(2, 4, 4, 6.0, 55.0, 9.17),
    Table1Row(4, 8, 0, 6.0, 43.0, 7.17),
    Table1Row(4, 0, 8, 6.0, 806.0, 134.33),
    Table1Row(4, 8, 8, None, 70.0, None),
]

#: Paper §5.2 send anchors: (description, paper ratio vs MVAPICH2).
FIG6_ANCHORS: Dict[str, float] = {
    "0B cpu:cpu / mpi": 28.0,
    "0B gpu:gpu / mpi": 564.0,
    "1MB cpu:cpu / mpi": 1.04,
    "1MB gpu:gpu / mpi(cpu)": 1.5,
}

#: Paper §5.1 application results.
SEC51_PAPER: Dict[str, Dict[str, float]] = {
    "mandelbrot": {
        "gas_mpix_s": 17.0,
        "dcgn_mpix_s": 15.0,
        "gas_speedup_8gpu": 3.08,
        "dcgn_speedup_8gpu": 2.72,
        "gas_efficiency": 0.38,
        "dcgn_efficiency": 0.34,
    },
    "cannon": {
        "n": 1024,
        "gpus": 4,
        "dcgn_efficiency": 0.71,
        "gas_efficiency": 0.74,
    },
    "nbody": {
        "gpus": 8,
        "eff_4k": 0.28,
        "eff_16k": 0.64,
        "eff_32k": 0.90,
    },
}
