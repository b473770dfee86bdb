"""One run of one workload, in a fresh single-threaded interpreter.

``run.py`` starts this script as a child process; it is not imported by
``run.py``.  The child

1. builds the workload from the seed and prepares its first repetition:
   the CPU time up to that point (interpreter start, imports, that
   preparation) is the set-up time;
2. runs one untimed warm-up repetition, whose simulated outputs are the
   reference every later repetition must reproduce (sha256 digest);
3. runs timed repetitions for ``--seconds`` of wall time, each op timed
   alone and verified after its clock stops;
4. untraced: records peak RSS, then computes ``paper_err`` and
   ``agree_err``; traced (``--trace 1``): spends the second half of
   ``--seconds`` on repetitions under a :class:`layers.Tracer` and
   computes the per-layer metrics instead.

It prints one JSON line.  ``--setup-only`` stops at step 1 and prints
only ``setup_s``.

The CPU speed of a shared host drifts: on the shared 2-vCPU VM the bounds
were set on, a fixed loop ran up to 1.8x slower for minutes at a time.
So :class:`HostSpeed` probes the speed throughout, and ``ops_per_s``
and ``setup_s`` are CPU times rescaled to the reference host's speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional

if TYPE_CHECKING:
    from workloads import Op

#: Iterations of the probe loop, and its CPU time on the reference host
#: (the shared 2-vCPU Intel Xeon VM the bounds were set on, when quiet).
PROBE_LOOP = 2000
PROBE_NOMINAL_S = 130e-6

#: User CPU time between two probes.
PROBE_INTERVAL_S = 0.01


class HostSpeed:
    """The host's speed relative to the reference host, probed
    throughout the run.

    While started, an ``ITIMER_VIRTUAL`` timer interrupts the process
    every :data:`PROBE_INTERVAL_S` of user CPU time, and the handler
    times a fixed pure-Python loop.  The probes spread evenly over the
    CPU time they interrupt, so the speed over any stretch is the
    CPU-time-weighted mean.  Callers subtract the probes' own CPU time
    (about 1.5%) from what the probes interrupted.

    CPU times are read with ``time.thread_time``: while a process-wide
    interval timer is armed, Linux advances ``time.process_time`` only
    at timer ticks.  The process has one thread.
    """

    def __init__(self) -> None:
        self.probes = 0
        self.cpu_s = 0.0
        self._old_handler = None

    def _probe(self, signum, frame) -> None:
        t0 = time.thread_time()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i % 7
        self.cpu_s += time.thread_time() - t0
        self.probes += 1

    def start(self) -> "HostSpeed":
        self._old_handler = signal.signal(signal.SIGVTALRM, self._probe)
        signal.setitimer(
            signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S
        )
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        signal.signal(signal.SIGVTALRM, self._old_handler)


def speed(probes: int, probe_cpu_s: float) -> float:
    """Host speed relative to the reference from probe totals (1.0 when
    nothing was probed)."""
    return probes * PROBE_NOMINAL_S / probe_cpu_s if probes else 1.0


class Rep(NamedTuple):
    """What one repetition measured."""

    #: CPU time of the timed ops, probes included.
    cpu_s: float
    units: int
    failed: int
    outputs: Dict[str, Any]
    #: Probes that interrupted the timed ops, and their CPU time.
    probes: int = 0
    probe_cpu_s: float = 0.0

    @property
    def speed(self) -> float:
        return speed(self.probes, self.probe_cpu_s)

    @property
    def ops_per_s(self) -> float:
        """Throughput at the reference host's speed."""
        cpu = (self.cpu_s - self.probe_cpu_s) * self.speed
        return self.units / cpu if cpu > 0 else 0.0


def digest(outputs: Dict[str, Any]) -> str:
    """sha256 of the simulated outputs, floats at full precision."""
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_rep(
    ops: List[Op], probe: Optional[HostSpeed] = None, tracer=None
) -> Rep:
    """Time each op; verify its result after the clock stops.

    An op that raises counts all its units as failed.
    """
    probe = probe or HostSpeed()
    cpu = probe_cpu = 0.0
    units = failed = probes = 0
    outputs: Dict[str, Any] = {}
    for op in ops:
        units += op.units
        try:
            n0, c0 = probe.probes, probe.cpu_s
            with tracer.op(op.name) if tracer else contextlib.nullcontext():
                t0 = time.thread_time()
                result = op.run()
                cpu += time.thread_time() - t0
            probes += probe.probes - n0
            probe_cpu += probe.cpu_s - c0
            bad, outputs[op.name] = op.check(result)
            failed += bad
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += op.units
            outputs[op.name] = None
    return Rep(cpu, units, failed, outputs, probes, probe_cpu)


def measure(
    workload, seconds: float, ref: str, probe: Optional[HostSpeed] = None,
    tracer=None,
) -> List[Rep]:
    """Repetitions until ``seconds`` of wall time have passed (at least
    one).  A repetition whose outputs differ from the reference digest
    counts all its units as failed."""
    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        ops = workload.rep()
        with (tracer.span(f"rep {len(reps)}") if tracer
              else contextlib.nullcontext()):
            rep = run_rep(ops, probe, tracer)
        if digest(rep.outputs) != ref:
            rep = rep._replace(failed=rep.units)
        reps.append(rep)
    return reps


def setup_s(probe: HostSpeed) -> float:
    """CPU time so far, probes excluded, at the reference host's speed."""
    return (time.thread_time() - probe.cpu_s) * speed(
        probe.probes, probe.cpu_s)


def queue_waits(outputs: Dict[str, Any]) -> List[float]:
    """Simulated dispatch - arrival of every served request."""
    return [
        w for out in outputs.values() if isinstance(out, dict)
        for w in out.get("queue_waits_s", ())
    ]


def run(
    wl, seconds: float, trace: bool, out_dir: Optional[str] = None,
    probe: Optional[HostSpeed] = None,
) -> Dict[str, Any]:
    """Steps 1-4 of the module docstring for a built workload ``wl``;
    returns the result record.  ``probe`` is a started
    :class:`HostSpeed` (one is started and stopped here if omitted)."""
    own = probe is None
    probe = probe or HostSpeed().start()
    try:
        return _run(wl, seconds, trace, out_dir, probe)
    finally:
        if own:
            probe.stop()


def _run(wl, seconds, trace, out_dir, probe) -> Dict[str, Any]:
    first = wl.rep()
    record: Dict[str, Any] = {"setup_s": setup_s(probe)}
    warm = run_rep(first, probe)
    ref = digest(warm.outputs)
    record.update({
        "digest": ref,
        "outputs": warm.outputs,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    })
    if not trace:
        reps = measure(wl, seconds, ref, probe)
        record["rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        record["fidelity"] = wl.fidelity(warm.outputs)
        every = [warm] + reps
    else:
        from layers import Tracer, layer_metrics

        reps = measure(wl, seconds / 2, ref, probe)
        tracer = Tracer()
        with tracer:
            traced = measure(wl, seconds / 2, ref, probe, tracer)
        layers = layer_metrics(
            tracer,
            op_cpu_s=sum(r.cpu_s - r.probe_cpu_s for r in traced),
            units=sum(r.units for r in traced),
            untraced_ops_per_s=statistics.median(
                r.ops_per_s for r in reps),
            traced_ops_per_s=statistics.median(
                r.ops_per_s for r in traced),
            queue_waits_s=queue_waits(warm.outputs),
        )
        record["layers"] = {k: list(v) for k, v in layers.items()}
        if out_dir is not None:
            tracer.write(
                os.path.join(out_dir, f"{wl.name}.trace.json"),
                {"workload": wl.name, "seed": wl.seed,
                 "layers": record["layers"]},
            )
        every = [warm] + reps + traced
    record["ops_per_s"] = [r.ops_per_s for r in reps]
    record["host_speed"] = [r.speed for r in reps]
    record["attempted"] = sum(r.units for r in every)
    record["failed"] = sum(r.failed for r in every)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="wall time of the timed repetitions (default: one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # Probe from before the imports, which are part of set-up.
    probe = HostSpeed().start()
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
        wl = WORKLOADS[args.workload](args.seed)
        if args.setup_only:
            wl.rep()
            record = {"setup_s": setup_s(probe)}
        else:
            record = run(wl, args.seconds, bool(args.trace), args.out, probe)
    finally:
        probe.stop()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
