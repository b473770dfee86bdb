"""Open-loop request workloads and per-request latency tracing.

Serving studies live or die on the load model: a *closed* loop (next
request sent when the previous answer returns) self-throttles and hides
saturation, so this module is strictly **open-loop** — arrival times
are drawn up front from a seeded Poisson process and requests are
injected at those instants no matter how far behind the service is.
Above the capacity knee the queue grows and the tail latency explodes;
that amplification is exactly what makes placement quality visible in
p99 (see the ``serving`` artifact of ``python -m repro.bench``).

Pieces:

* :func:`open_loop_arrivals` — the seeded exponential-gap schedule;
* :func:`percentile` — linear-interpolation percentiles (the
  convention ``numpy.percentile`` defaults to), shared with the
  ``serving`` benchmark;
* :class:`RequestLog` — per-request arrival/start/done stamps and the
  latency/goodput summary;
* :class:`OpenLoopDriver` — the injection process: feeds any object
  with ``submit(req)``/``close()`` (e.g.
  :class:`repro.apps.tile_service.TileService`) at the scheduled
  instants.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence

from ..sim.core import Event, Simulator

__all__ = [
    "open_loop_arrivals",
    "percentile",
    "Request",
    "RequestLog",
    "OpenLoopDriver",
]


def open_loop_arrivals(
    rate_hz: float,
    n_requests: int,
    seed: int = 0,
    start: float = 0.0,
) -> List[float]:
    """``n_requests`` Poisson arrival times at ``rate_hz`` from ``start``.

    Gaps are i.i.d. exponential with mean ``1/rate_hz``, drawn from a
    private seeded generator so the schedule is deterministic and — key
    for A/B placement comparisons — *identical* across policies run
    with the same seed.
    """
    if rate_hz <= 0.0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    rng = random.Random(seed)
    t = start
    out: List[float] = []
    for _ in range(n_requests):
        t += rng.expovariate(rate_hz)
        out.append(t)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not (0.0 <= q <= 100.0):
        raise ValueError(f"percentile q out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Request:
    """One request's timeline.  ``latency`` is arrival→completion —
    queueing wait included, which is the number a user experiences."""

    __slots__ = ("req_id", "payload", "arrival_t", "start_t", "done_t")

    def __init__(
        self, req_id: int, arrival_t: float, payload: Any = None
    ) -> None:
        self.req_id = req_id
        self.payload = payload
        self.arrival_t = arrival_t
        self.start_t: Optional[float] = None
        self.done_t: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.done_t is None:
            return None
        return self.done_t - self.arrival_t

    @property
    def service_time(self) -> Optional[float]:
        if self.done_t is None or self.start_t is None:
            return None
        return self.done_t - self.start_t


class RequestLog:
    """Arrival/start/completion stamps for a stream of requests."""

    def __init__(self, sim: Simulator, name: str = "requests") -> None:
        self.sim = sim
        #: Span track this log's request spans land on.
        self.name = name
        self.requests: List[Request] = []
        self.n_dropped = 0

    # -- recording (called by services/drivers) ----------------------------
    def arrived(self, req_id: int, payload: Any = None) -> Request:
        req = Request(req_id, self.sim.now, payload)
        self.requests.append(req)
        self.sim.stats.serve_requests += 1
        return req

    def started(self, req: Request) -> None:
        req.start_t = self.sim.now

    def completed(self, req: Request) -> None:
        req.done_t = self.sim.now
        spans = self.sim.spans
        if spans is not None:
            # Retrospective spans straight from the request stamps, so
            # trace and log can never disagree.
            if req.start_t is not None:
                spans.complete(
                    req.arrival_t, req.start_t,
                    f"req{req.req_id}.wait", "serve.wait", self.name,
                    attrs={"req_id": req.req_id},
                )
            start = (
                req.start_t if req.start_t is not None else req.arrival_t
            )
            spans.complete(
                start, req.done_t,
                f"req{req.req_id}", "serve.request", self.name,
                attrs={"req_id": req.req_id},
            )

    def dropped(self, req: Request) -> None:
        self.n_dropped += 1

    # -- analysis ----------------------------------------------------------
    def latencies(self) -> List[float]:
        """Completed requests' arrival→done latencies, arrival order."""
        return [
            r.latency for r in self.requests if r.done_t is not None
        ]

    def summary(self) -> Dict[str, float]:
        """Latency percentiles + goodput over the observed span.

        ``goodput_rps`` counts *completed* requests over first-arrival→
        last-completion — at saturation it converges to the service
        capacity while offered load keeps climbing, which is the gap
        the serving benchmark plots.
        """
        lats = self.latencies()
        n_offered = len(self.requests)
        out: Dict[str, float] = {
            "n_offered": float(n_offered),
            "n_completed": float(len(lats)),
            "n_dropped": float(self.n_dropped),
        }
        if not lats:
            return out
        first = min(r.arrival_t for r in self.requests)
        last = max(
            r.done_t for r in self.requests if r.done_t is not None
        )
        span = max(last - first, 1e-12)
        out.update(
            {
                "p50_s": percentile(lats, 50.0),
                "p95_s": percentile(lats, 95.0),
                "p99_s": percentile(lats, 99.0),
                "mean_s": sum(lats) / len(lats),
                "max_s": max(lats),
                "goodput_rps": len(lats) / span,
                "span_s": span,
            }
        )
        return out


class OpenLoopDriver:
    """Injects requests into a service at fixed arrival instants.

    ``service`` needs ``submit(req_id)`` and ``close()``; the service
    owns the :class:`RequestLog` stamps.  The driver never waits for
    completions — that is the whole point.
    """

    def __init__(
        self,
        sim: Simulator,
        service: Any,
        arrivals: Sequence[float],
        name: str = "openloop",
    ) -> None:
        self.sim = sim
        self.service = service
        self.arrivals = list(arrivals)
        self.name = name
        self.proc: Optional[Any] = None

    def start(self) -> None:
        self.proc = self.sim.process(
            self._run(), name=f"serve.drive.{self.name}"
        )

    def _run(self):
        for i, t in enumerate(self.arrivals):
            if t > self.sim.now:
                yield self.sim.timeout(t - self.sim.now)
            self.service.submit(i)
        self.service.close()
