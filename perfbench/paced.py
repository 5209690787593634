"""Load generators for the serving layer: a paced open-loop stream and bursts.

Both drive an :class:`repro.serve.service.IndexService` from one thread on
the wall clock through its public calls (``submit_*``, ``pump``, ``update``,
``drain``).  Stream time is wall time since the phase started, so a
request's latency runs from the moment it was *due* — a stall delays every
request that falls due behind it — and the generator's own lateness is
reported separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.resilience import RequestFailure


@dataclass
class DriveReport:
    """What one driven phase produced, one entry per request."""

    #: the service's answer per request: a result or a request failure
    outcomes: list
    #: completion minus due time, seconds (inf where the request failed)
    latency_s: np.ndarray
    #: submit time minus due time, seconds (how late the generator ran)
    lag_s: np.ndarray
    #: wall seconds each update call took, in order
    update_s: list[float] = field(default_factory=list)
    #: wall seconds the generator slept waiting for the next event
    sleep_s: float = 0.0
    wall_s: float = 0.0


def drive_paced(service, dues, submit, updates=(), clock=time.perf_counter, sleep=time.sleep):
    """Submit request ``i`` at ``dues[i]`` and deliver results as windows close.

    ``submit(i, arrival)`` queues request ``i`` with stream time ``arrival``
    and returns the service's answer (a queued request or a rejection).
    ``updates`` holds ``(due, apply)`` pairs; ``apply()`` runs when due, and
    one due at ``inf`` runs once the stream has drained.  A result's
    completion is the time ``pump`` (or the final ``drain``) returned it.
    """
    dues = np.asarray(dues, dtype=np.float64)
    n = dues.shape[0]
    outcomes: list = [None] * n
    latency = np.full(n, np.inf)
    lag = np.zeros(n)
    pending: dict[int, int] = {}
    report = DriveReport(outcomes, latency, lag)
    updates = sorted(updates, key=lambda entry: entry[0])

    t0 = clock()

    def deliver(results) -> None:
        done = clock() - t0
        for result in results:
            i = pending.pop(result.request_id)
            outcomes[i] = result
            if not isinstance(result, RequestFailure):
                latency[i] = done - dues[i]

    def apply_update(apply) -> None:
        start = clock()
        apply()
        report.update_s.append(clock() - start)

    i = 0
    u = 0
    while i < n or service.scheduler.pending:
        now = clock() - t0
        while i < n and dues[i] <= now:
            answer = submit(i, float(dues[i]))
            lag[i] = clock() - t0 - dues[i]
            if isinstance(answer, RequestFailure):
                outcomes[i] = answer
            else:
                pending[answer.request_id] = i
            i += 1
        while u < len(updates) and updates[u][0] <= now:
            apply_update(updates[u][1])
            u += 1
        deliver(service.pump(clock() - t0))
        wake = min(
            dues[i] if i < n else np.inf,
            updates[u][0] if u < len(updates) else np.inf,
            service.scheduler.deadline(),
        )
        delay = wake - (clock() - t0)
        if 0 < delay < np.inf:
            slept = clock()
            sleep(delay)
            report.sleep_s += clock() - slept
    deliver(service.drain())
    for _, apply in updates[u:]:
        apply_update(apply)
    report.wall_s = clock() - t0
    if pending:
        raise RuntimeError(f"{len(pending)} requests never completed")
    return report


def serve_burst(service, indices, submit, clock=time.perf_counter):
    """Submit requests ``indices`` all at once and drain them.

    Returns ``({index: outcome}, wall seconds from first submit to drained)``.
    """
    outcomes: dict = {}
    pending: dict[int, int] = {}
    start = clock()
    for i in indices:
        answer = submit(i, 0.0)
        if isinstance(answer, RequestFailure):
            outcomes[i] = answer
        else:
            pending[answer.request_id] = i
    for result in service.drain():
        outcomes[pending.pop(result.request_id)] = result
    elapsed = clock() - start
    if pending:
        raise RuntimeError(f"{len(pending)} requests never completed")
    return outcomes, elapsed
