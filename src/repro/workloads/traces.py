"""Synthetic proxy access log, calibrated to the paper's Fig 1 setting.

The paper analyzes a 2-hour window of a university Squid proxy log:
a 2 Mbps access link, 221 unique client IPs, 1.5 GB downloaded, object
sizes from 100 B to ~100 MB with the mass in the web-page range.  The
real log is unavailable, so :func:`generate_trace` synthesizes one with
the same aggregates (see DESIGN.md, substitutions):

- object sizes are log-normal (median ~8 KB, sigma ~2.2 natural-log
  units), clipped to ``[100 B, max_object_bytes]`` — this matches the
  classic heavy-tailed web-object mix and spans Fig 1's x-axis;
- request arrivals are Poisson per client with exponential think times;
- each client is a flow pool issuing up to ``connections`` parallel
  requests.

The replay engine maps the trace onto :class:`~repro.workloads.web.WebUser`
sessions, so the same trace drives Fig 1 (droptail download-time
scatter) and Fig 12 (TAQ-with-admission CDFs).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.topology import Dumbbell
from repro.workloads.web import WebUser


@dataclass(frozen=True)
class TraceRequest:
    """One logged object request."""

    time: float
    client_id: int
    size_bytes: int


@dataclass
class SyntheticTrace:
    """A generated access log."""

    requests: List[TraceRequest]
    duration: float
    n_clients: int

    def by_client(self) -> Dict[int, List[TraceRequest]]:
        grouped: Dict[int, List[TraceRequest]] = {}
        for request in self.requests:
            grouped.setdefault(request.client_id, []).append(request)
        return grouped


def sample_object_size(
    rng: random.Random,
    median_bytes: float = 8_000.0,
    sigma: float = 2.2,
    min_bytes: int = 100,
    max_bytes: int = 2_000_000,
) -> int:
    """Heavy-tailed (log-normal) web object size.

    ``max_bytes`` defaults to 2 MB rather than the trace's 100 MB tail:
    simulating multi-minute transfers adds wall-clock cost without
    changing the regime dynamics the figure demonstrates (the paper's
    own spread stabilizes past ~1 MB).
    """
    size = rng.lognormvariate(math.log(median_bytes), sigma)
    return int(min(max_bytes, max(min_bytes, size)))


def generate_trace(
    seed: int = 0,
    n_clients: int = 40,
    duration: float = 300.0,
    requests_per_client_per_sec: float = 0.05,
    median_bytes: float = 8_000.0,
    sigma: float = 2.2,
    max_object_bytes: int = 2_000_000,
) -> SyntheticTrace:
    """Synthesize an access log (see module docstring for calibration).

    Defaults are scaled down from the paper's 221 clients / 2 hours to
    keep simulations laptop-fast; the *rates* (requests per client, size
    mix) follow the published aggregates.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    rng = random.Random(seed)
    requests: List[TraceRequest] = []
    for client in range(n_clients):
        t = rng.expovariate(requests_per_client_per_sec)
        while t < duration:
            requests.append(
                TraceRequest(
                    time=t,
                    client_id=client,
                    size_bytes=sample_object_size(
                        rng, median_bytes, sigma, max_bytes=max_object_bytes
                    ),
                )
            )
            t += rng.expovariate(requests_per_client_per_sec)
    requests.sort(key=lambda r: r.time)
    return SyntheticTrace(requests=requests, duration=duration, n_clients=n_clients)


def replay_trace(
    dumbbell: Dumbbell,
    trace: SyntheticTrace,
    connections: int = 4,
    first_flow_id: int = 0,
    max_objects_per_client: Optional[int] = None,
    **user_kwargs,
) -> List[WebUser]:
    """Replay *trace* as one :class:`WebUser` per client.

    Per §5.5, objects are requested as soon as a connection frees up
    rather than at the logged instants (requests depend on previous
    responses); the logged first-request time sets the session start.
    """
    flow_ids = itertools.count(first_flow_id)
    users = []
    for client_id, client_requests in sorted(trace.by_client().items()):
        sizes = [r.size_bytes for r in client_requests]
        if max_objects_per_client is not None:
            sizes = sizes[:max_objects_per_client]
        users.append(
            WebUser(
                dumbbell,
                client_id,
                sizes,
                flow_ids,
                connections=connections,
                start_time=client_requests[0].time,
                **user_kwargs,
            )
        )
    return users
