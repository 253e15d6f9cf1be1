"""The always-on checking service (``python -m repro serve``).

Everything a batch engine run pays on every invocation — interpreter boot,
pipeline imports, corpus loading, a cold solver-query cache and cold blast
memos — the daemon pays once.  :class:`~repro.serve.server.ServeServer`
holds a pool of warm checker processes resident, accepts check jobs over a
local socket speaking line-delimited JSON
(:mod:`repro.serve.protocol`), schedules units deterministically with
per-client priorities, quotas, and backpressure
(:mod:`repro.serve.scheduler`), and streams engine-schema result records
back per job.  :class:`~repro.serve.client.ServeClient` (and ``python -m
repro submit``) is the other end of the wire.

See docs/SERVE.md for the protocol tables, server configuration, and the
warm-vs-cold latency story.
"""

from repro.serve.client import (JobHandle, ServeClient, ServeError,
                                SubmitRejected, check_via_server)
from repro.engine.pool import PoolEvent, WarmWorkerPool
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.scheduler import AdmissionError, Job, JobScheduler
from repro.serve.server import ServeConfig, ServeServer
from repro.serve.top import render_dashboard

__all__ = [
    "AdmissionError",
    "Job",
    "JobHandle",
    "JobScheduler",
    "PROTOCOL_VERSION",
    "PoolEvent",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeServer",
    "SubmitRejected",
    "WarmWorkerPool",
    "check_via_server",
    "render_dashboard",
]
