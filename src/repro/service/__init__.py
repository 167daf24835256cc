"""Live service mode: an asyncio control plane over the simulated overlay.

Everything else in this repository is *batch*: a sweep runs to completion
and exits.  This package (PR 10) is the *open-loop* regime the paper's
protocol is actually designed for — sessions arrive continuously, join a
live VDM tree, hold, and leave, while the control plane enforces a
robustness envelope on every operation:

* a bounded in-process event bus with explicit overflow policy
  (:mod:`repro.service.bus`) — the join queue's high-water mark *is* the
  admission controller;
* per-join timeouts and bounded retries with decorrelated jitter, via
  :class:`repro.util.retry.RetryPolicy`;
* per-component health probes with time-in-degraded accounting
  (:mod:`repro.service.health`);
* SIGTERM-triggered graceful drain: admissions stop, in-flight joins
  finish, the journal snapshot is durable, and ``--resume`` replays to
  byte-identical final metrics.

Time is **virtual**: every await in the service sleeps on the
discrete-event simulator (:mod:`repro.service.clock`), and a driver
interleaves the asyncio loop with simulator events so a seeded run is
fully deterministic — the property every chaos and drain test leans on.

Entry point: ``python -m repro.service`` (see
:mod:`repro.service.__main__`), or :func:`repro.service.runtime.run_service`
from the ch8 experiment sweep.
"""

from repro.service.runtime import ServiceConfig, ServiceRuntime, run_service

__all__ = ["ServiceConfig", "ServiceRuntime", "run_service"]
