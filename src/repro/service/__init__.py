"""Live service mode: a control plane on the simulated overlay.

Everything else in this repository is *batch*: a sweep runs to completion
and exits.  This package is the *open-loop* regime the paper's protocol
is actually designed for — sessions arrive continuously, join a live VDM
tree, hold, and leave, while the control plane enforces a robustness
envelope on every operation:

* a bounded join queue whose high-water mark *is* the admission
  controller, served by a fixed number of slots;
* per-join timeouts and bounded retries with decorrelated jitter, via
  :class:`repro.util.retry.RetryPolicy`;
* per-component health probes with time-in-degraded accounting
  (:mod:`repro.service.health`);
* SIGTERM-triggered graceful drain: admissions stop, queued and
  in-flight joins finish, the journal snapshot is durable, and
  ``--resume`` replays to byte-identical final metrics.

Time is **virtual**: the service is a plain client of the discrete-event
simulator, and every wait it makes is a simulator event, so a seeded
run is fully deterministic — the property every chaos and drain test
leans on (see :mod:`repro.service.runtime`).

Entry point: ``python -m repro.service`` (see
:mod:`repro.service.__main__`), or :func:`repro.service.runtime.run_service`
from the ch8 experiment sweep.
"""

from repro.service.runtime import ServiceConfig, ServiceRuntime, run_service

__all__ = ["ServiceConfig", "ServiceRuntime", "run_service"]
