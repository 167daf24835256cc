"""Peak-RSS measurement for the benchmark (``bench/run.py``).

Linux exposes a per-process resident-set high-water mark (``VmHWM`` in
``/proc/self/status``) that can be *reset* by writing ``5`` to
``/proc/self/clear_refs`` — which is what lets one process measure the
peak RSS of each timed phase independently instead of reporting one
monotonically growing number.  Where either file is unavailable (non-
Linux, restricted /proc) the fallback is ``resource.getrusage``'s
``ru_maxrss``, which cannot be reset; :func:`reset_peak_rss` says so by
returning ``False``, and the figures are then process-lifetime maxima.
"""

from __future__ import annotations

import resource
import sys

__all__ = ["peak_rss_bytes", "reset_peak_rss"]

_STATUS = "/proc/self/status"
_CLEAR_REFS = "/proc/self/clear_refs"


def _read_status_kib(field: str) -> int | None:
    try:
        with open(_STATUS) as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _ru_maxrss_bytes() -> int:
    value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return value * 1024 if sys.platform != "darwin" else value


def peak_rss_bytes() -> int:
    """Peak resident set size in bytes (since the last successful reset)."""
    kib = _read_status_kib("VmHWM")
    if kib is not None:
        return kib * 1024
    return _ru_maxrss_bytes()


def reset_peak_rss() -> bool:
    """Reset the peak-RSS high-water mark; returns whether it worked.

    After a successful reset, :func:`peak_rss_bytes` reports the maximum
    RSS reached *since this call*.  Returns ``False`` where the kernel
    interface is unavailable; peaks are then process-lifetime maxima.
    """
    try:
        with open(_CLEAR_REFS, "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return _read_status_kib("VmHWM") is not None

