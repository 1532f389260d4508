"""Small shared utilities that would otherwise be re-invented per module.

Currently: atomic artifact publication and the usable CPU count.

Atomic publication: several subsystems publish
JSON artifacts that other processes read concurrently — the ``.ckpt``
checkpoint sidecars (:mod:`repro.trace.shards`), ``--metrics`` span
dumps (:mod:`repro.telemetry`), and the ``BENCH_*.json`` benchmark
artifacts. All of them share one failure mode: a crash (or a parallel
writer) mid-``json.dump`` leaves a torn file that readers then either
reject or, worse, half-parse. The fix is the same everywhere, so it
lives here once: write a temp file *in the destination directory*
(``os.replace`` is only atomic within one filesystem) and rename it
into place.

Default worker counts (parallel replay, batch, the advisor's
extraction pass) size themselves by :func:`effective_cpus`: the CPUs
this process may actually run on, not the host's ``os.cpu_count()``,
which overstates what a pinned or quota-limited container gets.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Publish ``text`` at ``path`` atomically.

    Readers observe either the previous complete file or the new one,
    never a prefix. Raises ``OSError`` on failure (callers that prefer
    to degrade — e.g. best-effort caches — catch it themselves); the
    temp file is cleaned up on every failure path.
    """
    path = os.fspath(path)
    fd = None
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".",
            prefix=os.path.basename(path) + ".", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            fd = None  # os.fdopen owns the descriptor now
            handle.write(text)
        os.replace(tmp, path)
        tmp = None
    finally:
        if fd is not None:
            os.close(fd)
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def atomic_write_json(path: str | os.PathLike, payload: Any, *,
                      indent: int | None = 2,
                      sort_keys: bool = False) -> None:
    """Serialize ``payload`` and publish it atomically at ``path``.

    The serialization happens *before* the destination is touched, so a
    non-JSON-able payload can never truncate an existing artifact.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    if indent is not None:
        text += "\n"
    atomic_write_text(path, text)


#: cgroup v2 CPU bandwidth limit of this process's group: ``max`` or
#: ``<quota> <period>`` in microseconds.
CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def effective_cpus() -> int:
    """CPUs this process can use: its scheduler affinity, capped by
    the cgroup ``cpu.max`` quota (rounded up) when one is set."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    try:
        with open(CGROUP_CPU_MAX) as handle:
            quota, period = handle.read().split()[:2]
        if quota != "max":
            cpus = min(cpus, math.ceil(int(quota) / int(period)))
    except (OSError, ValueError, ZeroDivisionError):
        pass
    return max(1, cpus)
