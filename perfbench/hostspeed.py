"""Host-speed correction: scale measured times to reference seconds.

The speed of one core of a shared host drifts: a fixed pure-Python loop
measured on a 2-vCPU Xeon VM took between 0.21 s and 0.39 s within one
minute, the two vCPUs drifted independently, and the hypervisor took the
vCPU away (steal time) for up to 7% of a unit.  Timing the program alone
then measures the neighbours more than the program.

The benchmark therefore runs on one CPU (:func:`pin_to_one_cpu`), and
:class:`HostSpeed` runs a fixed probe (dict updates, list appends and a
sort, the operations the simulator spends its time in) every
:data:`INTERVAL_S` of wall time while it is active, from a ``SIGALRM``
handler, so the probe runs on the same core in the same instants as the
measured work.  A time measured under it is corrected in three steps: the
time of the probes that ran inside it is subtracted, a wall time also
loses the CPU's steal time, and the rest is multiplied by
``REFERENCE_S / mean probe time`` -- the time the work would take when the
probe runs in :data:`REFERENCE_S`.  The probe uses nothing from the
program, so a change to the program's speed moves the corrected time as it
moves the raw one.  The probe shares the caches with the work, so a change
to the program's memory footprint can also move the probe a little.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

#: Wall seconds between probes.
INTERVAL_S = 0.1
#: Probe iterations (4.5 to 8 ms of CPU time on that host).
PROBE_LOOPS = 10_000
#: Typical CPU seconds of the probe interleaved with simulator work on the
#: host the bounds were set on (2-vCPU Xeon VM, Python 3.11), so reference
#: seconds are close to raw seconds there.
REFERENCE_S = 0.0075


def pin_to_one_cpu() -> int:
    """Restrict this process (and the processes it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_s(cpu: int) -> float:
    """Steal time of ``cpu`` so far, in seconds (0 where not reported)."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith(prefix):
                fields = line.split()
                if len(fields) > 8:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


def probe_s() -> float:
    """CPU seconds of one run of the fixed probe."""
    start = time.process_time()
    counts: dict[int, int] = {}
    pairs = []
    for i in range(PROBE_LOOPS):
        key = i * 7919 % 65521
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i))
    pairs.sort()
    return time.process_time() - start


class HostSpeed:
    """Samples the probe while active; corrects times measured meanwhile.

    One probe runs on :meth:`start` and one on :meth:`stop`, so even work
    shorter than :data:`INTERVAL_S` has two samples.  Probes run by the
    timer are recorded with their start time, so :meth:`correct` removes
    exactly those that ran inside the interval it is given.  Steal time is
    read at :meth:`start` and :meth:`stop` (in 10 ms ticks), so it is that
    of the whole active period: keep untimed work in it short.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[float] = []
        #: Timer probes: ``(perf_counter at start, wall s, CPU s)``.
        self.alarms: list[tuple[float, float, float]] = []
        self.steal_s = 0.0
        self._previous = None

    def start(self) -> "HostSpeed":
        self.samples.append(probe_s())
        self.steal_s = -steal_s(self.cpu)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> "HostSpeed":
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.steal_s += steal_s(self.cpu)
        self.samples.append(probe_s())
        return self

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        cpu = probe_s()
        self.samples.append(cpu)
        self.alarms.append((start, time.perf_counter() - start, cpu))

    def correct(self, start: float, wall_s: float, cpu_s: float) -> tuple[float, float]:
        """Wall and CPU seconds of work timed from ``perf_counter() == start``
        for ``wall_s``, less the probes inside it (and, for the wall time,
        less steal time, but never below the CPU time), in reference
        seconds."""
        inside = [(w, c) for t, w, c in self.alarms if start <= t < start + wall_s]
        cpu = cpu_s - sum(c for _, c in inside)
        wall = max(wall_s - sum(w for w, _ in inside) - self.steal_s, cpu)
        scale = REFERENCE_S / statistics.mean(self.samples)
        return wall * scale, cpu * scale
