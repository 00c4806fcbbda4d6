"""Machine-speed sampling, so that timings on a shared host stay comparable.

On a shared virtual machine the same pass can take half as long again when
a neighbour is busy, for stretches of seconds to minutes, and the slowdown
changes within a pass.  While a ``SpeedSampler`` is active, a SIGALRM
handler times a fixed pure-Python loop (``kernel_s``, which does not touch
opbandit) every ``INTERVAL_S`` seconds.  A timing is then scaled by
``REFERENCE_S / median(samples)``: it reads as seconds at the speed the
reference machine usually has.  The handler's own time is subtracted from
the timing first.  A change in opbandit moves the timing and not the
samples, so the scaling keeps it; a change in the host's speed moves both.
"""

import signal
import statistics
import time

#: median ``kernel_s`` reading on the machine the bounds were set on
#: (2-vCPU KVM guest on an Intel Xeon, Python 3.11)
REFERENCE_S = 0.0022
INTERVAL_S = 0.05


def kernel_s() -> float:
    """Seconds one run of a fixed integer loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples ``kernel_s`` while active (a context manager, main thread only).

    With ``periodic=False`` it samples only on entry and exit, so that
    nothing interrupts the work in between (traced passes use this).
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.samples: list[tuple[float, float]] = []  # (clock time, kernel_s)
        self.spent_s = 0.0  # time spent in the handler, to subtract

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0 - self.spent_s, kernel_s()))
        self.spent_s += time.perf_counter() - t0

    def clock(self) -> float:
        """``perf_counter`` less the time spent in the handler so far."""
        return time.perf_counter() - self.spent_s

    def __enter__(self) -> "SpeedSampler":
        self.samples.append((self.clock(), kernel_s()))
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append((self.clock(), kernel_s()))

    @property
    def speed(self) -> float:
        """Factor that turns a timing taken while active into reference seconds."""
        return REFERENCE_S / statistics.median(dt for _, dt in self.samples)

    def speed_during(self, intervals) -> float:
        """``speed`` from the samples taken inside ``intervals`` (pairs of
        ``clock`` times), or from all samples when none fell inside."""
        inside = [dt for t, dt in self.samples if any(a <= t <= b for a, b in intervals)]
        return REFERENCE_S / statistics.median(inside) if inside else self.speed
