"""The machine's speed during a pass, read from a fixed kernel timed inside it.

The benchmark's host shares its cores with other tenants, and its speed
changes by up to 2x in spells from seconds to minutes, with the process
on the CPU the whole time. A pass therefore times a kernel made of the
benchmark's own reference code (never polybern): back to back on entry,
then every PERIOD_S from a SIGALRM handler on the thread that runs the
operations. The kernel's time is taken out of the operations it
interrupted, and the pass's times are put on the reference machine's
scale by KERNEL_S divided by the kernel's median time around them. A
change to polybern moves the operations, not the kernel.

Each periodic sample runs the kernel twice and times the second run. The
first run after a stretch of the workload finds cold caches, and how
cold depends on what the workload did: timed, it followed the machine's
speed on the exact-count workload but not on `verify`. The second run
follows it on every workload.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import reference

# Median time of a warm kernel run on the reference machine (2-vCPU
# shared VM, Intel Xeon at 2.1 GHz, Python 3.11) in its usual state, in
# which scaled times therefore read as seconds.
KERNEL_S = 0.3e-3
PERIOD_S = 0.05
LEAD_SAMPLES = 32
# An operation's time is scaled by the samples taken from NEAR_S before
# it began to NEAR_S after it ended: about nine for a short one.
NEAR_S = 0.2


def kernel() -> float:
    # Big-int sums and float root-finding, as the workloads mix them.
    ref = reference.ExactReference()
    exact = ref.b(36, 36) + ref.d(28, 30) + ref.c(24, 20)
    return float(exact % 1009) + sum(reference.bivar_log(n, 91 - n) for n in (3, 30, 60, 88))


def _timed() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel times taken back to back on entry (`lead`), then every
    PERIOD_S until exit (`samples`: start of the sample, time the sample
    took in all, time of its warm kernel run)."""

    def __init__(self, period: float = PERIOD_S) -> None:
        # A period of 0 takes the lead samples only.
        self.period = period
        self.lead: list[float] = []
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        warm = _timed()
        self.samples.append((start, time.perf_counter() - start, warm))

    def __enter__(self) -> SpeedProbe:
        self.lead = [_timed() for _ in range(LEAD_SAMPLES)]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def setup_factor(self) -> float:
        """Multiplier that puts the set-up just before entry on the reference scale."""
        return KERNEL_S / statistics.median(self.lead)

    def factor(self) -> float:
        """Multiplier that puts the pass's wall time on the reference scale."""
        return KERNEL_S / statistics.median([warm for _, _, warm in self.samples] or self.lead)

    def op_factors(self, starts: list[float], ends: list[float]) -> list[float]:
        """Multiplier for each operation's time, from the samples taken
        within NEAR_S of it, or the pass's when fewer than three were."""
        times = [start for start, _, _ in self.samples]
        whole = self.factor()
        memo: dict[tuple[int, int], float] = {}
        factors = []
        for start, end in zip(starts, ends):
            span = (bisect.bisect_left(times, start - NEAR_S), bisect.bisect_right(times, end + NEAR_S))
            if span not in memo:
                near = [warm for _, _, warm in self.samples[span[0] : span[1]]]
                memo[span] = KERNEL_S / statistics.median(near) if len(near) >= 3 else whole
            factors.append(memo[span])
        return factors

    def stolen(self, starts: list[float], ends: list[float]) -> list[float]:
        """Sample time that fell inside each interval [starts[i], ends[i]).

        The intervals are sorted and disjoint, as a closed loop's
        operations are.
        """
        taken = [0.0] * len(starts)
        for start, took, _ in self.samples:
            i = bisect.bisect_right(starts, start) - 1
            if i >= 0 and start < ends[i]:
                taken[i] += took
        return taken
