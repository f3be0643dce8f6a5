"""Host-speed normalisation: time work in seconds at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose throughput moves
by tens of percent, within a second as well as over minutes, as neighbours
come and go.  That slows pure-Python computation broadly, so the benchmark
measures it
with a fixed kernel of stdlib-only work (``kernel``: Fraction arithmetic,
dict updates and an int scan, the operations hopfgalois spends its time
on), sampled around and during the timed work, and reports each time
scaled by

    REF_KERNEL_S * mean(1 / kernel sample time over that interval)

That is the time the work would take on this host at the speed where the
kernel runs in REF_KERNEL_S.  The kernel never touches the package under
test, so a faster program reads faster and a faster host does not.  Raw
wall-clock times are kept next to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on a 2-vCPU shared x86-64 host, Python 3.11.7.  It
# only fixes the unit; any constant would rank commits alike.
REF_KERNEL_S = 0.0028


def kernel():
    """A fixed few milliseconds of stdlib work like hopfgalois's own.

    Fraction arithmetic (the descent and CLI paths), dict updates, and a
    trial-division scan over small ints (rational_roots).  The scan has the
    largest share: its speed drifts differently from allocation-heavy code,
    and a mixed kernel follows both kinds of workload.
    """
    s = Fraction(0)
    for i in range(1, 90):
        s += Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1)
    d = {}
    for i in range(1500):
        k = (i * 7) % 61
        d[k] = d.get(k, 0) + i
    n = 3 * 1009 * 1009
    return s, d, [k for k in range(1, 40000) if n % k == 0]


def sample():
    """Seconds one kernel run takes now.

    The collector is off during the run: the kernel makes no cycles, and a
    full collection would scan the heap of the program under test, which
    would tie the kernel's time to that program's memory use.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_seconds(raw_s, kernel_samples):
    """`raw_s` scaled to the reference speed measured by `kernel_samples`.

    The samples are taken at even intervals of the timed work, so its
    reference time is raw_s times the mean speed (1 / kernel time) relative
    to the reference speed.  A disturbed sample can only read slow, and
    the mean of speeds bounds its weight.
    """
    return raw_s * REF_KERNEL_S * statistics.fmean(1 / k for k in kernel_samples)


class Speedometer:
    """Samples the kernel every `period_s` while running, and on request.

    While started, a SIGALRM timer runs one kernel sample every `period_s`
    in the main thread, between bytecodes of whatever is being timed.  The
    time spent in samples (timer-driven or explicit ``probe``) is counted in
    ``overhead`` and subtracted from every span, so a span's raw time is the
    work alone.
    """

    def __init__(self, period_s=0.25):
        self.period_s = period_s
        self.samples = []
        self.overhead = 0.0
        self._busy = False
        self._old_handler = None

    def _sample(self):
        self._busy = True
        t0 = perf_counter()
        self.samples.append(sample())
        self.overhead += perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._sample()

    def start(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def probe(self):
        """Take one kernel sample now, outside any span's raw time."""
        self._sample()

    def mark(self):
        return perf_counter(), self.overhead, len(self.samples)

    def span(self, start, end, pad=0):
        """(raw seconds, reference seconds) between two marks.

        The speed comes from the samples taken between the marks and `pad`
        samples either side of them: for an item, the probes just before
        and after it, which is all a short item gets.  The host's speed
        jitters within a second, so the nearest samples serve best: on
        repeats of one 0.3-s CLI call, wider windows (0.3 s or 1 s either
        side) left 1.2-1.5 times the spread of these.
        """
        (t0, o0, i0), (t1, o1, i1) = start, end
        raw = (t1 - t0) - (o1 - o0)
        return raw, reference_seconds(raw, self.samples[max(i0 - pad, 0):i1 + pad])
