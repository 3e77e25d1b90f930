"""Host-speed gauge for time measurements on a shared host.

On a shared virtual machine the speed of a CPU moves by up to 2x within
seconds, because of load outside the machine: the same 64x64 `smc_rhs` call
takes 16 ms in one second and 30 ms in the next, in wall time and in CPU time
alike.  A background thread therefore times a fixed kernel every PERIOD_S
seconds on the same CPU as the workload (run.py pins the process and its
children to one CPU), and `scaled` converts a measured interval to seconds at
the reference speed: the interval times the mean, over the samples taken
inside it, of REFERENCE_S / sample.  Work done at half speed thus counts half
its wall time.

The kernel is what the workloads spend their time on: numpy calls on small
arrays.  Against 1-second rounds of `smc_rhs` and `evolve_filament` it cut
the spread between rounds from 23-42% to 5-6%, where a pure-Python loop cut
it to 12-14%.  It runs for about a third of a millisecond, so the gauge takes
about 2% of the CPU.
"""

import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.02
REFERENCE_S = 3.5e-4     # one kernel call on an uncontended CPU of the reference host
_ARRAY = np.linspace(0.0, 1.0, 768).reshape(256, 3)


def _kernel():
    for _ in range(20):
        np.roll(_ARRAY, 1, 0) - np.roll(_ARRAY, -1, 0)


class SpeedGauge:
    """Samples (start time, duration) of the gauge kernel until closed."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-gauge", daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            _kernel()
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scaled(self, start, end):
        """Seconds at the reference speed for the wall-clock interval [start, end].

        An interval too short to hold a sample uses the sample nearest to it.
        """
        samples = list(self.samples)
        inside = [d for t, d in samples if start <= t and t + d <= end]
        if not inside:
            middle = 0.5 * (start + end)
            inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        return (end - start) * statistics.fmean(REFERENCE_S / d for d in inside)
