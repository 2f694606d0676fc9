"""Reference kernel that measures how fast the machine is right now.

On shared machines the speed of a core drifts by tens of percent over
tens of seconds, as neighbouring load comes and goes, and a whole run can
fall into a slow phase. The program and a fixed kernel of the same kind
of work (small batched linear algebra, per-frame numpy calls, an STFT)
slow down together, so the benchmark times this kernel before and after
every set-up and every in-process operation and scales their times to
the speed at which the kernel takes ``NOMINAL_S``. The kernel's inputs
are fixed; it calls no rtfdoa code, so no change to the program can move
it.

Each core switches between fast and slow phases (about 1.7 times apart)
every few seconds, and the two cores do so independently, so kernel
times taken before and after a child process say little about the speed
it met. ``Gauge`` instead samples a few kernel steps every
``GAUGE_PERIOD_S`` on the core the child is pinned to, while it runs.
"""
import os
import threading
import time

import numpy as np

NOMINAL_S = 0.13  # median duration of one call on the reference machine
GAUGE_STEPS = 3
GAUGE_PERIOD_S = 0.1
# typical mean CPU time of a gauge sample on the reference machine, taken
# while it shares its core with an ``rtfdoa estimate`` process
GAUGE_NOMINAL_S = 0.0076


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((257, 5, 5)) + 1j * rng.standard_normal((257, 5, 5))
        self.h = a @ a.conj().transpose(0, 2, 1) + 5.0 * np.eye(5)
        self.y = rng.standard_normal((5, 257)) + 1j * rng.standard_normal((5, 257))
        self.x = rng.standard_normal((5, 4 * 16000))
        self.window = np.hanning(512)

    def _step(self) -> None:
        h, y = self.h, self.y
        np.linalg.eigh(h)
        for _ in range(5):
            outer = np.einsum("pk,qk->kpq", y, y.conj())
            mask = outer[:, 0, 0].real > 1.0
            0.5 * (h[mask] + h[mask].conj().transpose(0, 2, 1))
        np.linalg.cholesky(h)

    def seconds(self) -> float:
        """Wall time of one pass over the fixed work."""
        t0 = time.perf_counter()
        for _ in range(60):
            self._step()
        frames = np.lib.stride_tricks.sliding_window_view(self.x, 512, axis=1)
        np.fft.rfft(frames[:, ::256] * self.window, axis=-1)
        return time.perf_counter() - t0

    def sample(self) -> float:
        """CPU time of GAUGE_STEPS steps: time off the core does not count."""
        t0 = time.thread_time()
        for _ in range(GAUGE_STEPS):
            self._step()
        return time.thread_time() - t0


class Gauge:
    """Sample the kernel on ``cpu`` in a thread while the ``with`` block runs.

    ``slowdown()`` is the mean sample over ``GAUGE_NOMINAL_S``: how much
    slower than the reference machine the core ran in that time.
    """

    def __init__(self, kernel: ReferenceKernel, cpu: int) -> None:
        self.kernel, self.cpu = kernel, cpu
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.wait(GAUGE_PERIOD_S):
            self.samples.append(self.kernel.sample())

    def __enter__(self) -> "Gauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a block shorter than one period
            self.samples.append(self.kernel.sample())

    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / GAUGE_NOMINAL_S
