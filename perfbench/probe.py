"""Speed probe: tracks how fast the CPU under the benchmark runs Python.

A fixed pure-Python kernel (calls, small frozensets and tuples, a sort and
dict updates, like bmquiver's inner loops, but no bmquiver code) takes
about ``REFERENCE_S`` of CPU time on a quiet machine.  On a shared host the
same kernel is up to twice as slow in spells of a few seconds, and the two
vCPUs change speed independently, so the probe runs in the process it
measures:

- ``Probe`` runs the kernel from a ``SIGALRM`` handler every
  ``INTERVAL_S`` of wall time.  The speed over a window is the mean of
  ``REFERENCE_S / p`` over the kernel times ``p`` in the window, and a time
  ``t`` is reported as ``t * speed``: the time the window would have taken
  at the reference speed.  The kernel costs under 1% of the window.
- ``python3 perfbench/probe.py`` (with ``bmquiver`` on ``PYTHONPATH``) times
  one cold start, the import of ``bmquiver.cli`` in this fresh interpreter,
  between kernel runs, and prints the raw and the speed-adjusted seconds.

At module level only ``time`` is imported, which is built into the
interpreter, so the cold start imports everything ``bmquiver.cli`` needs
itself.
"""

from time import perf_counter, thread_time_ns

# The kernel's CPU time on a quiet machine: the unit of speed-adjusted time.
REFERENCE_S = 0.000125
INTERVAL_S = 0.05
KERNEL_N = 120
COLD_START_PROBES = 15


def _cell(a: int, b: int) -> frozenset:
    return frozenset((a, b, a ^ b))


def kernel() -> int:
    # Everything it allocates is freed when it returns.
    counts: dict = {}
    for i in range(KERNEL_N):
        cell = _cell(i % 11, i % 7)
        key = tuple(sorted(cell))
        counts[key] = counts.get(key, 0) + len(cell)
    return len(counts)


def kernel_s() -> float:
    """CPU time of one kernel run; time the thread is preempted is not counted.

    The run is the second of two: the first brings the kernel back into the
    caches that the measured program filled, which would otherwise weigh on
    the time as much as the CPU's speed does.
    """
    kernel()
    start = thread_time_ns()
    kernel()
    return (thread_time_ns() - start) / 1e9


class Probe:
    """Runs the kernel periodically in this process while started."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel s)
        self._previous = None

    def _fire(self, signum, frame) -> None:
        took = kernel_s()
        self.samples.append((perf_counter(), took))

    def start(self) -> None:
        import signal

        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """mean(REFERENCE_S / p) over the kernel runs that ended in [start, end].

        A window too short to hold a run takes the run nearest its middle.
        """
        inside = [took for finished, took in self.samples if start <= finished <= end]
        if not inside:
            if not self.samples:
                raise RuntimeError("the probe has no samples")
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return sum(REFERENCE_S / took for took in inside) / len(inside)

    def adjust(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.speed(start, end)


def cold_start() -> tuple[float, float]:
    """(raw, speed-adjusted) seconds to import ``bmquiver.cli``.

    The speed is the mean over kernel runs just before and just after the
    import: the spells of a given speed last seconds, the import tens of
    milliseconds.
    """
    before = [kernel_s() for _ in range(COLD_START_PROBES)]
    start = perf_counter()
    import bmquiver.cli  # noqa: F401

    took = perf_counter() - start
    after = [kernel_s() for _ in range(COLD_START_PROBES)]
    runs = before + after
    return took, took * sum(REFERENCE_S / p for p in runs) / len(runs)


if __name__ == "__main__":
    print(*cold_start())
