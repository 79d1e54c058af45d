"""How fast the machine runs right now, from a fixed reference computation.

On a shared host the speed of the interpreter and of numpy changes by
up to about 1.6× within seconds to minutes (other tenants), and every
timing of a run moves with it.  The benchmark therefore interleaves
short slices of a fixed reference computation with its timed
consultations, outside their timing, and reports each time at the
reference speed: a time measured while the nearby reference slices took
``r`` seconds (their median) is scaled by ``REFERENCE_S / r``.

The reference imports nothing from ``repro``, so no change to the
library moves it.  Its mix matters: in probes on the build host,
compute-bound slices (small ``numpy.linalg.solve`` batches, ``Fraction``
arithmetic, a cache-resident dict) swung about twice as far as a
cold-search consultation, and slices bound by memory latency (random
reads of a ~100 MB dict and array) about half as far, both with chunk
correlations of 0.8–0.99.  A slice of about 40% compute and 60% memory
time therefore swings like a consultation does.

The reference runs in a helper process (``HostSpeed``), so its ~155 MB
working set never counts in the benchmark's own peak RSS; the helper
times each slice itself, so the pipe's latency is not in the sample.
Run directly, this file is that helper: it answers each line on stdin
with one slice's seconds and exits when stdin closes.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

#: What one reference slice took on the 2-vCPU x86-64 KVM guest the
#: benchmark was built on, in its faster state; the unit of every
#: reported time.
REFERENCE_S = 0.014
#: Consultation time between two reference slices.
SLICE_EVERY_S = 0.25
#: Slices on each side of a moment whose median gives its speed.
WINDOW = 2
#: How long the helper may take to start or to answer.
HELPER_TIMEOUT_S = 60.0


class _Reference:
    """The reference's inputs, built once from a fixed seed."""

    def __init__(self) -> None:
        from fractions import Fraction

        import numpy

        self.np = numpy
        self.fraction = Fraction
        gen = numpy.random.default_rng(20110607)
        self.matrices = gen.standard_normal((48, 7, 7)) + 7.0 * numpy.eye(7)
        self.rhs = gen.standard_normal((48, 7, 1))
        self.pairs = [(int(n), int(d)) for n, d in zip(
            gen.integers(-50, 50, size=64), gen.integers(1, 30, size=64))]
        self.table = {i: (i, str(i)) for i in range(300_000)}
        self.keys = [int(k) for k in gen.integers(0, 300_000, size=8_000)]
        self.array = gen.standard_normal(8_000_000)
        self.gather = gen.integers(0, 8_000_000, size=200_000)

    def compute(self) -> float:
        total = 0.0
        for _ in range(80):
            total += float(self.np.linalg.solve(self.matrices, self.rhs)[0, 0, 0])
        values = [self.fraction(n, d) for n, d in self.pairs]
        acc = self.fraction(0)
        for _ in range(10):
            for a, b in zip(values, reversed(values)):
                acc += a * b
        book: dict = {}
        for i in range(6_000):
            book[(i % 97, i % 13)] = book.get((i % 97, i % 13), 0) + i
        return total + float(acc) + len(book)

    def memory(self) -> float:
        table = self.table
        total = 0
        for key in self.keys:
            total += table[key][0]
        return total + float(self.array[self.gather].sum())

    def slice_seconds(self) -> float:
        started = time.perf_counter()
        self.compute()
        self.memory()
        return time.perf_counter() - started


def serve() -> int:
    """The helper's loop: one slice per stdin line."""
    reference = _Reference()
    reference.slice_seconds()  # first-call costs stay out of the samples
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(reference.slice_seconds()), flush=True)
    return 0


def scale_at(moments: list[float], seconds: list[float], at: float) -> float:
    """``REFERENCE_S`` over the median of the ``WINDOW`` slices taken
    before moment ``at`` and the ``WINDOW`` taken after it (``moments``
    ascending, ``seconds[i]`` the slice taken at ``moments[i]``)."""
    if not seconds:
        raise RuntimeError("no reference slice was taken")
    index = bisect.bisect_left(moments, at)
    window = seconds[max(0, index - WINDOW):index + WINDOW]
    return REFERENCE_S / statistics.median(window or seconds[-WINDOW:])


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the processes it starts) to its lowest
    allowed CPU, so the reference slices run where the consultations
    do; returns that CPU, or None where affinity is not supported.

    The build host's vCPUs changed speed independently: a helper left
    free to run on the other vCPU tracked a consultation's speed with a
    chunk correlation of 0.26, and 0.97 once both shared one CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class HostSpeed:
    """The helper process, the slices taken through a run, and the
    speed they imply.

    ``sample()`` times one slice; ``after(elapsed)`` counts consultation
    time and takes a slice every ``SLICE_EVERY_S`` of it.  ``scale(at)`` is
    the factor that turns a time measured around ``perf_counter()``
    moment ``at`` into a time at the reference speed: ``REFERENCE_S``
    over the median of the nearby slices (:func:`scale_at`).  Use it as
    a context manager: leaving it stops the helper and waits for it.
    """

    def __init__(self) -> None:
        self.moments: list[float] = []
        self.seconds: list[float] = []
        self._since = 0.0
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            if self._proc.stdout.readline().strip() != "ready":
                raise RuntimeError("the reference helper did not start")
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        try:
            self._proc.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()

    def sample(self) -> None:
        started = time.perf_counter()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference helper exited")
        self.moments.append((started + time.perf_counter()) / 2)
        self.seconds.append(float(line))

    def after(self, elapsed: float) -> None:
        """Count ``elapsed`` seconds of consultation time; take a slice
        once ``SLICE_EVERY_S`` of it has passed since the last one."""
        self._since += elapsed
        if self._since >= SLICE_EVERY_S:
            self._since = 0.0
            self.sample()

    def scale(self, at: float) -> float:
        return scale_at(self.moments, self.seconds, at)

    def median_scale(self) -> float:
        """The factor over the whole run (for the printed summary)."""
        return REFERENCE_S / statistics.median(self.seconds)


if __name__ == "__main__":
    sys.exit(serve())
