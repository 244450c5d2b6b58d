"""Times corrected for the speed the shared host gives this process.

On a small shared machine the CPU runs at full speed or at about half speed
in phases that last from a second to a minute.  Interpreter-bound code (the
per-sample SGD loop, the CSV reader) slows by up to 2x, vectorised numpy
(the regret simulator, the K=100 gain matrix) by up to 1.6x.  A run that
falls in a slow phase would read that much slower than the program is.
``SpeedGauge`` runs a fixed calibration kernel, one interpreter-bound half
and one vectorised half, before and after every timed call, blends the two
halves' slowdowns in the share the workload declares, and divides the
call's wall time by that slowdown, so each time reads as full-speed
seconds: the wall time the call takes when the kernel runs as fast as it
did on the host the benchmark was written on.  Raw wall times are kept next
to the scaled ones.

The correction is only as good as the blend: a change that moves a
workload's work between interpreter and vectorised code (vectorising the
SGD block, say) leaves its slow-phase times over-corrected by up to 1.25x
until its ``interpreter_share`` is revised, in a change of its own.

The kernel only uses numpy and the interpreter, never the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# full-speed times of the kernel's two halves on the host the benchmark was
# written on (2 vCPUs of a KVM Xeon with AVX-512, numpy on OpenBLAS, one BLAS
# thread)
INTERPRETER_S = 0.0137
VECTORISED_S = 0.0166
ROWS, DIM, CLASSES, BATCH, ITERATIONS = 512, 16, 10, 64, 75
STREAM_SHAPE, STREAM_PASSES, MATRIX_SIDE, PRODUCTS = (10_000, 100), 2, 160, 16


class Kernel:
    """The calibration kernel; its inputs are built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((ROWS, DIM))
        self.y = rng.integers(0, CLASSES, ROWS)
        self.pairs = rng.integers(0, ROWS, (ITERATIONS, 2, BATCH)).tolist()
        self.stream = rng.random(STREAM_SHAPE)
        self.buffer = np.empty(STREAM_SHAPE)    # in place: the kernel allocates no big arrays
        self.matrix = rng.standard_normal((MATRIX_SIDE, MATRIX_SIDE)) / MATRIX_SIDE

    def slowdowns(self) -> tuple[float, float]:
        """How many times slower than at full speed the two halves run:
        a mixup-SGD-like loop (per-row Python work, a stack, two small
        products and a softmax per iteration), and row-wise softmaxes of a
        running sum over an 8 MB array followed by a chain of matrix
        products."""
        x, y, w = self.x, self.y, np.zeros((DIM, CLASSES))
        started = perf_counter()
        for first, second in self.pairs:
            batch = np.stack([0.7 * x[i] + 0.3 * x[j] for i, j in zip(first, second)])
            z = batch @ w
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(BATCH), y[first]] -= 1.0
            w = w - 0.1 * (batch.T @ p) / BATCH
        middle = perf_counter()
        buffer = self.buffer
        for _ in range(STREAM_PASSES):
            np.cumsum(self.stream, axis=0, out=buffer)
            buffer -= buffer.max(axis=1, keepdims=True)
            np.exp(buffer, out=buffer)
            buffer /= buffer.sum(axis=1, keepdims=True)
        m = self.matrix
        for _ in range(PRODUCTS):
            m = m @ self.matrix
        ended = perf_counter()
        return (middle - started) / INTERPRETER_S, (ended - middle) / VECTORISED_S


class SpeedGauge:
    """Times calls and measures the host's slowdown around each.

    ``interpreter_share`` weighs the kernel's interpreter-bound half against
    its vectorised half, to match the kind of work the timed calls do.
    """

    def __init__(self, interpreter_share: float):
        self.share = interpreter_share
        self.kernel = Kernel()
        self.kernel.slowdowns()         # warm the kernel's code paths
        self.last = self.kernel.slowdowns()
        self.slowdowns: list[float] = []

    def time(self, fn, *args, **kwargs):
        """``(result, wall_s, slowdown)`` of ``fn(*args, **kwargs)``; the
        call's full-speed time is ``wall_s / slowdown``."""
        before = self.last
        started = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - started
        self.last = self.kernel.slowdowns()
        interpreter, vectorised = ((a + b) / 2 for a, b in zip(before, self.last))
        slowdown = self.share * interpreter + (1.0 - self.share) * vectorised
        self.slowdowns.append(slowdown)
        return result, wall, slowdown

    def stopwatch(self) -> Stopwatch:
        return Stopwatch(self)


class Stopwatch:
    """Sums the wall and full-speed times of the calls it times; an
    operation made of several program calls is timed call by call, so the
    host's slowdown is measured close to each."""

    def __init__(self, gauge: SpeedGauge):
        self.gauge = gauge
        self.wall = 0.0
        self.full_speed = 0.0

    def __call__(self, fn, *args, **kwargs):
        result, wall, slowdown = self.gauge.time(fn, *args, **kwargs)
        self.wall += wall
        self.full_speed += wall / slowdown
        return result
