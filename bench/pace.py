"""Machine-speed reference for the benchmark's timings.

On a shared host the speed available to one process drifts by 20-40%
over minutes, because other tenants' load changes; the same command then
takes 1.1 s in one run and 1.7 s in the next. A fixed pure-Python
reference loop, timed in the same process right next to the commands,
slows down with them. Timings are therefore reported scaled to a nominal
machine on which the reference loop takes ``REFERENCE_S`` seconds:
``scaled = measured * REFERENCE_S / reference``. A change to the program
moves the measured time and not the reference, so it shows in full.
"""

from __future__ import annotations

import gc
import inspect
import time

REFERENCE_S = 0.015


def reference_loop() -> float:
    """Seconds for a fixed mix of integer arithmetic and dict/str work, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        table = {}
        for i in range(20_000):
            table[i] = str(i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# For timing the same loop in a fresh interpreter, next to a set-up.
REFERENCE_SOURCE = "import gc\nimport time\n" + inspect.getsource(reference_loop)


def scale(measured: float, reference: float) -> float:
    return measured * REFERENCE_S / reference
