"""A fixed pure-Python loop that gauges how fast the host runs at the moment.

On a shared host each processor can slow down and speed up by up to a
factor of two, in phases of a few seconds, independently of the others.
Longer runs and medians do not average such phases out.  So verdict.py runs
this loop in the verdict's own interpreter, once before the package is
imported and once after the verdict, within moments of the work it
measures.  run.py divides every end-to-end time of that verdict by the
loop's time over REFERENCE_S (the host factor): the figures it reports are
seconds on a host that runs the loop in REFERENCE_S.

The loop uses only integers and calls, so it allocates nothing the garbage
collector tracks and reads no state the program leaves behind.  It lives
here, outside the package, so no change to the program can change it.
"""

import time

# Seconds the loop takes on the reference host: about its median time on a
# shared 2-core Xeon, so that scaled figures stay close to wall seconds there.
REFERENCE_S = 0.018

_ROUNDS = 35000


def _step(x: int, k: int) -> int:
    return (x * 48271 + k) % 2147483647


def _loop() -> int:
    x, acc = 1, 0
    for k in range(_ROUNDS):
        x = _step(x, k)
        if x & 1:
            acc += x >> 7
        else:
            acc ^= x
    return acc


def measure() -> tuple[float, float]:
    """Run the loop once; return its wall and CPU seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    _loop()
    return time.perf_counter() - wall, time.process_time() - cpu
