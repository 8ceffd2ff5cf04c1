"""How fast is this host right now?  A fixed kernel, timed in bursts.

The benchmark's machines are small guests of shared hosts, whose speed
moves by 1.2 to 1.5 times over minutes (README.md, "Noise").  So the
driver times one fixed piece of work — the *burst* below — before and
after every measured phase of every lap, outside the phase's seconds.
No metric is corrected with it: the record of a run keeps every burst
(``series.bursts``) and the traced run reports their median as
``host.burst_ms``, so that two records can be told apart by host state
before they are told apart by commit.

A burst has the ingredients of the program's own work — matrix products
large enough for the BLAS library to thread, many small products and
element-wise calls, interpreted Python, and a fresh 10 MB allocation —
but none of its code, so a change to the program cannot move it.
"""

import time

import numpy as np

_rng = np.random.default_rng(0)
_A, _B = _rng.random((600, 300)), _rng.random((300, 300))
_S, _W = _rng.random((100, 40)), _rng.random((40, 32))


def burst():
    """Seconds the fixed kernel takes now (about 0.05).  The threaded
    products come first, so that the BLAS helper threads have stopped
    spinning by the time the burst returns."""
    start = time.perf_counter()
    for _ in range(9):
        np.tanh(_A @ _B)
    for _ in range(900):
        np.maximum(_S @ _W, 0.0)
    x = 0.0
    for i in range(180_000):
        x += i * 1.0001
    for _ in range(3):
        z = np.empty(1_250_000)
        z.fill(1.0)
        z = z * 2.0
    return time.perf_counter() - start
