"""How fast the host runs Python at this moment.

The benchmark runs on shared virtual machines whose speed moves by up to
~1.9x for seconds at a time.  Timings are kept only from ops that ran
while this probe read close to its fastest value in the run.  The probe
does exact ``Fraction`` arithmetic, like the program, but shares no code
with it.
"""

import time
from fractions import Fraction


def probe() -> float:
    """Wall time of a fixed loop of ``Fraction`` arithmetic (~0.3 ms)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 3)
    return time.perf_counter() - start
