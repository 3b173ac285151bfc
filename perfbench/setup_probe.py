"""Set-up cost in a fresh interpreter: ``python3 setup_probe.py <workload>``.

Times the import of ``dageo`` (which builds the theorem registry) and the
warm-up, which runs the workload's golden ops.  Prints one JSON line with
both times, a host probe taken right after (the best of three, since a
fresh process pays page faults on its first allocations), and the
digests of the golden outputs.  ``json`` and the probe are imported only
after the clock stops, since ``dageo`` imports what they import.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

start = time.perf_counter()
import dageo.harness  # noqa: E402
import dageo.scene  # noqa: E402,F401
import dageo.svg  # noqa: E402,F401
imported = time.perf_counter()

import json  # noqa: E402

import workloads  # noqa: E402
from hostprobe import probe  # noqa: E402

workload = workloads.WORKLOADS[sys.argv[1]]
warm_start = time.perf_counter()
digests = workloads.golden_outputs(workload)
warm_end = time.perf_counter()
print(json.dumps({"import_s": imported - start,
                  "warmup_s": warm_end - warm_start,
                  "probe_s": min(probe() for _ in range(3)),
                  "digests": digests}))
