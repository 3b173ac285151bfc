"""Generate/check split of every registered theorem at the reference point
(seed 42, 1000 trials, bound 50), with each report checked against its
pinned sha256.

    python3 perfbench/registry_table.py

Runs the whole registry once under the tracer's interposition (about 30 s
on a 2-vCPU Xeon VM), prints one row per theorem and the totals, and
exits 1 when any report differs from its pin in ``pins.json``.
"""

from __future__ import annotations

import sys
import time

import run  # noqa: F401  (puts src/ on sys.path)
import tracing
import workloads as wl
from dageo.harness import CampaignConfig, run_campaign

REFERENCE = {"seed": 42, "trials": 1000, "bound": 50}
PIN_KEY = "registry_seed42_trials1000_bound50"


def main() -> int:
    pins = wl.load_pins()[PIN_KEY]
    tracer = tracing.Tracer()
    rows, mismatched = [], []
    with tracer.interposed():
        for tid in wl.ALL_THEOREMS:
            start = time.perf_counter()
            text = run_campaign(CampaignConfig(tid, **REFERENCE)).to_json()
            wall = time.perf_counter() - start
            if wl.sha256(text) != pins.get(tid):
                mismatched.append(tid)
            rows.append((tid, wall, tracer.seconds[f"generate:{tid}"],
                         tracer.seconds[f"check:{tid}"]))
    print(f"{'theorem':24s} {'trials/s':>9s} {'generate_s':>10s} "
          f"{'check_s':>8s} {'wall_s':>7s}  report")
    for tid, wall, gen, check in rows:
        status = "differs from pin" if tid in mismatched else "pinned"
        print(f"{tid:24s} {REFERENCE['trials'] / wall:9.1f} {gen:10.3f} "
              f"{check:8.3f} {wall:7.3f}  {status}")
    print(f"{'total':24s} {'':9s} {sum(r[2] for r in rows):10.3f} "
          f"{sum(r[3] for r in rows):8.3f} {sum(r[1] for r in rows):7.3f}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
