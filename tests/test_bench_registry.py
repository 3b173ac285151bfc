"""Smoke test of ``tools/bench_registry.py``: one tree against itself,
two theorems, 3 trials, one pair of runs."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDE_KEYS = {"wall_s", "generate_s", "check_s", "fractions", "calls", "pin"}


def test_tree_against_itself(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "bench_registry.py"), str(REPO),
         str(REPO), "--theorems", "ptolemy,simson", "--trials", "3", "--reps",
         "1", "--out", str(out)], check=True, capture_output=True, text=True)
    # Equal counts on every theorem: the summary line and no other.
    (summary,) = done.stdout.splitlines()
    assert summary.startswith(f"{REPO.name} -> {REPO.name}: wall ")
    (entry,) = json.loads(out.read_text())["entries"]
    assert entry["point"] == {"seed": 42, "trials": 3, "bound": 50}
    assert entry["reps"] == 1
    assert set(entry["theorems"]) == {"ptolemy", "simson"}
    for row in [*entry["theorems"].values(), entry["total"]]:
        base, head = row["base"], row["head"]
        assert set(base) >= SIDE_KEYS - {"pin"} and set(head) == set(base)
        # Counts do not drift: the same tree gives the same counts.
        assert base["calls"] == head["calls"] > 0
        assert base["fractions"] == head["fractions"] > 0
        assert len(row["wall_ratio_per_pair"]) == 1
        assert all(base[key] > 0 for key in ("wall_s", "generate_s",
                                             "check_s"))
    for row in entry["theorems"].values():
        assert set(row["base"]) == SIDE_KEYS
        assert row["base"]["pin"] is None   # off the pinned point
    assert entry["total"]["median_wall_ratio"] > 0
