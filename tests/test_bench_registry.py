"""Smoke test of ``tools/bench_registry.py``: one tree against itself,
two theorems, 3 trials, one pair of runs, and the golden scenes."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDE_KEYS = {"wall_s", "generate_s", "check_s", "fractions", "calls", "pin"}
SCENE_KEYS = {"wall_s", "from_dict_s", "run_scene_s", "render_svg_s",
              "calls", "pin"}


def _git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args],
                          capture_output=True, text=True)


def expected_label():
    """The label of this tree: its short HEAD, ``+dirty`` when its src
    has changes, at the top of a git work tree; else its name."""
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode or Path(top.stdout.strip()).resolve() != REPO:
        return REPO.name
    head = _git("rev-parse", "--short", "HEAD").stdout.strip()
    dirty = _git("status", "--porcelain", "--", "src").stdout
    return head + ("+dirty" if dirty else "")


def test_tree_against_itself(tmp_path):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "bench_registry.py"), str(REPO),
         str(REPO), "--theorems", "ptolemy,simson", "--trials", "3", "--reps",
         "1", "--out", str(out)], check=True, capture_output=True, text=True)
    # Equal counts on every theorem: the summary and scenes lines only.
    summary, scenes_line = done.stdout.splitlines()
    label = expected_label()
    assert summary.startswith(f"{label} -> {label}: wall ")
    assert scenes_line.startswith("scenes: wall ")
    (entry,) = json.loads(out.read_text())["entries"]
    assert (entry["base"], entry["head"]) == (label, label)
    base_sha, head_sha = entry["src_sha256"]["base"], entry["src_sha256"][
        "head"]
    assert base_sha == head_sha and len(base_sha) == 64
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
    scenes = entry["scenes"]
    base, head = scenes["base"], scenes["head"]
    assert set(base) == set(head) == SCENE_KEYS
    assert base["calls"] == head["calls"] > 0
    # The golden scene figures, at the golden seed, are the pinned ones.
    assert base["pin"] == head["pin"] == "pinned"
    assert all(base[key] > 0 for key in SCENE_KEYS - {"calls", "pin"})
    assert base["wall_s"] >= (base["from_dict_s"] + base["run_scene_s"]
                              + base["render_svg_s"])
    assert len(scenes["wall_ratio_per_pair"]) == 1
    assert scenes["median_wall_ratio"] > 0
