"""The registry's performance trajectory: one entry per step between two
source trees, appended to ``BENCH_registry.json``.

    python3 tools/bench_registry.py BASE HEAD [--reps N]

BASE and HEAD are each a git revision, which the script exports with
``git archive`` into a temporary directory, or a directory that holds
``src/dageo`` (a checkout, a ``git worktree`` or an exported tree).
Each side runs the whole registry at (seed 42, 1000 trials, bound 50) in
its own Python process, N times, alternating which side goes first, so
that a drifting host moves both sides alike.  For every theorem the entry
records, per side:

- ``wall_s``, ``generate_s`` and ``check_s``: the minimum over the N runs
  of the campaign's wall time and of the time spent in the theorem's
  ``generate`` and ``check``, timed by wrapping only those two callables;
- ``fractions``: the ``Fraction`` constructions (``Fraction.__new__``,
  ``scalar.ratio`` and, in older trees, ``scalar.coprime_ratio``) and
  ``calls``: the cProfile total call count of one more, profiled run.
  Both are counts, which do not drift between runs or hosts;
- ``pin``: the report against the side's own ``perfbench/pins.json``:
  ``pinned``, ``differs from pin``, or null off the pinned point;

and ``wall_ratio_per_pair``, head wall over base wall for each of the N
pairs of runs.  A ratio per pair stays put while the host drifts, where a
difference of two medians taken minutes apart does not.

After its summary line the script prints one line for each theorem whose
counts differ between the sides, ``tid: calls B -> H, fractions B -> H``:
a single theorem's wall ratio is within the host's noise, and only its
counts show what a change did to it.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REFERENCE = {"seed": 42, "trials": 1000, "bound": 50}
PIN_KEY = "registry_seed42_trials1000_bound50"
#: (code name, file name) of each way to build a Fraction: the two that
#: ``tests/test_optimize.py`` counts, and ``coprime_ratio``, which is gone
#: from ``scalar.py`` but through which older bases build Fractions, so
#: that entries against them still count every Fraction.
FRACTION_BUILDERS = {("__new__", "fractions.py"), ("ratio", "scalar.py"),
                     ("coprime_ratio", "scalar.py")}
TIMES = ("wall_s", "generate_s", "check_s")


# -- worker: one side, one process ------------------------------------------

def _timed(function, totals, key):
    def timed(arg):
        start = time.perf_counter()
        try:
            return function(arg)
        finally:
            totals[key] += time.perf_counter() - start
    return timed


def run_side(tree: Path, theorems: list[str], point: dict,
             count: bool) -> dict:
    """Times (and with ``count`` the counts) of each theorem in the source
    tree ``tree``, run in this process."""
    sys.path.insert(0, str(tree / "src"))
    from dageo.campaigns import REGISTRY
    from dageo.harness import CampaignConfig, run_campaign

    pins_path = tree / "perfbench" / "pins.json"
    pins = (json.loads(pins_path.read_text()).get(PIN_KEY, {})
            if point == REFERENCE and pins_path.exists() else None)
    originals = {tid: REGISTRY[tid] for tid in theorems}
    rows = {}
    for tid in theorems:
        cfg = CampaignConfig(tid, **point)
        totals = defaultdict(float)
        theorem = originals[tid]
        REGISTRY[tid] = dataclasses.replace(
            theorem, generate=_timed(theorem.generate, totals, "generate_s"),
            check=_timed(theorem.check, totals, "check_s"))
        start = time.perf_counter()
        text = run_campaign(cfg).to_json()
        totals["wall_s"] = time.perf_counter() - start
        REGISTRY[tid] = theorem
        row = {key: totals[key] for key in TIMES}
        digest = hashlib.sha256(text.encode()).hexdigest()
        row["pin"] = (None if pins is None else
                      "pinned" if pins.get(tid) == digest else
                      "differs from pin")
        if count:
            profiler = cProfile.Profile()
            profiler.runcall(run_campaign, cfg)
            stats = [e for e in profiler.getstats()
                     if not isinstance(e.code, str)]
            row["fractions"] = sum(
                e.callcount for e in stats
                if (e.code.co_name, Path(e.code.co_filename).name)
                in FRACTION_BUILDERS)
            row["calls"] = sum(e.callcount for e in profiler.getstats())
        rows[tid] = row
    return rows


# -- driver ------------------------------------------------------------------

def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True).stdout


def materialize(spec: str, stack: ExitStack) -> tuple[Path, str]:
    """``(source tree, label)`` of a directory or a git revision."""
    if Path(spec).is_dir():
        return Path(spec).resolve(), Path(spec).resolve().name
    rev = _git("rev-parse", "--short", f"{spec}^{{commit}}").decode().strip()
    tree = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    with tarfile.open(fileobj=io.BytesIO(
            _git("archive", rev, "src", "perfbench/pins.json"))) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(tree, filter="data")
        else:
            archive.extractall(tree)
    return tree, rev


def spawn(tree: Path, theorems: list[str], point: dict,
          count: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--worker",
               str(tree), "--theorems", ",".join(theorems),
               "--point", json.dumps(point)]
    if count:
        command.append("--count")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, check=True, capture_output=True,
                          text=True, env=env)
    return json.loads(done.stdout)


def measure(base: Path, head: Path, theorems: list[str], point: dict,
            reps: int) -> dict:
    """One trajectory entry's per-theorem rows and totals."""
    runs = {"base": [], "head": []}
    for rep in range(reps):
        order = ("base", "head") if rep % 2 == 0 else ("head", "base")
        for side in order:
            tree = base if side == "base" else head
            runs[side].append(spawn(tree, theorems, point, count=rep == 0))
    rows = {}
    for tid in theorems:
        row = {}
        for side, side_runs in runs.items():
            first = side_runs[0][tid]
            row[side] = {key: min(r[tid][key] for r in side_runs)
                         for key in TIMES}
            row[side].update(fractions=first["fractions"],
                             calls=first["calls"], pin=first["pin"])
        row["wall_ratio_per_pair"] = [
            h[tid]["wall_s"] / b[tid]["wall_s"]
            for b, h in zip(runs["base"], runs["head"])]
        rows[tid] = row
    total = {}
    for side, side_runs in runs.items():
        total[side] = {key: min(sum(r[tid][key] for tid in theorems)
                                for r in side_runs) for key in TIMES}
        for key in ("fractions", "calls"):
            total[side][key] = sum(rows[tid][side][key] for tid in theorems)
    total["wall_ratio_per_pair"] = [
        sum(h[tid]["wall_s"] for tid in theorems)
        / sum(b[tid]["wall_s"] for tid in theorems)
        for b, h in zip(runs["base"], runs["head"])]
    total["median_wall_ratio"] = statistics.median(
        total["wall_ratio_per_pair"])
    return _rounded({"theorems": rows, "total": total})


def _rounded(value):
    """``value`` with every float to 6 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--out", default=str(REPO / "BENCH_registry.json"))
    parser.add_argument("--theorems",
                        help="comma-separated ids (default: the registry)")
    parser.add_argument("--trials", type=int, default=REFERENCE["trials"])
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--point", help=argparse.SUPPRESS)
    parser.add_argument("--count", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        rows = run_side(Path(args.worker), args.theorems.split(","),
                        json.loads(args.point), args.count)
        json.dump(rows, sys.stdout)
        return 0
    if not (args.base and args.head) or args.reps < 1:
        parser.error("give BASE and HEAD, and --reps of at least 1")
    point = dict(REFERENCE, trials=args.trials)
    with ExitStack() as stack:
        (base, base_label), (head, head_label) = (
            materialize(spec, stack) for spec in (args.base, args.head))
        theorems = (args.theorems.split(",") if args.theorems
                    else _registry_ids(base))
        entry = {"base": base_label, "head": head_label, "point": point,
                 "reps": args.reps,
                 "host": {"python": platform.python_version(),
                          "machine": platform.machine(),
                          "cpus": os.cpu_count()},
                 **measure(base, head, theorems, point, args.reps)}
    out = Path(args.out)
    trajectory = (json.loads(out.read_text()) if out.exists()
                  else {"about": __doc__.split("\n\n")[0], "entries": []})
    trajectory["entries"] = [
        e for e in trajectory["entries"]
        if (e["base"], e["head"], e["point"]) != (base_label, head_label,
                                                  point)] + [entry]
    out.write_text(json.dumps(trajectory, indent=1) + "\n")
    total = entry["total"]
    print(f"{base_label} -> {head_label}: wall "
          f"{total['base']['wall_s']:.3f} -> {total['head']['wall_s']:.3f} s,"
          f" calls {total['base']['calls']} -> {total['head']['calls']},"
          f" median pair ratio {total['median_wall_ratio']:.3f}")
    for tid, row in entry["theorems"].items():
        base, head = row["base"], row["head"]
        if (base["calls"], base["fractions"]) != (head["calls"],
                                                  head["fractions"]):
            print(f"{tid}: calls {base['calls']} -> {head['calls']}, "
                  f"fractions {base['fractions']} -> {head['fractions']}")
    return 0


def _registry_ids(tree: Path) -> list[str]:
    code = ("import sys; sys.path.insert(0, sys.argv[1]);"
            "from dageo.campaigns import REGISTRY; print(','.join(REGISTRY))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", code, str(tree / "src")],
                          check=True, capture_output=True, text=True, env=env)
    return done.stdout.strip().split(",")


if __name__ == "__main__":
    sys.exit(main())
