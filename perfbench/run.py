"""dageo benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload triangle_campaigns --seed 1 \\
        --seconds 20 --trace 0

Single process, single thread, closed loop: the next op starts only when
the previous one has returned.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import zip_longest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: An op counts toward a timing only when the probes just before and just
#: after it ran within this factor of the run's 1st-percentile probe, the
#: host's quiet speed (a probe cannot run faster than that); a set-up
#: sample, when the probe in its own interpreter did.
QUIET_FACTOR = 1.15
#: Fewest latency samples a timing rests on: with 100, at least 10 lie
#: above the 90th percentile.
MIN_OP_SAMPLES = 100
SETUP_RUNS = 10
MIN_SETUP_SAMPLES = 3
#: Rounds in the fixed op set of the traced run, sized to ~0.3 s untraced.
TRACE_ROUNDS = {"triangle_campaigns": 2, "curve_campaigns": 4,
                "scene_documents": 5}
TRACE_DIR = os.path.join(HERE, "traces")

sys.path[:0] = [SRC, HERE]
import tracing as tr  # noqa: E402
from hostprobe import probe  # noqa: E402
import workloads as wl  # noqa: E402


class Ledger:
    """Every checked op: attempted, failed, and the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def quiet(values: list, brackets: list[float], ref: float,
          minimum: int) -> list:
    """The values measured while the host ran at its quiet speed (bracket
    probe within QUIET_FACTOR of ``ref``), in run order; when fewer than
    ``minimum`` qualify, the ``minimum`` with the quietest brackets."""
    order = sorted(range(len(values)), key=brackets.__getitem__)
    keep = [i for i in order if brackets[i] <= QUIET_FACTOR * ref]
    if len(keep) < minimum:
        keep = order[:minimum]
    return [values[i] for i in sorted(keep)]


def attempt(workload, op_input, span):
    """(latency, output, failure reason) of one op; raises Dropped."""
    start = time.perf_counter()
    try:
        text = wl.execute(workload, op_input, span)
    except wl.Dropped:
        raise
    except Exception as exc:  # a failing op is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return latency, text, workload.check(op_input, text)


def warm_up(workload, pins: list[str], ledger: Ledger) -> None:
    """Run the golden ops, checking each output and its pinned digest."""
    for index in range(workload.round_size):
        op_input = workload.op_input(wl.GOLDEN_SEED, index)
        pinned = pins[index] if index < len(pins) else None
        try:
            _, text, reason = attempt(workload, op_input, wl.no_span)
        except wl.Dropped:
            ledger.record(None if pinned == "dropped"
                          else f"golden op {index} dropped, pin {pinned}")
            continue
        if reason is None and wl.sha256(text) != pinned:
            reason = f"golden op {index} digest differs from its pin"
        ledger.record(reason)


def setup_sample(workload, pins: list[str],
                 ledger: Ledger) -> tuple[float, float] | None:
    """Import plus warm-up time in a fresh interpreter, and the host probe
    it ran right after; its golden digests are checked against the pins
    too."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        ledger.record(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        return None
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    for digest, pinned in zip_longest(data["digests"], pins):
        ledger.record(None if digest == pinned else
                      "golden digest differs from its pin in a fresh interpreter")
    return data["import_s"] + data["warmup_s"], data["probe_s"]


def measure(workload, seed: int, seconds: float, pins: list[str],
            ledger: Ledger) -> tuple[dict, dict]:
    """The untraced closed-loop run: end-to-end metrics plus a summary."""
    ops = []            # (latency, probe before the op, trials)
    setups = []         # (set-up seconds, probe in that interpreter)
    dropped = 0
    index = workload.round_size
    setup_due = [seconds * (k + 0.5) / SETUP_RUNS for k in range(SETUP_RUNS)]
    start = time.perf_counter()
    paused = 0.0
    while time.perf_counter() - start - paused < seconds or setup_due:
        elapsed = time.perf_counter() - start - paused
        if setup_due and (elapsed >= setup_due[0] or elapsed >= seconds):
            setup_due.pop(0)
            pause_start = time.perf_counter()
            sample = setup_sample(workload, pins, ledger)
            if sample is not None:
                setups.append(sample)
            paused += time.perf_counter() - pause_start
            continue
        op_input = workload.op_input(seed, index)
        index += 1
        before = probe()
        try:
            latency, text, reason = attempt(workload, op_input, wl.no_span)
        except wl.Dropped:
            dropped += 1
            continue
        ledger.record(reason)
        if reason is None:
            ops.append((latency, before, workload.trials(text)))
    if len(ops) < 2 or not setups:
        raise SystemExit("error: too few successful ops to measure")

    probes = [p for _, p, _ in ops] + [probe()]
    ref = statistics.quantiles(probes, n=100)[0]
    brackets = [max(probes[i], probes[i + 1]) for i in range(len(ops))]
    timed = quiet(ops, brackets, ref, MIN_OP_SAMPLES)
    latencies = [latency for latency, _, _ in timed]
    busy = sum(latencies)
    setup = quiet([s for s, _ in setups], [b for _, b in setups], ref,
                  MIN_SETUP_SAMPLES)
    metrics = {
        "throughput_ops_s": (len(latencies) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    summary = {
        "ops": len(ops), "latency_samples": len(latencies),
        "setup_samples": len(setup), "dropped_inputs": dropped,
        "error_rate": ledger.failed / ledger.attempted,
        "probe_ref_us": ref * 1e6,
    }
    if workload.kind == "campaign":
        summary["trials_per_s"] = sum(t for _, _, t in timed) / busy
    return metrics, summary


def trace(workload, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """The traced run over a fixed op set: per-layer metrics.

    Counts come from one traced pass and must repeat exactly in every
    other traced pass (and the cProfile counts in both profiled passes);
    times are medians over the traced passes.  Untraced passes over the
    same ops alternate with traced ones to give the tracing overhead.
    """
    first = workload.round_size
    inputs = [workload.op_input(seed, first + i)
              for i in range(TRACE_ROUNDS[workload.name] * workload.round_size)]

    def run_pass(tracer=None, profiler=None) -> tuple[float, list]:
        outputs = []
        start = time.perf_counter()
        for i, op_input in enumerate(inputs):
            if tracer is not None:
                tracer.op = i
                tracer.enter(f"op:{workload.label(op_input)}")
            if profiler is not None:
                profiler.enable()
            try:
                outputs.append(wl.execute(
                    workload, op_input,
                    tracer.span if tracer is not None else wl.no_span))
            except wl.Dropped:
                outputs.append(None)
            finally:
                if profiler is not None:
                    profiler.disable()
                if tracer is not None:
                    tracer.exit()
        return time.perf_counter() - start, outputs

    _, reference = run_pass()
    for op_input, text in zip(inputs, reference):
        if text is not None:
            ledger.record(workload.check(op_input, text))

    def same_outputs(outputs, what):
        for i, (a, b) in enumerate(zip(reference, outputs)):
            ledger.record(None if a == b else f"op {i} output changed {what}")

    counts = []
    for _ in range(2):
        def profiled(profiler):
            same_outputs(run_pass(profiler=profiler)[1], "under cProfile")
        counts.append(tr.profile_counts(profiled))
    ledger.record(None if counts[0] == counts[1]
                  else f"cProfile counts differ between passes: {counts}")

    plain, tracers, traced = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(tracers) < 2:
        plain.append(run_pass()[0])
        tracer = tr.Tracer()
        with tracer.interposed():
            elapsed, outputs = run_pass(tracer=tracer)
        same_outputs(outputs, "under tracing")
        traced.append(elapsed)
        tracers.append(tracer)
        if tracer.calls != tracers[0].calls:
            ledger.record("traced call counts differ between passes")

    def med(get) -> float:
        return statistics.median(get(t) for t in tracers)

    base = tracers[0]
    metrics = {
        "harness.run_campaign.self_s":
            (med(lambda t: t.self_seconds["harness.run_campaign"]), "s"),
        "harness.to_json.s": (med(lambda t: t.seconds["harness.to_json"]), "s"),
    }
    for prefix, _, _ in tr.KERNEL_FUNCTIONS:
        metrics[f"{prefix}.calls"] = (base.calls[prefix], "count")
        metrics[f"{prefix}.s"] = (med(lambda t: t.seconds[prefix]), "s")
    for name in ("scene.from_dict", "scene.run_scene", "svg.render_svg"):
        metrics[f"{name}.s"] = (med(lambda t: t.seconds[name]), "s")
    metrics["generators.busy_s"] = (med(lambda t: sum(
        t.seconds[f"generate:{tid}"] for tid in wl.ALL_THEOREMS)), "s")
    trials = sum(workload.trials(t) for t in reference if t is not None)
    rejections = sum(workload.rejections(t) for t in reference if t is not None)
    metrics["generators.rejections"] = (rejections, "count")
    metrics["generators.accept_ratio"] = (
        trials / (trials + rejections) if trials else 0.0, "ratio")
    table = {}
    for tid in wl.ALL_THEOREMS:
        gen = med(lambda t: t.seconds[f"generate:{tid}"])
        check = med(lambda t: t.seconds[f"check:{tid}"])
        metrics[f"generators.busy_s.{tid}"] = (gen, "s")
        metrics[f"check.busy_s.{tid}"] = (check, "s")
        if tid in workload.theorems:
            table[tid] = {"generate_s": gen, "check_s": check,
                          "trials": base.calls[f"check:{tid}"]}
    for name, value in counts[0].items():
        metrics[name] = (value, "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.overhead"] = (overhead, "ratio")

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "fields": ["id", "parent", "op", "name", "start", "end"],
                   "spans": base.spans}, handle)
    summary = {"ops_per_pass": len(inputs), "traced_passes": len(tracers),
               "untraced_pass_s": statistics.median(plain),
               "traced_pass_s": statistics.median(traced),
               "generate_check_table": table, "spans_file": path}
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not wl.dageo_file().startswith(SRC + os.sep):
        print(f"error: dageo was not imported from {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    pins = wl.load_pins()[workload.name]
    ledger = Ledger()
    warm_up(workload, pins, ledger)
    if args.trace:
        metrics, summary = trace(workload, args.seed, args.seconds, ledger)
    else:
        metrics, summary = measure(workload, args.seed, args.seconds, pins,
                                   ledger)
    for reason in ledger.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
