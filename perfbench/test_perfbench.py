"""The benchmark's own tests: its output check must be able to fail.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (puts src/ on sys.path)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

import dageo.scalar  # noqa: E402
import dageo.triangle  # noqa: E402

CAMPAIGNS = wl.WORKLOADS["curve_campaigns"]
SCENES = wl.WORKLOADS["scene_documents"]


def golden(workload, theorem=None):
    """(input, output) of the first golden op, or of ``theorem``'s."""
    index = 0 if theorem is None else list(workload.theorems).index(theorem)
    op_input = workload.op_input(wl.GOLDEN_SEED, index)
    return op_input, wl.execute(workload, op_input)


def count_errors(workload, op_input, text):
    ledger = run.Ledger()
    ledger.record(workload.check(op_input, text))
    return ledger.failed


def test_untampered_outputs_pass():
    for workload, theorem in ((CAMPAIGNS, "ptolemy"),
                              (CAMPAIGNS, wl.MUTANT), (SCENES, None)):
        assert count_errors(workload, *golden(workload, theorem)) == 0


@pytest.mark.parametrize("theorem,old,new", [
    ("ptolemy", '"failures": 0', '"failures": 1'),
    ("ptolemy", '"trials": 43', '"trials": 42'),
    (wl.MUTANT, '"failures": 55', '"failures": 0'),
])
def test_tampered_report_is_an_error(theorem, old, new):
    op_input, text = golden(CAMPAIGNS, theorem)
    assert old in text
    assert count_errors(CAMPAIGNS, op_input, text.replace(old, new)) == 1


def test_mutant_without_counterexample_is_an_error():
    op_input, text = golden(CAMPAIGNS, wl.MUTANT)
    report = json.loads(text)
    del report["first_counterexample"]
    assert count_errors(CAMPAIGNS, op_input, json.dumps(report)) == 1


@pytest.mark.parametrize("old,new", [
    ('"det_residual": "0"', '"det_residual": "1"'),
    ("</svg>", "</sv>"),
    ('"verified": []', '"verified": [{}]'),
    ('"result"', '"outcome"'),
])
def test_tampered_document_is_an_error(old, new):
    op_input, text = golden(SCENES)
    assert old in text
    assert count_errors(SCENES, op_input, text.replace(old, new, 1)) == 1


def test_pin_mismatch_counts_as_failed_op():
    pins = wl.load_pins()[CAMPAIGNS.name]
    ledger = run.Ledger()
    run.warm_up(CAMPAIGNS, pins, ledger)
    assert (ledger.attempted, ledger.failed) == (len(pins), 0)
    tampered = list(pins)
    tampered[3] = "0" * 64
    ledger = run.Ledger()
    run.warm_up(CAMPAIGNS, tampered, ledger)
    assert (ledger.attempted, ledger.failed) == (len(pins), 1)


def test_golden_outputs_match_pins():
    pins = wl.load_pins()
    for name, workload in wl.WORKLOADS.items():
        assert wl.golden_outputs(workload) == pins[name], name


def test_interposition_counts_and_restores():
    originals = (dageo.scalar.det3, dageo.triangle.det3,
                 dageo.triangle.DATriangle.__init__)
    op_input, expected = golden(wl.WORKLOADS["triangle_campaigns"])
    tracer = tracing.Tracer()
    with tracer.interposed():
        assert dageo.triangle.det3 is not originals[1]
        text = wl.execute(wl.WORKLOADS["triangle_campaigns"], op_input,
                          tracer.span)
    assert text == expected
    assert tracer.calls["triangle.DATriangle"] > 0
    assert tracer.calls["scalar.det3"] > 0
    assert tracer.calls["check:triangle_invariants"] == \
        wl.TRIANGLE_THEOREMS["triangle_invariants"]
    assert (dageo.scalar.det3, dageo.triangle.det3,
            dageo.triangle.DATriangle.__init__) == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    assert tracer.self_seconds["outer"] == pytest.approx(
        tracer.seconds["outer"] - tracer.seconds["inner"])


def test_count_metrics_repeat_across_processes():
    def counts(hash_seed):
        proc = subprocess.run(
            [sys.executable, run.__file__, "--workload", "curve_campaigns",
             "--seed", "7", "--seconds", "0.5", "--trace", "1"],
            capture_output=True, text=True, check=True, timeout=170,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] == "count"}
    first, second = counts("1"), counts("2")
    assert first == second
    assert first["profile.total_calls"] > 0
    assert first["scalar.fraction_new.calls"] > 0
