"""Golden reports: every registered theorem at seed 42, 1000 trials and
bound 50 must reproduce, byte for byte, the report whose sha256 is pinned
in ``perfbench/pins.json``.  A change that alters any report has to re-pin
there and say why."""

import hashlib
import json
from pathlib import Path

import pytest

from dageo.harness import REGISTRY, CampaignConfig, run_campaign

PINS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"
PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))[
    "registry_seed42_trials1000_bound50"]


def test_every_registered_theorem_is_pinned():
    assert sorted(PINS) == sorted(REGISTRY)


@pytest.mark.parametrize("theorem", sorted(PINS))
def test_report_matches_pin(theorem):
    text = run_campaign(CampaignConfig(theorem, 1000, 42, 50)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[theorem]
