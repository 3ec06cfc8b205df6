"""Regression checks against frozen golden files (regenerated by
tests/golden_helpers.py): every payload is within tolerance of its file and
also serializes to it byte for byte."""

import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"


def load(name):
    return json.loads((GOLDEN / name).read_text())


def assert_same_bytes(name, payload):
    assert (json.dumps(payload, indent=2) + "\n").encode() == (GOLDEN / name).read_bytes()


def test_forward_float_matches_golden():
    from golden_helpers import forward_payload
    golden = load("forward_small_cnn.json")
    current = forward_payload()
    assert current.keys() == golden.keys()
    for lid, entry in golden.items():
        got = current[lid]
        assert got["shape"] == entry["shape"]
        assert got["norm"] == pytest.approx(entry["norm"], rel=1e-5)
        np.testing.assert_allclose(got["head"], entry["head"], rtol=1e-4, atol=1e-5)
    assert_same_bytes("forward_small_cnn.json", current)


def test_calibrated_scales_match_golden():
    from golden_helpers import scales_payload
    golden = load("scales_conv2.json")
    current = scales_payload()
    np.testing.assert_allclose(current["weight_scales"], golden["weight_scales"],
                               rtol=1e-9)
    assert current["input_scale"] == pytest.approx(golden["input_scale"], rel=1e-9)
    assert current["distance"] == pytest.approx(golden["distance"], rel=1e-7)
    assert_same_bytes("scales_conv2.json", current)


def test_reorder_result_matches_golden():
    from golden_helpers import reorder_payload
    golden = load("reorder_toy.json")
    current = reorder_payload()
    assert current["permutations"] == golden["permutations"]
    assert current["best_score"] == pytest.approx(golden["best_score"], rel=1e-9)
    assert current["identity_score"] == pytest.approx(golden["identity_score"], rel=1e-9)
    assert_same_bytes("reorder_toy.json", current)
