"""Builders for the golden regression payloads, plus the regeneration entry
point: run `python tests/golden_helpers.py` ONLY after hand-verifying a
change that legitimately alters the numerics. The goldens pin the calibrated
scales, forward activations, and reordering outcome of the demo fixtures."""

from pathlib import Path

import numpy as np

from reference_search import forward_float
from subquant.calib import CalibConfig, calibrate_layer, distance, plan_layer_input
from subquant.fixtures import build_small_cnn, build_toy_segment_net, random_inputs
from subquant.model import (
    lower_layer_input,
    prepare_for_quantization,
    raise_layer_output,
    write_json,
)
from subquant.quant import GranularityConfig
from subquant.reorder import ReorderConfig, ea_search, make_segment_context
from subquant.tensor import conv_reference

GOLDEN_DIR = Path(__file__).parent / "golden"


def forward_payload():
    graph = prepare_for_quantization(build_small_cnn())
    x = random_inputs(graph, 4, seed=123)
    outputs = forward_float(graph, x)
    payload = {}
    for lid, arr in outputs.items():
        flat = arr.reshape(-1).astype(np.float64)
        payload[lid] = {
            "shape": list(arr.shape),
            "norm": float(np.sqrt(np.sum(flat * flat))),
            "head": [float(v) for v in flat[:4]],
        }
    return payload


def scales_payload():
    graph = prepare_for_quantization(build_small_cnn())
    x = random_inputs(graph, 4, seed=42)
    layer = graph.layer("conv2")
    conv1 = graph.layer("conv1")
    cols1 = lower_layer_input(conv1, x)
    act1 = raise_layer_output(conv1, conv_reference(
        conv1.weight_matrix(), cols1, conv1.activation, conv1.bias), x.shape)
    cols = lower_layer_input(layer, act1)
    target = conv_reference(layer.weight_matrix(), cols, layer.activation,
                            layer.bias, layer.slope)
    cfg = CalibConfig(grid_size=15, iterations=2, samples=4)
    cal = calibrate_layer(layer.weight_matrix(), plan_layer_input(layer, act1),
                          target, GranularityConfig("method1", 2, 36), cfg,
                          layer.bias, layer.activation, layer.slope)
    return {
        "layer": "conv2",
        "weight_scales": [[float(s) for s in row] for row in cal.scales.weight_scales],
        "input_scale": float(cal.scales.input_scale),
        "distance": distance(cal.output, target, cfg.metric),
    }


def reorder_payload():
    graph = build_toy_segment_net()
    x = random_inputs(graph, 8, seed=7)
    refs = forward_float(graph, x)
    refs["input"] = x
    cfg = CalibConfig(grid_size=12, iterations=1, samples=8)
    ctx = make_segment_context(graph, graph.segments[0], refs,
                               GranularityConfig("method1", 2, 18), cfg)
    result = ea_search(ctx, ReorderConfig(population=8, iterations=2, seed=7))
    return {
        "segment": result.segment_id,
        "permutations": [[int(v) for v in p] for p in result.best_perms],
        "best_score": result.best_score,
        "identity_score": result.identity_score,
    }


def write(name, payload):
    print(f"wrote {write_json(GOLDEN_DIR / name, payload)}")


if __name__ == "__main__":
    write("forward_small_cnn.json", forward_payload())
    write("scales_conv2.json", scales_payload())
    write("reorder_toy.json", reorder_payload())
