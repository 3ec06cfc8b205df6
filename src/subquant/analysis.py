"""Analytic compute and memory overhead of grouped-scale quantization.

Rescaling each sub-matrix product costs #H extra multiply-accumulates per
output value, against K*K*IC MACs of useful work, so the relative compute
overhead of a conv layer is #H / (K*K*IC). Memory overhead is the scale
count #V*#H against OC*J stored weights, roughly 1/(rows*cols) per group.
"""

import math
from dataclasses import asdict, dataclass, fields

from .model import propagate_shapes, write_csv, write_json
from .quant import make_partition


@dataclass
class LayerOverhead:
    layer_id: str
    kernel: int
    in_channels: int
    out_channels: int
    pixels: int
    v_groups: int
    h_groups: int
    base_macs: int
    extra_macs: int
    compute_overhead: float
    scale_count: int
    weight_count: int
    memory_overhead: float


@dataclass
class OverheadReport:
    layers: list
    total_base_macs: int
    total_extra_macs: int
    total_compute_overhead: float
    total_scale_count: int
    total_weight_count: int
    total_memory_overhead: float


def computation_overhead(kernel, in_channels, out_channels, pixels, h_groups):
    """Exact MAC counts for one conv layer under #H horizontal groups."""
    base = out_channels * pixels * kernel * kernel * in_channels
    extra = h_groups * out_channels * pixels
    return {"base": base, "extra": extra, "relative": h_groups / (kernel * kernel * in_channels)}


def memory_overhead(partition):
    """Scale storage against weight storage for one partition."""
    scales = partition.v_groups * partition.h_groups
    weights = partition.out_channels * partition.weights_per_channel
    return {"scales": scales, "weights": weights, "relative": scales / weights}


def network_overhead_report(graph, granularity):
    """Aggregate overheads over the quantized layers of a graph.

    Linear layers count as 1x1 convs over their input features. Layers with
    quantize=false (typically first and last) are excluded.
    """
    shapes = propagate_shapes(graph)
    rows = []
    for layer in graph.conv_like():
        if not layer.quantize:
            continue
        kernel = layer.kernel if layer.kind == "conv" else 1
        in_channels = layer.weights_per_channel // (kernel * kernel)
        pixels = math.prod(shapes[layer.id][2:])  # a linear layer's output has no spatial dims
        partition = make_partition(layer.out_channels, layer.weights_per_channel,
                                   granularity)
        comp = computation_overhead(kernel, in_channels, layer.out_channels, pixels,
                                    partition.h_groups)
        mem = memory_overhead(partition)
        rows.append(LayerOverhead(
            layer.id, kernel, in_channels, layer.out_channels, pixels,
            partition.v_groups, partition.h_groups, comp["base"], comp["extra"],
            comp["relative"], mem["scales"], mem["weights"], mem["relative"]))
    if not rows:
        raise ValueError("no quantized conv or linear layers to report on")
    base, extra, scales, weights = (sum(getattr(r, name) for r in rows) for name in
                                    ("base_macs", "extra_macs", "scale_count", "weight_count"))
    return OverheadReport(rows, base, extra, extra / base, scales, weights, scales / weights)


OVERHEAD_COLUMNS = ["layer"] + [f.name for f in fields(LayerOverhead)[1:]]


def _totals(report):
    """{column: total} of the report's totals, keyed by their LayerOverhead column."""
    return {f.name.removeprefix("total_"): getattr(report, f.name)
            for f in fields(OverheadReport) if f.name != "layers"}


def write_overhead_csv(report, path):
    names = [f.name for f in fields(LayerOverhead)]
    totals = _totals(report)
    rows = [[getattr(r, name) for name in names] for r in report.layers]
    rows.append(["TOTAL"] + [totals.get(name, "") for name in names[1:]])
    return write_csv(path, [OVERHEAD_COLUMNS] + [
        [repr(v) if isinstance(v, float) else v for v in row] for row in rows])


def write_overhead_json(report, path):
    return write_json(path, {"layers": [asdict(r) for r in report.layers],
                             "total": _totals(report)})
