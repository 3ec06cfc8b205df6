"""Analytic compute and memory overhead of grouped-scale quantization.

Rescaling each sub-matrix product costs #H extra multiply-accumulates per
output value, against K*K*IC MACs of useful work, so the relative compute
overhead of a conv layer is #H / (K*K*IC). Memory overhead is the scale
count #V*#H against OC*J stored weights, roughly 1/(rows*cols) per group.
"""

from dataclasses import asdict, dataclass

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
        if layer.kind == "conv":
            _, _, out_h, out_w = shapes[layer.id]
            pixels = out_h * out_w
        else:
            pixels = 1
        partition = make_partition(layer.out_channels, layer.weights_per_channel,
                                   granularity)
        comp = computation_overhead(kernel, layer.weights_per_channel // (kernel * kernel),
                                    layer.out_channels, pixels, partition.h_groups)
        mem = memory_overhead(partition)
        rows.append(LayerOverhead(
            layer_id=layer.id, kernel=kernel,
            in_channels=layer.weights_per_channel // (kernel * kernel),
            out_channels=layer.out_channels, pixels=pixels,
            v_groups=partition.v_groups, h_groups=partition.h_groups,
            base_macs=comp["base"], extra_macs=comp["extra"],
            compute_overhead=comp["relative"],
            scale_count=mem["scales"], weight_count=mem["weights"],
            memory_overhead=mem["relative"]))
    if not rows:
        raise ValueError("no quantized conv or linear layers to report on")
    total_base = sum(r.base_macs for r in rows)
    total_extra = sum(r.extra_macs for r in rows)
    total_scales = sum(r.scale_count for r in rows)
    total_weights = sum(r.weight_count for r in rows)
    return OverheadReport(
        layers=rows,
        total_base_macs=total_base,
        total_extra_macs=total_extra,
        total_compute_overhead=total_extra / total_base,
        total_scale_count=total_scales,
        total_weight_count=total_weights,
        total_memory_overhead=total_scales / total_weights)


OVERHEAD_COLUMNS = ["layer", "kernel", "in_channels", "out_channels", "pixels",
                    "v_groups", "h_groups", "base_macs", "extra_macs",
                    "compute_overhead", "scale_count", "weight_count",
                    "memory_overhead"]


def write_overhead_csv(report, path):
    rows = [OVERHEAD_COLUMNS]
    for r in report.layers:
        rows.append([r.layer_id, r.kernel, r.in_channels, r.out_channels, r.pixels,
                     r.v_groups, r.h_groups, r.base_macs, r.extra_macs,
                     repr(r.compute_overhead), r.scale_count, r.weight_count,
                     repr(r.memory_overhead)])
    rows.append(["TOTAL", "", "", "", "", "", "", report.total_base_macs,
                 report.total_extra_macs, repr(report.total_compute_overhead),
                 report.total_scale_count, report.total_weight_count,
                 repr(report.total_memory_overhead)])
    return write_csv(path, rows)


def write_overhead_json(report, path):
    payload = {
        "layers": [asdict(r) for r in report.layers],
        "total": {
            "base_macs": report.total_base_macs,
            "extra_macs": report.total_extra_macs,
            "compute_overhead": report.total_compute_overhead,
            "scale_count": report.total_scale_count,
            "weight_count": report.total_weight_count,
            "memory_overhead": report.total_memory_overhead,
        },
    }
    return write_json(path, payload)
