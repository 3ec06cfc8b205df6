"""Deterministic demo networks and architecture shape manifests.

`build_small_cnn` and `build_resnet20_style` produce fully weighted bundles
(seeded, reproducible) for calibration experiments; the `*_shape_graph`
builders carry conv geometry only and exist for the overhead reports. Run
`python -m subquant.fixtures OUTDIR` to materialize everything on disk.
"""

import json
import sys
from pathlib import Path

import numpy as np

from .model import (BatchNormParams, Layer, ModelGraph, Segment, save_bundle, save_calibration_set,
                    write_atomic)


def _conv(rng, lid, ic, oc, k, stride, padding, pred, quantize=True):
    w = rng.normal(0.0, np.sqrt(2.0 / (ic * k * k)), size=(oc, ic, k, k))
    return Layer(id=lid, kind="conv", predecessors=[pred], out_channels=oc,
                 in_channels=ic, kernel=k, stride=stride, padding=padding,
                 quantize=quantize, weight=w.astype(np.float32))


def _bn(rng, lid, channels, pred):
    # spread-out gamma makes per-channel weight ranges diverge after folding
    return Layer(id=lid, kind="batchnorm", predecessors=[pred], bn=BatchNormParams(
        gamma=rng.uniform(0.5, 2.0, channels).astype(np.float32),
        beta=rng.normal(0.0, 0.2, channels).astype(np.float32),
        running_mean=rng.normal(0.0, 0.3, channels).astype(np.float32),
        running_var=rng.uniform(0.5, 1.5, channels).astype(np.float32),
        epsilon=1e-5))


def _relu(lid, pred):
    return Layer(id=lid, kind="relu", predecessors=[pred])


def _linear(rng, lid, in_features, out_features, pred, quantize=False):
    w = rng.normal(0.0, np.sqrt(1.0 / in_features), size=(out_features, in_features))
    b = rng.normal(0.0, 0.05, out_features)
    return Layer(id=lid, kind="linear", predecessors=[pred], out_channels=out_features,
                 in_channels=in_features, quantize=quantize,
                 weight=w.astype(np.float32), bias=b.astype(np.float32))


def _conv_bn_relu(rng, layers, name, ic, oc, k, stride, padding, pred, quantize=True,
                  relu=True):
    layers.append(_conv(rng, name, ic, oc, k, stride, padding, pred, quantize))
    layers.append(_bn(rng, f"{name}.bn", oc, name))
    last = f"{name}.bn"
    if relu:
        layers.append(_relu(f"{name}.relu", last))
        last = f"{name}.relu"
    return last


def build_small_cnn():
    """Five-conv CNN with one residual block, BN everywhere, 8x8 inputs."""
    rng = np.random.default_rng(11)
    layers = [Layer(id="input", kind="input")]
    last = _conv_bn_relu(rng, layers, "conv1", 3, 8, 3, 1, 1, "input", quantize=False)
    last = _conv_bn_relu(rng, layers, "conv2", 8, 12, 3, 1, 1, last)
    shortcut = last
    last = _conv_bn_relu(rng, layers, "conv3", 12, 12, 3, 1, 1, last)
    last = _conv_bn_relu(rng, layers, "conv4", 12, 12, 3, 1, 1, last, relu=False)
    layers.append(Layer(id="add1", kind="residual-add", predecessors=[last, shortcut]))
    layers.append(_relu("add1.relu", "add1"))
    last = _conv_bn_relu(rng, layers, "conv5", 12, 16, 3, 2, 1, "add1.relu")
    layers.append(_linear(rng, "fc", 16 * 4 * 4, 10, last, quantize=False))
    layers.append(Layer(id="output", kind="output", predecessors=["fc"]))
    graph = ModelGraph(layers=layers, segments=[Segment("block1", ["conv3", "conv4"])],
                       input_shape=[1, 3, 8, 8])
    return graph.validate()


def build_resnet20_style():
    """Residual net shaped like a CIFAR ResNet-20: 20 convs, 9 blocks, 8x8 inputs.

    Stage channel widths are 8/16/16 with a single strided transition whose
    shortcut is a 1x1 conv, keeping the conv count at 20.
    """
    rng = np.random.default_rng(7)
    layers = [Layer(id="input", kind="input")]
    segments = []
    last = _conv_bn_relu(rng, layers, "conv0", 3, 8, 3, 1, 1, "input", quantize=False)
    channels, block_index = 8, 0
    for stage, (width, stride) in enumerate([(8, 1), (16, 2), (16, 1)], start=1):
        for b in range(3):
            block_index += 1
            name = f"s{stage}b{b + 1}"
            entry = last
            s = stride if b == 0 else 1
            last = _conv_bn_relu(rng, layers, f"{name}.conv1", channels, width, 3, s, 1, entry)
            last = _conv_bn_relu(rng, layers, f"{name}.conv2", width, width, 3, 1, 1,
                                 last, relu=False)
            if b == 0 and (s != 1 or channels != width):
                shortcut = _conv_bn_relu(rng, layers, f"{name}.down", channels, width,
                                         1, s, 0, entry, relu=False)
            else:
                shortcut = entry
            layers.append(Layer(id=f"{name}.add", kind="residual-add",
                                predecessors=[last, shortcut]))
            layers.append(_relu(f"{name}.relu", f"{name}.add"))
            last = f"{name}.relu"
            segments.append(Segment(f"block{block_index}",
                                    [f"{name}.conv1", f"{name}.conv2"]))
            channels = width
    layers.append(_linear(rng, "fc", 16 * 4 * 4, 10, last, quantize=False))
    layers.append(Layer(id="output", kind="output", predecessors=["fc"]))
    graph = ModelGraph(layers=layers, segments=segments, input_shape=[1, 3, 8, 8])
    return graph.validate()


def build_toy_segment_net():
    """Two quantized convs over 4 channels of 6x6; one reorderable segment.

    The first conv carries a strong per-output-channel magnitude spread, so
    grouping similar channels pays off and the jointly constrained reordering
    space reaches the same quality region as free per-layer reordering.
    """
    rng = np.random.default_rng(9)
    layers = [Layer(id="input", kind="input")]
    conv_a = _conv(rng, "convA", 4, 4, 3, 1, 1, "input")
    conv_a.activation = "relu"
    conv_a.weight *= rng.uniform(1.0 / 3.0, 3.0, 4)[:, None, None, None].astype(np.float32)
    conv_b = _conv(rng, "convB", 4, 4, 3, 1, 1, "convA")
    layers += [conv_a, conv_b, Layer(id="output", kind="output", predecessors=["convB"])]
    graph = ModelGraph(layers=layers, segments=[Segment("block1", ["convA", "convB"])],
                       input_shape=[1, 4, 6, 6])
    return graph.validate()


def random_inputs(graph, count, seed=0):
    """Seeded calibration samples matching the graph input shape."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(count, *graph.input_shape[1:])).astype(np.float32)


# ---------------------------------------------------------------------------
# shape-only architecture manifests (no weights, overhead analysis only)

def _shape_conv(lid, ic, oc, k, stride, pred, quantize=True):
    return Layer(id=lid, kind="conv", predecessors=[pred], out_channels=oc,
                 in_channels=ic, kernel=k, stride=stride, padding=k // 2,
                 quantize=quantize)


def _resnet_shape_graph(stages, bottleneck):
    """ImageNet ResNet conv geometry at 224x224 input. Each stage is (width,
    blocks, stride), its first block strided; a block is two 3x3 convs, or
    with `bottleneck` a 1x1, a 3x3 and a 1x1 conv out to 4 * width channels,
    and the first 3x3 conv takes the stride. A 1x1 `down` conv carries the
    shortcut where the block changes stride or channels."""
    layers = [Layer(id="input", kind="input"),
              # stride 4 folds the stem max-pool, which has no layer kind here;
              # the stem is excluded from overhead reports either way
              _shape_conv("conv1", 3, 64, 7, 4, "input", quantize=False)]
    last, channels, block = "conv1", 64, 0
    for width, blocks, stride in stages:
        for b in range(blocks):
            block += 1
            name, entry, s = f"b{block}", last, stride if b == 0 else 1
            convs = ([(width, 1, 1), (width, 3, s), (4 * width, 1, 1)] if bottleneck
                     else [(width, 3, s), (width, 3, 1)])
            out = channels
            for i, (oc, k, conv_stride) in enumerate(convs, start=1):
                layers.append(_shape_conv(f"{name}.conv{i}", out, oc, k, conv_stride, last))
                out, last = oc, f"{name}.conv{i}"
            shortcut = entry
            if s != 1 or channels != out:
                shortcut = f"{name}.down"
                layers.append(_shape_conv(shortcut, channels, out, 1, s, entry))
            layers.append(Layer(id=f"{name}.add", kind="residual-add",
                                predecessors=[last, shortcut]))
            last, channels = f"{name}.add", out
    layers.append(Layer(id="fc", kind="linear", predecessors=[last], out_channels=1000,
                        in_channels=channels * 7 * 7, quantize=False))
    layers.append(Layer(id="output", kind="output", predecessors=["fc"]))
    return ModelGraph(layers=layers, input_shape=[1, 3, 224, 224]).validate()


def resnet18_shape_graph():
    """ImageNet ResNet-18 conv geometry at 224x224 input."""
    return _resnet_shape_graph([(64, 2, 1), (128, 2, 2), (256, 2, 2), (512, 2, 2)],
                               bottleneck=False)


def resnet50_shape_graph():
    """ImageNet ResNet-50 conv geometry at 224x224 input."""
    return _resnet_shape_graph([(64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2)],
                               bottleneck=True)


def yolov3_320_shape_graph():
    """Darknet-53 + YOLOv3 head conv geometry at 320x320 input.

    Shape metadata only: concatenations and upsampling are not representable
    here, so head convs declare their true in_channels while being wired to a
    predecessor with the right spatial size.
    """
    layers = [Layer(id="input", kind="input"),
              _shape_conv("conv0", 3, 32, 3, 1, "input", quantize=False)]
    last = "conv0"
    idx = 0

    def res_stage(last, channels, blocks):
        nonlocal idx
        for _ in range(blocks):
            idx += 1
            entry = last
            name = f"r{idx}"
            layers.append(_shape_conv(f"{name}.conv1", channels, channels // 2, 1, 1, entry))
            layers.append(_shape_conv(f"{name}.conv2", channels // 2, channels, 3, 1,
                                      f"{name}.conv1"))
            layers.append(Layer(id=f"{name}.add", kind="residual-add",
                                predecessors=[f"{name}.conv2", entry]))
            last = f"{name}.add"
        return last

    taps = {}
    for channels, blocks in [(64, 1), (128, 2), (256, 8), (512, 8), (1024, 4)]:
        layers.append(_shape_conv(f"down{channels}", channels // 2, channels, 3, 2, last))
        last = res_stage(f"down{channels}", channels, blocks)
        taps[channels] = last

    def detection_branch(tag, ic, mid, tap):
        last = tap
        for i, (cin, cout, k) in enumerate([(ic, mid, 1), (mid, mid * 2, 3),
                                            (mid * 2, mid, 1), (mid, mid * 2, 3),
                                            (mid * 2, mid, 1)]):
            layers.append(_shape_conv(f"{tag}.conv{i}", cin, cout, k, 1, last))
            last = f"{tag}.conv{i}"
        layers.append(_shape_conv(f"{tag}.head", mid, mid * 2, 3, 1, last))
        layers.append(_shape_conv(f"{tag}.pred", mid * 2, 255, 1, 1, f"{tag}.head",
                                  quantize=False))
        return last

    # branch inputs after concat: 1024, 512+256, 256+128
    d1 = detection_branch("det1", 1024, 512, taps[1024])
    layers.append(_shape_conv("det1.reduce", 512, 256, 1, 1, d1))
    d2 = detection_branch("det2", 768, 256, taps[512])
    layers.append(_shape_conv("det2.reduce", 256, 128, 1, 1, d2))
    detection_branch("det3", 384, 128, taps[256])
    layers.append(Layer(id="output", kind="output", predecessors=["det3.pred"]))
    return ModelGraph(layers=layers, input_shape=[1, 3, 320, 320]).validate()


def write_all(out_dir):
    """Materialize the demo bundles, calibration sets (64 samples each, 8 for
    toy_segment), a small_cnn eval set of 32 labelled samples, and the shape
    manifests."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    small = build_small_cnn()
    save_bundle(small, out / "small_cnn")
    save_calibration_set(out / "small_cnn_calib.ptqc",
                         random_inputs(small, 64, 0))
    save_calibration_set(out / "small_cnn_eval.ptqc", random_inputs(small, 32, 1))
    labels = np.random.default_rng(2).integers(0, 10, 32).tolist()
    write_atomic(out / "small_cnn_eval_labels.json", json.dumps(labels) + "\n")

    resnet = build_resnet20_style()
    save_bundle(resnet, out / "resnet20_style")
    save_calibration_set(out / "resnet20_style_calib.ptqc",
                         random_inputs(resnet, 64, 3))

    toy = build_toy_segment_net()
    save_bundle(toy, out / "toy_segment")
    save_calibration_set(out / "toy_segment_calib.ptqc",
                         random_inputs(toy, 8, 4))

    save_bundle(resnet18_shape_graph(), out / "resnet18_shape")
    save_bundle(resnet50_shape_graph(), out / "resnet50_shape")
    save_bundle(yolov3_320_shape_graph(), out / "yolov3_320_shape")
    return out


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    print(f"writing fixtures under {write_all(target)}")
