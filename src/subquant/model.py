"""Network graph, bundle file I/O, batch-norm folding, and forward passes.

A model bundle is a directory holding `manifest.json` plus `tensors.bin`
(concatenated little-endian float32 blobs, row-major, offsets as declared).
Calibration sets are single files: magic `PTQC`, u32 sample count, u32 rank,
u32 per-sample dims, then the float32 samples; `CalibrationSetReader` reads
them in place, any range of samples at a time.
"""

import csv
import io
import json
import math
import os
import struct
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import BadInputError
from .quant import (
    GranularityConfig,
    ScaleSet,
    check_bits,
    make_partition,
    quantized_layer,
)
from .tensor import (ACTIVATIONS, apply_activation, conv_output_hw, conv_reference, im2col,
                     in_sample_blocks)

BUNDLE_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"
CALIB_MAGIC = b"PTQC"

LAYER_KINDS = ("input", "output", "conv", "linear", "batchnorm",
               "relu", "leaky-relu", "residual-add")


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5


@dataclass
class Layer:
    """One graph node. Conv weights are [OC, IC, K, K]; linear weights [OC, F]."""

    id: str
    kind: str
    predecessors: list = field(default_factory=list)
    out_channels: int | None = None
    in_channels: int | None = None
    kernel: int | None = None
    stride: int = 1
    padding: int = 0
    activation: str = "identity"
    slope: float = 0.01
    quantize: bool = False
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    bn: BatchNormParams | None = None

    @property
    def weights_per_channel(self):
        if self.kind == "conv":
            return self.kernel * self.kernel * self.in_channels
        if self.kind == "linear":
            return self.in_channels
        raise ValueError(f"layer {self.id} has no weight matrix")

    def weight_matrix(self):
        """Lowered [OC, J] view of the weights (channel-major column blocks)."""
        return self.weight.reshape(self.out_channels, self.weights_per_channel)


@dataclass
class Segment:
    """Consecutive conv layers of one residual block, the reordering unit."""

    id: str
    layer_ids: list


@dataclass
class ModelGraph:
    layers: list
    segments: list = field(default_factory=list)
    input_shape: list = field(default_factory=list)
    scales: dict = field(default_factory=dict)
    reorderings: list = field(default_factory=list)

    def layer(self, layer_id):
        for layer in self.layers:
            if layer.id == layer_id:
                return layer
        raise KeyError(layer_id)

    def _node_id(self, kind):
        for layer in self.layers:
            if layer.kind == kind:
                return layer.id
        raise ValueError(f"graph has no {kind} node")

    @property
    def input_id(self):
        return self._node_id("input")

    @property
    def output_id(self):
        return self._node_id("output")

    def conv_like(self):
        return [l for l in self.layers if l.kind in ("conv", "linear")]

    def validate(self):
        seen = set()
        ids = {l.id for l in self.layers}
        if len(ids) != len(self.layers):
            raise BadInputError("duplicate layer ids in graph")
        for layer in self.layers:
            if layer.kind not in LAYER_KINDS:
                raise BadInputError(f"layer {layer.id}: unknown kind {layer.kind!r}")
            for pred in layer.predecessors:
                if pred not in seen:
                    raise BadInputError(
                        f"layer {layer.id}: predecessor {pred!r} not defined earlier "
                        f"(graph must be topologically ordered)")
            need = {"input": 0, "residual-add": 2}.get(layer.kind, 1)
            if len(layer.predecessors) != need:
                raise BadInputError(f"layer {layer.id}: kind {layer.kind!r} needs {need} "
                                    f"predecessor{'s' * (need != 1)}, got "
                                    f"{layer.predecessors}")
            seen.add(layer.id)
        for seg in self.segments:
            for lid in seg.layer_ids:
                if lid not in ids:
                    raise BadInputError(f"segment {seg.id}: unknown layer {lid!r}")
        return self


# ---------------------------------------------------------------------------
# bundle serialization

def read_json(path, malformed):
    """The JSON value of the file `path`, read as UTF-8. A file that is not
    UTF-8 or not JSON is bad input, reported as `malformed` and the fault."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise BadInputError(f"{malformed}: {exc}") from exc


def write_atomic(path, data):
    """Write text (as UTF-8) or bytes to `path` through a temporary file and a
    rename, so a reader never sees a half-written file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    tmp.replace(path)
    return path


def write_json(path, payload):
    """`payload` as JSON indented by two, plus a final newline, via write_atomic."""
    return write_atomic(path, json.dumps(payload, indent=2) + "\n")


def write_csv(path, rows):
    """Rows rendered by the csv module, CRLF line ends included, via write_atomic."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return write_atomic(path, buf.getvalue())


_FINITE_SLICE = 1 << 16  # values per finiteness check: a 64 KB mask, whatever the array


def _require_finite(arr, what):
    flat = arr.reshape(-1)
    for i in range(0, flat.size, _FINITE_SLICE):
        if not np.isfinite(flat[i:i + _FINITE_SLICE]).all():
            raise BadInputError(f"{what} contains non-finite values")


class _BlobWriter:
    def __init__(self):
        self.chunks = []
        self.offset = 0

    def add(self, arr):
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        ref = {"file": BLOB_NAME, "offset": self.offset, "count": int(arr.size)}
        self.chunks.append(data)
        self.offset += len(data)
        return ref


def _scale_entry(lid, scales):
    """The manifest entry of layer `lid`'s ScaleSet, whose bit widths must
    pass the check_bits that _load_scale_entry applies. A ScaleSet takes
    wider codes, as long as its sums stay exact."""
    try:
        for what in ("weight_bits", "act_bits"):
            check_bits(what, getattr(scales, what))
    except ValueError as exc:
        raise ValueError(f"layer {lid}: {exc}") from exc
    return {
        "weight_scales": [[float(s) for s in row] for row in scales.weight_scales],
        "input_scale": float(scales.input_scale),
        "weight_bits": scales.weight_bits,
        "act_bits": scales.act_bits,
        "rows_per_group": scales.partition.rows_per_group,
        "cols_per_group": scales.partition.cols_per_group,
    }


def save_bundle(graph, path):
    """Write manifest.json plus tensors.bin; layer order defines blob order.
    A scale set whose bit widths load_bundle would reject raises ValueError
    naming its layer, before any file is written."""
    path = Path(path)
    blobs = _BlobWriter()
    layers = []
    for layer in graph.layers:
        entry = {"id": layer.id, "kind": layer.kind, "predecessors": list(layer.predecessors)}
        if layer.kind in ("conv", "linear"):
            entry["out_channels"] = layer.out_channels
            entry["in_channels"] = layer.in_channels
            if layer.kind == "conv":
                entry["kernel"] = layer.kernel
                entry["stride"] = layer.stride
                entry["padding"] = layer.padding
            entry["activation"] = layer.activation
            if layer.activation == "leaky_relu":
                entry["slope"] = layer.slope
            entry["quantize"] = bool(layer.quantize)
            if layer.weight is not None:
                entry["weight"] = blobs.add(layer.weight)
            if layer.bias is not None:
                entry["bias"] = blobs.add(layer.bias)
        elif layer.kind == "batchnorm":
            bn = layer.bn
            entry["channels"] = int(bn.gamma.size)
            entry["epsilon"] = bn.epsilon
            entry["gamma"] = blobs.add(bn.gamma)
            entry["beta"] = blobs.add(bn.beta)
            entry["mean"] = blobs.add(bn.running_mean)
            entry["var"] = blobs.add(bn.running_var)
        elif layer.kind == "leaky-relu":
            entry["slope"] = layer.slope
        layers.append(entry)
    manifest = {
        "version": BUNDLE_VERSION,
        "input_shape": list(graph.input_shape),
        "layers": layers,
        "segments": [{"id": s.id, "layers": list(s.layer_ids)} for s in graph.segments],
    }
    if graph.scales:
        manifest["scales"] = {lid: _scale_entry(lid, scales)
                              for lid, scales in graph.scales.items()}
    if graph.reorderings:
        manifest["reorderings"] = graph.reorderings
    write_atomic(path / BLOB_NAME, b"".join(blobs.chunks))
    write_json(path / MANIFEST_NAME, manifest)
    return path


def _read_blob(ref, data, layer_id, what, shape):
    """The float32 array of shape `shape` that the blob reference `ref` names
    in the tensor file's bytes `data`, once its `count` is the product of
    `shape`, it lies inside the file and its values are finite."""
    try:
        offset = require_int("offset", ref["offset"])
        count = require_int("count", ref["count"])
    except (KeyError, TypeError) as exc:
        raise BadInputError(f"layer {layer_id}: malformed {what} blob reference") from exc
    expect = math.prod(shape)
    if count != expect:
        raise BadInputError(f"layer {layer_id}: {what} blob has {count} elements, "
                            f"expected {expect}")
    end = offset + 4 * count
    if offset < 0 or end > len(data):
        raise BadInputError(
            f"layer {layer_id}: {what} blob [{offset}, {end}) outside tensor file "
            f"of {len(data)} bytes")
    arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset).reshape(shape).copy()
    _require_finite(arr, f"layer {layer_id}: {what} blob")
    return arr


def load_bundle(path):
    """Load a bundle directory back into a ModelGraph."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BadInputError(f"no {MANIFEST_NAME} in bundle {path}")
    manifest = read_json(manifest_path, f"malformed manifest in {path}")
    _check_manifest_types(manifest, path)
    blob_path = path / BLOB_NAME
    data = blob_path.read_bytes() if blob_path.is_file() else b""

    layers = []
    for entry in manifest.get("layers", []):
        try:
            lid, kind = entry["id"], entry["kind"]
        except (KeyError, TypeError) as exc:
            raise BadInputError(f"manifest layer entry missing {exc}") from exc
        try:
            layers.append(_load_layer(entry, lid, kind, data))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadInputError(f"layer {lid}: malformed manifest entry ({exc!r})") from exc

    # unless the manifest says otherwise, the first and last weighted layers
    # stay unquantized
    weighted = [l for l in layers if l.kind in ("conv", "linear")]
    for layer in weighted:
        if layer.quantize is None:
            layer.quantize = layer is not weighted[0] and layer is not weighted[-1]

    try:
        segments = [Segment(s["id"], _id_list(s["layers"], f"segment {s['id']}", "layers"))
                    for s in manifest.get("segments", [])]
    except (KeyError, TypeError) as exc:
        raise BadInputError(f"malformed segment entry in manifest ({exc!r})") from exc
    graph = ModelGraph(layers=layers, segments=segments,
                       input_shape=list(manifest.get("input_shape", [])),
                       reorderings=list(manifest.get("reorderings", [])))
    by_id = {layer.id: layer for layer in layers}
    for lid, entry in manifest.get("scales", {}).items():
        graph.scales[lid] = _load_scale_entry(lid, entry, by_id.get(lid))
    return graph.validate()


def _check_manifest_types(manifest, path):
    """The manifest's top level: an object with list and object fields."""
    if not isinstance(manifest, dict):
        raise BadInputError(f"manifest in {path} is not a JSON object")
    for key, kind in (("layers", list), ("segments", list), ("input_shape", list),
                      ("reorderings", list), ("scales", dict)):
        if not isinstance(manifest.get(key, kind()), kind):
            raise BadInputError(f"manifest field {key!r} in {path} is not a "
                                f"{'list' if kind is list else 'JSON object'}")
    if not all(type(dim) is int for dim in manifest.get("input_shape", [])):
        raise BadInputError(f"manifest field 'input_shape' in {path} is not a list "
                            f"of integers")


def require_int(what, value, minimum=None):
    """`value`, once it is an integer (a bool is not) of at least `minimum`:
    the rule for every integer a manifest or a run config gives."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def require_number(what, value):
    """`value`, once it is an integer or a float (a bool is neither)."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return value


def _id_list(value, owner, field):
    """A manifest list of layer ids; a bare string would split into characters."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise BadInputError(f"{owner}: {field!r} must be a list of layer ids, "
                            f"got {value!r}")
    return value


def _load_layer(entry, lid, kind, data):
    """One manifest layer entry with its blobs."""
    layer = Layer(id=lid, kind=kind,
                  predecessors=_id_list(entry.get("predecessors", []), f"layer {lid}",
                                        "predecessors"))
    if kind in ("conv", "linear"):
        layer.out_channels = require_int("out_channels", entry["out_channels"], 1)
        layer.in_channels = require_int("in_channels", entry["in_channels"], 1)
        if kind == "conv":
            layer.kernel = require_int("kernel", entry["kernel"], 1)
            layer.stride = require_int("stride", entry.get("stride", 1), 1)
            layer.padding = require_int("padding", entry.get("padding", 0), 0)
            if layer.padding >= layer.kernel:  # a window must read an input element
                raise ValueError(f"padding must be < kernel, got padding {layer.padding}, "
                                 f"kernel {layer.kernel}")
        layer.activation = entry.get("activation", "identity")
        if layer.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {', '.join(ACTIVATIONS)}, "
                             f"got {layer.activation!r}")
        layer.slope = float(require_number("slope", entry.get("slope", 0.01)))
        layer.quantize = entry.get("quantize")  # None, if absent, until load_bundle decides
        if "quantize" in entry and type(layer.quantize) is not bool:
            raise TypeError(f"quantize must be true or false, got {layer.quantize!r}")
        if "weight" in entry:
            kernel = (layer.kernel, layer.kernel) if kind == "conv" else ()
            layer.weight = _read_blob(entry["weight"], data, lid, "weight",
                                      (layer.out_channels, layer.in_channels, *kernel))
        if "bias" in entry:
            layer.bias = _read_blob(entry["bias"], data, lid, "bias", (layer.out_channels,))
    elif kind == "batchnorm":
        channels = require_int("channels", entry["channels"], 1)
        epsilon = float(require_number("epsilon", entry.get("epsilon", 1e-5)))
        parts = {what: _read_blob(entry[what], data, lid, what, (channels,))
                 for what in ("gamma", "beta", "mean", "var")}
        with np.errstate(over="ignore"):  # in float32, as the fold and the forward sum it
            total = parts["var"] + epsilon
        if not np.all(np.isfinite(total) & (total > 0)):
            raise BadInputError(f"layer {lid}: var + epsilon must be finite and positive "
                                f"in float32 (epsilon {epsilon})")
        layer.bn = BatchNormParams(parts["gamma"], parts["beta"], parts["mean"],
                                   parts["var"], epsilon)
    elif kind == "leaky-relu":
        layer.slope = float(require_number("slope", entry.get("slope", 0.01)))
    return layer


def _load_scale_entry(lid, entry, layer):
    """One manifest scale entry, checked against its layer, which must be quantized."""
    if layer is None or layer.kind not in ("conv", "linear"):
        raise BadInputError(f"scales given for {lid!r}, which is not a conv or linear layer")
    if not layer.quantize:
        raise BadInputError(f"scales given for {lid!r}, whose quantize is false")
    try:
        grid = np.array(entry["weight_scales"], dtype=object)
        for value in grid.flat:
            require_number("each entry of weight_scales", value)
        weight_scales = grid.astype(np.float64)
        input_scale = float(require_number("input_scale", entry["input_scale"]))
        bits = {what: require_int(what, entry[what]) for what in ("weight_bits", "act_bits")}
        rows = require_int("rows_per_group", entry["rows_per_group"], 1)
        cols = require_int("cols_per_group", entry["cols_per_group"], 1)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadInputError(f"layer {lid}: malformed scale entry ({exc!r})") from exc
    try:
        for what, value in bits.items():
            check_bits(what, value)
        partition = make_partition(layer.out_channels, layer.weights_per_channel,
                                   GranularityConfig("method1", rows, cols))
        return ScaleSet(partition, weight_scales, input_scale, **bits)
    except ValueError as exc:
        raise BadInputError(f"layer {lid}: {exc}") from exc


def save_calibration_set(path, samples):
    """Write samples [N, dims...] as a PTQC file."""
    samples = np.asarray(samples, dtype="<f4")
    dims = samples.shape[1:]
    header = CALIB_MAGIC + struct.pack(f"<II{len(dims)}I", samples.shape[0],
                                       len(dims), *dims)
    return write_atomic(path, header + np.ascontiguousarray(samples).tobytes())


class CalibrationSetReader:
    """A PTQC file opened for reading in place: its header is parsed and
    checked once, here, and `read(start, stop)` reads a range of samples.

    `count` is the number of samples and `dims` the shape of one. Reads are
    positional (`os.preadv` at the range's own offset), never through the
    file's shared offset, so processes forked while the reader is open can
    all read from it at once. Use it in a `with` block, or `close` it.
    """

    def __init__(self, path):
        self.path = path = Path(path)
        if not path.is_file():
            raise BadInputError(f"calibration set not found: {path}")
        self._file = path.open("rb")
        try:
            self.count, self.dims, self._offset = self._read_header()
        except BaseException:
            self._file.close()
            raise
        self._sample_bytes = 4 * math.prod(self.dims)

    def _read_header(self):
        path, f = self.path, self._file
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if head[:4] != CALIB_MAGIC:
            raise BadInputError(f"{path} is not a calibration set (bad magic)")
        if size < 12 or size < 12 + 4 * struct.unpack_from("<I", head, 8)[0]:
            raise BadInputError(f"{path}: truncated header ({size} bytes)")
        count, rank = struct.unpack_from("<II", head, 4)
        if count == 0:
            raise BadInputError(f"{path} holds no samples")
        dims = struct.unpack(f"<{rank}I", f.read(4 * rank))
        header = 12 + 4 * rank
        expect = count * math.prod(dims)
        if size - header != 4 * expect:
            raise BadInputError(f"{path}: payload holds {size - header} bytes, header "
                                f"declares {expect} floats ({4 * expect} bytes)")
        return count, dims, header

    def read(self, start, stop):
        """Samples [start, stop), clipped to the set as a slice is, as one
        float32 array [n, dims...] read straight from the file, once every
        byte of the range has been read and every value found finite."""
        start, stop, _ = slice(start, stop).indices(self.count)
        arr = np.empty((max(stop - start, 0), *self.dims), dtype="<f4")
        buf = arr.reshape(-1).view(np.uint8)
        offset, done = self._offset + start * self._sample_bytes, 0
        while done < len(buf):
            got = os.preadv(self._file.fileno(), [buf[done:]], offset + done)
            if got == 0:
                raise BadInputError(f"{self.path}: the file ends at byte {offset + done}, "
                                    f"inside samples [{start}, {stop}): it was truncated "
                                    f"after its header was read")
            done += got
        _require_finite(arr, f"calibration set {self.path}")
        return arr

    def close(self):
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def load_calibration_set(path):
    """The samples [N, dims...] of a PTQC file, read straight from the file
    into their one array."""
    with CalibrationSetReader(path) as reader:
        return reader.read(0, reader.count)


# ---------------------------------------------------------------------------
# graph transforms

def fold_batchnorm(conv, bn_layer):
    """Fold the statistics of the batchnorm layer `bn_layer` into the
    preceding conv's weights and bias."""
    bn = bn_layer.bn
    if bn.gamma.size != conv.out_channels:
        raise BadInputError(f"cannot fold batchnorm {bn_layer.id} into {conv.id}: "
                            f"{bn.gamma.size} BN channels, {conv.out_channels} conv "
                            f"out_channels")
    if conv.activation != "identity":
        raise BadInputError(f"cannot fold batchnorm {bn_layer.id} into {conv.id}: "
                            f"{conv.id} applies activation {conv.activation!r} before it")
    factor = (bn.gamma / np.sqrt(bn.running_var + bn.epsilon)).astype(np.float64)
    weight = (conv.weight.astype(np.float64)
              * factor.reshape((-1,) + (1,) * (conv.weight.ndim - 1)))
    bias = conv.bias.astype(np.float64) if conv.bias is not None \
        else np.zeros(conv.out_channels)
    bias = (bias - bn.running_mean) * factor + bn.beta
    return replace(conv, weight=weight.astype(np.float32), bias=bias.astype(np.float32))


def successors(graph):
    succ = {l.id: [] for l in graph.layers}
    for layer in graph.layers:
        for pred in layer.predecessors:
            succ[pred].append(layer.id)
    return succ


def fold_all_batchnorms(graph):
    """Remove every BN node whose sole predecessor is a conv feeding only it."""
    succ = successors(graph)
    folded = {}
    remap = {}
    for layer in graph.layers:
        if layer.kind != "batchnorm":
            continue
        if len(layer.predecessors) != 1:
            raise BadInputError(f"cannot fold batchnorm {layer.id}: it needs one "
                                f"predecessor conv, got {layer.predecessors}")
        conv = graph.layer(layer.predecessors[0])
        if conv.kind != "conv" or succ[conv.id] != [layer.id]:
            raise BadInputError(f"cannot fold batchnorm {layer.id} into {conv.id}: "
                                f"{conv.id} is not a conv that feeds only {layer.id}")
        folded[conv.id] = fold_batchnorm(conv, layer)
        remap[layer.id] = conv.id
    return _rewire(graph, folded, remap)


def fuse_activations(graph):
    """Absorb a relu/leaky-relu node into a conv/linear that only feeds it."""
    succ = successors(graph)
    drop = {}
    updated = {}
    for layer in graph.layers:
        if layer.kind not in ("relu", "leaky-relu") or len(layer.predecessors) != 1:
            continue
        prev = graph.layer(layer.predecessors[0])
        if prev.kind not in ("conv", "linear") or prev.activation != "identity":
            continue
        if succ[prev.id] != [layer.id]:
            continue
        act = "relu" if layer.kind == "relu" else "leaky_relu"
        updated[prev.id] = replace(prev, activation=act, slope=layer.slope)
        drop[layer.id] = prev.id
    return _rewire(graph, updated, drop)


def _rewire(graph, updated, remap):
    """The graph without the layers in `remap`, whose consumers read from
    remap[id] instead, and with the layers in `updated` swapped in."""
    if not remap:
        return graph
    layers = [replace(updated.get(l.id, l),
                      predecessors=[remap.get(p, p) for p in l.predecessors])
              for l in graph.layers if l.id not in remap]
    return ModelGraph(layers, graph.segments, graph.input_shape,
                      dict(graph.scales), list(graph.reorderings))


def prepare_for_quantization(graph):
    """Standard pre-calibration canonicalization: fold BN, fuse activations."""
    return fuse_activations(fold_all_batchnorms(graph))


# ---------------------------------------------------------------------------
# forward passes

def _output_shape(layer, x_shape):
    """The output shape of a conv or linear layer on an input of shape
    `x_shape`, [N, OC, out_h, out_w] or [N, OC]; a fault names the layer."""
    if layer.kind == "linear":
        return (x_shape[0], layer.out_channels)
    if len(x_shape) != 4:
        raise ValueError(f"layer {layer.id}: a conv needs [N, C, H, W] input, got "
                         f"{list(x_shape)}")
    try:
        return (x_shape[0], layer.out_channels,
                *conv_output_hw(*x_shape[2:], layer.kernel, layer.stride, layer.padding))
    except ValueError as exc:
        raise ValueError(f"layer {layer.id}: {exc}") from exc


def lower_layer_input(layer, x):
    """Lower the incoming activation to the float64 [J, P] matrix."""
    if layer.kind == "conv":
        return im2col(x, layer.kernel, layer.stride, layer.padding)
    # linear: flatten features per sample; the explicit feature count keeps an
    # empty batch reshapeable
    features = math.prod(x.shape[1:])
    return np.array(x.reshape(x.shape[0], features).T, dtype=np.float64, order="C")


def sample_size(layer, x_shape):
    """Elements that one sample of an input of shape `x_shape` lowers to: J
    times that sample's columns of the lowered [J, P] matrix. It sizes every
    sample block (tensor.block_samples)."""
    return layer.weights_per_channel * math.prod(_output_shape(layer, x_shape)[2:])


def raise_layer_output(layer, out, x_shape):
    """Inverse of lower_layer_input on the [OC, P] output matrix of an input
    of shape `x_shape`."""
    if layer.kind == "conv":
        n, oc, out_h, out_w = _output_shape(layer, x_shape)
        return out.reshape(oc, n, out_h, out_w).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(out.T)


def reference_target(layer, ref):
    """Per-layer float reference reshaped to the [OC, P] output layout."""
    if layer.kind == "conv":
        return ref.transpose(1, 0, 2, 3).reshape(layer.out_channels, -1)
    return np.ascontiguousarray(ref.T)


def run_simple_layer(layer, outputs):
    x = outputs[layer.predecessors[0]]
    if layer.kind == "relu":
        return apply_activation(x, "relu")
    if layer.kind == "leaky-relu":
        return apply_activation(x, "leaky_relu", layer.slope).astype(np.float32)
    if layer.kind == "batchnorm":
        bn = layer.bn
        shape = (1, -1) + (1,) * (x.ndim - 2)
        factor = (bn.gamma / np.sqrt(bn.running_var + bn.epsilon)).reshape(shape)
        shift = (bn.beta - bn.running_mean * bn.gamma
                 / np.sqrt(bn.running_var + bn.epsilon)).reshape(shape)
        return (x * factor + shift).astype(np.float32)
    if layer.kind == "residual-add":
        a, b = (outputs[p] for p in layer.predecessors)
        if a.shape != b.shape:
            raise ValueError(f"layer {layer.id}: residual-add input shapes differ "
                             f"({list(a.shape[1:])} vs {list(b.shape[1:])})")
        return a + b
    if layer.kind == "output":
        return x
    raise ValueError(f"cannot execute layer kind {layer.kind!r}")


def _run_weighted(layer, x, conv_op):
    """One conv or linear layer: check the input, conv_op, raise. Whatever
    conv_op lowers lives only below this frame, so it is gone before the
    executor yields."""
    if layer.weight is None:
        raise ValueError(f"layer {layer.id} has no weights loaded")
    got = x.shape[1] if layer.kind == "conv" else math.prod(x.shape[1:])
    if got != layer.in_channels:
        raise ValueError(f"layer {layer.id}: declares {layer.in_channels} input channels, "
                         f"but {layer.predecessors[0]} gives {got}")
    return raise_layer_output(layer, conv_op(layer, x), x.shape)


def execute(layers, feeds, conv_op):
    """Run `layers` in topological order, yielding (layer, output) for each.

    An input layer (cast to float32), and any predecessor outside `layers`,
    reads its array from `feeds`. A conv or linear layer hands its incoming
    activation to conv_op(layer, x), which lowers it (lower_layer_input, or
    quantize first and lower the codes) and returns the [OC, P] output;
    other kinds run in float. An activation is dropped once its last
    consumer has run.
    """
    last_use = {}
    for i, layer in enumerate(layers):
        for pred in layer.predecessors:
            last_use[pred] = i
    values = dict(feeds)
    for i, layer in enumerate(layers):
        if layer.kind == "input":
            out = np.asarray(feeds[layer.id], dtype=np.float32)
        elif layer.kind in ("conv", "linear"):
            out = _run_weighted(layer, values[layer.predecessors[0]], conv_op)
        else:
            out = run_simple_layer(layer, values)
        for pred in layer.predecessors:
            if last_use[pred] == i:
                values.pop(pred, None)
        if layer.id in last_use:
            values[layer.id] = out
        yield layer, out


def float_conv(layer, x):
    """conv_op of the float network: the reference conv of the lowered input,
    one dgemm per sample block (in_sample_blocks), so the block schedule
    defines the output. README says when it is the whole-layer dgemm's."""
    weights = layer.weight_matrix()

    def conv(block):
        return conv_reference(weights, lower_layer_input(layer, block), layer.activation,
                              layer.bias, layer.slope)
    return in_sample_blocks(conv, x, sample_size(layer, x.shape))


def quantized_conv(scales, float_op=float_conv):
    """conv_op running every layer with a ScaleSet in `scales`, which alone
    marks a layer quantized, through the grouped integer path, which
    quantizes the activation before lowering it; all other layers run
    through the float conv_op `float_op`.

    A quantized layer's weights are checked and its weight codes made on its
    first call (quant.quantized_layer), and every later batch reuses them,
    so one conv_op serves one graph whose weights and scales do not change.

    Each batch runs in sample blocks (in_sample_blocks), as float_conv's
    does. Any blocking gives the whole-matrix output bit for bit: the
    integer matmuls are exact and every later float64 op (rescale,
    ascending-h sum, bias, activation) is per column.
    """
    prepared = {}

    def conv_op(layer, x):
        conv = prepared.get(layer.id)
        if conv is None:
            layer_scales = scales.get(layer.id)
            if layer_scales is None:
                return float_op(layer, x)
            conv = prepared[layer.id] = quantized_layer(
                layer.weight_matrix(), layer_scales, layer.bias, layer.activation,
                layer.slope, lower=partial(lower_layer_input, layer))
        return in_sample_blocks(conv, x, sample_size(layer, x.shape))
    return conv_op


def propagate_shapes(graph):
    """Per-layer output shapes of a batch of one sample, from graph metadata.

    Raises ValueError when the graph has no input_shape, and naming the
    layer whose input a conv cannot take.
    """
    if not graph.input_shape:
        raise ValueError("the graph has no input_shape")
    shapes = {}
    for layer in graph.layers:
        if layer.kind == "input":
            shapes[layer.id] = (1, *graph.input_shape[1:])
        elif layer.kind in ("conv", "linear"):
            try:
                shapes[layer.id] = _output_shape(layer, shapes[layer.predecessors[0]])
            except ValueError as exc:
                raise ValueError(f"{exc}; input_shape is {graph.input_shape}") from exc
        else:
            shapes[layer.id] = shapes[layer.predecessors[0]]
    return shapes


def check_shapes(graph):
    """Reject a graph whose wired layers disagree on shapes, naming the layer.

    The shapes must propagate from the graph's input_shape (propagate_shapes);
    then execute's own checks of channels and residual-adds decide the rest,
    on an empty batch through a conv_op that returns an empty output; an
    input_shape too big for that batch is named. Not part of validate():
    shape-only graphs such as yolov3_320_shape wire head convs to a
    stand-in predecessor.
    """
    try:
        propagate_shapes(graph)
        try:
            empty = np.zeros((0, *graph.input_shape[1:]), dtype=np.float32)
        except ValueError as exc:  # such as a sample too big for numpy
            raise ValueError(f"input_shape {graph.input_shape}: {exc}") from exc
        for _ in execute(graph.layers, {graph.input_id: empty},
                         lambda layer, x: np.zeros((layer.out_channels, 0))):
            pass
    except ValueError as exc:
        raise BadInputError(str(exc)) from exc
    return graph
