"""Span tracer for one CLI op, installed from outside the program.

`install()` wraps every public function of the traced subquant modules and
rebinds each wrapper wherever the function object is reachable: in its own
module, in every subquant module that imported it by value (for example
`calib.quantized_forward_layer` or `reorder.calibrate_layer`), and in
`cli.COMMANDS`. Each thread keeps its own span stack, so the sweep's pool
threads nest their spans correctly; a span opened at the root of a pool
thread has no parent. Spans stay in memory until `Tracer.summary()` turns
them into per-function call counts, inclusive and self times, and the
per-layer metrics of the benchmark.
"""

import functools
import inspect
import sys
import threading
import time
from collections import namedtuple

from workloads import ea_individuals

TRACED_MODULES = ("cli", "calib", "quant", "reorder", "model", "tensor")

# A span is [name, start, end, parent index in the same thread, label].
_NAME, _START, _END, _PARENT, _LABEL = range(5)

# One finished span: its parent's name, duration and self time.
Row = namedtuple("Row", "name label parent dur self_s")


def _search_input_label(fn):
    """Step 1 runs with float weights (no weight_scales); step 3 with them."""
    sig = inspect.signature(fn)

    def label(args, kwargs):
        bound = sig.bind_partial(*args, **kwargs).arguments
        return "input_research" if bound.get("weight_scales") is not None else "input_search"
    return label


def _ea_individuals_label(fn):
    """An `ea_search` span is labelled with the individuals it scores."""
    sig = inspect.signature(fn)

    def label(args, kwargs):
        cfg = sig.bind_partial(*args, **kwargs).arguments["cfg"]
        return ea_individuals(cfg.population, cfg.iterations, cfg.selection)
    return label


_LABELLERS = {
    "calib.search_input_scale": _search_input_label,
    "reorder.ea_search": _ea_individuals_label,
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _spans(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def wrap(self, name, fn):
        labeller = _LABELLERS.get(name, lambda f: None)(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._spans()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    labeller(args, kwargs) if labeller else None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        return traced

    def reset(self):
        """Drop every finished span; call only while no span is open."""
        with self._lock:
            for spans in self._threads:
                spans.clear()

    def summary(self, jobs=1):
        """Aggregate every recorded span, then derive the per-layer metrics.

        `jobs` is the sweep's worker count, the divisor of its parallel
        efficiency.
        """
        with self._lock:
            threads = list(self._threads)
        rows = []
        for spans in threads:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[_PARENT] >= 0:
                    child_time[span[_PARENT]] += span[_END] - span[_START]
            for i, span in enumerate(spans):
                dur = span[_END] - span[_START]
                parent = spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else None
                rows.append(Row(span[_NAME], span[_LABEL], parent, dur, dur - child_time[i]))
        return per_layer_metrics(rows, jobs)


def install(package="subquant"):
    """Wrap the public functions of the traced modules; return the tracer."""
    tracer = Tracer()
    wrappers = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"{package}.{short}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for name, mod in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])
    commands = sys.modules[f"{package}.cli"].COMMANDS
    for key, fn in commands.items():
        commands[key] = wrappers.get(id(fn), fn)
    return tracer


def per_layer_metrics(rows, jobs=1):
    """Per-layer metrics from aggregated span rows (see README.md)."""
    def select(name=None, label=None, parent=None):
        return [r for r in rows if (name is None or r.name == name)
                and (label is None or r.label == label)
                and (parent is None or r.parent == parent)]

    def s(spans):
        return sum(r.dur for r in spans)

    def self_s(spans):
        return sum(r.self_s for r in spans)

    network = select("calib.calibrate_network")
    step1 = select("calib.search_input_scale", label="input_search")
    weight = select("calib.search_weight_scales")
    step3 = select("calib.search_input_scale", label="input_research")
    step4 = (select("quant.quantized_forward_layer", parent="calib.calibrate_layer")
             + select("calib.distance", parent="calib.calibrate_layer"))
    dist = select("calib.distance")
    qfl = select("quant.quantized_forward_layer")
    qv = select("quant.quantize_values")
    ea = select("reorder.ea_search")
    score = select("reorder.score_block")
    im2col = select("tensor.im2col")
    sweep_wall = s(select("cli.cmd_sweep"))
    individuals = sum(r.label for r in ea)
    return {
        "cli.sweep.parallel_efficiency":
            s(network) / (sweep_wall * jobs) if sweep_wall > 0 else 0.0,
        "calib.calibrate_network.calls": len(network),
        "calib.calibrate_network.s": s(network),
        "calib.calibrate_layer.calls": len(select("calib.calibrate_layer")),
        "calib.input_search.s": s(step1),
        "calib.input_search.self_s": self_s(step1),
        "calib.weight_search.s": s(weight),
        "calib.weight_search.self_s": self_s(weight),
        "calib.input_research.s": s(step3),
        "calib.input_research.self_s": self_s(step3),
        "calib.input_research.forward_s":
            s(select("quant.quantized_forward_layer", parent="calib.search_input_scale")),
        "calib.final_forward.s": s(step4),
        "calib.distance.calls": len(dist),
        "calib.distance.self_s": self_s(dist),
        "quant.quantized_forward_layer.calls": len(qfl),
        "quant.quantized_forward_layer.self_s": self_s(qfl),
        "quant.quantize_values.calls": len(qv),
        "quant.quantize_values.self_s": self_s(qv),
        "reorder.ea_search.s": s(ea),
        "reorder.individuals": individuals,
        "reorder.score_block.calls": len(score),
        "reorder.score_block.s": s(score),
        "reorder.float_ref.self_s":
            self_s(select("tensor.conv_reference", parent="reorder.score_block")),
        "reorder.fitness_cache_hit_ratio":
            (individuals - len(score)) / individuals if individuals else 0.0,
        "model.forward_quantized.s": s(select("model.forward_quantized")),
        "model.forward_float.s": s(select("model.forward_float")),
        "tensor.im2col.calls": len(im2col),
        "tensor.im2col.self_s": self_s(im2col),
        "tensor.conv_reference.self_s": self_s(select("tensor.conv_reference")),
        "model.load_bundle.s": s(select("model.load_bundle")),
        "model.save_bundle.s": s(select("model.save_bundle")),
        "model.load_calibration_set.s": s(select("model.load_calibration_set")),
        "trace.spans": len(rows),
    }
