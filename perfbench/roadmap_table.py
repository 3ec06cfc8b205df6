"""Traced calibration step split on the settings of the ROADMAP baseline table.

    python3 perfbench/roadmap_table.py

Calibrates small_cnn and resnet20_style at method2 rows=1 h=4 and at
channelwise, each on 64 samples from `fixtures.random_inputs(graph, 64, 0)`
with `CalibConfig(samples=64)`, under the span tracer. Prints one table row
per setting in the ROADMAP's columns: total, input search (steps 1 + 3),
the step-3 quantized forwards inside it, and weight search (step 2). Takes
about 90 s on 2 cores.
"""

import time

from child import import_subquant
import spantrace

SETTINGS = [
    ("small_cnn", "method2", {"rows_per_group": 1, "h_groups": 4}),
    ("small_cnn", "channelwise", {}),
    ("resnet20_style", "method2", {"rows_per_group": 1, "h_groups": 4}),
    ("resnet20_style", "channelwise", {}),
]


def main():
    import_subquant()
    from subquant import fixtures
    from subquant.calib import CalibConfig
    from subquant.model import prepare_for_quantization
    from subquant.quant import GranularityConfig
    tracer = spantrace.install()
    import subquant.calib as calib
    print("| setting | total | input search (steps 1+3) | of which step-3 forwards "
          "| weight search |")
    print("|---|---|---|---|---|")
    for model, mode, extra in SETTINGS:
        raw = getattr(fixtures, f"build_{model}")()
        graph = prepare_for_quantization(raw)
        samples = fixtures.random_inputs(raw, 64, 0)
        tracer.reset()
        start = time.perf_counter()
        calib.calibrate_network(graph, samples, GranularityConfig(mode, **extra),
                                CalibConfig(samples=64))
        total = time.perf_counter() - start
        m = tracer.summary()
        label = f"{model}, {mode}" + (" rows=1 h=4" if extra else "")
        print(f"| {label} | {total:.1f} s "
              f"| {m['calib.input_search.s'] + m['calib.input_research.s']:.1f} s "
              f"| {m['calib.input_research.forward_s']:.1f} s "
              f"| {m['calib.weight_search.s']:.1f} s |", flush=True)


if __name__ == "__main__":
    main()
