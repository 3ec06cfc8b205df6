import json

import numpy as np
import pytest

from subquant import quant
from subquant.fixtures import (
    build_small_cnn,
    build_toy_segment_net,
    random_inputs,
)
from subquant.model import save_bundle, save_calibration_set


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """Small-CNN and toy bundles plus calibration/eval sets, built once."""
    root = tmp_path_factory.mktemp("bundles")
    small = build_small_cnn()
    save_bundle(small, root / "small_cnn")
    save_calibration_set(root / "small_cnn_calib.ptqc", random_inputs(small, 16, seed=0))
    save_calibration_set(root / "small_cnn_eval.ptqc", random_inputs(small, 8, seed=1))
    labels = np.random.default_rng(2).integers(0, 10, 8).tolist()
    (root / "small_cnn_eval_labels.json").write_text(json.dumps(labels))
    toy = build_toy_segment_net()
    save_bundle(toy, root / "toy_segment")
    save_calibration_set(root / "toy_segment_calib.ptqc", random_inputs(toy, 8, seed=3))
    return root


# (layer, blob, field, value) edits of small_cnn's manifest that int() took
# as a blob's integer offset or count: each is malformed
BLOB_INTEGERS_THAT_ARE_NOT_INTS = [("conv1.bn", "var", "count", 8.9),
                                   ("conv1.bn", "var", "count", "8"),
                                   ("conv1", "weight", "offset", 0.0)]


def write_config(path, **entries):
    path.write_text(json.dumps(entries, indent=2))
    return path


@pytest.fixture
def term_sizes(monkeypatch):
    """Sizes of the terms quant.grouped_terms yields, appended as they are
    yielded; their sum over one quantized forward is its rescale MAC count."""
    sizes = []
    real = quant.grouped_terms

    def counting(*args):
        for term in real(*args):
            sizes.append(term.size)
            yield term

    monkeypatch.setattr(quant, "grouped_terms", counting)
    return sizes
