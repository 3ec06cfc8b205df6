"""Sub-layerwise post-training quantization toolkit."""

__version__ = "0.1.0"

from .calib import CalibConfig, calibrate_layer, calibrate_network, distance
from .errors import BadInputError, SubquantError
from .model import ModelGraph, load_bundle, save_bundle
from .quant import GranularityConfig, ScaleSet, make_partition
from .reorder import ReorderConfig, ea_search

__all__ = [
    "BadInputError",
    "CalibConfig",
    "GranularityConfig",
    "ModelGraph",
    "ReorderConfig",
    "ScaleSet",
    "SubquantError",
    "calibrate_layer",
    "calibrate_network",
    "distance",
    "ea_search",
    "load_bundle",
    "make_partition",
    "save_bundle",
    "__version__",
]
