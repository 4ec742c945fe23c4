"""Lightweight 3D convolutional network toolkit.

Builds four related video-classification architectures as explicit layer
graphs, runs them forward (and backward, for toy-scale training) on 5-D
``NCTHW`` tensors, and reports exact per-layer parameter and FLOP counts.
"""

from .analysis import analyze, compare_factorizations, module_cost
from .autodiff import TrainConfig, forward, init_params, predict_scores, train_toy
from .fusion import MS1, MS2, merge, tanh_weight
from .graph import (
    ARCHS,
    WIDTH_TABLE,
    InceptionWidths,
    ModuleGraph,
    allocate_groups,
    build_inception_module,
    build_network,
)
from .ops import Conv3DSpec, PoolSpec, conv3d_direct, conv3d_lowered
from .tensor import Shape5, Tensor5D, load_tensor, save_tensor

__all__ = [
    "ARCHS",
    "MS1",
    "MS2",
    "Conv3DSpec",
    "InceptionWidths",
    "ModuleGraph",
    "PoolSpec",
    "Shape5",
    "Tensor5D",
    "TrainConfig",
    "WIDTH_TABLE",
    "allocate_groups",
    "analyze",
    "build_inception_module",
    "build_network",
    "compare_factorizations",
    "conv3d_direct",
    "conv3d_lowered",
    "forward",
    "init_params",
    "load_tensor",
    "merge",
    "module_cost",
    "predict_scores",
    "save_tensor",
    "tanh_weight",
    "train_toy",
]

__version__ = "0.1.0"
