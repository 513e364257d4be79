"""Numeric substrate: tensor ops, layers with backprop, SGD, PCA, tensor IO."""

from .ops import (
    conv2d_valid,
    deconv2d,
    dropout,
    dropout_backward,
    elu,
    elu_backward,
    maxpool,
    mse,
    mse_grad,
    unpool,
)
from .layers import (
    Conv2D,
    Deconv2D,
    Dense,
    Dropout,
    Elu,
    GradTape,
    MaxPool2D,
    Network,
    Reshape,
    Unpool2D,
    sgd_step,
)
from .pca import PcaModel, pca_fit, pca_project
from .tensorio import read_tensor, write_tensor

__all__ = [
    "conv2d_valid",
    "deconv2d",
    "dropout",
    "dropout_backward",
    "elu",
    "elu_backward",
    "maxpool",
    "mse",
    "mse_grad",
    "unpool",
    "Conv2D",
    "Deconv2D",
    "Dense",
    "Dropout",
    "Elu",
    "GradTape",
    "MaxPool2D",
    "Network",
    "Reshape",
    "Unpool2D",
    "sgd_step",
    "PcaModel",
    "pca_fit",
    "pca_project",
    "read_tensor",
    "write_tensor",
]
