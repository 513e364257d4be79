"""Numeric substrate of the autoencoders: layers with backprop, the MSE loss, SGD,
and the stride-1 window max that the encoders take each crop's pool from.

The tensor ops the layers are made of are in `anomkit.numcore.ops`."""

from .ops import mse, mse_grad, window_max
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
