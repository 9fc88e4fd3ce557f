"""Parameterized layer wrappers with named-parameter registration."""

from __future__ import annotations

import numpy as np

from .tensor import RngState, Tensor, conv2d, glorot_uniform, parameter, pointwise_linear


class Linear1x1:
    """Per-position channel map (1x1 convolution) with registered weight/bias."""

    def __init__(self, name: str, c_in: int, c_out: int, rng: RngState, params: dict):
        self.weight = parameter(glorot_uniform(rng, (c_out, c_in), c_in, c_out))
        self.bias = parameter(np.zeros(c_out))
        params[f"{name}.weight"] = self.weight
        params[f"{name}.bias"] = self.bias

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return pointwise_linear(x, self.weight, self.bias, relu=relu)


class Conv3x3:
    """3x3 convolution, stride 2, padding 1, then ReLU, with registered weight/bias."""

    def __init__(self, name: str, c_in: int, c_out: int, rng: RngState, params: dict):
        fan_in, fan_out = c_in * 9, c_out * 9
        self.weight = parameter(glorot_uniform(rng, (c_out, c_in, 3, 3), fan_in, fan_out))
        self.bias = parameter(np.zeros(c_out))
        params[f"{name}.weight"] = self.weight
        params[f"{name}.bias"] = self.bias

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=2, padding=1, relu=True)
