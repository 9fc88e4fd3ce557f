"""Lightweight linear-complexity audio-visual segmentation, desk scale.

A dependency-light implementation of a gated channel-wise fusion architecture
for sounding-object segmentation: reverse-mode tensor core, log-mel audio
frontend, toy visual/audio backbones, reciprocal encoder and fusion decoder,
training losses and metrics, a quadratic cross-attention oracle for complexity
comparisons, a synthetic sounding-object dataset, and a train/eval/bench CLI.
"""

from .tensor import (
    FLOPS,
    ContractError,
    DimensionError,
    FlopCounter,
    NumericalError,
    RngState,
    Tensor,
    backward,
    grad_check,
    no_grad,
    parameter,
)

__all__ = [
    "FLOPS",
    "ContractError",
    "DimensionError",
    "FlopCounter",
    "NumericalError",
    "RngState",
    "Tensor",
    "backward",
    "grad_check",
    "no_grad",
    "parameter",
]
