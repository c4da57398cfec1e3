"""Frozen two-stream transformer with trainable latent cross-modal adapters."""

from .autodiff import (
    GraphError,
    MacCounter,
    Rng,
    ShapeError,
    Tensor,
    backward,
    count_macs,
)

__version__ = "0.1.0"

__all__ = [
    "GraphError",
    "MacCounter",
    "Rng",
    "ShapeError",
    "Tensor",
    "backward",
    "count_macs",
    "__version__",
]
