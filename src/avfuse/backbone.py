"""Frozen two-stream transformer backbone.

One set of layer weights serves both streams: images and spectrograms are cut
into patch tokens of the same width and pushed through the same pre-norm
attention/MLP blocks; the MLP is GELU, as in ViT. A list of inputs is
tokenized as one stacked batch, and every block runs on ``(B, N, D)`` token
batches as well as on one sample's ``(N, D)`` tokens. Everything here is
frozen at construction; the only trainable state in the package lives in the
adapter sites and the task head.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Rng,
    ShapeError,
    Tensor,
    add,
    attention,
    gelu,
    layer_norm,
    matmul,
    relu,
)

AUDIO = "audio"
VISUAL = "visual"

INIT_STD = 0.02


# ---------------------------------------------------------------------------
# inputs and token sets
# ---------------------------------------------------------------------------


@dataclass
class ImageInput:
    """An RGB image, float64 (H, W, 3) with values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ShapeError(f"ImageInput: need (H, W, 3), got shape {self.pixels.shape}")
        if not np.isfinite(self.pixels).all():
            raise ValueError("ImageInput: non-finite pixel values")
        if self.pixels.min() < 0.0 or self.pixels.max() > 1.0:
            raise ValueError("ImageInput: pixel values must lie in [0, 1]")


@dataclass
class SpectrogramInput:
    """A single-channel spectrogram, float64 (time, freq), finite values."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"SpectrogramInput: need (time, freq), got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("SpectrogramInput: non-finite values")


@dataclass
class TokenSet:
    """Tokens of one modality at one layer depth: a (count, width) tensor for
    one sample, or (batch, count, width) for a batch."""

    modality: str
    tokens: Tensor
    layer: int = 0

    def __post_init__(self) -> None:
        if self.modality not in (AUDIO, VISUAL):
            raise ValueError(f"TokenSet: unknown modality {self.modality!r}")
        if self.tokens.ndim not in (2, 3) or self.tokens.shape[-2] < 1:
            raise ShapeError(
                f"TokenSet: need a non-empty ([batch,] count, width) tensor, got shape {self.tokens.shape}"
            )

    @property
    def width(self) -> int:
        return self.tokens.shape[-1]


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------


def unfold_patches(grid: np.ndarray, patch: int) -> np.ndarray:
    """Cut an (H, W, C) array, or a stack of them, into flattened
    non-overlapping patches.

    Rows come out in row-major grid order; within a patch the layout is
    (rows, columns, channels), also row-major. H and W must divide by patch.
    """
    *lead, h, w, c = grid.shape
    if h % patch or w % patch:
        raise ShapeError(f"unfold_patches: grid {h}x{w} not divisible by patch {patch}")
    hp, wp = h // patch, w // patch
    n = len(lead)
    tiles = grid.reshape(*lead, hp, patch, wp, patch, c).transpose(*range(n), n, n + 2, n + 1, n + 3, n + 4)
    return np.ascontiguousarray(tiles.reshape(*lead, hp * wp, patch * patch * c))


def patch_embed(images: list[ImageInput], patch: int, proj: Tensor, pos: Tensor | None = None) -> TokenSet:
    """Project image patches to backbone width and add positional rows.

    The list of images is tokenized as one (B, N, width) batch. ``proj`` is
    (patch*patch*3, width) and carries no bias, so a zero image with a zero
    positional table maps to all-zero tokens.
    """
    pixels = np.stack([im.pixels for im in images])
    tokens = matmul(Tensor(unfold_patches(pixels, patch)), proj)
    if pos is not None:
        if pos.shape != tokens.shape[-2:]:
            raise ShapeError(f"patch_embed: positional table shape {pos.shape} does not match tokens {tokens.shape}")
        tokens = add(tokens, pos)
    return TokenSet(VISUAL, tokens, layer=0)


def pad_to_multiple(values: np.ndarray, patch: int) -> np.ndarray:
    """Zero-pad the last two axes on the bottom/right up to multiples of
    patch."""
    m, c = values.shape[-2:]
    mp = (-m) % patch
    cp = (-c) % patch
    if mp == 0 and cp == 0:
        return values
    return np.pad(values, [(0, 0)] * (values.ndim - 2) + [(0, mp), (0, cp)], mode="constant")


def spectrogram_embed(
    specs: list[SpectrogramInput], patch: int, proj: Tensor, pos: Tensor | None = None
) -> TokenSet:
    """Tokenize a list of spectrograms as one batch with the image projection.

    The single channel is replicated to three so the shared ``proj``
    applies; the time/freq grid is zero-padded up to patch multiples first,
    giving ceil(time/patch) * ceil(freq/patch) tokens per spectrogram.
    """
    values = np.stack([s.values for s in specs])
    padded = pad_to_multiple(values, patch)
    three = np.repeat(padded[..., None], 3, axis=-1)
    tokens = matmul(Tensor(unfold_patches(three, patch)), proj)
    if pos is not None:
        if pos.shape != tokens.shape[-2:]:
            raise ShapeError(
                f"spectrogram_embed: positional table shape {pos.shape} does not match tokens {tokens.shape}"
            )
        tokens = add(tokens, pos)
    return TokenSet(AUDIO, tokens, layer=0)


def resize_pos_table(pos: np.ndarray, src_grid: tuple[int, int], dst_grid: tuple[int, int]) -> np.ndarray:
    """Bilinearly resample a positional table between patch grids.

    The (n, width) table is viewed as src_grid rows-by-columns of width-sized
    vectors and interpolated with endpoint-aligned coordinates; a matching
    grid comes back unchanged.
    """
    hs, ws = src_grid
    ht, wt = dst_grid
    n, width = pos.shape
    if hs * ws != n:
        raise ShapeError(f"resize_pos_table: table of {n} rows does not match grid {src_grid}")
    if (hs, ws) == (ht, wt):
        return pos
    table = pos.reshape(hs, ws, width)

    def axis_coords(dst: int, src: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if dst == 1 or src == 1:
            f = np.zeros(dst)
        else:
            f = np.arange(dst) * (src - 1) / (dst - 1)
        lo = np.floor(f).astype(int)
        hi = np.minimum(lo + 1, src - 1)
        return lo, hi, f - lo

    y0, y1, wy = axis_coords(ht, hs)
    x0, x1, wx = axis_coords(wt, ws)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    out = (
        table[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
        + table[np.ix_(y1, x0)] * wy * (1 - wx)
        + table[np.ix_(y0, x1)] * (1 - wy) * wx
        + table[np.ix_(y1, x1)] * wy * wx
    )
    return np.ascontiguousarray(out.reshape(ht * wt, width))


# ---------------------------------------------------------------------------
# frozen layer weights and blocks
# ---------------------------------------------------------------------------


@dataclass
class FrozenLayerWeights:
    """One transformer layer's weights. Attention projections carry no bias;
    the MLP does. ``heads`` must divide the width."""

    heads: int
    ln1_gain: Tensor
    ln1_shift: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ln2_gain: Tensor
    ln2_shift: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor

    @property
    def width(self) -> int:
        return self.wq.shape[0]


def init_layer_weights(width: int, heads: int, seed: int, name: str) -> FrozenLayerWeights:
    """Draw one layer's weights: matrices Gaussian(0, 0.02), biases zero,
    norm gains one. Each tensor uses its own named RNG stream."""
    if width % heads:
        raise ShapeError(f"head count {heads} does not divide width {width}")
    hidden = 4 * width

    def draw(part: str, shape) -> Tensor:
        return Tensor(Rng.for_name(seed, f"{name}.{part}").normal(shape, std=INIT_STD))

    return FrozenLayerWeights(
        heads=heads,
        ln1_gain=Tensor(np.ones(width)),
        ln1_shift=Tensor(np.zeros(width)),
        wq=draw("wq", (width, width)),
        wk=draw("wk", (width, width)),
        wv=draw("wv", (width, width)),
        wo=draw("wo", (width, width)),
        ln2_gain=Tensor(np.ones(width)),
        ln2_shift=Tensor(np.zeros(width)),
        mlp_w1=draw("mlp_w1", (width, hidden)),
        mlp_b1=Tensor(np.zeros(hidden)),
        mlp_w2=draw("mlp_w2", (hidden, width)),
        mlp_b2=Tensor(np.zeros(width)),
    )


ACTIVATIONS = {"gelu": gelu, "relu": relu}


def _activation(tag: str):
    if tag not in ACTIVATIONS:
        raise ValueError(f"unknown activation {tag!r}")
    return ACTIVATIONS[tag]


def mha(x: TokenSet, w: FrozenLayerWeights) -> Tensor:
    """Pre-norm multi-head self-attention term for one token set.

    Returns only the attention output (the caller adds the residual). Scores
    are scaled by 1/sqrt(width/heads).
    """
    width = w.width
    if x.width != width:
        raise ShapeError(f"mha: token width {x.width} does not match layer width {width}")
    if width % w.heads:
        raise ShapeError(f"mha: head count {w.heads} does not divide width {width}")
    t = layer_norm(x.tokens, w.ln1_gain, w.ln1_shift)
    heads = attention(matmul(t, w.wq), matmul(t, w.wk), matmul(t, w.wv), w.heads)
    return matmul(heads, w.wo)


def mlp(x: TokenSet, w: FrozenLayerWeights) -> Tensor:
    """Pre-norm position-wise GELU MLP term (width -> 4*width -> width);
    caller adds the residual."""
    if x.width != w.width:
        raise ShapeError(f"mlp: token width {x.width} does not match layer width {w.width}")
    t = layer_norm(x.tokens, w.ln2_gain, w.ln2_shift)
    hidden = gelu(matmul(t, w.mlp_w1, w.mlp_b1))
    return matmul(hidden, w.mlp_w2, w.mlp_b2)


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------


class FreezeRegistry:
    """Every parameter in a model, each exactly once, flagged frozen or
    trainable. Registration order is preserved and is the serialization
    order. Registering a tensor sets its requires_grad to match the flag."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[Tensor, bool]] = {}

    def register(self, name: str, tensor: Tensor, frozen: bool) -> Tensor:
        if name in self._entries:
            raise ValueError(f"parameter {name!r} registered twice")
        tensor.requires_grad = not frozen
        self._entries[name] = (tensor, frozen)
        return tensor

    def items(self):
        for name, (tensor, frozen) in self._entries.items():
            yield name, tensor, frozen

    def trainable(self):
        for name, (tensor, frozen) in self._entries.items():
            if not frozen:
                yield name, tensor

    def frozen(self):
        for name, (tensor, frozen) in self._entries.items():
            if frozen:
                yield name, tensor

    def zero_grad(self) -> None:
        for _, (tensor, _frozen) in self._entries.items():
            tensor.grad = None

    def state_hash(self, frozen_only: bool = True) -> str:
        """SHA-256 over (name, shape, payload) of the selected parameters,
        in sorted name order."""
        digest = hashlib.sha256()
        for name in sorted(self._entries):
            tensor, frozen = self._entries[name]
            if frozen_only and not frozen:
                continue
            digest.update(name.encode("utf-8"))
            digest.update(repr(tensor.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(tensor.data).astype("<f8").tobytes())
        return digest.hexdigest()

    def entries_for_save(self):
        for name, (tensor, frozen) in self._entries.items():
            yield name, tensor.data, frozen

    def load_arrays(self, entries) -> None:
        """Install values from (name, array, frozen) records; every name must
        exist with a matching shape and flag."""
        loaded = set()
        for rec in entries:
            name, array, frozen = rec.name, rec.array, rec.frozen
            if name not in self._entries:
                raise ValueError(f"container holds unknown parameter {name!r}")
            tensor, want_frozen = self._entries[name]
            if tuple(array.shape) != tensor.shape:
                raise ShapeError(
                    f"parameter {name!r}: container shape {tuple(array.shape)} does not match model shape {tensor.shape}"
                )
            if frozen != want_frozen:
                raise ValueError(f"parameter {name!r}: frozen flag mismatch")
            # np.array keeps 0-d gate shapes; ascontiguousarray would not
            tensor.data = np.array(array, dtype=np.float64, order="C")
            loaded.add(name)
        missing = set(self._entries) - loaded
        if missing:
            raise ValueError(f"container is missing parameters: {sorted(missing)}")
