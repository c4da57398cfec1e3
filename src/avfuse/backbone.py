"""Frozen two-stream transformer backbone.

One set of layer weights serves both streams: images and spectrograms are cut
into patch tokens of the same width and pushed through the same pre-norm
attention/MLP blocks; the MLP is GELU, as in ViT. An ``InputBatch``, B
images and B spectrograms as two arrays, is tokenized as one ``(B, N, D)``
batch per stream: the frozen projection and positional table run as
kernels, and the tokens come out as a plain array. Each
block, ``mha`` or ``mlp``, is a whole layer half, ``x + f(LN(x))`` as in
ViT, written as a forward kernel on plain arrays with any leading axes (a
stack of streams, a batch or one sample's ``(N, D)`` tokens) that records
nothing and returns its backward; ``fusion.layer_forward`` runs it inside
the layer half's node, beside the adapter sites that add into the same
stack. Everything here is frozen, so it is held as plain arrays, never
as tensors; the only trainable state in the package, the adapter sites and
the task head, lives in tensors.

``FreezeRegistry`` holds every parameter by name, with two views: one entry
per named parameter (what is saved, hashed, loaded and counted), and the
trainable leaves the optimizer and the gradients work on, where one leaf may
stack several named parameters along its leading axis.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Rng,
    ShapeError,
    Tensor,
    _merge,
    _split,
    attention_bwd,
    attention_fwd,
    gelu_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    linear_fwd,
)

AUDIO = "audio"
VISUAL = "visual"
# the order of the streams along a stack's leading axis
STACK_ORDER = (AUDIO, VISUAL)

INIT_STD = 0.02


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


class InputBatch:
    """B paired inputs as two float64 arrays: ``images``, (B, H, W, 3) RGB
    grids with values in [0, 1], and ``specs``, (B, T, F) single-channel
    spectrograms with finite values.

    A batch is checked once, when it is built; a shape error names one
    grid's shape. ``batch[index]`` takes the same rows of every attribute,
    each an array over the B rows, as a batch of the same class: views for
    a slice, gathered rows for an index array. A part of a checked batch is
    not checked again.
    """

    def __init__(self, images, specs):
        self.images = images = np.asarray(images, dtype=np.float64)
        self.specs = specs = np.asarray(specs, dtype=np.float64)
        if images.ndim != 4 or images.shape[3] != 3:
            raise ShapeError(f"InputBatch: images need (H, W, 3) grids, got shape {images.shape[1:]}")
        if specs.ndim != 3:
            raise ShapeError(f"InputBatch: specs need (time, freq) grids, got shape {specs.shape[1:]}")
        if len(images) != len(specs) or not len(images):
            raise ShapeError(
                f"InputBatch: need as many images as specs, at least one, got {len(images)} and {len(specs)}")
        for name, array in (("images", images), ("specs", specs)):
            if not math.prod(array.shape[1:]):
                raise ShapeError(f"InputBatch: {name} need a non-empty grid, got shape {array.shape[1:]}")
            # both propagate NaN and carry any infinity, and neither pass
            # allocates an array of the batch's size
            lo, hi = float(np.minimum.reduce(array, axis=None)), float(np.maximum.reduce(array, axis=None))
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"InputBatch: non-finite values in {name}")
            if name == "images" and (lo < 0.0 or hi > 1.0):
                raise ValueError("InputBatch: pixel values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index) -> InputBatch:
        if not isinstance(index, slice) and np.ndim(index) != 1:
            raise IndexError(f"{type(self).__name__}: index with a slice or a 1-D index array, got {index!r}")
        part = object.__new__(type(self))
        part.__dict__.update((name, value[index]) for name, value in vars(self).items())
        return part


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


def _embed(fn: str, patches: np.ndarray, proj: np.ndarray, pos: np.ndarray | None) -> np.ndarray:
    """``patches @ proj`` with the positional table added in place into the
    fresh product: the stem is frozen, so the tape starts after it."""
    shape = patches.shape[:-1] + proj.shape[1:]
    if pos is not None and pos.shape != shape[-2:]:
        raise ShapeError(f"{fn}: positional table shape {pos.shape} does not match tokens {shape}")
    return linear_fwd(patches, proj, pos)


def patch_embed(images: np.ndarray, patch: int, proj: np.ndarray, pos: np.ndarray | None = None) -> np.ndarray:
    """Project image patches to backbone width and add positional rows.

    The (B, H, W, 3) images are tokenized as one (B, N, width) array.
    ``proj`` is (patch*patch*3, width) and carries no bias, so a zero image
    with a zero positional table maps to all-zero tokens.
    """
    return _embed("patch_embed", unfold_patches(images, patch), proj, pos)


def pad_to_multiple(values: np.ndarray, patch: int) -> np.ndarray:
    """Zero-pad the last two axes on the bottom/right up to multiples of
    patch."""
    m, c = values.shape[-2:]
    mp = (-m) % patch
    cp = (-c) % patch
    if mp == 0 and cp == 0:
        return values
    return np.pad(values, [(0, 0)] * (values.ndim - 2) + [(0, mp), (0, cp)], mode="constant")


def spectrogram_embed(specs: np.ndarray, patch: int, proj: np.ndarray, pos: np.ndarray | None = None) -> np.ndarray:
    """Tokenize (B, T, F) spectrograms as one batch with the image projection.

    The single channel is replicated to three so the shared ``proj``
    applies; the time/freq grids are zero-padded up to patch multiples
    first, giving ceil(T/patch) * ceil(F/patch) tokens per spectrogram.
    """
    three = np.repeat(pad_to_multiple(specs, patch)[..., None], 3, axis=-1)
    return _embed("spectrogram_embed", unfold_patches(three, patch), proj, pos)


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
    """One transformer layer's frozen weights, plain arrays. Attention
    projections carry no bias; the MLP does. ``heads`` must divide the
    width."""

    heads: int
    ln1_gain: np.ndarray
    ln1_shift: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ln2_gain: np.ndarray
    ln2_shift: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray


def init_layer_weights(width: int, heads: int, seed: int, name: str) -> FrozenLayerWeights:
    """Draw one layer's weights: matrices Gaussian(0, 0.02), biases zero,
    norm gains one. Each tensor uses its own named RNG stream."""
    if width % heads:
        raise ShapeError(f"head count {heads} does not divide width {width}")
    hidden = 4 * width

    def draw(part: str, shape) -> np.ndarray:
        return Rng.for_name(seed, f"{name}.{part}").normal(shape, std=INIT_STD)

    return FrozenLayerWeights(
        heads=heads,
        ln1_gain=np.ones(width),
        ln1_shift=np.zeros(width),
        wq=draw("wq", (width, width)),
        wk=draw("wk", (width, width)),
        wv=draw("wv", (width, width)),
        wo=draw("wo", (width, width)),
        ln2_gain=np.ones(width),
        ln2_shift=np.zeros(width),
        mlp_w1=draw("mlp_w1", (width, hidden)),
        mlp_b1=np.zeros(hidden),
        mlp_w2=draw("mlp_w2", (hidden, width)),
        mlp_b2=np.zeros(width),
    )


def mha(x: np.ndarray, w: FrozenLayerWeights, keep: bool):
    """The pre-norm multi-head self-attention half of a layer as a forward
    kernel on tokens with any leading axes (each stream of a stack attends
    within itself): ``x + attention(t wq, t wk, t wv) wo`` for ``t =
    layer_norm(x)``, Q, K and V from one product, split into heads. With
    ``keep`` it returns its backward too, the gradient of ``x`` through the
    attention (the residual's is the caller's), which keeps xhat, inv, the
    heads and the softmax; else None. The caller checks the operands."""
    heads = w.heads
    t, xhat, inv = layer_norm_fwd(x, w.ln1_gain, w.ln1_shift)
    qkv = _split(linear_fwd(t, np.concatenate((w.wq, w.wk, w.wv), axis=1)), 3 * heads)
    del t
    q, k, v = qkv[..., :heads, :, :], qkv[..., heads:2 * heads, :, :], qkv[..., 2 * heads:, :, :]
    attended, probs = attention_fwd(q, k, v)
    y = linear_fwd(_merge(attended), w.wo)
    y += x
    if not keep:
        return y, None

    def back(g: np.ndarray) -> np.ndarray:
        dq, dk, dv = attention_bwd(_split(g @ w.wo.T, heads), q, k, v, probs)
        # the order the q, k and v products handed their gradients back
        dt = _merge(dq) @ w.wq.T
        dt += _merge(dk) @ w.wk.T
        dt += _merge(dv) @ w.wv.T
        return layer_norm_bwd(dt, w.ln1_gain, xhat, inv)
    return y, back


def mlp(x: np.ndarray, w: FrozenLayerWeights, keep: bool):
    """The pre-norm position-wise GELU MLP half of a layer (width -> 4*width
    -> width) as a forward kernel like ``mha``: ``x + gelu(t w1 + b1) w2 +
    b2`` for ``t = layer_norm(x)``. Its backward keeps xhat, inv and the
    GELU derivative, which is formed only with ``keep``."""
    t, xhat, inv = layer_norm_fwd(x, w.ln2_gain, w.ln2_shift)
    pre = linear_fwd(t, w.mlp_w1, w.mlp_b1)
    del t
    hidden, d = gelu_fwd(pre, keep)
    y = linear_fwd(hidden, w.mlp_w2, w.mlp_b2)
    y += x
    if not keep:
        return y, None

    def back(g: np.ndarray) -> np.ndarray:
        nonlocal d
        dh = g @ w.mlp_w2.T
        dh *= d
        d = None  # spent: freed before the next product
        dt = dh @ w.mlp_w1.T
        del dh
        return layer_norm_bwd(dt, w.ln2_gain, xhat, inv)
    return y, back


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------


def _row_view(leaf: Tensor, row: int) -> Tensor:
    """A tensor over leading row ``row`` of ``leaf``: its data and gradient
    are views of the leaf's, as they are now. The optimizer rebinds a
    leaf's data, so a view is taken when it is used, never kept. It is not a
    graph operand: it records nothing and needs no gradient."""
    view = Tensor._leaf(leaf.data[row, ...])
    view.grad = None if leaf.grad is None else leaf.grad[row, ...]
    return view


class FreezeRegistry:
    """Every parameter in a model, each exactly once: a frozen one is a
    plain array, a trainable one a tensor. Registering a tensor sets its
    requires_grad.

    A trainable leaf registered with ``register_stack`` holds several
    parameters, one per leading row, each registered by name with
    ``register_row``. So the registry has two views:
    - per parameter: ``items()``, the state hash, the saved entries and
      ``load_arrays`` see one named entry per parameter, in registration
      order, which is the serialization order; a row comes as a view of its
      leaf taken when read;
    - per leaf: ``trainable()`` yields the trainable leaves, whole tensors
      and stacks, which the optimizer and the gradients work on."""

    def __init__(self) -> None:
        # name -> (frozen array or trainable tensor, leading row of the tensor or None)
        self._entries: dict[str, tuple[np.ndarray | Tensor, int | None]] = {}
        self._leaves: dict[str, Tensor] = {}  # trainable leaves by name
        self._stacks: set[int] = set()  # ids of the leaves from register_stack

    def _claim(self, name: str) -> None:
        if name in self._entries or name in self._leaves:
            raise ValueError(f"parameter {name!r} registered twice")

    def register(self, name: str, value: np.ndarray | Tensor) -> np.ndarray | Tensor:
        """Register an array as a frozen parameter, a tensor as a trainable
        one."""
        self._claim(name)
        self._entries[name] = (value, None)
        if isinstance(value, Tensor):
            value.requires_grad = True
            self._leaves[name] = value
        return value

    def register_stack(self, name: str, leaf: Tensor) -> Tensor:
        """Register a trainable leaf whose leading rows are parameters; each
        row is named with ``register_row``."""
        self._claim(name)
        leaf.requires_grad = True
        self._leaves[name] = leaf
        self._stacks.add(id(leaf))
        return leaf

    def register_row(self, name: str, leaf: Tensor, row: int) -> None:
        """Register trainable parameter ``name`` as leading row ``row`` of a
        leaf registered with ``register_stack``."""
        self._claim(name)
        if id(leaf) not in self._stacks or not 0 <= row < leaf.data.shape[0]:
            raise ValueError(f"parameter {name!r}: row {row} of a leaf that register_stack did not register")
        self._entries[name] = (leaf, row)

    def _value(self, name: str) -> tuple[np.ndarray, bool]:
        value, row = self._entries[name]
        if not isinstance(value, Tensor):
            return value, True
        return (value.data if row is None else value.data[row, ...]), False

    def items(self):
        for name, (value, row) in self._entries.items():
            yield name, (value if row is None else _row_view(value, row)), not isinstance(value, Tensor)

    def trainable(self):
        yield from self._leaves.items()

    def zero_grad(self) -> None:
        for leaf in self._leaves.values():
            leaf.grad = None

    def state_hash(self, frozen_only: bool = True) -> str:
        """SHA-256 over (name, shape, payload) of the selected parameters,
        in sorted name order."""
        digest = hashlib.sha256()
        for name in sorted(self._entries):
            value, frozen = self._value(name)
            if frozen_only and not frozen:
                continue
            digest.update(name.encode("utf-8"))
            digest.update(repr(value.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(value).astype("<f8").tobytes())
        return digest.hexdigest()

    def entries_for_save(self):
        for name in self._entries:
            value, frozen = self._value(name)
            yield name, value, frozen

    def load_arrays(self, entries) -> None:
        """Copy values from (name, array, frozen) records into the existing
        arrays; every name must exist with a matching shape and flag. Every
        record is checked before any is copied, so a refused container
        changes nothing."""
        checked = {}  # name -> (model array, container array)
        for rec in entries:
            name, array, frozen = rec.name, rec.array, rec.frozen
            if name not in self._entries:
                raise ValueError(f"container holds unknown parameter {name!r}")
            value, want_frozen = self._value(name)
            if tuple(array.shape) != value.shape:
                raise ShapeError(
                    f"parameter {name!r}: container shape {tuple(array.shape)} does not match model shape {value.shape}"
                )
            if frozen != want_frozen:
                raise ValueError(f"parameter {name!r}: frozen flag mismatch")
            checked[name] = (value, array)
        missing = self._entries.keys() - checked.keys()
        if missing:
            raise ValueError(f"container is missing parameters: {sorted(missing)}")
        # copy into the existing arrays: an optimizer may hold views of them
        for value, array in checked.values():
            np.copyto(value, array)
