"""Full two-stream model: tokenizers, frozen layers, adapter sites, head.

Every parameter draw uses an RNG stream keyed by the parameter's registry
name, so two models built from the same seed agree on every shared component
regardless of which adapter sites exist. That is what lets an adapted model
reproduce its frozen twin exactly at init.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from .autodiff import ACTIVATIONS, Rng, ShapeError, Tensor, _accum, _reduce_to, linear_fwd
from .backbone import (
    FreezeRegistry,
    FrozenLayerWeights,
    InputBatch,
    init_layer_weights,
    patch_embed,
    resize_pos_table,
    spectrogram_embed,
)
from .fusion import MODES, AdapterSites, build_layer_sites, layer_forward
from .serialization import load_tensors, save_tensors

INIT_STD = 0.02


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: anything ``operator.index`` takes,
    numpy integers included, but a bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


# The Python kinds a config field can hold, by the text a refusal gives.
KINDS = {
    "an integer": is_integer,
    "a number": lambda v: is_integer(v) or isinstance(v, (float, np.floating)),
    "a boolean": lambda v: isinstance(v, bool),
}


class FieldError(ValueError):
    """A config value that its class's ``validate`` refuses. ``field`` is the
    attribute's name and the message reads ``"<field> <reason>"``."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field, self.reason = field, reason


def require(field: str, value, kind: str, ok=None, text: str = "") -> None:
    """Raise ``FieldError`` unless ``value`` is of ``kind``, a key of
    ``KINDS``, and, given ``ok``, passes it; ``text`` says what ``ok``
    admits."""
    if not KINDS[kind](value):
        raise FieldError(field, f"must be {kind}, got {value!r}")
    if ok is not None and not ok(value):
        raise FieldError(field, f"must be {text}, got {value!r}")


def require_size(field: str, hw) -> None:
    """Raise ``FieldError`` unless ``hw`` is a grid size: a tuple or list of
    two integers, each >= 1."""
    if not (isinstance(hw, (tuple, list)) and len(hw) == 2 and all(map(is_integer, hw))):
        raise FieldError(field, f"must be two integers, got {hw!r}")
    if min(hw) < 1:
        raise FieldError(field, f"entries must be >= 1, got {hw}")


def require_seed(seed) -> None:
    """Raise ``FieldError`` naming ``seed`` unless it is an integer in
    [0, 2**64), the range every RNG stream is keyed by."""
    require("seed", seed, "an integer", lambda v: 0 <= v < 2**64, "in [0, 2**64)")


@dataclass
class ModelConfig:
    """Shape and wiring of one two-stream model."""

    layers: int = 2
    width: int = 32
    heads: int = 4
    patch: int = 4
    image_hw: tuple[int, int] = (8, 8)
    spec_hw: tuple[int, int] = (8, 8)
    latent_count: int = 2
    ratio: int = 4
    groups: int = 2
    mode: str = "bidirectional"
    use_latents: bool = True
    bottleneck_act: str = "gelu"
    bottleneck_bias: bool = True
    audio_pos: str = "resize"  # "resize" | "none"

    def validate(self) -> None:
        for name in ("layers", "width", "heads", "patch", "latent_count", "ratio", "groups"):
            require(name, getattr(self, name), "an integer", lambda v: v >= 1, ">= 1")
        for name in ("image_hw", "spec_hw"):
            require_size(name, getattr(self, name))
        for name in ("use_latents", "bottleneck_bias"):
            require(name, getattr(self, name), "a boolean")
        for name, allowed in (("mode", MODES), ("audio_pos", ("resize", "none")),
                              ("bottleneck_act", tuple(ACTIVATIONS))):
            if getattr(self, name) not in allowed:
                raise FieldError(name, f"must be one of {allowed}, got {getattr(self, name)!r}")
        if self.width % self.heads:
            raise FieldError("width", f"must divide by heads = {self.heads}, got {self.width}")
        if self.width % (self.ratio * self.groups):
            raise FieldError("width", f"must divide by ratio*groups = {self.ratio * self.groups}, got {self.width}")
        if self.image_hw[0] % self.patch or self.image_hw[1] % self.patch:
            raise FieldError("image_hw", f"must divide by patch {self.patch}, got {self.image_hw}")

    @property
    def visual_grid(self) -> tuple[int, int]:
        return (self.image_hw[0] // self.patch, self.image_hw[1] // self.patch)

    @property
    def audio_grid(self) -> tuple[int, int]:
        m = -(-self.spec_hw[0] // self.patch)
        c = -(-self.spec_hw[1] // self.patch)
        return (m, c)

    @property
    def n_visual_tokens(self) -> int:
        g = self.visual_grid
        return g[0] * g[1]

    @property
    def n_audio_tokens(self) -> int:
        g = self.audio_grid
        return g[0] * g[1]


def event_head(stacks: list[Tensor], weight: Tensor, bias: Tensor) -> Tensor:
    """Mean-pool every row of the final (S, B, N, width) stacks in order,
    which puts the streams in ``STACK_ORDER``, concatenate, and map linearly
    to (B, 2) logits, as one node. The backward hands each stack its
    gradient whole, in one ``_accum``.

    The pooled rows stay (B, 1, 2*width) through the head product, so each
    sample's logits come from the same one-row product as when it is scored
    alone, bit for bit.
    """
    if any(x.data.ndim != 4 for x in stacks):
        raise ShapeError(f"event_head: need (S, B, N, D) stacks, got shapes {[x.data.shape for x in stacks]}")
    cols = sum(x.data.shape[0] * x.data.shape[-1] for x in stacks)
    if weight.data.shape != (cols, 2):
        raise ShapeError(f"event_head: weight shape {weight.data.shape} does not match pooled width {cols}")
    pools = []
    for x in stacks:
        pool = np.add.reduce(x.data, axis=-2, keepdims=True)
        pool /= x.data.shape[-2]
        pools.extend(pool)
    pooled = np.concatenate(pools, axis=-1)
    y = linear_fwd(pooled, weight.data, bias.data)
    out = Tensor._node(y.reshape(y.shape[0], y.shape[-1]), tuple(stacks) + (weight, bias))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            g = g.reshape(y.shape)
            if weight.requires_grad:
                _accum(weight, pooled.reshape(-1, pooled.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            if bias.requires_grad:
                _accum(bias, _reduce_to(g, bias.data.shape))
            if any(x.requires_grad for x in stacks):
                dpooled = g @ weight.data.T
                lo = 0
                for x in stacks:
                    s, b, n, d = x.data.shape
                    if x.requires_grad:
                        # the stack's (B, 1, S*D) columns as (S, B, 1, D), spread over its N rows
                        dx = np.moveaxis(dpooled[..., lo:lo + s * d].reshape(b, 1, s, d), 2, 0) / n
                        _accum(x, np.broadcast_to(dx, x.data.shape).copy())
                    lo += s * d
        out._backward = _bw
    return out


class TwoStreamModel:
    """A frozen backbone shared by both streams, per-layer adapter sites for
    the enabled directions, and a trainable linear event head.

    ``forward`` carries the streams through the layers in stacks, one per
    token count: with equal counts both streams share one stack, so each
    frozen block and each attachment's sites run once for both; otherwise
    each stream has a stack of its own. One layer function serves both, and
    the streams stay stacked up to the head.
    """

    def __init__(self, cfg: ModelConfig, seed: int):
        cfg.validate()
        require_seed(seed)
        self.cfg = cfg
        self.seed = int(seed)
        self.registry = FreezeRegistry()

        width = cfg.width
        patch_dim = cfg.patch * cfg.patch * 3
        self.patch_proj = self.registry.register(
            "backbone.patch_proj",
            Rng.for_name(seed, "backbone.patch_proj").normal((patch_dim, width), std=INIT_STD),
        )
        self.pos_visual = self.registry.register(
            "backbone.pos_visual",
            Rng.for_name(seed, "backbone.pos_visual").normal((cfg.n_visual_tokens, width), std=INIT_STD),
        )

        self.layers: list[FrozenLayerWeights] = []
        for i in range(cfg.layers):
            w = init_layer_weights(width, cfg.heads, seed, f"backbone.layer{i}")
            self.layers.append(w)
            for part in fields(FrozenLayerWeights):
                if part.name != "heads":
                    self.registry.register(f"backbone.layer{i}.{part.name}", getattr(w, part.name))

        # one {attachment: stacked sites} dict per layer; registered after
        # every frozen layer, which fixes the weight container's order
        self.sites: list[dict[str, AdapterSites]] = [
            build_layer_sites(
                i, width, cfg.latent_count, cfg.ratio, cfg.groups, seed, cfg.mode,
                use_latents=cfg.use_latents, act=cfg.bottleneck_act, bias=cfg.bottleneck_bias,
                registry=self.registry,
            )
            for i in range(cfg.layers)
        ]

        self.head_weight = self.registry.register(
            "head.weight", Tensor(Rng.for_name(seed, "head.weight").normal((2 * width, 2), std=INIT_STD)))
        self.head_bias = self.registry.register("head.bias", Tensor(np.zeros(2)))

        self._resize_audio_pos()

    def _resize_audio_pos(self) -> None:
        """Derive the audio positional table from ``pos_visual``; rerun
        whenever ``pos_visual`` changes."""
        cfg = self.cfg
        self._pos_audio = (
            resize_pos_table(self.pos_visual, cfg.visual_grid, cfg.audio_grid) if cfg.audio_pos == "resize" else None
        )

    # -- forward ------------------------------------------------------------

    def tokenize(self, batch: InputBatch) -> tuple[np.ndarray, np.ndarray]:
        """The (audio, visual) tokens, in ``STACK_ORDER``, of a non-empty
        batch, each a (B, N, width) array from the frozen stem."""
        cfg, images, specs = self.cfg, batch.images, batch.specs
        if not len(images):
            raise ShapeError("tokenize: need a non-empty batch")
        if images.shape[1:3] != tuple(cfg.image_hw):
            raise ShapeError(f"image shape {images.shape[1:3]} does not match config {cfg.image_hw}")
        time, freq = specs.shape[1:]
        if (-(-time // cfg.patch), -(-freq // cfg.patch)) != cfg.audio_grid:
            raise ShapeError(f"spectrogram shape {specs.shape[1:]} does not match config {cfg.spec_hw}")
        xv = patch_embed(images, cfg.patch, self.patch_proj, self.pos_visual)
        xa = spectrogram_embed(specs, cfg.patch, self.patch_proj, self._pos_audio)
        return xa, xv

    def forward(self, batch: InputBatch) -> list[Tensor]:
        """The stacks after the last layer of ``batch``: one (2, B, N,
        width) stack of both streams when their token counts match, else a
        one-row stack per stream; rows in ``STACK_ORDER``."""
        xa, xv = self.tokenize(batch)
        # the tokens need no gradient, so each stack is a leaf made by one copy
        stacks = [Tensor([xa, xv])] if xa.shape == xv.shape else [Tensor([xa]), Tensor([xv])]
        del xa, xv  # copied into the stacks
        for w, sites in zip(self.layers, self.sites):
            stacks = layer_forward(stacks, w, sites)
        return stacks

    def logits(self, batch: InputBatch) -> Tensor:
        """(B, 2) logits of ``batch`` from one batched forward; row i equals
        the logits of ``batch[i:i + 1]`` bit for bit."""
        return event_head(self.forward(batch), self.head_weight, self.head_bias)

    # -- persistence --------------------------------------------------------

    def save_weights(self, base) -> None:
        save_tensors(base, self.registry.entries_for_save(), extra={"seed": self.seed})

    def load_weights(self, base) -> None:
        entries, _extra = load_tensors(base)
        self.registry.load_arrays(entries)
        self._resize_audio_pos()

    def frozen_hash(self) -> str:
        return self.registry.state_hash(frozen_only=True)


def frozen_twin(cfg: ModelConfig, seed: int) -> TwoStreamModel:
    """The same model with every adapter site removed (mode 'none')."""
    return TwoStreamModel(replace(cfg, mode="none"), seed)
