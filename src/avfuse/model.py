"""Full two-stream model: tokenizers, frozen layers, adapter sites, head.

Every parameter draw uses an RNG stream keyed by the parameter's registry
name, so two models built from the same seed agree on every shared component
regardless of which adapter sites exist. That is what lets an adapted model
reproduce its frozen twin exactly at init.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Rng, ShapeError, Tensor, concat_cols, matmul, mean_rows, reshape
from .backbone import (
    ACTIVATIONS,
    FreezeRegistry,
    FrozenLayerWeights,
    ImageInput,
    SpectrogramInput,
    TokenSet,
    init_layer_weights,
    patch_embed,
    resize_pos_table,
    spectrogram_embed,
)
from .fusion import MODES, LayerSites, build_layer_sites, dual_layer_forward
from .serialization import load_tensors, save_tensors

INIT_STD = 0.02


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
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.width < 1 or self.width % self.heads:
            raise ValueError(f"heads {self.heads} must divide width {self.width}")
        if self.patch < 1:
            raise ValueError(f"patch must be >= 1, got {self.patch}")
        for name in ("image_hw", "spec_hw"):
            if min(getattr(self, name)) < 1:
                raise ValueError(f"{name} entries must be >= 1, got {getattr(self, name)}")
        if self.image_hw[0] % self.patch or self.image_hw[1] % self.patch:
            raise ValueError(f"image size {self.image_hw} must divide by patch {self.patch}")
        if self.latent_count < 1:
            raise ValueError(f"latent_count must be >= 1, got {self.latent_count}")
        if self.ratio < 1 or self.groups < 1 or self.width % (self.ratio * self.groups):
            raise ValueError(
                f"width {self.width} must divide by ratio*groups = {self.ratio * self.groups}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.audio_pos not in ("resize", "none"):
            raise ValueError(f"audio_pos must be 'resize' or 'none', got {self.audio_pos!r}")
        if self.bottleneck_act not in ACTIVATIONS:
            raise ValueError(f"bottleneck_act must be one of {tuple(ACTIVATIONS)}, got {self.bottleneck_act!r}")

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


def event_head(xa: TokenSet, xv: TokenSet, weight: Tensor, bias: Tensor) -> Tensor:
    """Mean-pool each stream of a (B, N, width) batch, concatenate, and map
    linearly to (B, 2) logits.

    The pooled rows stay (B, 1, 2*width) through the head matmul, so each
    sample's logits come from the same one-row product as when it is scored
    alone, bit for bit.
    """
    if xa.width != xv.width:
        raise ShapeError(f"event_head: stream widths differ: {xa.width} vs {xv.width}")
    pooled = concat_cols([mean_rows(xa.tokens), mean_rows(xv.tokens)])
    if weight.shape != (2 * xa.width, 2):
        raise ShapeError(f"event_head: weight shape {weight.shape} does not match pooled width {2 * xa.width}")
    logits = matmul(pooled, weight, bias)
    return reshape(logits, (logits.shape[0], 2))


class TwoStreamModel:
    """A frozen backbone shared by both streams, per-layer adapter sites for
    the enabled directions, and a trainable linear event head."""

    def __init__(self, cfg: ModelConfig, seed: int):
        cfg.validate()
        self.cfg = cfg
        self.seed = int(seed)
        self.registry = FreezeRegistry()

        width = cfg.width
        patch_dim = cfg.patch * cfg.patch * 3
        self.patch_proj = self.registry.register(
            "backbone.patch_proj",
            Tensor(Rng.for_name(seed, "backbone.patch_proj").normal((patch_dim, width), std=INIT_STD)),
            frozen=True,
        )
        self.pos_visual = self.registry.register(
            "backbone.pos_visual",
            Tensor(Rng.for_name(seed, "backbone.pos_visual").normal((cfg.n_visual_tokens, width), std=INIT_STD)),
            frozen=True,
        )

        self.layers: list[FrozenLayerWeights] = []
        for i in range(cfg.layers):
            w = init_layer_weights(width, cfg.heads, seed, f"backbone.layer{i}")
            self.layers.append(w)
            base = f"backbone.layer{i}"
            for part, tensor in (
                ("ln1_gain", w.ln1_gain),
                ("ln1_shift", w.ln1_shift),
                ("wq", w.wq),
                ("wk", w.wk),
                ("wv", w.wv),
                ("wo", w.wo),
                ("ln2_gain", w.ln2_gain),
                ("ln2_shift", w.ln2_shift),
                ("mlp_w1", w.mlp_w1),
                ("mlp_b1", w.mlp_b1),
                ("mlp_w2", w.mlp_w2),
                ("mlp_b2", w.mlp_b2),
            ):
                self.registry.register(f"{base}.{part}", tensor, frozen=True)

        self.sites: list[LayerSites] = []
        for i in range(cfg.layers):
            self.sites.append(
                build_layer_sites(
                    i,
                    width,
                    cfg.latent_count,
                    cfg.ratio,
                    cfg.groups,
                    seed,
                    cfg.mode,
                    use_latents=cfg.use_latents,
                    act=cfg.bottleneck_act,
                    bias=cfg.bottleneck_bias,
                    registry=self.registry,
                )
            )

        self.head_weight = self.registry.register(
            "head.weight",
            Tensor(Rng.for_name(seed, "head.weight").normal((2 * width, 2), std=INIT_STD)),
            frozen=False,
        )
        self.head_bias = self.registry.register("head.bias", Tensor(np.zeros(2)), frozen=False)

        if cfg.audio_pos == "resize":
            self._pos_audio = Tensor(
                resize_pos_table(self.pos_visual.data, cfg.visual_grid, cfg.audio_grid)
            )
        else:
            self._pos_audio = None

    # -- forward ------------------------------------------------------------

    def tokenize(self, images: list[ImageInput], specs: list[SpectrogramInput]) -> tuple[TokenSet, TokenSet]:
        """Token sets of equal-length lists of images and spectrograms as one
        (B, N, width) batch."""
        cfg = self.cfg
        if len(images) != len(specs) or not images:
            raise ShapeError(f"tokenize: need equal non-empty input lists, got {len(images)} and {len(specs)}")
        for img in images:
            if img.pixels.shape[:2] != tuple(cfg.image_hw):
                raise ShapeError(f"image shape {img.pixels.shape[:2]} does not match config {cfg.image_hw}")
        for sp in specs:
            if tuple(-(-n // cfg.patch) for n in sp.values.shape) != cfg.audio_grid:
                raise ShapeError(f"spectrogram shape {sp.values.shape} does not match config {cfg.spec_hw}")
        xv = patch_embed(images, cfg.patch, self.patch_proj, self.pos_visual)
        xa = spectrogram_embed(specs, cfg.patch, self.patch_proj, self._pos_audio)
        return xa, xv

    def forward(self, images: list[ImageInput], specs: list[SpectrogramInput]) -> tuple[TokenSet, TokenSet]:
        """Both streams after the last layer; inputs as in ``tokenize``."""
        xa, xv = self.tokenize(images, specs)
        for w, sites in zip(self.layers, self.sites):
            xa, xv = dual_layer_forward(xa, xv, w, sites, self.cfg.mode)
        return xa, xv

    def logits(self, image: ImageInput, spec: SpectrogramInput) -> Tensor:
        """(1, 2) logits of one sample: a batch of one."""
        return self.logits_batch([(image, spec)])

    def logits_batch(self, pairs) -> Tensor:
        """(B, 2) logits of a list of (image, spectrogram) pairs from one
        batched forward; row i equals ``logits(*pairs[i])`` bit for bit."""
        xa, xv = self.forward([img for img, _ in pairs], [spec for _, spec in pairs])
        return event_head(xa, xv, self.head_weight, self.head_bias)

    # -- persistence --------------------------------------------------------

    def save_weights(self, base) -> None:
        save_tensors(base, self.registry.entries_for_save(), extra={"seed": self.seed})

    def load_weights(self, base) -> None:
        entries, _extra = load_tensors(base)
        self.registry.load_arrays(entries)

    def frozen_hash(self) -> str:
        return self.registry.state_hash(frozen_only=True)


def frozen_twin(cfg: ModelConfig, seed: int) -> TwoStreamModel:
    """The same model with every adapter site removed (mode 'none')."""
    return TwoStreamModel(replace(cfg, mode="none"), seed)
