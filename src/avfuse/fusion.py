"""Trainable cross-modal adapter sites for the frozen backbone.

The mechanism: a small set of trainable latent tokens per site first absorbs
the other stream via gated cross-attention (compression), then the target
stream cross-attends to that summary (fusion), and the result passes through
a grouped down/up bottleneck whose up-projection starts at zero. The zero
up-projection alone makes every site an exact no-op at init, so an adapted
model reproduces the frozen one until training moves something. The gates
start open (1.0): closed gates would hide the cross-modal path behind a
product of zero-initialized factors that gradient descent opens only very
slowly, while the up-projection already guarantees the no-op.

Setting ``use_latents=False`` on a site keeps the same bottleneck but lets
the target attend to the other stream's tokens directly; that is the
quadratic-cost variant the ablations compare against.

Token sets may carry a leading batch axis; latent tokens never do, and serve
every sample of a batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Rng,
    ShapeError,
    Tensor,
    add,
    attention,
    grouped_linear,
    mul,
)
from .backbone import (
    AUDIO,
    VISUAL,
    FreezeRegistry,
    FrozenLayerWeights,
    TokenSet,
    _activation,
    mha,
    mlp,
)

MODES = ("none", "a2v", "v2a", "bidirectional")
DIRECTIONS = ("a2v", "v2a")
ATTACHMENTS = ("mha", "mlp")

LATENT_INIT_STD = 0.02

# Identity at init rests on the zero up-projection; open gates keep the
# cross-modal path trainable from step one.
GATE_INIT = 1.0


def direction_enables(mode: str, direction: str) -> bool:
    if mode not in MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown fusion direction {direction!r}")
    return mode == "bidirectional" or mode == direction


# ---------------------------------------------------------------------------
# gated cross-attention
# ---------------------------------------------------------------------------


def cma(query: Tensor, key: Tensor, value: Tensor, gate: Tensor) -> Tensor:
    """Gated single-head cross-attention with a residual on the query side:

        out = query + gate * softmax(query key^T / sqrt(width)) value

    The gate is a trainable scalar; at gate == 0 the op returns the query
    exactly. There are no key/value projections. Operands are 2-D or
    batched; a 2-D query (latent tokens) serves every sample of a batched
    key/value.
    """
    if query.ndim not in (2, 3) or key.ndim not in (2, 3) or value.ndim not in (2, 3):
        raise ShapeError(
            f"cma: need 2-D or batched operands, got shapes {query.shape}, {key.shape}, {value.shape}"
        )
    if query.shape[-1] != key.shape[-1]:
        raise ShapeError(f"cma: query width {query.shape} does not match key width {key.shape}")
    if key.shape[:-1] != value.shape[:-1]:
        raise ShapeError(f"cma: key rows {key.shape} do not match value rows {value.shape}")
    if gate.shape != ():
        raise ShapeError(f"cma: gate must be a scalar, got shape {gate.shape}")
    attended = attention(query, key, value, 1)
    return add(query, mul(attended, gate))


def compress_to_latents(latents: Tensor, source: TokenSet, gate: Tensor) -> Tensor:
    """Summarize a token set into the (m, width) latent slots via gated
    cross-attention. Output has one row per latent regardless of source
    length."""
    return cma(latents, source.tokens, source.tokens, gate)


def fuse_with_latents(target: TokenSet, summary: Tensor, gate: Tensor) -> Tensor:
    """Let the target tokens attend to a compressed summary; row count and
    width of the target are preserved."""
    return cma(target.tokens, summary, summary, gate)


# ---------------------------------------------------------------------------
# grouped bottleneck
# ---------------------------------------------------------------------------


@dataclass
class BottleneckParams:
    """Grouped down/up projection pair around an activation.

    down_w: (groups, width/groups, narrow/groups), up_w mirrors it back.
    The up projection (and both biases) start at zero, which pins the whole
    bottleneck output to zero at init.
    """

    down_w: Tensor
    up_w: Tensor
    act: str = "gelu"
    down_b: Tensor | None = None
    up_b: Tensor | None = None

    @property
    def groups(self) -> int:
        return self.down_w.shape[0]

    @property
    def width(self) -> int:
        return self.down_w.shape[0] * self.down_w.shape[1]

    @property
    def narrow(self) -> int:
        return self.down_w.shape[0] * self.down_w.shape[2]


def init_bottleneck(
    width: int,
    ratio: int,
    groups: int,
    seed: int,
    name: str,
    act: str = "gelu",
    bias: bool = True,
) -> BottleneckParams:
    """Build bottleneck weights: the down projection draws a fan-in-scaled
    Gaussian (std 1/sqrt(width/groups), so its outputs match its inputs in
    scale), the up projection and biases are zero. Width must divide by
    ratio*groups so both projections split into equal blocks."""
    if ratio < 1 or groups < 1:
        raise ValueError(f"init_bottleneck: ratio and groups must be >= 1, got {ratio}, {groups}")
    if width % (ratio * groups):
        raise ShapeError(
            f"init_bottleneck: width {width} is not divisible by ratio*groups = {ratio * groups}"
        )
    narrow = width // ratio
    down = Rng.for_name(seed, f"{name}.down_w").normal(
        (groups, width // groups, narrow // groups), std=1.0 / np.sqrt(width // groups)
    )
    up = np.zeros((groups, narrow // groups, width // groups))
    return BottleneckParams(
        down_w=Tensor(down),
        up_w=Tensor(up),
        act=act,
        down_b=Tensor(np.zeros(narrow)) if bias else None,
        up_b=Tensor(np.zeros(width)) if bias else None,
    )


def bottleneck(x: Tensor, params: BottleneckParams) -> Tensor:
    """Apply up(act(down(x))). Shape is preserved."""
    if x.ndim not in (2, 3) or x.shape[-1] != params.width:
        raise ShapeError(f"bottleneck: input shape {x.shape} does not match width {params.width}")
    act = _activation(params.act)
    narrow = act(grouped_linear(x, params.down_w, params.down_b))
    return grouped_linear(narrow, params.up_w, params.up_b)


# ---------------------------------------------------------------------------
# adapter sites
# ---------------------------------------------------------------------------


@dataclass
class AdapterSite:
    """One injection point: a direction (audio->visual or visual->audio),
    an attachment (beside the attention or the MLP sub-step), its own
    (m, width) latent slots and gates, and a grouped bottleneck. No state is
    shared with any other site."""

    direction: str
    attachment: str
    layer: int
    use_latents: bool
    latents: Tensor | None
    gate_compress: Tensor | None
    gate_fuse: Tensor
    neck: BottleneckParams

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"AdapterSite: unknown direction {self.direction!r}")
        if self.attachment not in ATTACHMENTS:
            raise ValueError(f"AdapterSite: unknown attachment {self.attachment!r}")
        if self.use_latents and (self.latents is None or self.gate_compress is None):
            raise ValueError("AdapterSite: latent sites need latent tokens and a compression gate")

    @property
    def source_modality(self) -> str:
        return AUDIO if self.direction == "a2v" else VISUAL

    @property
    def target_modality(self) -> str:
        return VISUAL if self.direction == "a2v" else AUDIO


def build_site(
    direction: str,
    attachment: str,
    layer: int,
    width: int,
    latent_count: int,
    ratio: int,
    groups: int,
    seed: int,
    use_latents: bool = True,
    act: str = "gelu",
    bias: bool = True,
    registry: FreezeRegistry | None = None,
) -> AdapterSite:
    """Construct one site and (optionally) register its parameters as
    trainable under ``adapter.layer<i>.<direction>_<attachment>.*``."""
    if latent_count < 1:
        raise ValueError(f"build_site: latent count must be >= 1, got {latent_count}")
    base = f"adapter.layer{layer}.{direction}_{attachment}"
    latents = None
    gate_compress = None
    if use_latents:
        latents = Tensor(Rng.for_name(seed, f"{base}.latents").normal((latent_count, width), std=LATENT_INIT_STD))
        gate_compress = Tensor(np.full((), GATE_INIT))
    gate_fuse = Tensor(np.full((), GATE_INIT))
    neck = init_bottleneck(width, ratio, groups, seed, base, act=act, bias=bias)
    site = AdapterSite(
        direction=direction,
        attachment=attachment,
        layer=layer,
        use_latents=use_latents,
        latents=latents,
        gate_compress=gate_compress,
        gate_fuse=gate_fuse,
        neck=neck,
    )
    if registry is not None:
        if use_latents:
            registry.register(f"{base}.latents", latents, frozen=False)
            registry.register(f"{base}.gate_compress", gate_compress, frozen=False)
        registry.register(f"{base}.gate_fuse", gate_fuse, frozen=False)
        registry.register(f"{base}.down_w", neck.down_w, frozen=False)
        registry.register(f"{base}.up_w", neck.up_w, frozen=False)
        if neck.down_b is not None:
            registry.register(f"{base}.down_b", neck.down_b, frozen=False)
        if neck.up_b is not None:
            registry.register(f"{base}.up_b", neck.up_b, frozen=False)
    return site


def adapter_forward(source: TokenSet, target: TokenSet, site: AdapterSite) -> Tensor:
    """The additive cross-modal term injected next to one frozen sub-step.

    Latent sites run compress -> fuse -> bottleneck; direct sites attend to
    the source tokens themselves before the same bottleneck. The result has
    the target's shape and is exactly zero while the up projection is zero.
    """
    if source.modality != site.source_modality or target.modality != site.target_modality:
        raise ValueError(
            f"adapter_forward: site {site.direction!r} cannot take source={source.modality!r}, "
            f"target={target.modality!r}"
        )
    if source.width != target.width:
        raise ShapeError(f"adapter_forward: stream widths differ: {source.width} vs {target.width}")
    if site.use_latents:
        summary = compress_to_latents(site.latents, source, site.gate_compress)
        fused = fuse_with_latents(target, summary, site.gate_fuse)
    else:
        fused = cma(target.tokens, source.tokens, source.tokens, site.gate_fuse)
    return bottleneck(fused, site.neck)


@dataclass
class LayerSites:
    """The four per-layer injection points. Entries stay None when the run
    mode never exercises that direction."""

    a2v_mha: AdapterSite | None = None
    a2v_mlp: AdapterSite | None = None
    v2a_mha: AdapterSite | None = None
    v2a_mlp: AdapterSite | None = None

    def all_sites(self) -> list[AdapterSite]:
        return [s for s in (self.a2v_mha, self.a2v_mlp, self.v2a_mha, self.v2a_mlp) if s is not None]


def build_layer_sites(
    layer: int,
    width: int,
    latent_count: int,
    ratio: int,
    groups: int,
    seed: int,
    mode: str,
    use_latents: bool = True,
    act: str = "gelu",
    bias: bool = True,
    registry: FreezeRegistry | None = None,
) -> LayerSites:
    sites = LayerSites()
    for direction in DIRECTIONS:
        if not direction_enables(mode, direction):
            continue
        for attachment in ATTACHMENTS:
            site = build_site(
                direction,
                attachment,
                layer,
                width,
                latent_count,
                ratio,
                groups,
                seed,
                use_latents=use_latents,
                act=act,
                bias=bias,
                registry=registry,
            )
            setattr(sites, f"{direction}_{attachment}", site)
    return sites


def dual_layer_forward(
    xa: TokenSet,
    xv: TokenSet,
    w: FrozenLayerWeights,
    sites: LayerSites,
    mode: str,
) -> tuple[TokenSet, TokenSet]:
    """Advance both streams one layer with cross-modal terms injected beside
    the attention and MLP sub-steps.

    Both attention-side adapter terms read the pre-update states, and both
    MLP-side terms read the post-attention intermediates, before either
    stream moves on; neither stream ever sees the other's half-updated state.
    """
    if mode not in MODES:
        raise ValueError(f"dual_layer_forward: unknown mode {mode!r}")
    if xa.layer != xv.layer:
        raise ValueError(f"dual_layer_forward: layer mismatch: audio at {xa.layer}, visual at {xv.layer}")
    if xa.modality != AUDIO or xv.modality != VISUAL:
        raise ValueError("dual_layer_forward: arguments must be (audio, visual) token sets")
    a2v = direction_enables(mode, "a2v")
    v2a = direction_enables(mode, "v2a")
    if a2v and (sites.a2v_mha is None or sites.a2v_mlp is None):
        raise ValueError(f"dual_layer_forward: mode {mode!r} needs a2v sites")
    if v2a and (sites.v2a_mha is None or sites.v2a_mlp is None):
        raise ValueError(f"dual_layer_forward: mode {mode!r} needs v2a sites")

    cross_v = adapter_forward(xa, xv, sites.a2v_mha) if a2v else None
    cross_a = adapter_forward(xv, xa, sites.v2a_mha) if v2a else None
    ya = add(xa.tokens, mha(xa, w))
    yv = add(xv.tokens, mha(xv, w))
    if cross_a is not None:
        ya = add(ya, cross_a)
    if cross_v is not None:
        yv = add(yv, cross_v)
    mid_a = TokenSet(AUDIO, ya, xa.layer)
    mid_v = TokenSet(VISUAL, yv, xv.layer)

    cross_v2 = adapter_forward(mid_a, mid_v, sites.a2v_mlp) if a2v else None
    cross_a2 = adapter_forward(mid_v, mid_a, sites.v2a_mlp) if v2a else None
    za = add(ya, mlp(mid_a, w))
    zv = add(yv, mlp(mid_v, w))
    if cross_a2 is not None:
        za = add(za, cross_a2)
    if cross_v2 is not None:
        zv = add(zv, cross_v2)
    return TokenSet(AUDIO, za, xa.layer + 1), TokenSet(VISUAL, zv, xv.layer + 1)
