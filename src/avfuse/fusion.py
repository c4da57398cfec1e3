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

A site built with ``use_latents=False`` has no latents and keeps the same
bottleneck, but lets the target attend to the other stream's tokens
directly; that is the quadratic-cost variant the ablations compare against.

A fusion mode names the directions that get adapters in every layer; each
layer holds its sites in a dict keyed ``<direction>_<attachment>``, with an
entry only for the enabled ones.

Token tensors may carry a leading batch axis; latent tokens never do, and
serve every sample of a batch. Through the layers the streams travel in
stacks, ``(S, B, N, D)`` tensors, one per token count, and ``layer_forward``
runs the sites of one attachment that read one stack and write one stack as
one call over a leading direction axis: each parameter is a ``Slots`` of the
sites' tensors, and the tokens are ``Slots`` of rows of the stacks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ACTIVATIONS,
    Rng,
    ShapeError,
    Slots,
    Tensor,
    gated_attention,
    grouped_bottleneck,
)
from .backbone import AUDIO, STACK_ORDER, VISUAL, FreezeRegistry, FrozenLayerWeights, mha, mlp

MODE_DIRECTIONS = {"none": (), "a2v": ("a2v",), "v2a": ("v2a",), "bidirectional": ("a2v", "v2a")}
MODES = tuple(MODE_DIRECTIONS)
DIRECTIONS = ("a2v", "v2a")
ATTACHMENTS = ("mha", "mlp")

LATENT_INIT_STD = 0.02

# Identity at init rests on the zero up-projection; open gates keep the
# cross-modal path trainable from step one.
GATE_INIT = 1.0


# ---------------------------------------------------------------------------
# gated cross-attention
# ---------------------------------------------------------------------------


def _stacked(*operands) -> bool:
    """Whether a call runs Slots over a direction axis, so that every shape
    check reads one direction's shape, ``shape[1:]``."""
    return any(isinstance(x, Slots) for x in operands)


def cma(query, key, value, gate):
    """Gated single-head cross-attention with a residual on the query side:

        out = query + gate * softmax(query key^T / sqrt(width)) value

    The gate is a trainable scalar; at gate == 0 the op returns the query
    exactly. There are no key/value projections. Operands are 2-D or
    batched; a 2-D query (latent tokens) serves every sample of a batched
    key/value. The whole expression is one tape node. Operands may also be
    Slots over a leading direction axis (``autodiff.gated_attention``), and
    each direction then follows these rules.
    """
    stacked = _stacked(query, key, value, gate)
    q, k, v, g = (x.shape[stacked:] for x in (query, key, value, gate))
    if len(q) not in (2, 3) or len(k) not in (2, 3) or len(v) not in (2, 3):
        raise ShapeError(f"cma: need 2-D or batched operands, got shapes {q}, {k}, {v}")
    if q[-1] != k[-1]:
        raise ShapeError(f"cma: query width {q} does not match key width {k}")
    if k[:-1] != v[:-1]:
        raise ShapeError(f"cma: key rows {k} do not match value rows {v}")
    if len(q) == len(k) == 3 and q[0] != k[0]:
        raise ShapeError(f"cma: query batch {q} does not match key batch {k}")
    if g != ():
        raise ShapeError(f"cma: gate must be a scalar, got shape {g}")
    if stacked and len({x.shape[0] for x in (query, key, value, gate)}) != 1:
        raise ShapeError("cma: operands disagree on the number of directions")
    return gated_attention(query, key, value, gate)


def compress_to_latents(latents, source, gate) -> Tensor:
    """Summarize source tokens into the (m, width) latent slots via gated
    cross-attention. Output has one row per latent regardless of source
    length."""
    return cma(latents, source, source, gate)


def fuse_with_latents(target, summary: Tensor, gate) -> Tensor:
    """Let the target tokens attend to a compressed summary; row count and
    width of the target are preserved."""
    return cma(target, summary, summary, gate)


# ---------------------------------------------------------------------------
# grouped bottleneck
# ---------------------------------------------------------------------------


@dataclass
class BottleneckParams:
    """Grouped down/up projection pair around an activation.

    down_w: (groups, width/groups, narrow/groups), up_w mirrors it back.
    The up projection (and both biases) start at zero, which pins the whole
    bottleneck output to zero at init. A stacked call holds Slots, whose
    shapes lead with the direction axis.
    """

    down_w: Tensor | Slots
    up_w: Tensor | Slots
    act: str = "gelu"
    down_b: Tensor | Slots | None = None
    up_b: Tensor | Slots | None = None

    @property
    def width(self) -> int:
        return self.down_w.shape[-3] * self.down_w.shape[-2]


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
    """Apply up(act(down(x))) as one tape node. Shape is preserved. With
    stacked parameters, ``x`` carries the direction axis too."""
    if x.ndim - _stacked(params.down_w) not in (2, 3) or x.shape[-1] != params.width:
        raise ShapeError(f"bottleneck: input shape {x.shape} does not match width {params.width}")
    if params.act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {params.act!r}")
    return grouped_bottleneck(x, params.down_w, params.down_b, params.up_w, params.up_b, params.act)


# ---------------------------------------------------------------------------
# adapter sites
# ---------------------------------------------------------------------------


@dataclass
class AdapterSite:
    """One injection point: a direction (audio->visual or visual->audio),
    its own (m, width) latent slots and gates (none for a direct site), and
    a grouped bottleneck. No state is shared with any other site."""

    direction: str
    latents: Tensor | None
    gate_compress: Tensor | None
    gate_fuse: Tensor
    neck: BottleneckParams

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"AdapterSite: unknown direction {self.direction!r}")
        if (self.latents is None) != (self.gate_compress is None):
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
    if attachment not in ATTACHMENTS:
        raise ValueError(f"build_site: unknown attachment {attachment!r}")
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
    site = AdapterSite(direction, latents, gate_compress, gate_fuse, neck)
    if registry is not None:
        for part, tensor in (
            ("latents", latents),
            ("gate_compress", gate_compress),
            ("gate_fuse", gate_fuse),
            ("down_w", neck.down_w),
            ("up_w", neck.up_w),
            ("down_b", neck.down_b),
            ("up_b", neck.up_b),
        ):
            if tensor is not None:
                registry.register(f"{base}.{part}", tensor, frozen=False)
    return site


def adapter_forward(source, target, sites: list[AdapterSite]) -> Tensor:
    """The additive cross-modal term injected next to one frozen sub-step.

    Latent sites run compress -> fuse -> bottleneck; direct sites attend to
    the source tokens themselves before the same bottleneck. The result has
    the target's shape and is exactly zero while the up projection is zero.
    ``source`` and ``target`` are Slots of token rows, one slot per site of
    ``sites``; each parameter is stacked over the sites in that order.
    """
    if not source.shape[0] == target.shape[0] == len(sites):
        raise ShapeError("adapter_forward: source, target and sites disagree on the number of directions")

    def stacked(owners, part: str) -> Slots | None:
        tensors = [getattr(o, part) for o in owners]
        return None if tensors[0] is None else Slots.stack(tensors)

    necks = [s.neck for s in sites]
    neck = BottleneckParams(act=necks[0].act, **{p: stacked(necks, p) for p in ("down_w", "up_w", "down_b", "up_b")})
    gate_fuse = stacked(sites, "gate_fuse")
    if sites[0].latents is not None:
        summary = compress_to_latents(stacked(sites, "latents"), source, stacked(sites, "gate_compress"))
        fused = fuse_with_latents(target, summary, gate_fuse)
    else:
        fused = cma(target, source, source, gate_fuse)
    return bottleneck(fused, neck)


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
) -> dict[str, AdapterSite]:
    """One layer's sites for ``mode``, keyed ``<direction>_<attachment>``:
    both attachments of every direction the mode enables, and no others."""
    if mode not in MODE_DIRECTIONS:
        raise ValueError(f"unknown fusion mode {mode!r}")
    return {
        f"{direction}_{attachment}": build_site(
            direction, attachment, layer, width, latent_count, ratio, groups, seed,
            use_latents=use_latents, act=act, bias=bias, registry=registry,
        )
        for direction in MODE_DIRECTIONS[mode]
        for attachment in ATTACHMENTS
    }


def layer_forward(
    stacks: list[Tensor], where: dict[str, tuple[int, int]], w: FrozenLayerWeights, sites: dict[str, AdapterSite]
) -> list[Tensor]:
    """Advance both streams one layer with cross-modal terms injected beside
    the attention and MLP sub-steps: one term for each site in ``sites``.

    The streams travel in stacks: each is an ``(S, B, N, D)`` tensor (or
    ``(S, N, D)`` for one sample) of the S streams that share a token count,
    in ``STACK_ORDER``, and ``where`` maps each modality to its (stack, row),
    one for every row. Each frozen block runs once per stack. At
    one attachment, the sites whose sources share a stack and whose targets
    share a stack run as one ``adapter_forward`` call over rows of those
    stacks. Each stack's half step is then one frozen block node, which adds
    its input and, if the stack is a target, the term into the target rows.
    Both attention-side terms read the pre-update states, and both MLP-side
    terms read the post-attention ones; neither stream ever sees the other's
    half-updated state.
    """
    # an unstacked (B, N, D) batch would have its batch axis read as streams
    if (set(where) != set(STACK_ORDER) or any(x.ndim not in (3, 4) for x in stacks)
            or sorted(where.values()) != [(s, i) for s, x in enumerate(stacks) for i in range(x.shape[0])]):
        raise ValueError(
            f"layer_forward: need (S, [B,] N, D) stacks whose rows are one (stack, row) per modality, "
            f"got shapes {[x.shape for x in stacks]} and {where}"
        )

    def half(xs: list[Tensor], block, attachment: str) -> list[Tensor]:
        groups: dict[tuple[int, int], list[AdapterSite]] = {}
        present = (s for s in (sites.get(f"{d}_{attachment}") for d in DIRECTIONS) if s is not None)
        for site in sorted(present, key=lambda s: where[s.target_modality]):
            groups.setdefault((where[site.source_modality][0], where[site.target_modality][0]), []).append(site)
        # each stack is the target of one group at most
        terms = {}
        for (src, dst), group in groups.items():
            rows = [where[s.target_modality][1] for s in group]
            source = Slots.rows(xs[src], [where[s.source_modality][1] for s in group])
            terms[dst] = (adapter_forward(source, Slots.rows(xs[dst], rows), group), rows)
        return [block(x, w, *terms.get(i, ())) for i, x in enumerate(xs)]

    return half(half(stacks, mha, "mha"), mlp, "mlp")
