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

A fusion mode names the directions that get adapters in every layer. The
sites of one layer attachment keep their parameters stacked: each part
(``latents``, ``gate_compress``, ``gate_fuse``, ``down_w``, ``up_w``,
``down_b``, ``up_b``) is one trainable leaf with a leading direction axis in
target-row order (``SLOT_ORDER``: ``v2a``, whose target is the audio stream,
then ``a2v``), holding only the directions the mode enables. Each slot is
drawn from its own site's RNG stream, and the registry names each slot
``adapter.layer<i>.<direction>_<attachment>.<part>``, as if the site owned
it alone.

Latent tokens serve every sample of a batch. The streams travel in stacks,
``(S, B, N, D)`` tensors whose rows in order are the streams in
``STACK_ORDER``: one stack of both streams, whose sites run in both
directions, each row reading the other, or a one-row stack per stream,
whose sites run in any directions. ``layer_forward`` records one tape node
per layer half per stack, which runs the frozen block (``mha`` or ``mlp``)
and the sites whose targets lie in the stack (``adapter_forward``: compress,
fuse, bottleneck) as forward kernels on the stack, a view of the source
rows and views of the stacked leaves. Every part is a trainable leaf, so the
kernels always form its gradient and flag only the token operands that want
one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    ACTIVATIONS,
    Rng,
    ShapeError,
    Tensor,
    _accum,
    _needs_grad,
    attention_bwd,
    attention_fwd,
    grouped_linear_bwd,
    grouped_linear_fwd,
)
from .backbone import AUDIO, STACK_ORDER, VISUAL, FreezeRegistry, FrozenLayerWeights, mha, mlp

MODE_DIRECTIONS = {"none": (), "a2v": ("a2v",), "v2a": ("v2a",), "bidirectional": ("a2v", "v2a")}
MODES = tuple(MODE_DIRECTIONS)
DIRECTIONS = ("a2v", "v2a")
ATTACHMENTS = ("mha", "mlp")
PARTS = ("latents", "gate_compress", "gate_fuse", "down_w", "up_w", "down_b", "up_b")
# each direction's source and target stream
SOURCE = {"a2v": AUDIO, "v2a": VISUAL}
TARGET = {"a2v": VISUAL, "v2a": AUDIO}
# the order of the directions along a stacked parameter's leading axis: by
# their target's row, audio first as in STACK_ORDER
SLOT_ORDER = tuple(d for m in STACK_ORDER for d in DIRECTIONS if TARGET[d] == m)

LATENT_INIT_STD = 0.02

# Identity at init rests on the zero up-projection; open gates keep the
# cross-modal path trainable from step one.
GATE_INIT = 1.0


# ---------------------------------------------------------------------------
# gated cross-attention
# ---------------------------------------------------------------------------


def gated_attention(query: np.ndarray, source: np.ndarray, gate: np.ndarray, want):
    """Gated single-head cross-attention with a residual on the query side,
    ``query + gate * softmax(query source^T / sqrt(width)) source``, as a
    forward kernel. The operands lead with the gate's axes, none or one (a
    gate per direction); a query with one axis fewer than the source (latent
    tokens) serves every sample of the source's batch. ``want`` is None (no
    backward) or flags (query, source); the backward maps the output
    gradient to (dquery, dsource, dgate), None where not wanted, and keeps
    the attention output and, if either is wanted, the source and softmax."""
    lead = gate.ndim
    # a batch axis after the leading axes for a query without one
    q_low = query.ndim < source.ndim
    if q_low:
        query = query.reshape(query.shape[:lead] + (1,) + query.shape[lead:])
    gd = gate.reshape(gate.shape + (1,) * (source.ndim - lead))
    attended, probs = attention_fwd(query, source, source)
    y = query + attended * gd
    if want is None:
        return y, None
    want_q, want_s = want
    saved = (query, source, source, probs) if want_q or want_s else None
    gate_shape = gate.shape

    def back(g: np.ndarray):
        dgate = np.add.reduce(np.multiply(g, attended).reshape(gate_shape + (-1,)), axis=-1)
        dq = ds = None
        if saved is not None:
            dq, dk, ds = attention_bwd(g * gd, *saved, (want_q, want_s, want_s))
            if dk is not None:
                ds += dk
        # the residual into q after the attention's part; addition commutes,
        # so dq + residual is residual + dq bit for bit
        if dq is not None:
            if q_low:
                dq = np.add.reduce(dq, axis=lead)
                dq += np.add.reduce(g, axis=lead)
            else:
                dq += g
        return dq, ds, dgate
    return y, back


def compress_to_latents(latents: np.ndarray, source: np.ndarray, gate: np.ndarray, want):
    """Summarize source tokens into the (m, width) latents with
    ``gated_attention``; ``want`` flags latents and source."""
    return gated_attention(latents, source, gate, want)


def fuse_with_latents(target: np.ndarray, summary: np.ndarray, gate: np.ndarray, want):
    """Let the target tokens attend to a compressed summary with
    ``gated_attention``; ``want`` flags target and summary."""
    return gated_attention(target, summary, gate, want)


# ---------------------------------------------------------------------------
# grouped bottleneck
# ---------------------------------------------------------------------------


def bottleneck(x: np.ndarray, down_w: np.ndarray, down_b: np.ndarray | None, up_w: np.ndarray,
               up_b: np.ndarray | None, act: str, keep: bool):
    """up(act(down(x))) with grouped maps as a forward kernel; the weights
    and biases (None for none) lead with x's direction axes, zero or one.
    With ``keep``, the backward maps the output gradient to the gradients of
    (x, down_w, down_b, up_w, up_b), None for an absent bias, keeping the
    activation and its derivative; without it, the backward is None and no
    derivative is formed."""
    a, d = ACTIVATIONS[act](grouped_linear_fwd(x, down_w, down_b), keep)
    y = grouped_linear_fwd(a, up_w, up_b)
    if not keep:
        return y, None

    def back(g: np.ndarray):
        da, duw, dub = grouped_linear_bwd(g, a, up_w, up_b is not None)
        da *= d
        dx, ddw, ddb = grouped_linear_bwd(da, x, down_w, down_b is not None)
        return dx, ddw, ddb, duw, dub
    return y, back


# ---------------------------------------------------------------------------
# adapter sites
# ---------------------------------------------------------------------------


@dataclass
class AdapterSites:
    """The adapter sites of one layer attachment, one per direction of
    ``directions`` (distinct, in ``SLOT_ORDER``), with bottleneck activation
    ``act``: ``parts`` maps ``PARTS`` in order to stacked trainable leaves,
    whose leading axis runs over the directions, or to None where the sites
    lack the part. Latent sites have (S, m, width) latents and (S,)
    compression gates, direct sites neither; all have (S,) fusion gates and
    a grouped bottleneck. The sites share no values: each slot is drawn from
    its own site's stream. The parts are checked once, here."""

    directions: tuple[str, ...]
    act: str
    parts: dict[str, Tensor | None]
    width: int = field(init=False)

    def __post_init__(self) -> None:
        if tuple(self.parts) != PARTS:
            raise ValueError(f"AdapterSites: parts must be {PARTS} in order, got {tuple(self.parts)}")
        if self.directions != tuple(d for d in SLOT_ORDER if d in self.directions):
            raise ValueError(f"AdapterSites: directions must be distinct members of {DIRECTIONS} in the order "
                             f"{SLOT_ORDER}, got {self.directions}")
        for part, t in self.parts.items():
            if t is not None and not (type(t) is Tensor and t.requires_grad and not t._parents):
                raise ValueError(f"AdapterSites: {part} must be a trainable leaf, got {t!r}")
        shape = {p: None if t is None else t.data.shape for p, t in self.parts.items()}
        s, dw = len(self.directions), shape["down_w"]
        if len(dw) != 4 or dw[0] != s:
            raise ShapeError(f"AdapterSites: down_w of shape {dw} is not grouped over the number of directions, {s}")
        _, groups, gin, gout = dw
        self.width = width = groups * gin
        want = {"latents": (s,) + (shape["latents"] or (0, 0))[1:2] + (width,), "gate_compress": (s,),
                "gate_fuse": (s,), "down_w": dw, "up_w": (s, groups, gout, gin), "down_b": (s, groups * gout),
                "up_b": (s, width)}
        for part, got in shape.items():
            if got is not None and got != want[part]:
                raise ShapeError(f"AdapterSites: {part} of shape {got} does not fit {s} directions of width {width}, "
                                 f"grouped as down_w {dw}: expected {want[part]}")
        if (shape["latents"] is None) != (shape["gate_compress"] is None):
            raise ShapeError("AdapterSites: latents need a compression gate, and a compression gate latents")
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}")


def _draw_site(base: str, width: int, latent_count: int, ratio: int, groups: int, seed: int,
               use_latents: bool, bias: bool) -> dict[str, np.ndarray | None]:
    """One site's initial values by part: latents from ``<base>.latents``,
    open gates, and a bottleneck whose down projection draws a fan-in-scaled
    Gaussian from ``<base>.down_w`` (std 1/sqrt(width/groups), so its
    outputs match its inputs in scale), its up projection and biases zero,
    which pins the whole site's term to zero at init."""
    narrow = width // ratio
    return {
        "latents": Rng.for_name(seed, f"{base}.latents").normal((latent_count, width), std=LATENT_INIT_STD)
        if use_latents else None,
        "gate_compress": np.full((), GATE_INIT) if use_latents else None,
        "gate_fuse": np.full((), GATE_INIT),
        "down_w": Rng.for_name(seed, f"{base}.down_w").normal(
            (groups, width // groups, narrow // groups), std=1.0 / np.sqrt(width // groups)),
        "up_w": np.zeros((groups, narrow // groups, width // groups)),
        "down_b": np.zeros(narrow) if bias else None,
        "up_b": np.zeros(width) if bias else None,
    }


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
) -> dict[str, AdapterSites]:
    """One layer's sites for ``mode``, keyed by attachment: both attachments
    hold a site for every direction the mode enables, and mode ``none``
    gives no entry. Width must divide by ratio*groups, so both bottleneck
    projections split into equal blocks. With a ``registry``, each leaf is
    registered trainable as ``adapter.layer<i>.<attachment>.<part>``, and
    each slot of it by its site's name,
    ``adapter.layer<i>.<direction>_<attachment>.<part>``, in the order
    direction, attachment, part. The leaves are trainable either way."""
    if mode not in MODE_DIRECTIONS:
        raise ValueError(f"unknown fusion mode {mode!r}")
    if latent_count < 1:
        raise ValueError(f"build_layer_sites: latent count must be >= 1, got {latent_count}")
    if ratio < 1 or groups < 1:
        raise ValueError(f"build_layer_sites: ratio and groups must be >= 1, got {ratio}, {groups}")
    if width % (ratio * groups):
        raise ShapeError(f"build_layer_sites: width {width} is not divisible by ratio*groups = {ratio * groups}")
    directions = tuple(d for d in SLOT_ORDER if d in MODE_DIRECTIONS[mode])
    sites = {}
    for attachment in ATTACHMENTS if directions else ():
        drawn = [_draw_site(f"adapter.layer{layer}.{d}_{attachment}", width, latent_count, ratio, groups, seed,
                            use_latents, bias) for d in directions]
        sites[attachment] = AdapterSites(directions, act, {p: None if drawn[0][p] is None else Tensor(
            np.array([site[p] for site in drawn]), requires_grad=True) for p in PARTS})
    if registry is not None:
        for attachment, s in sites.items():
            for part, t in s.parts.items():
                if t is not None:
                    registry.register_stack(f"adapter.layer{layer}.{attachment}.{part}", t)
        for direction in MODE_DIRECTIONS[mode]:
            for attachment, s in sites.items():
                for part, t in s.parts.items():
                    if t is not None:
                        registry.register_row(f"adapter.layer{layer}.{direction}_{attachment}.{part}", t,
                                              s.directions.index(direction))
    return sites


def adapter_forward(source: np.ndarray, target: np.ndarray, parts, act: str, want):
    """The additive cross-modal term injected next to one frozen sub-step,
    as a forward kernel, for sites stacked along a leading direction axis,
    one per leading row of ``source`` and ``target``: ``parts`` holds their
    arrays in ``PARTS`` order (None for a part they lack). Latent sites run
    compress -> fuse -> bottleneck; direct sites attend to the source tokens
    themselves. The term is exactly zero while the up projection is zero.
    ``want`` is None (no backward) or flags (source, target); the backward
    maps the term's gradient to (dsource, dtarget, dparts), None where not
    wanted, every present part getting its gradient."""
    latents, gate_compress, gate_fuse, down_w, up_w, down_b, up_b = parts
    if latents is not None:
        # the latents always want their gradient, so the summary does too
        summary, back_c = compress_to_latents(latents, source, gate_compress, want and (True, want[0]))
        fused, back_f = fuse_with_latents(target, summary, gate_fuse, want and (want[1], True))
    else:
        back_c = None
        fused, back_f = gated_attention(target, source, gate_fuse, want and (want[1], want[0]))
    term, back_b = bottleneck(fused, down_w, down_b, up_w, up_b, act, want is not None)
    if want is None:
        return term, None

    def back(g: np.ndarray):
        dfused, ddw, ddb, duw, dub = back_b(g)
        ddst, dsrc, dgf = back_f(dfused)
        dlat = dgc = None
        if back_c is not None:
            dlat, dsrc, dgc = back_c(dsrc)
        return dsrc, ddst, (dlat, dgc, dgf, ddw, duw, ddb, dub)
    return term, back


# ---------------------------------------------------------------------------
# the layer
# ---------------------------------------------------------------------------


def _accum_rows(t: Tensor, index: slice, g: np.ndarray) -> None:
    """``_accum`` of the gradient that holds ``g`` in leading rows ``index``
    of ``t`` and zeros in its other rows."""
    full = np.zeros(t.data.shape)
    full[index] = g
    _accum(t, full)


def _routes(directions: tuple[str, ...], stack_count: int) -> dict[int, tuple]:
    """For each stack that the sites in ``directions`` write, given the
    number of stacks: its source stack, then the slot index of the sites'
    leaves and the index of the source rows. One stack of both streams takes
    both directions: the slots are the whole leaves, and each row reads the
    other. In a one-row stack per stream, each direction reads its source's
    whole stack, through the whole leaves for one direction, else through
    its own row of them."""
    if stack_count == 1:
        if directions != SLOT_ORDER:
            raise ShapeError(f"layer_forward: one stack of both streams needs sites in both directions, "
                             f"got {directions}")
        return {0: (0, ..., slice(None, None, -1))}
    one = len(directions) == 1
    return {STACK_ORDER.index(TARGET[d]): (STACK_ORDER.index(SOURCE[d]), ... if one else slice(i, i + 1), ...)
            for i, d in enumerate(directions)}


def _site_term(sites: AdapterSites, x: Tensor, stacks: list[Tensor], route: tuple) -> tuple:
    """The term ``sites`` add into stack ``x`` (``route`` from ``_routes``)
    and what the half's node needs: (term, backward, leaves in ``PARTS``
    order, source stack, slot and source-row indexes)."""
    leaves = tuple(sites.parts.values())
    src_k, slot, src_rows = route
    src = stacks[src_k]
    # every leaf is trainable, so a backward is wanted whenever the tape is on
    term, back = adapter_forward(
        src.data[src_rows], x.data, [None if t is None else t.data[slot] for t in leaves], sites.act,
        (src.requires_grad, x.requires_grad) if _needs_grad(leaves) else None)
    return term, back, leaves, src, slot, src_rows


def _half(block, x: Tensor, w: FrozenLayerWeights, site: tuple | None) -> Tensor:
    """One stack's layer half as one tape node: the frozen ``block`` of
    ``x`` plus the term of a ``site`` from ``_site_term``. The backward
    hands out gradients in the order separate block and site nodes gave
    them: ``x`` the output gradient, then the block's input gradient (the
    block keeps nothing when ``x`` needs none); each site leaf its gradient;
    ``x`` the term's target gradient; the source stack its source rows'."""
    term, back_s, leaves, src, slot, src_rows = site or (None, None, (), None, None, None)
    parents = (x,) + (() if src is None or src is x else (src,)) + tuple(t for t in leaves if t is not None)
    y, back_x = block(x.data, w, _needs_grad((x,)))
    if term is not None:
        y += term
    out = Tensor._node(y, parents)
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if back_x is not None:
                _accum(x, g)
                _accum(x, back_x(g))
            if back_s is not None:
                dsrc, ddst, dparts = back_s(g)
                for t, d in zip(leaves, dparts):
                    if d is not None:
                        _accum(t, d) if slot is ... else _accum_rows(t, slot, d)
                if ddst is not None:
                    _accum(x, ddst)
                if dsrc is not None:
                    _accum(src, dsrc[src_rows])
        out._backward = _bw
    return out


def layer_forward(stacks: list[Tensor], w: FrozenLayerWeights, sites: dict[str, AdapterSites]) -> list[Tensor]:
    """Advance both streams one layer with cross-modal terms injected beside
    the attention and MLP sub-steps: one term for each site in ``sites``.

    The streams travel in stacks, ``(S, B, N, D)`` tensors whose rows, read
    in order, are the streams in ``STACK_ORDER``: one stack of both streams
    for sites in both directions or none, else a one-row stack per stream;
    one sample is a batch of one. Each half records one node per stack,
    which runs the frozen block once for the stack's streams and one
    ``adapter_forward`` call for the sites whose targets lie in it. Both
    attention-side terms read the pre-update states, and both MLP-side terms
    the post-attention ones. Every check runs before any kernel: stack ranks
    and rows, the layout against the sites' directions, token and site
    widths and heads.
    """
    shapes = [x.data.shape for x in stacks]
    # a 3-D stack would be told from one stream's (B, N, D) batch by its row
    # count alone
    if any(len(s) != 4 for s in shapes) or sum(s[0] for s in shapes) != len(STACK_ORDER):
        raise ShapeError(f"layer_forward: need (S, B, N, D) stacks that hold one row per stream, got shapes {shapes}")
    width = w.wq.shape[0]
    widths = {s[-1] for s in shapes} | {at.width for at in sites.values()}
    if widths != {width}:
        raise ShapeError(f"layer_forward: token and site widths {sorted(widths)} do not match layer width {width}")
    if width % w.heads:
        raise ShapeError(f"layer_forward: head count {w.heads} does not divide width {width}")
    routes = {d: _routes(d, len(stacks)) for d in {at.directions for at in sites.values()}}
    for block, attachment in ((mha, "mha"), (mlp, "mlp")):
        at = sites.get(attachment)
        # every term of the half before any frozen block, so a term that
        # overflows is refused before a block meets it
        route = {} if at is None else routes[at.directions]
        terms = {k: _site_term(at, stacks[k], stacks, r) for k, r in route.items()}
        stacks = [_half(block, x, w, terms.get(k)) for k, x in enumerate(stacks)]
    return stacks
