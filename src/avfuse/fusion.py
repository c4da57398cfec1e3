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

Token tensors may carry a leading batch axis; latent tokens never do, and
serve every sample of a batch. Through the layers the streams travel in
stacks, ``(S, B, N, D)`` tensors, one per token count, whose rows in order
are the streams in ``STACK_ORDER``, and ``layer_forward`` runs the sites of
one attachment that write one stack as one call over the direction axis:
the tokens are ``Slots`` of rows of the stacks, and the parameters are the
stacked leaves, whole when the call runs all their directions, else
``Slots`` of their rows.
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
    _needs_grad,
    _route,
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


def cma(query, key, value, gate) -> Tensor:
    """Gated single-head cross-attention with a residual on the query side:

        out = query + gate * softmax(query key^T / sqrt(width)) value

    The gate is a trainable scalar; at gate == 0 the op returns the query
    exactly. There are no key/value projections. Operands are 2-D or
    batched; a 2-D query (latent tokens) serves every sample of a batched
    key/value, a batched query needs a key/value of its batch. The whole
    expression is one tape node. With a gate of shape ``(S,)`` every operand
    carries a leading axis of S directions, as a plain tensor or as
    ``Slots``, and each direction follows these rules. The backward pass
    keeps the softmax and the attention output; it routes each operand's
    gradient once, its contributions summed in place.
    """
    q, k, v, g = query.data.shape, key.data.shape, value.data.shape, gate.data.shape
    if len(g) == 1:
        if not q[0] == k[0] == v[0] == g[0]:
            raise ShapeError("cma: operands disagree on the number of directions")
        q, k, v, g = q[1:], k[1:], v[1:], g[1:]
    if len(q) not in (2, 3) or len(k) not in (2, 3) or len(v) not in (2, 3):
        raise ShapeError(f"cma: need 2-D or batched operands, got shapes {q}, {k}, {v}")
    if q[-1] != k[-1]:
        raise ShapeError(f"cma: query width {q} does not match key width {k}")
    if k[:-1] != v[:-1]:
        raise ShapeError(f"cma: key rows {k} do not match value rows {v}")
    if len(q) == 3 and (len(k) == 2 or q[0] != k[0]):
        raise ShapeError(f"cma: query {q} and key {k} disagree on the batch")
    if g != ():
        raise ShapeError(f"cma: gate must be a scalar, got shape {g}")
    # the gate's axes, none or one, lead every operand and the output
    lead = gate.data.ndim
    qd, kd, vd, gd = query.data, key.data, value.data, gate.data
    # a batch axis after the leading axes for a query without one
    q_low = qd.ndim < kd.ndim
    if q_low:
        qd = qd.reshape(qd.shape[:lead] + (1,) + qd.shape[lead:])
    gd = gd.reshape(gd.shape + (1,) * (kd.ndim - lead))
    attended, probs = attention_fwd(qd, kd, vd)
    y = qd + attended * gd
    # a Slots operand's parent is the tensor it reads rows of
    out = Tensor._node(y, (
        query.tensor if type(query) is Slots else query, key.tensor if type(key) is Slots else key,
        value.tensor if type(value) is Slots else value, gate.tensor if type(gate) is Slots else gate))
    if out.requires_grad:
        want = (query.requires_grad, key.requires_grad, value.requires_grad)
        saved = (qd, kd, vd, probs) if any(want) else None

        def _bw(g: np.ndarray) -> None:
            dgate = dq = dk = dv = None
            if gate.requires_grad:
                dgate = np.multiply(g, attended).reshape(gate.data.shape + (-1,)).sum(axis=-1)
            if saved is not None:
                dq, dk, dv = attention_bwd(g * gd, *saved, want)
            # sums in the order the chain's leaves receive them: the residual
            # into q, then v, q, k; addition commutes, so dq + residual is
            # residual + dq bit for bit
            if dq is not None:
                if q_low:
                    dq = dq.sum(axis=lead)
                    dq += g.sum(axis=lead)
                else:
                    dq += g
            if dk is not None and key is value:
                dv += dk
                dk = None
            for x, d in ((query, dq), (gate, dgate), (value, dv), (key, dk)):
                if d is not None:
                    _route(x, d)
        out._backward = _bw
    return out


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
    bottleneck output to zero at init. Stacked sites hold leaves, or
    ``Slots`` of their rows, whose shapes lead with the direction axis.
    """

    down_w: Tensor | Slots
    up_w: Tensor | Slots
    act: str = "gelu"
    down_b: Tensor | Slots | None = None
    up_b: Tensor | Slots | None = None

    @property
    def width(self) -> int:
        shape = self.down_w.data.shape
        return shape[-3] * shape[-2]


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
    stacked parameters (a 4-D ``down_w``), ``x`` carries the direction axis
    too, as a plain tensor or as ``Slots``. The backward pass gives x, both
    weights and both biases their gradients from the saved activation and
    its derivative."""
    shape, width = x.data.shape, params.width
    if len(shape) - (params.down_w.data.ndim - 3) not in (2, 3) or shape[-1] != width:
        raise ShapeError(f"bottleneck: input shape {shape} does not match width {width}")
    if params.act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {params.act!r}")
    down_w, down_b, up_w, up_b = params.down_w, params.down_b, params.up_w, params.up_b
    xd, dwd, uwd = x.data, down_w.data, up_w.data
    dbd = None if down_b is None else down_b.data
    ubd = None if up_b is None else up_b.data
    a, d = ACTIVATIONS[params.act](grouped_linear_fwd(xd, dwd, dbd), _needs_grad((x, down_w, down_b)))
    y = grouped_linear_fwd(a, uwd, ubd)
    out = Tensor._node(y, tuple(o.tensor if type(o) is Slots else o
                                for o in (x, down_w, down_b, up_w, up_b) if o is not None))
    if out.requires_grad:
        below = (x.requires_grad, down_w.requires_grad, down_b is not None and down_b.requires_grad)
        above = (any(below), up_w.requires_grad, up_b is not None and up_b.requires_grad)

        def _bw(g: np.ndarray) -> None:
            da, dw, db = grouped_linear_bwd(g, a, uwd, above)
            grads = [(up_w, dw), (up_b, db)]
            if da is not None:
                da *= d
                grads += zip((x, down_w, down_b), grouped_linear_bwd(da, xd, dwd, below))
            for o, grad in grads:
                if grad is not None:
                    _route(o, grad)
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# adapter sites
# ---------------------------------------------------------------------------


@dataclass
class AdapterSites:
    """The adapter sites of one layer attachment, one per direction of
    ``directions`` (in ``SLOT_ORDER``), their parameters stacked: each part
    is one leaf whose leading axis runs over the directions. Latent sites
    have (S, m, width) latents and (S,) compression gates, direct sites
    neither; all have (S,) fusion gates and a grouped bottleneck of stacked
    leaves. The sites share no values: each slot is drawn from its own
    site's stream."""

    directions: tuple[str, ...]
    latents: Tensor | None
    gate_compress: Tensor | None
    gate_fuse: Tensor
    neck: BottleneckParams

    def parts(self) -> dict[str, Tensor | None]:
        """Each part's leaf (None where the sites have none), in ``PARTS``
        order."""
        neck = self.neck
        return {"latents": self.latents, "gate_compress": self.gate_compress, "gate_fuse": self.gate_fuse,
                "down_w": neck.down_w, "up_w": neck.up_w, "down_b": neck.down_b, "up_b": neck.up_b}


def _draw_site(base: str, width: int, latent_count: int, ratio: int, groups: int, seed: int,
               use_latents: bool, act: str, bias: bool) -> dict[str, np.ndarray | None]:
    """One site's initial values by part: latents from ``<base>.latents``,
    the bottleneck from ``init_bottleneck`` under ``base``, open gates."""
    neck = init_bottleneck(width, ratio, groups, seed, base, act=act, bias=bias)
    return {
        "latents": Rng.for_name(seed, f"{base}.latents").normal((latent_count, width), std=LATENT_INIT_STD)
        if use_latents else None,
        "gate_compress": np.full((), GATE_INIT) if use_latents else None,
        "gate_fuse": np.full((), GATE_INIT),
        "down_w": neck.down_w.data, "up_w": neck.up_w.data,
        "down_b": None if neck.down_b is None else neck.down_b.data,
        "up_b": None if neck.up_b is None else neck.up_b.data,
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
    gives no entry. With a ``registry``, each leaf is registered trainable
    as ``adapter.layer<i>.<attachment>.<part>``, and each slot of it by its
    site's name, ``adapter.layer<i>.<direction>_<attachment>.<part>``, in
    the order direction, attachment, part."""
    if mode not in MODE_DIRECTIONS:
        raise ValueError(f"unknown fusion mode {mode!r}")
    if latent_count < 1:
        raise ValueError(f"build_layer_sites: latent count must be >= 1, got {latent_count}")
    directions = tuple(d for d in SLOT_ORDER if d in MODE_DIRECTIONS[mode])
    sites = {}
    for attachment in ATTACHMENTS if directions else ():
        drawn = [_draw_site(f"adapter.layer{layer}.{d}_{attachment}", width, latent_count, ratio, groups, seed,
                            use_latents, act, bias) for d in directions]
        leaf = {p: None if drawn[0][p] is None else Tensor(np.array([site[p] for site in drawn])) for p in PARTS}
        sites[attachment] = AdapterSites(
            directions, leaf["latents"], leaf["gate_compress"], leaf["gate_fuse"],
            BottleneckParams(leaf["down_w"], leaf["up_w"], act, leaf["down_b"], leaf["up_b"]),
        )
    if registry is not None:
        for attachment, s in sites.items():
            for part, t in s.parts().items():
                if t is not None:
                    registry.register_stack(f"adapter.layer{layer}.{attachment}.{part}", t)
        for direction in MODE_DIRECTIONS[mode]:
            for attachment, s in sites.items():
                for part, t in s.parts().items():
                    if t is not None:
                        registry.register_row(f"adapter.layer{layer}.{direction}_{attachment}.{part}", t,
                                              s.directions.index(direction))
    return sites


def adapter_forward(source: Slots, target: Slots, sites: AdapterSites, slots: tuple[int, ...]) -> Tensor:
    """The additive cross-modal term injected next to one frozen sub-step,
    from the sites in slots ``slots`` of ``sites``, one per row of
    ``source`` and ``target``.

    Latent sites run compress -> fuse -> bottleneck; direct sites attend to
    the source tokens themselves before the same bottleneck. The result
    carries the direction axis, has the target's shape and is exactly zero
    while the up projection is zero. When ``slots`` runs every site in
    order, the stacked leaves are passed whole; otherwise each is read as
    ``Slots`` of those rows.
    """
    if not source.data.shape[0] == target.data.shape[0] == len(slots):
        raise ShapeError("adapter_forward: source, target and sites disagree on the number of directions")
    latents, gate_compress, gate_fuse, neck = sites.latents, sites.gate_compress, sites.gate_fuse, sites.neck
    if slots != tuple(range(len(sites.directions))):
        def rows(t: Tensor | None) -> Slots | None:
            return None if t is None else Slots.rows(t, slots)

        latents, gate_compress, gate_fuse = rows(latents), rows(gate_compress), rows(gate_fuse)
        neck = BottleneckParams(rows(neck.down_w), rows(neck.up_w), neck.act, rows(neck.down_b), rows(neck.up_b))
    if latents is not None:
        summary = compress_to_latents(latents, source, gate_compress)
        fused = fuse_with_latents(target, summary, gate_fuse)
    else:
        fused = cma(target, source, source, gate_fuse)
    return bottleneck(fused, neck)


def layer_forward(stacks: list[Tensor], w: FrozenLayerWeights, sites: dict[str, AdapterSites]) -> list[Tensor]:
    """Advance both streams one layer with cross-modal terms injected beside
    the attention and MLP sub-steps: one term for each site in ``sites``.

    The streams travel in stacks: each is an ``(S, B, N, D)`` tensor of the
    S streams that share a token count, and the stacks' rows, read in order,
    are the streams in ``STACK_ORDER``; one sample is a batch of one.
    Each frozen block runs once per stack. At one attachment, the sites whose
    targets share a stack run as one ``adapter_forward`` call over rows of
    the stacks; with two streams their sources share a stack too. Each
    stack's half step is then one frozen block node, which adds its input
    and, if the stack is a target, the term into the target rows. Both
    attention-side terms read the pre-update states, and both MLP-side terms
    read the post-attention ones; neither stream ever sees the other's
    half-updated state.
    """
    # a 3-D stack would be told from one stream's (B, N, D) batch by its row
    # count alone
    if any(x.data.ndim != 4 for x in stacks) or sum(x.data.shape[0] for x in stacks) != len(STACK_ORDER):
        raise ShapeError(f"layer_forward: need (S, B, N, D) stacks that hold one row per stream, "
                         f"got shapes {[x.data.shape for x in stacks]}")
    # each stream's (stack, row): the stacks' rows, in order, are the streams in STACK_ORDER
    where = dict(zip(STACK_ORDER, ((s, i) for s, x in enumerate(stacks) for i in range(x.data.shape[0]))))

    def half(xs: list[Tensor], block, attachment: str) -> list[Tensor]:
        terms = {}
        at = sites.get(attachment)
        if at is not None:
            # target stack -> [(source stack, slot, source row, target row)],
            # slots in target-row order
            groups: dict[int, list[tuple[int, int, int, int]]] = {}
            for slot, d in enumerate(at.directions):
                (src, i), (dst, j) = where[SOURCE[d]], where[TARGET[d]]
                groups.setdefault(dst, []).append((src, slot, i, j))
            for dst, group in groups.items():
                src, slots, src_rows, dst_rows = zip(*group)
                term = adapter_forward(Slots.rows(xs[src[0]], src_rows), Slots.rows(xs[dst], dst_rows), at, slots)
                terms[dst] = (term, dst_rows)
        return [block(x, w, *terms.get(i, ())) for i, x in enumerate(xs)]

    return half(half(stacks, mha, "mha"), mlp, "mlp")
