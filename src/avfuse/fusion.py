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
``(S, B, N, D)`` tensors, one per token count, whose rows in order are the
streams in ``STACK_ORDER``. ``layer_forward`` records one tape node per
layer half per stack, which runs the frozen block (``mha`` or ``mlp``) and
the sites whose targets lie in the stack (``adapter_forward``: compress,
fuse, bottleneck) as forward kernels on views of the stacks' rows and of
the stacked leaves.
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


def gated_attention(query: np.ndarray, key: np.ndarray, value: np.ndarray, gate: np.ndarray, want):
    """Gated single-head cross-attention with a residual on the query side,
    ``query + gate * softmax(query key^T / sqrt(width)) value``, as a forward
    kernel. The operands lead with the gate's axes, none or one (a gate per
    direction); a query with one axis fewer than the key (latent tokens)
    serves every sample of the key's batch. ``want`` flags (query, key,
    value, gate); the backward, None without any, maps the output gradient
    to their gradients (None where not wanted, a key that is the value
    summed into dvalue), keeping the attention output and what it needs."""
    lead = gate.ndim
    # a batch axis after the leading axes for a query without one
    q_low = query.ndim < key.ndim
    if q_low:
        query = query.reshape(query.shape[:lead] + (1,) + query.shape[lead:])
    gd = gate.reshape(gate.shape + (1,) * (key.ndim - lead))
    attended, probs = attention_fwd(query, key, value)
    y = query + attended * gd
    want_gate, want = want[3], want[:3]
    if not (want_gate or any(want)):
        return y, None
    saved = (query, key, value, probs) if any(want) else None
    shared, gate_shape = key is value, gate.shape

    def back(g: np.ndarray):
        dgate = dq = dk = dv = None
        if want_gate:
            dgate = np.add.reduce(np.multiply(g, attended).reshape(gate_shape + (-1,)), axis=-1)
        if saved is not None:
            dq, dk, dv = attention_bwd(g * gd, *saved, want)
        # the residual into q after the attention's part; addition commutes,
        # so dq + residual is residual + dq bit for bit
        if dq is not None:
            if q_low:
                dq = np.add.reduce(dq, axis=lead)
                dq += np.add.reduce(g, axis=lead)
            else:
                dq += g
        if dk is not None and shared:
            dv += dk
            dk = None
        return dq, dk, dv, dgate
    return y, back


def compress_to_latents(latents: np.ndarray, source: np.ndarray, gate: np.ndarray, want):
    """Summarize source tokens into the (m, width) latents with
    ``gated_attention``; ``want`` flags latents, source and gate."""
    return gated_attention(latents, source, source, gate, (want[0], want[1], want[1], want[2]))


def fuse_with_latents(target: np.ndarray, summary: np.ndarray, gate: np.ndarray, want):
    """Let the target tokens attend to a compressed summary with
    ``gated_attention``; ``want`` flags target, summary and gate."""
    return gated_attention(target, summary, summary, gate, (want[0], want[1], want[1], want[2]))


# ---------------------------------------------------------------------------
# grouped bottleneck
# ---------------------------------------------------------------------------


def bottleneck(x: np.ndarray, down_w: np.ndarray, down_b: np.ndarray | None, up_w: np.ndarray,
               up_b: np.ndarray | None, act: str, want):
    """up(act(down(x))) with grouped maps as a forward kernel; the weights
    and biases (None for none) lead with x's direction axes, zero or one.
    ``want`` flags (x, down_w, down_b, up_w, up_b); the backward, None
    without any, maps the output gradient to their gradients, None where not
    wanted. It keeps the activation and, only when something below it needs
    a gradient, its derivative."""
    below = want[:3]
    deriv = any(below)
    a, d = ACTIVATIONS[act](grouped_linear_fwd(x, down_w, down_b), deriv)
    y = grouped_linear_fwd(a, up_w, up_b)
    if not (deriv or want[3] or want[4]):
        return y, None
    above = (deriv, want[3], want[4])

    def back(g: np.ndarray):
        da, duw, dub = grouped_linear_bwd(g, a, up_w, above)
        dx = ddw = ddb = None
        if da is not None:
            da *= d
            dx, ddw, ddb = grouped_linear_bwd(da, x, down_w, below)
        return dx, ddw, ddb, duw, dub
    return y, back


# ---------------------------------------------------------------------------
# adapter sites
# ---------------------------------------------------------------------------


@dataclass
class AdapterSites:
    """The adapter sites of one layer attachment, one per direction of
    ``directions`` (in ``SLOT_ORDER``), with bottleneck activation ``act``:
    ``parts`` maps ``PARTS`` in order to stacked leaves, whose leading axis
    runs over the directions, or to None where the sites lack the part.
    Latent sites have (S, m, width) latents and (S,) compression gates,
    direct sites neither; all have (S,) fusion gates and a grouped
    bottleneck. The sites share no values: each slot is drawn from its own
    site's stream. The parts are checked against each other once, here."""

    directions: tuple[str, ...]
    act: str
    parts: dict[str, Tensor | None]
    width: int = field(init=False)

    def __post_init__(self) -> None:
        if tuple(self.parts) != PARTS:
            raise ValueError(f"AdapterSites: parts must be {PARTS} in order, got {tuple(self.parts)}")
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
    direction, attachment, part."""
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
        sites[attachment] = AdapterSites(directions, act, {
            p: None if drawn[0][p] is None else Tensor(np.array([site[p] for site in drawn])) for p in PARTS})
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
    ``want`` flags the source, the target and the parts; the backward, None
    without any, maps the term's gradient to (dsource, dtarget, dparts),
    None where not wanted."""
    latents, gate_compress, gate_fuse, down_w, up_w, down_b, up_b = parts
    want_src, want_dst, want_lat, want_gc, want_gf, want_dw, want_uw, want_db, want_ub = want
    if latents is not None:
        want_kv = want_lat or want_src or want_gc
        summary, back_c = compress_to_latents(latents, source, gate_compress, (want_lat, want_src, want_gc))
        fused, back_f = fuse_with_latents(target, summary, gate_fuse, (want_dst, want_kv, want_gf))
    else:
        want_kv, back_c = want_src, None
        fused, back_f = gated_attention(target, source, source, gate_fuse, (want_dst, want_src, want_src, want_gf))
    want_fused = want_dst or want_kv or want_gf
    term, back_b = bottleneck(fused, down_w, down_b, up_w, up_b, act, (want_fused, want_dw, want_db, want_uw, want_ub))
    if back_b is None:
        return term, None

    def back(g: np.ndarray):
        dfused, ddw, ddb, duw, dub = back_b(g)
        dsrc = ddst = dlat = dgc = dgf = None
        if dfused is not None:
            ddst, _, dkv, dgf = back_f(dfused)
            if back_c is None:
                dsrc = dkv
            elif dkv is not None:
                dlat, _, dsrc, dgc = back_c(dkv)
        return dsrc, ddst, (dlat, dgc, dgf, ddw, duw, ddb, dub)
    return term, back


# ---------------------------------------------------------------------------
# the layer
# ---------------------------------------------------------------------------


def _row_index(rows: tuple[int, ...], n: int):
    """A view's index of leading rows ``rows`` of n: ``...`` for all in order,
    else a slice; they must step by +1 or -1, as two rows always do."""
    if rows == tuple(range(n)):
        return ...
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step not in (1, -1) or any(rows[i] - rows[i - 1] != step for i in range(2, len(rows))):
        raise ShapeError(f"rows {rows} do not step by +1 or -1")
    stop = rows[-1] + step
    return slice(rows[0], None if stop < 0 else stop, step)


def _accum_rows(t: Tensor, index: slice, g: np.ndarray) -> None:
    """``_accum`` of the gradient that holds ``g`` in leading rows ``index``
    of ``t`` and zeros in its other rows."""
    if len(range(t.data.shape[0])[index]) == t.data.shape[0]:
        _accum(t, g[index])  # all rows reversed: a reversal is its own inverse
    else:
        full = np.zeros(t.data.shape)
        full[index] = g
        _accum(t, full)


def _targets(directions: tuple[str, ...], rows: tuple[int, ...]) -> dict[int, tuple]:
    """For each stack the sites in ``directions`` write, given the stacks'
    row counts: its one source stack, then the slot, source-row and
    target-row indexes of those sites (``_row_index``)."""
    where = dict(zip(STACK_ORDER, ((s, i) for s, n in enumerate(rows) for i in range(n))))
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for slot, d in enumerate(directions):
        (src, i), (dst, j) = where[SOURCE[d]], where[TARGET[d]]
        groups.setdefault(dst, []).append((src, slot, i, j))
    plan = {}
    for dst, group in groups.items():
        src, slots, src_rows, dst_rows = zip(*group)
        plan[dst] = (src[0], _row_index(slots, len(directions)), _row_index(src_rows, rows[src[0]]),
                     _row_index(dst_rows, rows[dst]))
    return plan


def _site_term(sites: AdapterSites, x: Tensor, stacks: list[Tensor], target: tuple) -> tuple:
    """The term ``sites`` add into stack ``x`` (``target`` from ``_targets``)
    and what the half's node needs: (term, backward, leaves in ``PARTS``
    order, source stack, slot, source-row and target-row indexes)."""
    leaves = tuple(sites.parts.values())
    src_k, slot, src_rows, dst_rows = target
    src = stacks[src_k]
    on = _needs_grad((x, src) + leaves)
    term, back = adapter_forward(
        src.data[src_rows], x.data[dst_rows], [None if t is None else t.data[slot] for t in leaves], sites.act,
        (on and src.requires_grad, on and x.requires_grad) + tuple(on and t is not None and t.requires_grad
                                                                  for t in leaves))
    return term, back, leaves, src, slot, src_rows, dst_rows


def _half(block, x: Tensor, w: FrozenLayerWeights, site: tuple | None) -> Tensor:
    """One stack's layer half as one tape node: the frozen ``block`` of
    ``x`` plus the term of a ``site`` from ``_site_term`` in its target rows.
    The backward hands out gradients in the order separate block and site
    nodes gave them: ``x`` the output gradient, then the block's input
    gradient (the block keeps nothing when ``x`` needs none); each site leaf
    its gradient; ``x`` its target rows'; the source stack its source
    rows'."""
    term, back_s, leaves, src, slot, src_rows, dst_rows = site or (None, None, (), None, None, None, None)
    parents = (x,) + (() if src is None or src is x else (src,)) + tuple(t for t in leaves if t is not None)
    y, back_x = block(x.data, w, _needs_grad((x,)))
    if term is not None:
        y[dst_rows] += term
    out = Tensor._node(y, parents)
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if back_x is not None:
                _accum(x, g)
                _accum(x, back_x(g))
            if back_s is not None:
                dsrc, ddst, dparts = back_s(g[dst_rows])
                for t, d in zip(leaves, dparts):
                    if d is not None:
                        _accum(t, d) if slot is ... else _accum_rows(t, slot, d)
                if ddst is not None:
                    _accum(x, ddst) if dst_rows is ... else _accum_rows(x, dst_rows, ddst)
                if dsrc is not None:
                    _accum(src, dsrc) if src_rows is ... else _accum_rows(src, src_rows, dsrc)
        out._backward = _bw
    return out


def layer_forward(stacks: list[Tensor], w: FrozenLayerWeights, sites: dict[str, AdapterSites]) -> list[Tensor]:
    """Advance both streams one layer with cross-modal terms injected beside
    the attention and MLP sub-steps: one term for each site in ``sites``.

    The streams travel in stacks: each is an ``(S, B, N, D)`` tensor of the
    S streams that share a token count, and the stacks' rows, read in order,
    are the streams in ``STACK_ORDER``; one sample is a batch of one. Each
    half records one node per stack, which runs the frozen block once for
    the stack's streams and one ``adapter_forward`` call for the sites whose
    targets lie in it. Both attention-side terms read the pre-update states,
    and both MLP-side terms the post-attention ones. Every check runs before
    any kernel: stack ranks and rows, token and site widths and heads.
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
    plans = {d: _targets(d, tuple(s[0] for s in shapes)) for d in {at.directions for at in sites.values()}}
    for block, attachment in ((mha, "mha"), (mlp, "mlp")):
        at = sites.get(attachment)
        # every term of the half before any frozen block, so a term that
        # overflows is refused before a block meets it
        plan = {} if at is None else plans[at.directions]
        terms = {k: _site_term(at, stacks[k], stacks, target) for k, target in plan.items()}
        stacks = [_half(block, x, w, terms.get(k)) for k, x in enumerate(stacks)]
    return stacks
