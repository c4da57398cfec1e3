"""Shared oracles for the test suite.

Everything here recomputes expected values by a route independent of the
library code under test: explicit scalar loops, math.exp/tanh on python
floats, central finite differences, the model's forward as it ran before
it was batched (one graph per sample and one matmul chain per attention
head), kept as the oracle for the batched engine, the ``np.einsum`` and
``np.power`` kernels that ``grouped_linear`` and ``gelu`` ran before they
moved to ``np.matmul`` and plain products, and the plain-expression
``gelu``, ``layer_norm``, attention softmax and matmul-plus-bias kernels
that ran before they computed in place, and the GELU and ReLU backward
kernels (with the GELU forward that saved its tanh term) that ran before
the forward kernels returned the derivative.

The single-op tape versions of ``add``, ``matmul``, ``layer_norm``,
``gelu``, ``relu``, ``attention``, ``grouped_linear``, ``mul`` and ``scale``
live here: the library runs those kernels only inside its kernel pairs
(``backbone.mha`` and ``mlp``, ``fusion.gated_attention``,
``compress_to_latents``, ``fuse_with_latents``, ``bottleneck`` and
``adapter_forward``), in the nodes built on them (one per layer half per
stack in ``fusion.layer_forward``, and ``model.event_head``) and in its
frozen tokenizers, which return plain arrays. Built on the library's kernels,
they are the unit under test of the kernel tests and, chained as
the library chained them before (``chain_mha``, ``chain_mlp``,
``chain_cma``, ``chain_bottleneck``), the oracle the kernels must match bit
for bit; ``slotwise`` runs a chain one direction at a time over the
direction-axis operands of a stacked call.

The tape ops ``take``, ``add_rows``, ``mean_rows``, ``concat_cols`` (with
``_concat``) and ``reshape`` live here too: the library ran them only in the
chains that its frozen blocks' residual sums and its ``event_head`` node
replaced. ``chain_residual`` (a layer half's residual sum, then the cross
term into its rows, as the library once ran it after each frozen block) and
``chain_head`` chain them as the library did, the oracle those nodes must
match bit for bit.

``chain_layer_forward`` is ``fusion.layer_forward`` as it ran when every
frozen block and every adapter step was a node of its own, on the chains:
each half's site terms from ``chain_adapter_forward`` over ``Slots`` rows of
the stacks (``Slots``, ``_row_index`` and ``_place_rows`` are the row
plumbing the library's separate nodes passed between them), then
``chain_half`` per stack. A train step through it must match the model's
step bit for bit, logits and every gradient: it fixes the order in which
each layer half's node hands out its gradients.

``LoopAdam`` is the per-tensor Adam the optimizer ran before it kept every
trainable value in one flat vector: the oracle the flat update must match
bit for bit. ``loop_generate_dataset`` is ``tasks.generate_dataset`` as it
ran before it wrote whole sets into two arrays from one re-keyed generator:
the oracle every sample, label and order must match bit for bit.

The oracle ops ``transpose``, ``cols``, ``concat_rows`` and
``softmax_rows`` live here, not in the library: only the per-head oracle
uses them. So do the scalar reducers ``sum_all`` and ``mean_all``, which
only tests use to turn an output into a loss.
"""
from __future__ import annotations

import math

import numpy as np

from avfuse.autodiff import (
    GELU_C0,
    GELU_C1,
    LAYER_NORM_EPS,
    Rng,
    ShapeError,
    Tensor,
    _BLOCK,
    _accum,
    _as_tensor,
    _blocks,
    _merge,
    _needs_grad,
    _reduce_to,
    _split,
    _tally_softmax,
    attention_bwd,
    attention_fwd,
    backward,
    derive_seed,
    gelu_fwd,
    grouped_linear_bwd,
    grouped_linear_fwd,
    layer_norm_bwd,
    layer_norm_fwd,
    linear_fwd,
    relu_fwd,
)
from avfuse.backbone import STACK_ORDER, InputBatch
from avfuse.fusion import SOURCE, TARGET, _draw_site, adapter_forward
from avfuse.tasks import PAIR_ORDER, SampleSet, audio_template, visual_template


# ---------------------------------------------------------------------------
# single-op tape versions of the library's kernels
# ---------------------------------------------------------------------------


def _is_suffix(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return len(small) <= len(big) and big[len(big) - len(small):] == small


def add(a, b) -> Tensor:
    """Elementwise sum of operands where one shape ends the other: equal
    shapes, a bias against the last axis, an unbatched operand against a
    batch, or a scalar against anything."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if not (_is_suffix(a.shape, b.shape) or _is_suffix(b.shape, a.shape)):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._node(a.data + b.data, (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, _reduce_to(g, a.shape))
            if b.requires_grad:
                _accum(b, _reduce_to(g, b.shape))
        out._backward = _bw
    return out


def matmul(a, b, bias=None) -> Tensor:
    """``(..., P, Q) @ (Q, R)``: a 2-D right operand applied to every matrix
    of a batched left one, its gradient summed over the batch. An optional
    ``(R,)`` bias is added in place into the fresh product; its gradient is
    summed over every row."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    q, r = b.shape
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (r,):
            raise ShapeError(f"matmul: bias shape {bias.shape} does not match output width {r}")
    parents = (a, b) if bias is None else (a, b, bias)
    out = Tensor._node(linear_fwd(a.data, b.data, None if bias is None else bias.data), parents)
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, g @ b.data.T)
            if b.requires_grad:
                _accum(b, a.data.reshape(-1, q).T @ g.reshape(-1, r))
            if bias is not None and bias.requires_grad:
                _accum(bias, _reduce_to(g, bias.shape))
        out._backward = _bw
    return out


def mul(a, b) -> Tensor:
    """Elementwise product of equal shapes, or scaling by a scalar tensor."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if not (a.shape == b.shape or a.ndim == 0 or b.ndim == 0):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor._node(a.data * b.data, (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, _reduce_to(g * b.data, a.shape))
            if b.requires_grad:
                _accum(b, _reduce_to(g * a.data, b.shape))
        out._backward = _bw
    return out


def scale(x, c: float) -> Tensor:
    """Multiply by a python constant (not tracked as a parameter)."""
    x = _as_tensor(x)
    c = float(c)
    out = Tensor._node(x.data * c, (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, g * c)
        out._backward = _bw
    return out


def _activation(fwd, x) -> Tensor:
    x = _as_tensor(x)
    # the kernel writes over the array it is handed
    y, d = fwd(x.data.copy(), _needs_grad((x,)))
    out = Tensor._node(y, (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, g * d)
        out._backward = _bw
    return out


def relu(x) -> Tensor:
    return _activation(relu_fwd, x)


def gelu(x) -> Tensor:
    """tanh-form GELU with the library's constants."""
    return _activation(gelu_fwd, x)


def layer_norm(x, gain, shift) -> Tensor:
    """Row-wise layer norm of a 2-D or batched tensor, then the 1-D ``gain``
    and ``shift``."""
    x, gain, shift = _as_tensor(x), _as_tensor(gain), _as_tensor(shift)
    if x.ndim < 2:
        raise ShapeError(f"layer_norm: need a 2-D or batched tensor, got shape {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeError(f"layer_norm: gain/shift shapes {gain.shape}/{shift.shape} do not match width {d}")
    y, xhat, inv = layer_norm_fwd(x.data, gain.data, shift.data)
    out = Tensor._node(y, (x, gain, shift))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if x.requires_grad:
                _accum(x, layer_norm_bwd(g, gain.data, xhat, inv))
            if gain.requires_grad:
                _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
            if shift.requires_grad:
                _accum(shift, g.reshape(-1, d).sum(axis=0))
        out._backward = _bw
    return out


def attention(q, k, v, heads: int = 1) -> Tensor:
    """Multi-head dot-product attention as one op, scores scaled by
    1/sqrt(D/heads); a 2-D query can serve a batch of keys. The heads are
    split off into a leading axis for the kernels and merged back."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(f"attention: need 2-D or batched operands, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1] or k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"attention: incompatible query/key/value shapes {q.shape}, {k.shape}, {v.shape}")
    d, dv = k.shape[-1], v.shape[-1]
    if heads < 1 or d % heads or dv % heads:
        raise ShapeError(f"attention: {heads} heads do not divide widths {d} and {dv}")
    try:
        np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    except ValueError:
        raise ShapeError(f"attention: batch axes of {q.shape} and {k.shape} do not broadcast") from None
    qh, kh, vh = _split(q.data, heads), _split(k.data, heads), _split(v.data, heads)
    y, probs = attention_fwd(qh, kh, vh)
    out = Tensor._node(_merge(y), (q, k, v))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            want = (q.requires_grad, k.requires_grad, v.requires_grad)
            dq, dk, dv_ = attention_bwd(_split(g, heads), qh, kh, vh, probs, want)
            for t, grad in ((v, dv_), (q, dq), (k, dk)):
                if grad is not None:
                    _accum(t, _reduce_to(_merge(grad), t.shape))
        out._backward = _bw
    return out


def grouped_linear(x, weight, bias=None) -> Tensor:
    """Block-diagonal linear map with a (G, d_in/G, d_out/G) weight."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim < 2 or weight.ndim != 3:
        raise ShapeError(f"grouped_linear: need 2-D or batched input and 3-D weight, got {x.shape} and {weight.shape}")
    groups, gin, gout = weight.shape
    if x.shape[-1] != groups * gin:
        raise ShapeError(f"grouped_linear: input shape {x.shape} does not match weight shape {weight.shape}")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (groups * gout,):
            raise ShapeError(f"grouped_linear: bias shape {bias.shape} does not match output width {groups * gout}")
    y = grouped_linear_fwd(x.data, weight.data, None if bias is None else bias.data)
    out = Tensor._node(y, (x, weight) if bias is None else (x, weight, bias))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            grads = grouped_linear_bwd(g, x.data, weight.data, bias is not None)
            for t, grad in zip((x, weight, bias), grads):
                if t is not None and t.requires_grad:
                    _accum(t, grad)
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# operands along a direction axis, as separate block nodes passed them
# ---------------------------------------------------------------------------


def _row_index(rows) -> slice:
    """A slice picking leading rows ``rows``, so a view; they must step by
    +1 or -1."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step not in (1, -1) or any(rows[i] - rows[i - 1] != step for i in range(2, len(rows))):
        raise ShapeError(f"rows {tuple(rows)} do not step by +1 or -1")
    stop = rows[-1] + step
    return slice(rows[0], None if stop < 0 else stop, step)


def _place_rows(x: np.ndarray, rows, n: int) -> np.ndarray:
    """An ``(n, ...)`` array with leading row i of ``x`` at row ``rows[i]`` and
    zeros elsewhere: a view of ``x`` when ``rows`` orders all n rows."""
    index = _row_index(rows)
    if len(rows) == n:
        return x[index]
    full = np.zeros((n,) + x.shape[1:])
    full[index] = x
    return full


class Slots:
    """Rows of one tensor as a block node's operand along a leading
    direction axis, as the library passed them before one node ran a whole
    layer half: ``Slots.rows(t, rows)`` fills slot i with leading row
    ``rows[i]`` of ``t``, a view; ``route`` hands ``t`` the gradient of its
    slots in their rows, zeros in the rows no slot reads."""

    __slots__ = ("tensor", "picked", "data", "requires_grad")

    @classmethod
    def rows(cls, t: Tensor, rows) -> "Slots":
        s = cls.__new__(cls)
        s.tensor = t
        s.picked = tuple(rows)
        s.data = t.data[_row_index(s.picked)]
        s.requires_grad = t.requires_grad
        return s

    def route(self, g: np.ndarray) -> None:
        if self.requires_grad:
            t = self.tensor
            _accum(t, _place_rows(g, self.picked, t.data.shape[0]))


# ---------------------------------------------------------------------------
# the chains the blocks replaced
# ---------------------------------------------------------------------------


def chain_mha(x: Tensor, w) -> Tensor:
    """``backbone.mha`` as single ops: layer norm, three products, attention,
    output product."""
    t = layer_norm(x, w.ln1_gain, w.ln1_shift)
    heads = attention(matmul(t, w.wq), matmul(t, w.wk), matmul(t, w.wv), w.heads)
    return matmul(heads, w.wo)


def chain_mlp(x: Tensor, w) -> Tensor:
    """``backbone.mlp`` as single ops: layer norm, biased product, GELU,
    biased product."""
    t = layer_norm(x, w.ln2_gain, w.ln2_shift)
    return matmul(gelu(matmul(t, w.mlp_w1, w.mlp_b1)), w.mlp_w2, w.mlp_b2)


def chain_cma(query: Tensor, key: Tensor, value: Tensor, gate: Tensor) -> Tensor:
    """``fusion.gated_attention`` under a scalar gate as single ops:
    attention, gate product, residual sum."""
    return add(query, mul(attention(query, key, value, 1), gate))


def chain_bottleneck(x: Tensor, parts, act: str) -> Tensor:
    """``fusion.bottleneck`` as single ops over the ``down_w``, ``down_b``,
    ``up_w`` and ``up_b`` of ``parts``: grouped map, activation ``act``,
    grouped map."""
    narrow = _act(act)(grouped_linear(x, parts["down_w"], parts["down_b"]))
    return grouped_linear(narrow, parts["up_w"], parts["up_b"])


def bottleneck_parts(width: int, ratio: int, groups: int, seed: int, name: str, bias: bool = True) -> dict:
    """The initial ``down_w``, ``up_w``, ``down_b`` and ``up_b`` arrays (the
    biases None without ``bias``) of one bottleneck, drawn as a site named
    ``name`` draws them."""
    drawn = _draw_site(name, width, 1, ratio, groups, seed, False, bias)
    return {part: drawn[part] for part in ("down_w", "up_w", "down_b", "up_b")}


def slotwise(chain, lone: bool, *operands) -> Tensor:
    """``chain`` run direction by direction, each on fresh leaves holding one
    slot of the block's operands, as one node. The operands are one
    direction's plain tensors (``lone``) or carry a leading direction axis,
    as plain tensors or Slots, as the block takes them. Its output stacks
    the directions' outputs, and its backward runs each direction's chain
    backward, then routes each operand's gradient once, in argument order,
    as the blocks do. So a block over a direction axis must match it
    bit for bit: forward, every kernel's backward and the sums of each
    operand's contributions."""
    distinct = list(dict.fromkeys(x for x in operands if x is not None))
    data = {x: x.data[None] if lone else x.data for x in distinct}
    runs = []
    for i in range(len(data[operands[0]])):
        leaves = {x: Tensor(data[x][i], requires_grad=x.requires_grad) for x in distinct}
        runs.append((leaves, chain(*[None if x is None else leaves[x] for x in operands])))
    y = np.stack([out.data for _, out in runs])
    out = Tensor._node(y[0] if lone else y, tuple(x.tensor if type(x) is Slots else x for x in distinct))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            for (_, one), piece in zip(runs, g[None] if lone else g):
                backward(sum_all(mul(one, Tensor(piece))))
            for x in distinct:
                grads = [leaves[x].grad for leaves, _ in runs]
                if grads[0] is None:
                    continue
                if type(x) is Slots:
                    x.route(np.stack(grads))
                else:
                    _accum(x, grads[0] if lone else np.stack(grads))
        out._backward = _bw
    return out


def stacked_chain_cma(query, source, gate) -> Tensor:
    """``chain_cma`` over the operands ``fusion.gated_attention`` takes,
    the source as key and value, one direction at a time."""
    return slotwise(chain_cma, gate.data.ndim == 0, query, source, source, gate)


def stacked_chain_bottleneck(x, parts, act: str) -> Tensor:
    """``chain_bottleneck`` over the operands ``fusion.bottleneck`` takes,
    one direction at a time."""
    def one(x, down_w, down_b, up_w, up_b):
        return chain_bottleneck(x, {"down_w": down_w, "down_b": down_b, "up_w": up_w, "up_b": up_b}, act)

    return slotwise(one, parts["down_w"].data.ndim == 3, x, parts["down_w"], parts["down_b"], parts["up_w"],
                    parts["up_b"])


# ---------------------------------------------------------------------------
# the tape ops the frozen blocks' sums and the head's node replaced
# ---------------------------------------------------------------------------


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    """The same values in a new shape of equal size."""
    x = _as_tensor(x)
    shape = tuple(shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}")
    out = Tensor._node(x.data.reshape(shape), (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, g.reshape(x.shape))
        out._backward = _bw
    return out


def _concat(parts, axis: int) -> Tensor:
    """Join tensors of one rank (2 or more) along ``axis``, -2 for rows or
    -1 for columns; every other axis must agree."""
    ts = [_as_tensor(p) for p in parts]
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    rank = ts[0].ndim
    for t in ts:
        if t.ndim < 2 or t.ndim != rank:
            raise ShapeError(f"concat: need tensors of one rank >= 2, got shape {t.shape}")
    other = [i for i in range(rank) if i != rank + axis]
    for t in ts[1:]:
        if any(t.shape[i] != ts[0].shape[i] for i in other):
            raise ShapeError(f"concat: shapes {ts[0].shape} and {t.shape} disagree off axis {axis}")
    out = Tensor._node(np.concatenate([t.data for t in ts], axis=axis), ts)
    if out.requires_grad:
        offsets = np.cumsum([t.shape[axis] for t in ts])[:-1]
        def _bw(g: np.ndarray) -> None:
            for t, piece in zip(ts, np.split(g, offsets, axis=axis)):
                if t.requires_grad:
                    _accum(t, np.ascontiguousarray(piece))
        out._backward = _bw
    return out


def concat_cols(parts) -> Tensor:
    """Stack tensors along their column axis (-1)."""
    return _concat(parts, axis=-1)


def mean_rows(x) -> Tensor:
    """Mean over the row axis (-2), kept as one row: ``(..., N, D)`` gives
    ``(..., 1, D)``."""
    x = _as_tensor(x)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ShapeError(f"mean_rows: need a tensor with at least one row, got shape {x.shape}")
    p = x.shape[-2]
    out = Tensor._node(x.data.mean(axis=-2, keepdims=True), (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, np.broadcast_to(g / p, x.shape).copy())
        out._backward = _bw
    return out


def take(x, row: int) -> Tensor:
    """Leading row ``row`` of ``x``, a view (0-d for a 1-D ``x``)."""
    x = _as_tensor(x)
    if x.ndim < 1 or not 0 <= row < x.shape[0]:
        raise ShapeError(f"take: row {row} out of range for shape {x.shape}")
    out = Tensor._node(x.data[row, ...], (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, _place_rows(g[None], (row,), x.shape[0]))
        out._backward = _bw
    return out


def add_rows(a, b, rows) -> Tensor:
    """``a`` with leading row i of ``b`` added into its row ``rows[i]``; the
    rows ``rows`` leaves out stay ``a``'s."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    rows = tuple(rows)
    if a.ndim < 1 or b.shape != (len(rows),) + a.shape[1:] or len(set(rows)) != len(rows) \
            or not all(0 <= r < a.shape[0] for r in rows):
        raise ShapeError(f"add_rows: rows {rows} of {a.shape} do not fit shape {b.shape}")
    index = _row_index(rows)
    if len(rows) == a.shape[0]:
        data = a.data + b.data[index]
    else:
        data = a.data.copy()
        data[index] += b.data
    out = Tensor._node(data, (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g[index])
        out._backward = _bw
    return out


def chain_residual(x: Tensor, f: Tensor, term: Tensor | None = None, rows=()) -> Tensor:
    """A layer half's sums as single ops: ``x + f``, then leading row i of
    ``term`` into row ``rows[i]``. With ``f`` a ``chain_mha`` or
    ``chain_mlp`` of ``x``, this is the frozen block with its term."""
    y = add(x, f)
    return y if term is None else add_rows(y, term, rows)


def chain_half(chain, x: Tensor, w, term: Tensor | None = None, rows=()) -> Tensor:
    """A frozen layer half, ``backbone.mha`` or ``mlp`` with its operands,
    as single ops: ``chain`` (``chain_mha`` or ``chain_mlp``) of ``x``, then
    ``chain_residual``."""
    return chain_residual(x, chain(x, w), term, rows)


def chain_adapter_forward(source: Slots, target: Slots, sites, slots) -> Tensor:
    """An adapter call as the library ran it when each step was its own
    node, on the chains: the sites in slots ``slots`` of the stacked
    ``sites``, over ``Slots`` rows of the stacks; the stacked leaves go in
    whole when ``slots`` runs every site in order, else as ``Slots`` of
    those rows."""
    parts = sites.parts
    if slots != tuple(range(len(sites.directions))):
        parts = {part: None if t is None else Slots.rows(t, slots) for part, t in parts.items()}
    if parts["latents"] is not None:
        summary = stacked_chain_cma(parts["latents"], source, parts["gate_compress"])
        fused = stacked_chain_cma(target, summary, parts["gate_fuse"])
    else:
        fused = stacked_chain_cma(target, source, parts["gate_fuse"])
    return stacked_chain_bottleneck(fused, parts, sites.act)


def chain_layer_forward(stacks, w, sites) -> list:
    """``fusion.layer_forward`` as the library ran it when each frozen block
    and each adapter step was its own node, on the chains: per half, each
    target stack's sites as one ``chain_adapter_forward`` call over
    ``Slots`` rows of the stacks, then per stack ``chain_half`` adding its
    input and the term into its target rows. The oracle the layer's nodes
    must match bit for bit: outputs and the order every gradient is summed
    in."""
    where = dict(zip(STACK_ORDER, ((s, i) for s, x in enumerate(stacks) for i in range(x.data.shape[0]))))

    def half(xs, chain, attachment):
        terms = {}
        at = sites.get(attachment)
        if at is not None:
            groups = {}
            for slot, d in enumerate(at.directions):
                (src, i), (dst, j) = where[SOURCE[d]], where[TARGET[d]]
                groups.setdefault(dst, []).append((src, slot, i, j))
            for dst, group in groups.items():
                src, slots, src_rows, dst_rows = zip(*group)
                term = chain_adapter_forward(Slots.rows(xs[src[0]], src_rows), Slots.rows(xs[dst], dst_rows), at, slots)
                terms[dst] = (term, dst_rows)
        return [chain_half(chain, x, w, *terms.get(i, ())) for i, x in enumerate(xs)]

    return half(half(stacks, chain_mha, "mha"), chain_mlp, "mlp")


def chain_head(stacks, weight: Tensor, bias: Tensor) -> Tensor:
    """``model.event_head`` as single ops: every row of every stack
    taken in order, pooled, the pools joined, then the biased product and
    the reshape to ``(B, R)``."""
    pooled = concat_cols([mean_rows(take(x, i)) for x in stacks for i in range(x.shape[0])])
    logits = matmul(pooled, weight, bias)
    return reshape(logits, (logits.shape[0], logits.shape[-1]))


def site_row(layer_sites: dict, key: str, part: str) -> np.ndarray:
    """Part ``part`` of site ``key`` (``<direction>_<attachment>``) of one
    layer's stacked sites: a view of its row of the part's leaf, so an
    in-place write (``site_row(...)[...] = x``) sets the site's values."""
    direction, attachment = key.split("_")
    sites = layer_sites[attachment]
    return sites.parts[part].data[sites.directions.index(direction), ...]


def site_term(layer_sites: dict, key: str, source: np.ndarray, target: np.ndarray) -> Tensor:
    """Site ``key``'s term for one stream's tokens: ``fusion.adapter_forward``
    over its slot of the stacked sites, each operand with a direction axis
    of one, as ``fusion.layer_forward`` runs it at unequal token counts. The
    term comes back without the direction axis, as a new leaf."""
    direction, attachment = key.split("_")
    sites = layer_sites[attachment]
    row = sites.directions.index(direction)
    parts = [None if t is None else t.data[row:row + 1] for t in sites.parts.values()]
    term, _ = adapter_forward(source[None], target[None], parts, sites.act, None)
    return Tensor(term[0])


def site_views(model) -> list[tuple[str, Tensor]]:
    """Every trainable parameter's per-site view (``registry.items()``), in
    registration order: writing its data in place writes the leaf that holds
    it."""
    return [(name, t) for name, t, frozen in model.registry.items() if not frozen]


# ---------------------------------------------------------------------------
# oracle-only tape ops
# ---------------------------------------------------------------------------


def transpose(x) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose: need a 2-D tensor, got shape {x.shape}")
    out = Tensor._node(np.ascontiguousarray(x.data.T), (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, np.ascontiguousarray(g.T))
        out._backward = _bw
    return out


def cols(x, start: int, stop: int) -> Tensor:
    """Column slice [start, stop) of a 2-D tensor."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"cols: need a 2-D tensor, got shape {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"cols: slice [{start}, {stop}) out of range for shape {x.shape}")
    out = Tensor._node(np.ascontiguousarray(x.data[:, start:stop]), (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            full = np.zeros_like(x.data)
            full[:, start:stop] = g
            _accum(x, full)
        out._backward = _bw
    return out


def concat_rows(parts) -> Tensor:
    """Stack tensors along their row axis (-2)."""
    return _concat(parts, axis=-2)


def softmax_rows(x) -> Tensor:
    """Row-wise softmax of a 2-D tensor with per-row max subtraction."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows: need a 2-D tensor, got shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise ValueError("softmax_rows: input contains non-finite values")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    _tally_softmax(y.size)
    out = Tensor._node(y, (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            dot = (g * y).sum(axis=1, keepdims=True)
            _accum(x, y * (g - dot))
        out._backward = _bw
    return out


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._node(np.asarray(x.data.sum()), (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, np.full_like(x.data, float(g)))
        out._backward = _bw
    return out


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    n = x.size
    out = Tensor._node(np.asarray(x.data.mean()), (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            _accum(x, np.full_like(x.data, float(g) / n))
        out._backward = _bw
    return out


def loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product on python floats."""
    p, q = a.shape
    q2, r = b.shape
    assert q == q2
    out = np.zeros((p, r))
    for i in range(p):
        for j in range(r):
            acc = 0.0
            for t in range(q):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def scalar_softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax computed element by element with math.exp."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = [float(v) for v in x[i]]
        mx = max(row)
        exps = [math.exp(v - mx) for v in row]
        total = sum(exps)
        out[i] = [e / total for e in exps]
    return out


def scalar_layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    out = np.zeros_like(x)
    d = x.shape[1]
    for i in range(x.shape[0]):
        row = [float(v) for v in x[i]]
        mu = sum(row) / d
        var = sum((v - mu) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + eps)
        for j in range(d):
            out[i, j] = (row[j] - mu) * inv * float(gain[j]) + float(shift[j])
    return out


def scalar_gelu(x: float) -> float:
    c0 = 0.7978845608028654
    c1 = 0.044715
    return 0.5 * x * (1.0 + math.tanh(c0 * (x + c1 * x**3)))


def scalar_cma(q: np.ndarray, k: np.ndarray, v: np.ndarray, gate: float) -> np.ndarray:
    """Gated cross-attention with query residual, all in scalar loops."""
    scores = loop_matmul(q, k.T) / math.sqrt(q.shape[1])
    attn = scalar_softmax_rows(scores)
    return q + gate * loop_matmul(attn, v)


def block_diag_from_grouped(w: np.ndarray) -> np.ndarray:
    """Expand a (G, din/G, dout/G) grouped weight into its dense
    block-diagonal equivalent."""
    groups, gin, gout = w.shape
    dense = np.zeros((groups * gin, groups * gout))
    for g in range(groups):
        dense[g * gin : (g + 1) * gin, g * gout : (g + 1) * gout] = w[g]
    return dense


def numeric_grad(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences on a plain array-valued function of one array."""
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)
    oflat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(arr)
        flat[i] = orig - h
        fm = f(arr)
        flat[i] = orig
        oflat[i] = (fp - fm) / (2.0 * h)
    return out


def check_gradients(make_loss, params: list[Tensor], h: float = 1e-5, rtol: float = 1e-6, atol: float = 1e-9,
                    coords=range):
    """Compare analytic gradients of make_loss() against finite differences
    for every coordinate of every tensor in ``params``, or for the flat
    indices ``coords(size)`` of each.

    ``make_loss`` rebuilds the graph from the live params each call, so each
    param's ``.data`` must be an array that a write through its flat view
    reaches: a numpy scalar (a 0-d gate rebound by ``t.data = t.data + x``)
    or an array whose flat view is a copy would be perturbed in that copy,
    and every difference would read 0. The relative tolerance applies where either gradient is
    meaningfully sized; near-zero pairs fall back to the absolute tolerance.
    """
    for k, p in enumerate(params):
        assert np.shares_memory(p.data.reshape(-1), p.data), (
            f"parameter {k}: its data ({type(p.data).__name__}) does not share memory with its flat view, "
            "so finite differences would not move it; update it in place"
        )
    loss = make_loss()
    for p in params:
        p.grad = None
    backward(loss)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, got in zip(params, analytic):
        assert got is not None, "parameter received no gradient"
        flat = p.data.reshape(-1)
        gflat = got.reshape(-1)
        for i in coords(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = make_loss().item()
            flat[i] = orig - h
            fm = make_loss().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            a = gflat[i]
            denom = max(abs(a), abs(fd))
            if denom > 1e-4:
                rel = abs(a - fd) / denom
                assert rel < rtol, f"rel err {rel} at coord {i}: analytic {a} vs fd {fd}"
                worst = max(worst, rel)
            else:
                assert abs(a - fd) < atol, f"abs err {abs(a - fd)} at coord {i}"
    return worst


# ---------------------------------------------------------------------------
# kernels as they ran before the fast numpy paths
# ---------------------------------------------------------------------------


def einsum_grouped_linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, g: np.ndarray):
    """``grouped_linear``'s einsum kernel: the output for input ``x``, grouped
    weight ``w`` and bias ``b`` (or None), and the gradients of x, w and b
    (None without a bias) under the upstream gradient ``g``."""
    groups, gin, gout = w.shape
    p = x.size // x.shape[-1]
    x3 = x.reshape(p, groups, gin)
    g3 = g.reshape(p, groups, gout)
    y = np.einsum("pgi,gio->pgo", x3, w).reshape(x.shape[:-1] + (groups * gout,))
    dx = np.einsum("pgo,gio->pgi", g3, w).reshape(x.shape)
    dw = np.einsum("pgi,pgo->gio", x3, g3)
    if b is None:
        return y, dx, dw, None
    return y + b, dx, dw, g.reshape(p, groups * gout).sum(axis=0)


def power_gelu(v: np.ndarray, g: np.ndarray):
    """``gelu``'s np.power kernel: the output for ``v`` and its gradient under
    the upstream gradient ``g``."""
    t = np.tanh(GELU_C0 * (v + GELU_C1 * v ** 3))
    dinner = GELU_C0 * (1.0 + 3.0 * GELU_C1 * v ** 2)
    return 0.5 * v * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t ** 2) * dinner)


# ---------------------------------------------------------------------------
# kernels as they ran before they computed in place
# ---------------------------------------------------------------------------


def product_gelu(v: np.ndarray, g: np.ndarray):
    """``gelu`` as plain expressions: the output for ``v`` and its gradient
    under the upstream gradient ``g``."""
    inner = GELU_C0 * (v + GELU_C1 * (v * v * v))
    t = np.tanh(inner)
    dinner = GELU_C0 * (1.0 + 3.0 * GELU_C1 * (v * v))
    return 0.5 * v * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner)


def expr_layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, g: np.ndarray):
    """``layer_norm`` as plain expressions: the output and the gradients of
    x, gain and shift under the upstream gradient ``g``."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (
        xhat * gain + shift,
        inv * (dxhat - m1 - xhat * m2),
        (g * xhat).reshape(-1, d).sum(axis=0),
        g.reshape(-1, d).sum(axis=0),
    )


def expr_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, g: np.ndarray):
    """``attention`` with its softmax as plain expressions: the output and the
    gradients of q, k and v (each summed down to its operand's shape) under
    the upstream gradient ``g``."""
    scale_ = 1.0 / np.sqrt(k.shape[-1] // heads)

    def split(x):
        return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)

    def merge(x):
        return x.swapaxes(-2, -3).reshape(x.shape[:-3] + (x.shape[-2], heads * x.shape[-1]))

    def reduce_to(a, shape):
        return a if a.shape == shape else a.sum(axis=tuple(range(a.ndim - len(shape))))

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale_
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    dp = np.matmul(gh, vh.swapaxes(-1, -2))
    ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True)) * scale_
    return (
        merge(np.matmul(probs, vh)),
        reduce_to(merge(np.matmul(ds, kh)), q.shape),
        reduce_to(merge(np.matmul(ds.swapaxes(-1, -2), qh)), k.shape),
        reduce_to(merge(np.matmul(probs.swapaxes(-1, -2), gh)), v.shape),
    )


def matmul_add(a: np.ndarray, w: np.ndarray, b: np.ndarray, g: np.ndarray):
    """A product and a separate bias add, as ``matmul`` then ``add`` ran them:
    the output and the gradients of a, w and b under upstream ``g``."""
    q, r = w.shape
    return (
        a @ w + b,
        g @ w.T,
        a.reshape(-1, q).T @ g.reshape(-1, r),
        g.sum(axis=tuple(range(g.ndim - 1))),
    )


# ---------------------------------------------------------------------------
# activation kernels as they ran before the forward saved the derivative
# ---------------------------------------------------------------------------


def tanh_gelu_fwd(v: np.ndarray):
    """GELU in place, block by block: the output and the tanh term
    ``gelu_bwd`` takes."""
    t, y = np.empty(v.shape), np.empty(v.shape)
    s = np.empty(min(v.size, _BLOCK))
    for vb, tb, yb in _blocks(v, t, y):
        np.multiply(vb, vb, out=tb)
        tb *= vb
        tb *= GELU_C1
        tb += vb
        tb *= GELU_C0
        np.tanh(tb, out=tb)
        np.multiply(vb, 0.5, out=yb)
        yb *= np.add(tb, 1.0, out=s[:vb.size])
    return y, t


def gelu_bwd(g: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The input gradient at ``v`` given the tanh term ``t``:
    g * (0.5*(1 + t) + 0.5*v*(1 - t*t)*dinner), dinner = C0*(1 + 3*C1*(v*v)),
    in that order."""
    dx = np.empty(v.shape)
    block = min(v.size, _BLOCK)
    d, u = np.empty(block), np.empty(block)
    for vb, tb, gb, xb in _blocks(v, t, g, dx):
        db, ub = d[:vb.size], u[:vb.size]
        np.multiply(vb, vb, out=db)
        db *= 3.0 * GELU_C1
        db += 1.0
        db *= GELU_C0
        np.multiply(vb, 0.5, out=xb)
        np.multiply(tb, tb, out=ub)
        np.subtract(1.0, ub, out=ub)
        xb *= ub
        xb *= db
        np.add(tb, 1.0, out=ub)
        ub *= 0.5
        xb += ub
        xb *= gb
    return dx


def relu_bwd(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    return g * (v > 0.0).astype(np.float64)


# ---------------------------------------------------------------------------
# per-sample, per-head forward oracle
# ---------------------------------------------------------------------------


def _act(tag: str):
    return {"gelu": gelu, "relu": relu}[tag]


def _unfold(grid: np.ndarray, patch: int) -> np.ndarray:
    h, w, c = grid.shape
    tiles = grid.reshape(h // patch, patch, w // patch, patch, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(tiles.reshape(-1, patch * patch * c))


def oracle_mha(x: Tensor, w) -> Tensor:
    """Pre-norm self-attention with one cols/transpose/softmax chain per head."""
    t = layer_norm(x, w.ln1_gain, w.ln1_shift)
    q, k, v = matmul(t, w.wq), matmul(t, w.wk), matmul(t, w.wv)
    dh = w.wq.shape[0] // w.heads
    outs = []
    for i in range(w.heads):
        lo, hi = i * dh, (i + 1) * dh
        scores = scale(matmul(cols(q, lo, hi), transpose(cols(k, lo, hi))), 1.0 / np.sqrt(dh))
        outs.append(matmul(softmax_rows(scores), cols(v, lo, hi)))
    joined = outs[0] if len(outs) == 1 else concat_cols(outs)
    return matmul(joined, w.wo)


def oracle_mlp(x: Tensor, w) -> Tensor:
    t = layer_norm(x, w.ln2_gain, w.ln2_shift)
    hidden = gelu(add(matmul(t, w.mlp_w1), w.mlp_b1))
    return add(matmul(hidden, w.mlp_w2), w.mlp_b2)


def oracle_cma(query: Tensor, key: Tensor, value: Tensor, gate: Tensor) -> Tensor:
    scores = scale(matmul(query, transpose(key)), 1.0 / np.sqrt(query.shape[1]))
    return add(query, mul(matmul(softmax_rows(scores), value), gate))


def oracle_adapter(source: Tensor, target: Tensor, sites, direction: str) -> Tensor:
    """The ``direction`` site of one attachment's stacked sites, each of its
    parameters taken from its leaf's row with ``take``."""
    row = sites.directions.index(direction)

    def part(name):
        t = sites.parts[name]
        return None if t is None else take(t, row)

    gate_fuse = part("gate_fuse")
    if sites.parts["latents"] is not None:
        summary = oracle_cma(part("latents"), source, source, part("gate_compress"))
        fused = oracle_cma(target, summary, summary, gate_fuse)
    else:
        fused = oracle_cma(target, source, source, gate_fuse)
    narrow = _act(sites.act)(grouped_linear(fused, part("down_w"), part("down_b")))
    return grouped_linear(narrow, part("up_w"), part("up_b"))


def oracle_layer(xa: Tensor, xv: Tensor, w, sites: dict, mode: str) -> tuple[Tensor, Tensor]:
    """One layer wired from ``mode`` itself, not from which sites exist."""
    a2v = mode in ("a2v", "bidirectional")
    v2a = mode in ("v2a", "bidirectional")
    cross_v = oracle_adapter(xa, xv, sites["mha"], "a2v") if a2v else None
    cross_a = oracle_adapter(xv, xa, sites["mha"], "v2a") if v2a else None
    ya = add(xa, oracle_mha(xa, w))
    yv = add(xv, oracle_mha(xv, w))
    if cross_a is not None:
        ya = add(ya, cross_a)
    if cross_v is not None:
        yv = add(yv, cross_v)
    cross_v2 = oracle_adapter(ya, yv, sites["mlp"], "a2v") if a2v else None
    cross_a2 = oracle_adapter(yv, ya, sites["mlp"], "v2a") if v2a else None
    za = add(ya, oracle_mlp(ya, w))
    zv = add(yv, oracle_mlp(yv, w))
    if cross_a2 is not None:
        za = add(za, cross_a2)
    if cross_v2 is not None:
        zv = add(zv, cross_v2)
    return za, zv


def oracle_logits(model, image: np.ndarray, spec: np.ndarray) -> Tensor:
    """(1, 2) logits of one (H, W, 3) image and (T, F) spectrogram through
    their own graph."""
    cfg = model.cfg
    xv = add(matmul(Tensor(_unfold(image, cfg.patch)), model.patch_proj), model.pos_visual)
    t, f = spec.shape
    padded = np.pad(spec, ((0, (-t) % cfg.patch), (0, (-f) % cfg.patch)))
    xa = matmul(Tensor(_unfold(np.repeat(padded[:, :, None], 3, axis=2), cfg.patch)), model.patch_proj)
    if model._pos_audio is not None:
        xa = add(xa, model._pos_audio)
    for w, sites in zip(model.layers, model.sites):
        xa, xv = oracle_layer(xa, xv, w, sites, cfg.mode)
    pooled = concat_cols([mean_rows(xa), mean_rows(xv)])
    return add(matmul(pooled, model.head_weight), model.head_bias)


def oracle_logits_batch(model, batch: InputBatch) -> Tensor:
    """Each row's logits through its own graph, stacked into (B, 2)."""
    rows = [oracle_logits(model, img, spec) for img, spec in zip(batch.images, batch.specs)]
    return rows[0] if len(rows) == 1 else concat_rows(rows)


def rand_batch(r, cfg, count: int = 1) -> InputBatch:
    """``count`` samples for ``cfg`` drawn from ``r`` one at a time, a
    uniform image then a normal spectrogram each, as one batch."""
    pairs = [(r.uniform(cfg.image_hw + (3,)), r.normal(cfg.spec_hw)) for _ in range(count)]
    return InputBatch(np.stack([img for img, _ in pairs]), np.stack([spec for _, spec in pairs]))


# ---------------------------------------------------------------------------
# per-tensor Adam
# ---------------------------------------------------------------------------


class LoopAdam:
    """Adam as one numpy expression chain per parameter, with moment state
    created on a parameter's first gradient; parameters without a gradient
    are skipped. Same constructor as ``tasks.Adam``."""

    def __init__(self, groups, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.groups = [(list(params), float(lr)) for params, lr in groups]
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[str, dict[str, np.ndarray]] = {}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for params, lr in self.groups:
            for name, p in params:
                if p.grad is None:
                    continue
                st = self.state.get(name)
                if st is None:
                    st = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
                    self.state[name] = st
                st["m"] = b1 * st["m"] + (1.0 - b1) * p.grad
                st["v"] = b2 * st["v"] + (1.0 - b2) * p.grad**2
                mhat = st["m"] / bias1
                vhat = st["v"] / bias2
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# per-sample dataset generation
# ---------------------------------------------------------------------------


def loop_generate_dataset(seed: int, count: int, noise: float, image_hw=(8, 8), spec_hw=(8, 8)) -> SampleSet:
    """``tasks.generate_dataset`` as it ran one sample at a time: a fresh
    generator per sample, fresh templates, a copy per noise draw and one
    clip per image, then the samples gathered in the shuffled order."""
    images, specs = [], []
    for i in range(count):
        a_cls, v_cls = PAIR_ORDER[i % 4]
        rng = Rng(derive_seed(seed, f"sample.{i}"))
        img = visual_template(v_cls, image_hw)
        spec = audio_template(a_cls, spec_hw)
        if noise > 0.0:
            img = img + rng.normal(img.shape, std=noise).astype(np.float64)
            spec = spec + rng.normal(spec.shape, std=noise).astype(np.float64)
        images.append(np.clip(img, 0.0, 1.0))
        specs.append(spec)
    order = Rng.for_name(seed, "order").permutation(count)
    classes = [PAIR_ORDER[i % 4] for i in order]
    return SampleSet(np.stack([images[i] for i in order]), np.stack([specs[i] for i in order]),
                     [a for a, _ in classes], [v for _, v in classes])
