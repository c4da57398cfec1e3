"""Shared oracles for the test suite.

Everything here recomputes expected values by a route independent of the
library code under test: explicit scalar loops, math.exp/tanh on python
floats, central finite differences, the model's forward as it ran before
it was batched (one graph per sample and one matmul chain per attention
head), kept as the oracle for the batched engine, the ``np.einsum`` and
``np.power`` kernels that ``grouped_linear`` and ``gelu`` ran before they
moved to ``np.matmul`` and plain products, and the plain-expression
``gelu``, ``layer_norm``, attention softmax and matmul-plus-bias kernels
that ran before they computed in place.

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
    ShapeError,
    Tensor,
    _accum,
    _as_tensor,
    _concat,
    _tally_softmax,
    add,
    backward,
    concat_cols,
    gelu,
    grouped_linear,
    layer_norm,
    matmul,
    mean_rows,
    mul,
    relu,
    scale,
)


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


def check_gradients(make_loss, params: list[Tensor], h: float = 1e-5, rtol: float = 1e-6, atol: float = 1e-9):
    """Compare analytic gradients of make_loss() against finite differences
    for every coordinate of every tensor in ``params``.

    ``make_loss`` rebuilds the graph from the live params each call. The
    relative tolerance applies where either gradient is meaningfully sized;
    near-zero pairs fall back to the absolute tolerance.
    """
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
        for i in range(flat.size):
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
    dh = w.width // w.heads
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


def oracle_adapter(source: Tensor, target: Tensor, site) -> Tensor:
    if site.use_latents:
        summary = oracle_cma(site.latents, source, source, site.gate_compress)
        fused = oracle_cma(target, summary, summary, site.gate_fuse)
    else:
        fused = oracle_cma(target, source, source, site.gate_fuse)
    neck = site.neck
    narrow = _act(neck.act)(grouped_linear(fused, neck.down_w, neck.down_b))
    return grouped_linear(narrow, neck.up_w, neck.up_b)


def oracle_layer(xa: Tensor, xv: Tensor, w, sites, mode: str) -> tuple[Tensor, Tensor]:
    a2v = mode in ("a2v", "bidirectional")
    v2a = mode in ("v2a", "bidirectional")
    cross_v = oracle_adapter(xa, xv, sites.a2v_mha) if a2v else None
    cross_a = oracle_adapter(xv, xa, sites.v2a_mha) if v2a else None
    ya = add(xa, oracle_mha(xa, w))
    yv = add(xv, oracle_mha(xv, w))
    if cross_a is not None:
        ya = add(ya, cross_a)
    if cross_v is not None:
        yv = add(yv, cross_v)
    cross_v2 = oracle_adapter(ya, yv, sites.a2v_mlp) if a2v else None
    cross_a2 = oracle_adapter(yv, ya, sites.v2a_mlp) if v2a else None
    za = add(ya, oracle_mlp(ya, w))
    zv = add(yv, oracle_mlp(yv, w))
    if cross_a2 is not None:
        za = add(za, cross_a2)
    if cross_v2 is not None:
        zv = add(zv, cross_v2)
    return za, zv


def oracle_logits(model, image, spec) -> Tensor:
    """(1, 2) logits of one sample through its own graph."""
    cfg = model.cfg
    xv = add(matmul(Tensor(_unfold(image.pixels, cfg.patch)), model.patch_proj), model.pos_visual)
    t, f = spec.values.shape
    padded = np.pad(spec.values, ((0, (-t) % cfg.patch), (0, (-f) % cfg.patch)))
    xa = matmul(Tensor(_unfold(np.repeat(padded[:, :, None], 3, axis=2), cfg.patch)), model.patch_proj)
    if model._pos_audio is not None:
        xa = add(xa, model._pos_audio)
    for w, sites in zip(model.layers, model.sites):
        xa, xv = oracle_layer(xa, xv, w, sites, cfg.mode)
    pooled = concat_cols([mean_rows(xa), mean_rows(xv)])
    return add(matmul(pooled, model.head_weight), model.head_bias)


def oracle_logits_batch(model, pairs) -> Tensor:
    """Per-sample logits rows stacked into (B, 2)."""
    rows = [oracle_logits(model, img, spec) for img, spec in pairs]
    return rows[0] if len(rows) == 1 else concat_rows(rows)
