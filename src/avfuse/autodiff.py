"""Dense float64 tensors with tape-based reverse-mode differentiation.

Array storage and arithmetic are backed by numpy. Every op below builds the
graph eagerly: the output tensor keeps references to its inputs and a closure
that routes the output gradient to them. ``backward`` walks that graph once,
in reverse topological order, and accumulates gradients into ``.grad``.
Leaf gradients are never cleared implicitly; call sites reset them between
steps. Interior state is released by ``backward``: once a node's closure has
run, its gradient and the arrays the closure saved are dropped. Inside
``no_grad()`` no graph is recorded at all.

Memory: an interior node adopts the gradient array it is handed instead of
copying it, and never writes into it; a leaf owns its gradient. Kernels that
compute in place do so only into arrays they allocated themselves, never into
an input's ``.data``, a saved array or the incoming gradient.

Ops take either one sample, ``(N, D)``, or a batch with a leading axis,
``(B, N, D)``; weights, biases and latents stay unbatched, broadcast over
the batch, and get their gradients summed over it.

Also here: the deterministic counter-based RNG used for every weight draw and
data draw in the package, and the multiply-accumulate counter used by the
cost-accounting instrumentation.
"""
from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1

# tanh-form GELU: 0.5*x*(1 + tanh(C0*(x + C1*x^3))).
# C0 = sqrt(2/pi). Both constants are pinned here so the nonlinearity is
# reproducible to the last bit across the codebase.
GELU_C0 = 0.7978845608028654
GELU_C1 = 0.044715

LAYER_NORM_EPS = 1e-5

# Elementwise kernels with many passes (GELU) run over flat blocks of this
# many values, 128 KiB per float64 array, so a block's temporaries stay in
# the core's cache from one pass to the next.
_BLOCK = 16384


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class GraphError(RuntimeError):
    """Raised on invalid use of the backward pass."""


class NonFiniteError(ValueError):
    """Raised when an op meets values it cannot use, such as infinite or NaN
    attention scores."""


# ---------------------------------------------------------------------------
# multiply-accumulate instrumentation
# ---------------------------------------------------------------------------


class MacCounter:
    """Tally of matmul-family multiply-accumulates and softmax exp/div work.

    ``macs`` counts one unit per scalar multiply-accumulate inside matmul and
    grouped_linear. Softmax is not a MAC operation; its per-element exp and
    divide are tallied separately in ``softmax_elems`` (one unit covers the
    exp+div pair for one matrix element). Elementwise adds, gate scalings and
    normalization arithmetic are deliberately not counted; the analytic cost
    model counts the same set of operations so the two agree exactly.
    """

    __slots__ = ("macs", "softmax_elems")

    def __init__(self) -> None:
        self.macs = 0
        self.softmax_elems = 0


_MAC_STACK: list[MacCounter] = []

# False inside no_grad(): new nodes then record no parents and no closure.
_grad_enabled = True


@contextmanager
def count_macs():
    """Context manager yielding a MacCounter active for ops run inside it.

    Counters do not nest additively: only the innermost active counter
    receives tallies.
    """
    counter = MacCounter()
    _MAC_STACK.append(counter)
    try:
        yield counter
    finally:
        _MAC_STACK.pop()


@contextmanager
def no_grad():
    """Run ops without recording the tape: outputs inside get
    ``requires_grad=False``, no parents and no backward closure. The previous
    state is restored on exit, also when the body raises."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _tally_macs(n: int) -> None:
    if _MAC_STACK:
        _MAC_STACK[-1].macs += int(n)


def _tally_softmax(n: int) -> None:
    if _MAC_STACK:
        _MAC_STACK[-1].softmax_elems += int(n)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A float64 array plus optional gradient and graph linkage.

    Leaves are built directly (``Tensor(data, requires_grad=...)``); interior
    nodes are built by the op functions. ``grad`` stays None until a backward
    pass deposits something into it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        # np.array with order="C" keeps 0-d shapes intact, unlike
        # ascontiguousarray on some numpy versions
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._backward_done = False

    @staticmethod
    def _node(data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        out.grad = None
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward = None
        out._backward_done = False
        return out

    # -- conveniences -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``.

    An interior node (one with parents) adopts ``g`` itself and adds later
    contributions out of place, so an array that another node may also hold
    is never written. A leaf owns its gradient: the first write copies, later
    ones add in place.
    """
    if t._parents:
        t.grad = g if t.grad is None else t.grad + g
    elif t.grad is not None:
        t.grad += g
    elif g.shape == t.shape:
        # g + 0.0 equals 0.0 + g bit for bit, signed zeros included, so this
        # matches zeros-then-add without the memset pass; out= keeps a 0-d
        # gradient an array rather than a numpy scalar
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad = np.zeros_like(t.data)
        t.grad += g


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead < 0 or g.shape[lead:] != shape:
        raise ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")
    return g.sum(axis=tuple(range(lead)))


def _is_suffix(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return len(small) <= len(big) and big[len(big) - len(small):] == small


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


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
    _tally_macs(a.size * r)
    y = a.data @ b.data
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (r,):
            raise ShapeError(f"matmul: bias shape {bias.shape} does not match output width {r}")
        y += bias.data
        parents = (a, b, bias)
    else:
        parents = (a, b)
    out = Tensor._node(y, parents)
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


def _concat(parts: Iterable, axis: int) -> Tensor:
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


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._node(np.maximum(x.data, 0.0), (x,))
    if out.requires_grad:
        mask = (x.data > 0.0).astype(np.float64)
        def _bw(g: np.ndarray) -> None:
            _accum(x, g * mask)
        out._backward = _bw
    return out


def _blocks(*arrays: np.ndarray):
    """Matching flat slices of equal-size arrays, ``_BLOCK`` values at a time.
    Arrays that are written must be C-contiguous, so their slices are views."""
    flats = [a.reshape(-1) for a in arrays]
    n = flats[0].size
    if n <= _BLOCK:
        return (flats,)
    return ([f[lo:lo + _BLOCK] for f in flats] for lo in range(0, n, _BLOCK))


def gelu(x) -> Tensor:
    """tanh-form GELU with the module-level constants."""
    x = _as_tensor(x)
    v = x.data
    # In place, block by block, in the order of
    # 0.5*v*(1 + tanh(C0*(v + C1*(v*v*v)))), so every value is bitwise that
    # of the plain expression. A cube is a product, not np.power: power has
    # no fast path for it.
    t, y = np.empty(v.shape), np.empty(v.shape)
    block = min(v.size, _BLOCK)
    s = np.empty(block)
    for vb, tb, yb in _blocks(v, t, y):
        np.multiply(vb, vb, out=tb)
        tb *= vb
        tb *= GELU_C1
        tb += vb
        tb *= GELU_C0
        np.tanh(tb, out=tb)
        np.multiply(vb, 0.5, out=yb)
        yb *= np.add(tb, 1.0, out=s[:vb.size])
    out = Tensor._node(y, (x,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            # g * (0.5*(1 + t) + 0.5*v*(1 - t*t)*dinner) with
            # dinner = C0*(1 + 3*C1*(v*v)), in that order
            dx = np.empty(v.shape)
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
            _accum(x, dx)
        out._backward = _bw
    return out


def layer_norm(x, gain, shift) -> Tensor:
    """Normalize each row of a 2-D or batched tensor to zero mean / unit
    variance over the last axis (biased variance, eps inside the sqrt), then
    apply the 1-D ``gain`` and ``shift``."""
    x = _as_tensor(x)
    gain = _as_tensor(gain)
    shift = _as_tensor(shift)
    if x.ndim < 2:
        raise ShapeError(f"layer_norm: need a 2-D or batched tensor, got shape {x.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/shift shapes {gain.shape}/{shift.shape} do not match width {d}"
        )
    # two full-size buffers: xhat (saved) and the output, which first holds
    # the squared deviations
    xhat = np.subtract(x.data, x.data.mean(axis=-1, keepdims=True))
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += shift.data
    out = Tensor._node(y, (x, gain, shift))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            scratch = None
            if x.requires_grad:
                # inv * (dxhat - m1 - xhat*m2), dxhat = g*gain
                dx = np.multiply(g, gain.data)
                m1 = dx.mean(axis=-1, keepdims=True)
                scratch = np.multiply(dx, xhat)
                m2 = scratch.mean(axis=-1, keepdims=True)
                dx -= m1
                dx -= np.multiply(xhat, m2, out=scratch)
                dx *= inv
                _accum(x, dx)
            if gain.requires_grad:
                scratch = np.multiply(g, xhat, out=scratch)
                _accum(gain, scratch.reshape(-1, d).sum(axis=0))
            if shift.requires_grad:
                _accum(shift, g.reshape(-1, d).sum(axis=0))
        out._backward = _bw
    return out


def attention(q, k, v, heads: int = 1, scale: float | None = None) -> Tensor:
    """Multi-head dot-product attention as one op.

    ``q`` is (..., Nq, D), ``k`` is (..., Nk, D) and ``v`` is (..., Nk, Dv);
    leading axes broadcast, so a 2-D query can serve a batch of keys. The
    columns split into ``heads`` equal groups; head h computes
    softmax(q_h k_h^T * scale) v_h with per-row max subtraction, and the head
    outputs are merged back in column order into (..., Nq, Dv). ``scale``
    defaults to 1/sqrt(D/heads). The backward pass reuses the saved softmax
    output. MACs and softmax elements are tallied as per-head matmuls and
    row softmaxes would be.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(f"attention: need 2-D or batched operands, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1] or k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"attention: incompatible query/key/value shapes {q.shape}, {k.shape}, {v.shape}")
    d, dv = k.shape[-1], v.shape[-1]
    if heads < 1 or d % heads or dv % heads:
        raise ShapeError(f"attention: {heads} heads do not divide widths {d} and {dv}")
    try:
        batch = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    except ValueError:
        raise ShapeError(f"attention: batch axes of {q.shape} and {k.shape} do not broadcast") from None
    if scale is None:
        scale = 1.0 / np.sqrt(d // heads)

    def split(x: np.ndarray) -> np.ndarray:  # (..., N, H*w) -> (..., H, N, w)
        return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-2, -3)

    def merge(x: np.ndarray) -> np.ndarray:  # (..., H, N, w) -> (..., N, H*w)
        return x.swapaxes(-2, -3).reshape(x.shape[:-3] + (x.shape[-2], heads * x.shape[-1]))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the scores buffer becomes the softmax in place: subtract the row max,
    # exponentiate, divide by the row sum
    # overflow here is reported by the finiteness check, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.matmul(qh, kh.swapaxes(-1, -2))
        probs *= scale
    if not np.isfinite(probs).all():
        raise NonFiniteError("attention: scores contain non-finite values")
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    nq, nk = q.shape[-2], k.shape[-2]
    _tally_macs(int(np.prod(batch)) * nq * nk * (d + dv))
    _tally_softmax(probs.size)
    out = Tensor._node(merge(np.matmul(probs, vh)), (q, k, v))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            gh = split(g)
            if v.requires_grad:
                _accum(v, _reduce_to(merge(np.matmul(probs.swapaxes(-1, -2), gh)), v.shape))
            if q.requires_grad or k.requires_grad:
                # ds = probs * (dp - rowsum(dp * probs)) * scale, in dp's buffer
                ds = np.matmul(gh, vh.swapaxes(-1, -2))
                ds -= np.multiply(ds, probs).sum(axis=-1, keepdims=True)
                ds *= probs
                ds *= scale
                if q.requires_grad:
                    _accum(q, _reduce_to(merge(np.matmul(ds, kh)), q.shape))
                if k.requires_grad:
                    _accum(k, _reduce_to(merge(np.matmul(ds.swapaxes(-1, -2), qh)), k.shape))
        out._backward = _bw
    return out


def grouped_linear(x, weight, bias=None) -> Tensor:
    """Block-diagonal linear map.

    ``weight`` has shape (G, d_in/G, d_out/G); input column group g feeds
    output column group g and nothing else. Equivalent to a dense matmul with
    a block-diagonal matrix, at 1/G of the weights and MACs. ``x`` is 2-D or
    batched; every row maps the same way.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.ndim < 2 or weight.ndim != 3:
        raise ShapeError(f"grouped_linear: need 2-D or batched input and 3-D weight, got {x.shape} and {weight.shape}")
    groups, gin, gout = weight.shape
    if x.shape[-1] != groups * gin:
        raise ShapeError(
            f"grouped_linear: input shape {x.shape} does not match weight shape {weight.shape}"
        )
    lead = x.shape[:-1]
    p = x.size // x.shape[-1]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (groups * gout,):
            raise ShapeError(f"grouped_linear: bias shape {bias.shape} does not match output width {groups * gout}")

    def split(a: np.ndarray, w: int) -> np.ndarray:  # (..., N, G*w) -> (..., G, N, w)
        return a.reshape(a.shape[:-1] + (groups, w)).swapaxes(-2, -3)

    def merge(a: np.ndarray) -> np.ndarray:  # (..., G, N, w) -> (..., N, G*w)
        return a.swapaxes(-2, -3).reshape(lead + (-1,))

    # one GEMM per sample and group, so each sample's rows come out the same
    # as when it is mapped alone
    y = merge(np.matmul(split(x.data, gin), weight.data))
    _tally_macs(p * groups * gin * gout)
    if bias is not None:
        y += bias.data
        parents = (x, weight, bias)
    else:
        parents = (x, weight)
    out = Tensor._node(y, parents)
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if x.requires_grad:
                _accum(x, merge(np.matmul(split(g, gout), weight.data.swapaxes(-1, -2))))
            if weight.requires_grad:
                # (G, gin, p) @ (G, p, gout): one GEMM per group over every row
                xs = x.data.reshape(p, groups, gin).transpose(1, 2, 0)
                _accum(weight, np.matmul(xs, g.reshape(p, groups, gout).transpose(1, 0, 2)))
            if bias is not None and bias.requires_grad:
                _accum(bias, g.reshape(p, groups * gout).sum(axis=0))
        out._backward = _bw
    return out


def cross_entropy_logits(logits, labels) -> Tensor:
    """Mean softmax cross-entropy of integer ``labels`` under row ``logits``.

    Uses the log-sum-exp form with per-row max subtraction; the gradient is
    (softmax - onehot) / batch.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_logits: need 2-D logits, got shape {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy_logits: labels shape {labels.shape} does not match logits shape {logits.shape}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("cross_entropy_logits: labels must be integers")
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"cross_entropy_logits: labels out of range for {c} classes")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    lse = zmax[:, 0] + np.log(e.sum(axis=1))
    picked = z[np.arange(n), labels]
    out = Tensor._node(np.asarray((lse - picked).mean()), (logits,))
    if out.requires_grad:
        probs = e / e.sum(axis=1, keepdims=True)
        def _bw(g: np.ndarray) -> None:
            d = probs.copy()
            d[np.arange(n), labels] -= 1.0
            _accum(logits, d * (float(g) / n))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Run one reverse pass from a scalar ``loss``, accumulating into .grad.

    Leaves keep their gradients. Each interior node's gradient and closure
    are released as soon as its closure has run, which frees the arrays the
    closure saved. A second call on the same loss node raises; gradients must
    be reset and the graph rebuilt (a fresh forward pass) between passes.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward: loss must be a Tensor")
    if loss.shape != ():
        raise GraphError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise GraphError("backward: this graph was already walked; reset gradients and rebuild it")
    loss._backward_done = True
    if not loss.requires_grad:
        return
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad = None
            node._backward = None


# ---------------------------------------------------------------------------
# deterministic RNG
# ---------------------------------------------------------------------------


def stream_id(name: str) -> int:
    """Stable 64-bit stream id for a component name (first 8 bytes of its
    SHA-256, little-endian)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(seed: int, label: str) -> int:
    """Fold a label into a seed, giving an independent 64-bit seed."""
    payload = int(seed).to_bytes(8, "little", signed=False) + label.encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class Rng:
    """Counter-based deterministic generator (Philox, keyed by seed+stream).

    The same (seed, stream) pair yields the same draw sequence on every run
    and platform; distinct streams are independent, so construction order
    never shifts any component's draws.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        bits = np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
        self._gen = np.random.Generator(bits)

    @classmethod
    def for_name(cls, seed: int, name: str) -> "Rng":
        return cls(seed, stream_id(name))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=shape).astype(np.float64)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape).astype(np.float64)

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n integers in [low, high)."""
        return self._gen.integers(low=low, high=high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
