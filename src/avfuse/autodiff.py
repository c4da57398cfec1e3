"""Dense float64 tensors with tape-based reverse-mode differentiation.

Array storage and arithmetic are backed by numpy. Every tape op and block
op below builds the graph eagerly: the output tensor keeps references to its inputs and a closure
that routes the output gradient to them. ``backward`` walks that graph once,
in reverse topological order, and accumulates gradients into ``.grad``.
Leaf gradients are never cleared implicitly; call sites reset them between
steps. Interior state is released by ``backward``: once a node's closure has
run, its gradient, the arrays the closure saved and its links to its inputs
are dropped, so the graph is freed before ``backward`` returns. Inside
``no_grad()`` no graph is recorded at all.

Memory: an interior node adopts the gradient array it is handed instead of
copying it, and never writes into it; a leaf owns its gradient. Kernels that
compute in place do so only into arrays allocated for them, by themselves or
by a caller that hands the array over (an activation writes over its input),
never into an input's ``.data``, a saved array or the incoming gradient.

Ops take either one sample, ``(N, D)``, or a batch with a leading axis,
``(B, N, D)``; weights, biases and latents stay unbatched, broadcast over
the batch, and get their gradients summed over it. The frozen blocks also
take any further leading axes, such as both streams stacked.

Three layers:

- the one tape op, ``cross_entropy_logits``, records one node;
- kernels (``linear_fwd``, ``layer_norm_fwd``/``_bwd``, ``gelu_fwd``,
  ``relu_fwd``, ``attention_fwd``/``_bwd``, ``grouped_linear_fwd``/``_bwd``)
  are plain numpy and record nothing; an activation's forward returns its
  derivative, so its backward is one product with the output gradient;
  attention is one head per leading index (``frozen_attention`` splits its
  heads off into a leading axis first);
- block ops (``frozen_attention``, ``frozen_mlp``, ``gated_attention``,
  ``grouped_bottleneck``, ``pooled_linear``) run a chain of kernels or sums
  as one node whose closure saves only what its gradients need. A frozen
  block is a whole layer half: it adds its input (the residual) and a cross
  term into the term's rows, passes gradients to those two only, and refuses
  weights that require one. The adapter block ops take zero or one leading
  direction axes, counted off the gate or the down weight, as the frozen
  blocks take a stack axis: one direction's plain tensors have none; over
  several directions at once, every operand carries the axis, as a plain
  tensor (a stacked parameter or a stacked output) or as ``Slots``, the
  rows of one tensor (each direction's stream of a stacked token tensor, or
  some directions of a stacked parameter). The grouped linear kernels take
  the same axis on their weights. Each operand's gradient is routed with one
  ``_accum``; ``Slots`` first place it in their tensor's rows.
  ``pooled_linear`` is the event head, pooling every row of the stacks.

Tokens enter the tape as leaves: the tokenizers run the kernels on frozen
weights and record nothing. The single-op tape versions of layer norm, GELU,
ReLU, attention, grouped linear, ``add``, ``matmul``, ``mul``, ``scale``,
``take``, ``add_rows``, ``mean_rows``, ``concat_cols`` and ``reshape`` have
no caller here; they live in the tests' helpers, built on these kernels, as
the oracle the block ops are checked against, beside the GELU and ReLU
backward kernels the activation forwards replaced.

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

    # __weakref__ lets a caller watch when a node is freed
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_backward_done", "__weakref__")

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
    def _leaf(data: np.ndarray) -> "Tensor":
        """A leaf that needs no gradient over ``data`` itself, not a copy:
        for a fresh float64 array the caller hands over."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
        out._backward_done = False
        return out

    @staticmethod
    def _node(data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = _needs_grad(parents)
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


def _needs_grad(parents: Iterable[Tensor | None]) -> bool:
    """Whether a node built from ``parents`` (None entries skipped) records
    a closure: some parent requires a gradient and the tape is on."""
    if _grad_enabled:
        for p in parents:
            if p is not None and p.requires_grad:
                return True
    return False


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``.

    An interior node (one whose closure has not run yet) adopts ``g`` itself
    and adds later contributions out of place, so an array that another node
    may also hold is never written. A leaf owns its gradient: the first write
    copies, later ones add in place. ``backward`` never hands a gradient to a
    node it has released.
    """
    if t._backward is not None:
        t.grad = g if t.grad is None else t.grad + g
    elif t.grad is not None:
        t.grad += g
    else:
        # g + 0.0 equals 0.0 + g bit for bit, signed zeros included, so this
        # matches zeros-then-add without the memset pass; out= broadcasts g
        # and keeps a 0-d gradient an array rather than a numpy scalar
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead < 0 or g.shape[lead:] != shape:
        raise ShapeError(f"cannot reduce gradient of shape {g.shape} to {shape}")
    return g.sum(axis=tuple(range(lead)))


# ---------------------------------------------------------------------------
# operands along a direction axis
# ---------------------------------------------------------------------------
#
# The adapter block ops run every direction of one attachment in one call:
# each operand carries a leading direction axis, either as a plain tensor
# (a parameter stacked over the directions, or a stacked output) or as the
# rows of a tensor that holds other rows too. One direction's plain tensors,
# with no such axis, are the same case with zero leading axes.


def _row_index(rows: Sequence[int]) -> slice:
    """A slice picking leading rows ``rows``, so a view; they must step by
    +1 or -1, as a direction axis of at most two rows always does."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step not in (1, -1) or any(rows[i] - rows[i - 1] != step for i in range(2, len(rows))):
        raise ShapeError(f"rows {tuple(rows)} do not step by +1 or -1")
    stop = rows[-1] + step
    return slice(rows[0], None if stop < 0 else stop, step)


def _place_rows(x: np.ndarray, rows: Sequence[int], n: int) -> np.ndarray:
    """An ``(n, ...)`` array with leading row i of ``x`` at row ``rows[i]`` and
    zeros elsewhere: a view of ``x`` when ``rows`` orders all n rows, since
    an order by +1 or -1 is its own inverse."""
    index = _row_index(rows)
    if len(rows) == n:
        return x[index]
    full = np.zeros((n,) + x.shape[1:])
    full[index] = x
    return full


class Slots:
    """Rows of one tensor as a block-op operand along a leading direction
    axis: ``Slots.rows(t, rows)`` fills slot i with leading row ``rows[i]``
    of ``t``, a view when the rows step by +1 or -1. ``t`` is a stacked token
    tensor (slot i is a direction's stream) or a stacked parameter (slot i
    is one of its directions). ``route`` hands ``t`` the gradient of its
    slots in their rows, zeros in the rows no slot reads."""

    __slots__ = ("tensor", "picked", "data", "requires_grad")

    @classmethod
    def rows(cls, t: Tensor, rows: Sequence[int]) -> "Slots":
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
# kernels: plain-numpy forward/backward pairs
# ---------------------------------------------------------------------------
#
# A forward kernel returns its output and whatever its backward kernel needs;
# a backward kernel maps an output gradient to input gradients. Neither
# touches the tape. Forward kernels tally MACs and softmax elements.


def _split(x: np.ndarray, groups: int) -> np.ndarray:
    """(..., N, G*w) -> (..., G, N, w), a view."""
    return x.reshape(x.shape[:-1] + (groups, x.shape[-1] // groups)).swapaxes(-2, -3)


def _merge(x: np.ndarray) -> np.ndarray:
    """(..., G, N, w) -> (..., N, G*w)."""
    return x.swapaxes(-2, -3).reshape(x.shape[:-3] + (x.shape[-2], x.shape[-3] * x.shape[-1]))


def linear_fwd(a: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``a @ w`` for a 2-D ``w``, with ``b`` added in place into the fresh
    product."""
    _tally_macs(a.size * w.shape[1])
    y = a @ w
    if b is not None:
        y += b
    return y


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, shift: np.ndarray):
    """Each row normalized over the last axis (biased variance, eps inside the
    sqrt), times ``gain`` plus ``shift``. Returns the output, ``xhat`` and the
    per-row ``inv`` = 1/std."""
    # two full-size buffers: xhat and the output, which first holds the
    # squared deviations
    # np.add.reduce then /= n is the sum and divide x.mean runs, without
    # numpy's Python-level wrapper
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    xhat = np.subtract(x, mean)
    y = np.multiply(xhat, xhat)
    var = np.add.reduce(y, axis=-1, keepdims=True)
    var /= n
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += shift
    return y, xhat, inv


def layer_norm_bwd(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient inv * (dxhat - m1 - xhat*m2), dxhat = g*gain, with
    m1 and m2 the row means of dxhat and dxhat*xhat."""
    n = g.shape[-1]
    dx = np.multiply(g, gain)
    m1 = np.add.reduce(dx, axis=-1, keepdims=True)
    m1 /= n
    scratch = np.multiply(dx, xhat)
    m2 = np.add.reduce(scratch, axis=-1, keepdims=True)
    m2 /= n
    dx -= m1
    dx -= np.multiply(xhat, m2, out=scratch)
    dx *= inv
    return dx


def _blocks(*arrays: np.ndarray | None):
    """Matching flat slices of equal-size arrays, ``_BLOCK`` values at a time;
    a None entry stays None. The arrays must be C-contiguous, so their slices
    are views that a write reaches."""
    if not all(a is None or a.flags.c_contiguous for a in arrays):
        raise ValueError("_blocks: need C-contiguous arrays, or writes to the slices would be lost")
    flats = [None if a is None else a.reshape(-1) for a in arrays]
    n = flats[0].size
    if n <= _BLOCK:
        return (flats,)
    return ([None if f is None else f[lo:lo + _BLOCK] for f in flats] for lo in range(0, n, _BLOCK))


def gelu_fwd(v: np.ndarray, deriv: bool):
    """tanh-form GELU with the module-level constants, written over ``v``, a
    C-contiguous array the caller allocated. Returns ``v``, now the output,
    and, if ``deriv``, the derivative at the input (else None): the input
    gradient is then ``g * d``."""
    # Block by block, with two scratch blocks. The output follows
    # 0.5*v*(1 + tanh(C0*(v + C1*(v*v*v)))) and the derivative
    # 0.5*v*(1 - t*t)*dinner + 0.5*(1 + t), dinner = C0*(1 + 3*C1*(v*v)),
    # operation for operation, so g * d is bitwise the plain expression's
    # gradient. A cube is a product, not np.power: power has no fast path
    # for it.
    d = np.empty(v.shape) if deriv else None
    block = min(v.size, _BLOCK)
    t, u = np.empty(block), np.empty(block)
    for vb, db in _blocks(v, d):
        tb, ub = t[:vb.size], u[:vb.size]
        np.multiply(vb, vb, out=ub)  # v*v, for the cube and the derivative
        np.multiply(ub, vb, out=tb)
        tb *= GELU_C1
        tb += vb
        tb *= GELU_C0
        np.tanh(tb, out=tb)
        vb *= 0.5  # 0.5*v: v itself is not read again
        if db is not None:
            np.multiply(tb, tb, out=db)
            np.subtract(1.0, db, out=db)
            db *= vb
            ub *= 3.0 * GELU_C1
            ub += 1.0
            ub *= GELU_C0
            db *= ub
        tb += 1.0  # after the derivative's t*t
        vb *= tb
        if db is not None:
            tb *= 0.5
            db += tb
    return v, d


def relu_fwd(v: np.ndarray, deriv: bool):
    """ReLU written over ``v``, as ``gelu_fwd``. Returns ``v``, now the
    output, and, if ``deriv``, its derivative at the input (1 where v > 0,
    else 0; None without ``deriv``)."""
    d = (v > 0.0).astype(np.float64) if deriv else None
    return np.maximum(v, 0.0, out=v), d


# activation tag -> forward kernel writing over its input and returning
# (output, derivative or None)
ACTIVATIONS = {"gelu": gelu_fwd, "relu": relu_fwd}


def attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Scaled dot-product attention over the last two axes.

    ``q`` is (..., Nq, D), ``k`` is (..., Nk, D) and ``v`` is (..., Nk, Dv),
    leading axes broadcast: softmax(q k^T / sqrt(D)) v with per-row max
    subtraction, (..., Nq, Dv). Multi-head attention splits the heads off
    into a leading axis first. Returns the output and the softmax, which
    ``attention_bwd`` takes. MACs and softmax elements are tallied as
    matmuls and row softmaxes over each leading index would be.
    """
    # the scores buffer becomes the softmax in place: subtract the row max,
    # exponentiate, divide by the row sum
    # overflow here is reported by the finiteness check, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.matmul(q, k.swapaxes(-1, -2))
        probs *= 1.0 / np.sqrt(q.shape[-1])
    if not np.isfinite(probs).all():
        raise NonFiniteError("attention: scores contain non-finite values")
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    _tally_macs(probs.size * (k.shape[-1] + v.shape[-1]))
    _tally_softmax(probs.size)
    return np.matmul(probs, v), probs


def attention_bwd(g, q, k, v, probs, want=(True, True, True)):
    """Gradients of q, k and v (None where ``want`` says no) under the output
    gradient ``g``, not yet summed over broadcast axes. The softmax is the
    saved one."""
    want_q, want_k, want_v = want
    dq = dk = dv = None
    if want_v:
        dv = np.matmul(probs.swapaxes(-1, -2), g)
    if want_q or want_k:
        # ds = probs * (dp - rowsum(dp * probs)) / sqrt(D), in dp's buffer
        ds = np.matmul(g, v.swapaxes(-1, -2))
        ds -= np.multiply(ds, probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds *= 1.0 / np.sqrt(q.shape[-1])
        if want_q:
            dq = np.matmul(ds, k)
        if want_k:
            dk = np.matmul(ds.swapaxes(-1, -2), q)
    return dq, dk, dv


def grouped_linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Block-diagonal linear maps: ``w`` is (..., G, d_in/G, d_out/G) with
    zero or one leading axes, ``x`` is (..., [B,] N, d_in) and ``b``
    (..., d_out), each with the same leading axes. Input column group g
    feeds output column group g only: a dense matmul with a block-diagonal
    matrix at 1/G of the weights and MACs."""
    lead = w.ndim - 3
    groups, gin, gout = w.shape[lead:]
    # unit axes after the leading axes, one per axis of x between them and
    # the rows, so w and b broadcast against a batch
    unit = (1,) * (x.ndim - lead - 2)
    # one GEMM per leading index, sample and group, so each sample's rows
    # come out the same as when it is mapped alone; with one output column
    # per group _merge gives a strided view, and the activations write in
    # place
    y = np.ascontiguousarray(_merge(np.matmul(_split(x, groups), w.reshape(w.shape[:lead] + unit + w.shape[lead:]))))
    _tally_macs(x.size // x.shape[-1] * groups * gin * gout)
    if b is not None:
        y += b.reshape(b.shape[:lead] + unit + (1,) + b.shape[lead:])
    return y


def grouped_linear_bwd(g: np.ndarray, x: np.ndarray, w: np.ndarray, want=(True, True, True)):
    """Gradients of x, w and the bias (None where ``want`` says no) under the
    output gradient ``g``; the w and bias gradients are summed over the rows
    of each leading index."""
    lead = w.ndim - 3
    groups, gin, gout = w.shape[lead:]
    want_x, want_w, want_b = want
    dx = dw = db = None
    if want_x:
        wt = w.swapaxes(-1, -2)
        unit = (1,) * (g.ndim - lead - 2)
        dx = _merge(np.matmul(_split(g, groups), wt.reshape(wt.shape[:lead] + unit + wt.shape[lead:])))
    if want_w:
        # (..., G, gin, p) @ (..., G, p, gout): one GEMM per leading index
        # and group
        xs = x.reshape(w.shape[:lead] + (-1, groups, gin)).swapaxes(-3, -2).swapaxes(-2, -1)
        dw = np.matmul(xs, g.reshape(w.shape[:lead] + (-1, groups, gout)).swapaxes(-3, -2))
    if want_b:
        db = g.reshape(w.shape[:lead] + (-1, groups * gout)).sum(axis=-2)
    return dx, dw, db


# ---------------------------------------------------------------------------
# block ops: one tape node per block
# ---------------------------------------------------------------------------
#
# Each runs the kernels in the order the chain of single ops it replaces ran
# them (tests/helpers.py keeps that chain as the oracle), so its output, its
# gradients and its MAC/softmax tallies are bitwise the chain's. Its closure
# saves only what its gradients need. Callers check shapes.


def _check_frozen(op: str, **weights: Tensor | None) -> None:
    for name, w in weights.items():
        if w is not None and w.requires_grad:
            raise GraphError(f"{op}: weight {name} requires a gradient, but {op} is frozen and passes none to its weights")


def _residual_node(op: str, x: Tensor, y: np.ndarray, term: Tensor | None, rows: Sequence[int], dx) -> Tensor:
    """A layer half as one node: ``y``, a frozen block's fresh output for
    ``x``, plus ``x``, then row i of ``term`` added into row ``rows[i]``.
    ``dx`` maps the gradient to the block's input gradient and is dropped
    when ``x`` needs none, so nothing the block saved is kept. Gradients go
    to ``x``, then through ``dx``, then to the term, as two nodes gave them."""
    shape = x.data.shape
    if term is not None and (term.data.shape != (len(rows),) + shape[1:] or len(set(rows)) != len(rows)
                             or not all(0 <= r < shape[0] for r in rows)):
        raise ShapeError(f"{op}: a term of shape {term.data.shape} does not fit rows {rows} of {shape}")
    y += x.data
    if term is not None:
        index = _row_index(rows)
        y[index] += term.data
    out = Tensor._node(y, (x,) if term is None else (x, term))
    if out.requires_grad:
        if not x.requires_grad:
            dx = None
        def _bw(g: np.ndarray) -> None:
            if dx is not None:
                _accum(x, g)
                _accum(x, dx(g))
            if term is not None and term.requires_grad:
                _accum(term, g[index])
        out._backward = _bw
    return out


def frozen_attention(x: Tensor, gain, shift, wq, wk, wv, wo, heads: int, term: Tensor | None = None,
                     rows: Sequence[int] = ()) -> Tensor:
    """Pre-norm multi-head self-attention with frozen weights, a layer half:
    x + attention(t wq, t wk, t wv) wo for t = layer_norm(x), run on the
    columns split into ``heads`` heads (so scaled by 1/sqrt(width/heads)),
    with ``term`` added into rows ``rows``. x's gradient comes from the
    saved xhat, inv, Q/K/V heads and softmax."""
    _check_frozen("frozen_attention", gain=gain, shift=shift, wq=wq, wk=wk, wv=wv, wo=wo)
    t, xhat, inv = layer_norm_fwd(x.data, gain.data, shift.data)
    q, k, v = (_split(linear_fwd(t, w.data), heads) for w in (wq, wk, wv))
    del t
    attended, probs = attention_fwd(q, k, v)

    def dx(g: np.ndarray) -> np.ndarray:
        dq, dk, dv = attention_bwd(_split(g @ wo.data.T, heads), q, k, v, probs)
        # the order the q, k and v products handed their gradients back
        dt = _merge(dq) @ wq.data.T
        dt += _merge(dk) @ wk.data.T
        dt += _merge(dv) @ wv.data.T
        return layer_norm_bwd(dt, gain.data, xhat, inv)
    return _residual_node("frozen_attention", x, linear_fwd(_merge(attended), wo.data), term, rows, dx)


def frozen_mlp(x: Tensor, gain, shift, w1, b1, w2, b2, term: Tensor | None = None,
               rows: Sequence[int] = ()) -> Tensor:
    """Pre-norm GELU MLP with frozen weights, a layer half:
    x + gelu(t w1 + b1) w2 + b2 for t = layer_norm(x), with ``term`` added
    into rows ``rows``. x's gradient comes from the saved xhat, inv and GELU
    derivative."""
    _check_frozen("frozen_mlp", gain=gain, shift=shift, w1=w1, b1=b1, w2=w2, b2=b2)
    t, xhat, inv = layer_norm_fwd(x.data, gain.data, shift.data)
    pre = linear_fwd(t, w1.data, b1.data)
    del t
    hidden, d = gelu_fwd(pre, _needs_grad((x,)))

    def dx(g: np.ndarray) -> np.ndarray:
        nonlocal d
        dh = g @ w2.data.T
        dh *= d
        d = None  # spent: freed before the next product
        dt = dh @ w1.data.T
        del dh
        return layer_norm_bwd(dt, gain.data, xhat, inv)
    return _residual_node("frozen_mlp", x, linear_fwd(hidden, w2.data, b2.data), term, rows, dx)


def _route(x, g: np.ndarray) -> None:
    """Hand a block-op operand its gradient ``g``: ``Slots`` place it in
    their tensor's rows, a plain tensor takes it."""
    if type(x) is Slots:
        x.route(g)
    elif x.requires_grad:
        _accum(x, g)


def gated_attention(q, k, v, gate) -> Tensor:
    """q + gate * attention(q, k, v) for one head and a scalar ``gate`` per
    direction.

    The gate's axes lead every operand and the output: none for one
    direction, one over a stack of directions, where an operand is a plain
    tensor or ``Slots``. A query with fewer axes than the key (latent
    tokens) serves every sample of the batch. The backward pass keeps the
    softmax and the attention output; it routes each operand's gradient
    once, its contributions summed in place.
    """
    lead = gate.data.ndim
    qd, kd, vd, gd = q.data, k.data, v.data, gate.data
    # a batch axis after the leading axes for a query without one
    q_low = qd.ndim < kd.ndim
    if q_low:
        qd = qd.reshape(qd.shape[:lead] + (1,) + qd.shape[lead:])
    gd = gd.reshape(gd.shape + (1,) * (kd.ndim - lead))
    attended, probs = attention_fwd(qd, kd, vd)
    y = qd + attended * gd
    # a Slots operand's parent is the tensor it reads rows of
    out = Tensor._node(y, (
        q.tensor if type(q) is Slots else q, k.tensor if type(k) is Slots else k,
        v.tensor if type(v) is Slots else v, gate.tensor if type(gate) is Slots else gate))
    if out.requires_grad:
        want = (q.requires_grad, k.requires_grad, v.requires_grad)
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
            if dk is not None and k is v:
                dv += dk
                dk = None
            for x, d in ((q, dq), (gate, dgate), (v, dv), (k, dk)):
                if d is not None:
                    _route(x, d)
        out._backward = _bw
    return out


def grouped_bottleneck(x, down_w, down_b, up_w, up_b, act: str) -> Tensor:
    """up(act(down(x))) for grouped down/up maps with optional biases and an
    activation tag from ``ACTIVATIONS``. The leading axes of ``down_w``
    beyond its three lead every operand, as the gate's in
    ``gated_attention``. The backward pass gives x, both weights and both
    biases their gradients from the saved activation and its derivative."""
    xd, dwd, uwd = x.data, down_w.data, up_w.data
    dbd = None if down_b is None else down_b.data
    ubd = None if up_b is None else up_b.data
    a, d = ACTIVATIONS[act](grouped_linear_fwd(xd, dwd, dbd), _needs_grad((x, down_w, down_b)))
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


def pooled_linear(stacks: Sequence[Tensor], weight: Tensor, bias: Tensor) -> Tensor:
    """Every row of every stack mean-pooled, the means joined along columns
    in row order, then mapped by ``weight`` plus ``bias``: ``(B, R)``.

    Each stack is ``(S, B, N, D)``. The pooled rows stay ``(B, 1, sum S*D)``
    through the product, so each output row comes from the same one-row
    product as when its sample runs alone, bit for bit."""
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


def cross_entropy_logits(logits, labels) -> Tensor:
    """Mean softmax cross-entropy of integer ``labels`` under row ``logits``.

    Uses the log-sum-exp form with per-row max subtraction; the gradient is
    (softmax - onehot) / batch.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    shape = logits.data.shape
    if len(shape) != 2:
        raise ShapeError(f"cross_entropy_logits: need 2-D logits, got shape {shape}")
    if labels.ndim != 1 or labels.shape[0] != shape[0]:
        raise ShapeError(f"cross_entropy_logits: labels shape {labels.shape} does not match logits shape {shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("cross_entropy_logits: labels must be integers")
    n, c = shape
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

    Leaves keep their gradients. Each interior node is released as soon as
    its closure has run: its gradient, its closure (with the arrays the
    closure saved) and its links to its inputs are dropped, so the graph is
    freed by the time this returns, but for tensors the caller still names.
    A released graph cannot be walked again: a second call on the same loss,
    or a walk that reaches a node an earlier pass released, raises; gradients
    must be reset and the graph rebuilt (a fresh forward pass) between passes.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward: loss must be a Tensor")
    if loss.data.shape != ():
        raise GraphError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
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
            if parent._backward_done:
                raise GraphError("backward: this graph reaches a node an earlier pass released; rebuild it")
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    # popping drops the walk's reference, so each node's output is freed as
    # soon as it is released
    while order:
        node = order.pop()
        if node._backward is None:
            continue  # a leaf
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = node._backward = None
        node._parents = ()
        node._backward_done = True


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
