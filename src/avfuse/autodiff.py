"""Dense float64 tensors with tape-based reverse-mode differentiation.

Array storage and arithmetic are backed by numpy. Every node is built
eagerly: the output tensor keeps references to its inputs and a closure
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

This module is the engine and knows nothing of the model. Two layers:

- the tape: ``Tensor``, ``Tensor._node`` (one recorded node), ``_accum``
  (how a gradient is added in) and ``_needs_grad`` (whether a node records a
  closure), then ``backward``; the one tape op here, ``cross_entropy_logits``,
  records one node;
- kernels (``linear_fwd``, ``layer_norm_fwd``/``_bwd``, ``gelu_fwd``,
  ``relu_fwd``, ``attention_fwd``/``_bwd``, ``grouped_linear_fwd``/``_bwd``)
  are plain numpy and record nothing; an activation's forward returns its
  derivative, so its backward is one product with the output gradient;
  attention is one head per leading index; the grouped linear maps take
  zero or one leading direction axes on their weights, and their backward
  forms every gradient, the bias's if there is one.

The model's kernels live with their weights: ``backbone.mha`` and ``mlp``,
``fusion.gated_attention``, ``compress_to_latents``, ``fuse_with_latents``,
``bottleneck`` and ``adapter_forward``. Each records nothing and returns its
output with its backward, a closure that keeps only what its gradients
need; the adapter kernels always form their parameters' gradients, summed
over the batch, and flag only which token operands want one.
``fusion.layer_forward`` records one node per layer half per stack, and
``model.event_head`` one node.

Frozen weights and tokens are plain arrays; the tape starts at the token
stacks, leaves copied from them. Single-op tape versions of the kernels, of
``add``, ``matmul``, ``mul``, ``scale``, ``take``, ``add_rows``,
``mean_rows``, ``concat_cols`` and ``reshape``, and the model's per-block
layer live in the tests' helpers as the oracle the model is checked
against.

Also here: the deterministic counter-based RNG used for every weight draw and
data draw in the package, and the multiply-accumulate counter used by the
cost-accounting instrumentation.
"""
from __future__ import annotations

import hashlib
import math
import operator
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
# Philox's counter and buffer words after a reset; the state setter copies
# them, so every ``Rng.rekey`` can share this one read-only array
_ZERO_WORDS = np.zeros(4, np.uint64)
_ZERO_WORDS.flags.writeable = False

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
    return np.add.reduce(g, axis=tuple(range(lead)))


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
        probs *= 1.0 / math.sqrt(q.shape[-1])
    # ufunc reduces, without the Python-level wrappers of .all, .max, .sum
    if not np.logical_and.reduce(np.isfinite(probs), axis=None):
        raise NonFiniteError("attention: scores contain non-finite values")
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
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
        ds -= np.add.reduce(np.multiply(ds, probs), axis=-1, keepdims=True)
        ds *= probs
        ds *= 1.0 / math.sqrt(q.shape[-1])
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


def grouped_linear_bwd(g: np.ndarray, x: np.ndarray, w: np.ndarray, bias: bool):
    """Gradients of x, w and, with ``bias``, the bias (else None) under the
    output gradient ``g``; the w and bias gradients are summed over the rows
    of each leading index."""
    lead = w.ndim - 3
    groups, gin, gout = w.shape[lead:]
    wt = w.swapaxes(-1, -2)
    unit = (1,) * (g.ndim - lead - 2)
    dx = _merge(np.matmul(_split(g, groups), wt.reshape(wt.shape[:lead] + unit + wt.shape[lead:])))
    # (..., G, gin, p) @ (..., G, p, gout): one GEMM per leading index and
    # group
    xs = x.reshape(w.shape[:lead] + (-1, groups, gin)).swapaxes(-3, -2).swapaxes(-2, -1)
    dw = np.matmul(xs, g.reshape(w.shape[:lead] + (-1, groups, gout)).swapaxes(-3, -2))
    db = np.add.reduce(g.reshape(w.shape[:lead] + (-1, groups * gout)), axis=-2) if bias else None
    return dx, dw, db


# ---------------------------------------------------------------------------
# the loss
# ---------------------------------------------------------------------------


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
    if 0 in shape:
        raise ShapeError(f"cross_entropy_logits: need at least one row and one class of logits, got shape {shape}")
    if labels.ndim != 1 or labels.shape[0] != shape[0]:
        raise ShapeError(f"cross_entropy_logits: labels shape {labels.shape} does not match logits shape {shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("cross_entropy_logits: labels must be integers")
    n, c = shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"cross_entropy_logits: labels out of range for {c} classes")
    z = logits.data
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    e = np.exp(z - zmax)
    lse = zmax[:, 0] + np.log(np.add.reduce(e, axis=1))
    picked = z[np.arange(n), labels]
    out = Tensor._node(np.asarray((lse - picked).mean()), (logits,))
    if out.requires_grad:
        probs = e / np.add.reduce(e, axis=1, keepdims=True)
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
            # a leaf has no closure to run, so the walk leaves it out
            if parent._backward is not None and id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    # popping drops the walk's reference, so each node's output is freed as
    # soon as it is released
    while order:
        node = order.pop()
        if node._backward is None:
            continue  # a loss that is itself a leaf
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
    """Fold a label into a seed, giving an independent 64-bit seed. The seed
    must be an integer in [0, 2**64)."""
    try:
        head = operator.index(seed).to_bytes(8, "little")
    except (TypeError, OverflowError):
        raise ValueError(f"derive_seed: seed must be an integer in [0, 2**64), got {seed!r}") from None
    digest = hashlib.sha256(head + label.encode("utf-8")).digest()
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

    def rekey(self, seed: int, stream: int = 0) -> None:
        """Continue as a fresh ``Rng(seed, stream)``, without building one.

        Resets the whole Philox state: key, counter 0 and an empty buffer,
        with no half-used 32-bit word. A key-only reset is not enough: after
        an ``integers`` draw the buffer is part used and a 32-bit word is
        held, so the next draws would differ from a fresh generator's.
        """
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": np.array([self.seed, self.stream], dtype=np.uint64)},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc=mean, scale=std, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low=low, high=high, size=shape)

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """n integers in [low, high)."""
        return self._gen.integers(low=low, high=high, size=n)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
