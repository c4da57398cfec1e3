"""Differential tests of the kernel pairs and the nodes built on them
against the single-op chains they replaced: a layer half (``fusion._half``:
the frozen ``backbone.mha`` or ``mlp`` kernel pair plus the term of the
sites that write the stack, one node) against ``helpers.chain_half`` of
``chain_mha`` or ``chain_mlp`` and ``helpers.chain_adapter_forward``; the
``fusion.bottleneck`` and ``fusion.gated_attention`` pairs, each as one
node, against ``chain_bottleneck`` and ``chain_cma``; the ``model.event_head``
node against ``chain_head``.
Output, every gradient and the MAC tallies agree bit for bit, at the README
shapes, the train-wide benchmark shapes and odd ones (2 heads, unequal
stream lengths, ReLU, no bias, a 2-D latent query broadcast over the batch),
with every (query, source) gradient pattern of ``gated_attention`` and a
layer half's input with and without a gradient. The kernels take their
flags by role: the adapter parameters always get their gradients, so the
gate and every bottleneck operand need one. Then one whole train step of the
model against the same step with ``helpers.chain_layer_forward``, the layer
as it ran when every frozen block and adapter step was its own node, so the
order in which each layer half's node hands out its gradients is checked
bit for bit inside the whole graph. The adapter kernels have one code path
for zero or one leading direction axes: on one direction's plain tensors
they must give what they give on the same operands with a leading axis of
one, bit for bit. Every refusal of ``layer_forward`` fires before any kernel
runs. Test names keep the names of the block ops (``frozen_attention``,
``frozen_mlp``, ``gated_attention``, ``grouped_bottleneck``,
``pooled_linear``) that these kernels absorbed."""
import numpy as np
import pytest

from avfuse import backbone, fusion, model as model_module
from avfuse.autodiff import (
    ACTIVATIONS,
    ShapeError,
    Tensor,
    _accum,
    backward,
    count_macs,
    cross_entropy_logits,
    gelu_fwd,
    no_grad,
)
from avfuse.backbone import STACK_ORDER, init_layer_weights, mha, mlp
from avfuse.fusion import (
    SOURCE,
    TARGET,
    AdapterSites,
    _half,
    _routes,
    _site_term,
    bottleneck,
    gated_attention,
    build_layer_sites,
    layer_forward,
)
from avfuse.model import ModelConfig, TwoStreamModel, event_head
from avfuse.tasks import generate_dataset

from helpers import (
    Slots,
    bottleneck_parts,
    chain_adapter_forward,
    chain_bottleneck,
    chain_cma,
    chain_half,
    chain_head,
    chain_layer_forward,
    chain_mha,
    chain_mlp,
    mul,
    sum_all,
)

# (batch, tokens, width, heads, latents): README, train-wide, odd
SHAPES = {"readme": (8, 4, 32, 4, 2), "wide": (8, 64, 128, 4, 4), "odd": (3, 6, 16, 2, 1)}


def arr(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def grads_of(op, inputs, g):
    """The op's output and the gradient of each input under upstream ``g``,
    through a full ``backward``."""
    out = op()
    backward(sum_all(mul(out, Tensor(g))))
    return out.data, [t.grad for t in inputs]


def assert_same(op, chain, inputs, g):
    """Run the block and the chain on the same leaves; outputs and
    gradients must agree bit for bit, and a leaf that needs no gradient must
    get none."""
    macs = []
    results = []
    for fn in (op, chain):
        for t in inputs:
            t.grad = None
        with count_macs() as c:
            results.append(grads_of(fn, inputs, g))
        macs.append((c.macs, c.softmax_elems))
    (y, grads), (want_y, want_grads) = results
    np.testing.assert_array_equal(y, want_y)
    for t, got, want in zip(inputs, grads, want_grads, strict=True):
        if not t.requires_grad:
            assert got is None and want is None
        else:
            np.testing.assert_array_equal(got, want)
    assert macs[0] == macs[1]


def layer(name):
    """Frozen layer weights with non-trivial norm gains, shifts and biases."""
    _, _, d, heads, _ = SHAPES[name]
    w = init_layer_weights(d, heads, seed=3, name=f"test.{name}")
    w.ln1_gain, w.ln1_shift = 1.0 + 0.1 * arr(1, d), 0.1 * arr(2, d)
    w.ln2_gain, w.ln2_shift = 1.0 + 0.1 * arr(3, d), 0.1 * arr(4, d)
    w.mlp_b1, w.mlp_b2 = 0.1 * arr(5, 4 * d), 0.1 * arr(6, d)
    return w


@pytest.mark.parametrize("name", SHAPES)
def test_frozen_attention_matches_chain(name):
    b, n, d, _, _ = SHAPES[name]
    w = layer(name)
    x = Tensor(arr(10, b, n, d), requires_grad=True)
    assert_same(lambda: _half(mha, x, w, None), lambda: chain_half(chain_mha, x, w), [x], arr(11, b, n, d))


@pytest.mark.parametrize("name", SHAPES)
def test_frozen_mlp_matches_chain(name):
    b, n, d, _, _ = SHAPES[name]
    w = layer(name)
    x = Tensor(arr(12, b, n, d), requires_grad=True)
    assert_same(lambda: _half(mlp, x, w, None), lambda: chain_half(chain_mlp, x, w), [x], arr(13, b, n, d))


# the directions of the sites that write a stack: none, on one stack of both
# streams; both, in SLOT_ORDER, on one stack of both streams (their targets
# are rows 0 and 1, their sources rows 1 and 0); one stream's, on a one-row
# stack per stream
RESIDUAL_ROWS = {"no-term": (), "both": ("v2a", "a2v"), "audio": ("v2a",), "visual": ("a2v",)}
HALVES = {"mha": (mha, chain_mha), "mlp": (mlp, chain_mlp)}


def random_sites(directions, d, m, seed):
    """Latent sites over ``directions`` with every part drawn at random, so
    every term and gradient is live; the leaves need gradients."""
    s, narrow = len(directions), d // 4

    def leaf(k, *shape):
        return Tensor(0.5 * arr(seed + k, s, *shape), requires_grad=True)

    return AdapterSites(directions, "gelu", {
        "latents": leaf(0, m, d), "gate_compress": leaf(1), "gate_fuse": leaf(2),
        "down_w": leaf(3, 2, d // 2, narrow // 2), "up_w": leaf(4, 2, narrow // 2, d // 2), "down_b": leaf(5, narrow),
        "up_b": leaf(6, d)})


def half_pair(block, chain, stacks, w, sites):
    """A layer half of the stack that ``sites`` write (the one stack when
    there are none) as ``layer_forward`` records it, and as the chains ran
    it when the sites and the block were nodes of their own."""
    if sites is None:
        (x,) = stacks
        return lambda: _half(block, x, w, None), lambda: chain_half(chain, x, w)
    ((k, route),) = _routes(sites.directions, len(stacks)).items()
    x = stacks[k]
    # each stream's (stack, row)
    where = dict(zip(STACK_ORDER, ((s, i) for s, t in enumerate(stacks) for i in range(t.data.shape[0]))))
    source = stacks[where[SOURCE[sites.directions[0]]][0]]
    src = tuple(where[SOURCE[d]][1] for d in sites.directions)
    dst = tuple(where[TARGET[d]][1] for d in sites.directions)

    def chained():
        term = chain_adapter_forward(Slots.rows(source, src), Slots.rows(x, dst), sites, tuple(range(len(dst))))
        return chain_half(chain, x, w, term, dst)
    return lambda: _half(block, x, w, _site_term(sites, x, stacks, route)), chained


@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-frozen"])
@pytest.mark.parametrize("rows", RESIDUAL_ROWS)
@pytest.mark.parametrize("name", ["readme", "wide"])
def test_residual_matches_chain(name, rows, x_grad):
    # each layer half of a stack as one node: the frozen block, its residual
    # and the term of the sites that write the stack; the stacks need no
    # gradient at layer 0's attention half, where only the sites do
    b, n, d, _, m = SHAPES[name]
    w = layer(name)
    directions = RESIDUAL_ROWS[rows]
    xs = arr(60, 2, b, n, d)
    stacks = [Tensor(x, requires_grad=x_grad) for x in ([xs] if len(directions) != 1 else [xs[:1], xs[1:]])]
    sites = random_sites(directions, d, m, 61) if directions else None
    inputs = stacks + ([] if sites is None else [t for t in sites.parts.values()])
    g = arr(63, 2 // len(stacks), b, n, d)  # the target stack's shape
    for block, chain in HALVES.values():
        assert_same(*half_pair(block, chain, stacks, w, sites), inputs, g)


@pytest.mark.parametrize("half", HALVES)
def test_frozen_block_keeps_nothing_for_an_input_without_gradient(half):
    # at layer 0's attention half only the sites need a gradient: the block
    # kernel then returns no backward, so the node's closure holds no block
    # activation
    block, _ = HALVES[half]
    w = layer("odd")
    x = Tensor(arr(64, 2, 3, 6, 16))
    assert block(x.data, w, False)[1] is None
    sites = random_sites(("v2a", "a2v"), 16, 1, 65)
    (route,) = _routes(sites.directions, 1).values()
    out = _half(block, x, w, _site_term(sites, x, [x], route))
    assert out.requires_grad
    cells = dict(zip(out._backward.__code__.co_freevars, (c.cell_contents for c in out._backward.__closure__)))
    assert cells["back_x"] is None and callable(cells["back_s"])


def test_layer_forward_refuses_before_any_kernel_runs(monkeypatch):
    # each refusal fires before the first kernel: no MAC is tallied and no
    # frozen block or site runs
    w = layer("odd")
    sites = build_layer_sites(0, 16, 1, 4, 2, 0, "bidirectional")
    ran = []
    for name in ("mha", "mlp", "adapter_forward"):
        monkeypatch.setattr(fusion, name, lambda *a, name=name: ran.append(name))
    good = [Tensor(arr(66, 2, 3, 6, 16))]
    wrong_width = build_layer_sites(0, 8, 1, 4, 2, 0, "bidirectional")
    cases = [
        (ShapeError, r"need \(S, B, N, D\) stacks", [Tensor(arr(67, 2, 6, 16))], sites),
        (ShapeError, r"widths \[8, 16\] do not match layer width 16", [Tensor(arr(68, 2, 3, 6, 8))], sites),
        (ShapeError, r"widths \[8, 16\] do not match layer width 16", good, wrong_width),
        (ShapeError, r"one stack of both streams needs sites in both directions", good,
         build_layer_sites(0, 16, 1, 4, 2, 0, "a2v")),
    ]
    for error, match, stacks, at in cases:
        with count_macs() as c, pytest.raises(error, match=match):
            layer_forward(stacks, w, at)
        assert c.macs == 0
    assert ran == []


def kernel_node(kernel, ops, *args) -> Tensor:
    """A kernel pair as one node over the tensors ``ops`` (None where the
    kernel takes None), the kernel's other arguments ``args`` after them,
    its ``want`` or ``keep`` last; each gradient the backward gives goes to
    its operand with one ``_accum``."""
    y, back = kernel(*(None if t is None else t.data for t in ops), *args)
    out = Tensor._node(y, [t for t in ops if t is not None])
    if out.requires_grad:
        def _bw(g):
            for t, d in zip(ops, back(g)):
                if d is not None:
                    _accum(t, d)
        out._backward = _bw
    return out


def gated_operands(name, site):
    """(query, source) arrays of the three ways an adapter site calls
    ``gated_attention``: compress (the 2-D latents over a batch of source
    tokens), fuse (target tokens over the summary) and direct (target over
    source, whose length differs from the target's)."""
    b, n, d, _, m = SHAPES[name]
    src, dst, summary = arr(20, b, n + 2, d), arr(21, b, n, d), arr(22, b, m, d)
    return {"compress": (0.5 * arr(23, m, d), src),
            "fuse": (dst, summary),
            "direct": (dst, src)}[site]


def attention_node(q: Tensor, source: Tensor, gate: Tensor) -> Tensor:
    """The ``gated_attention`` kernel pair as one node, wanting the
    gradients of the query and source that need one; the gate's is always
    formed, so the gate must need one."""
    return kernel_node(gated_attention, [q, source, gate], (q.requires_grad, source.requires_grad))


# which of (query, source) need a gradient, besides the gate: both; a query
# that needs none, as at layer 0; neither, as at a direct site of layer 0
GRAD_PATTERNS = {"all": (True, True), "no-query": (False, True), "gate-only": (False, False)}


@pytest.mark.parametrize("pattern", GRAD_PATTERNS)
@pytest.mark.parametrize("site", ["compress", "fuse", "direct"])
@pytest.mark.parametrize("name", SHAPES)
def test_gated_attention_matches_chain(name, site, pattern):
    q_arr, s_arr = gated_operands(name, site)
    q_grad, s_grad = GRAD_PATTERNS[pattern]
    q = Tensor(q_arr, requires_grad=q_grad)
    s = Tensor(s_arr, requires_grad=s_grad)
    gate = Tensor(0.7, requires_grad=True)
    g = arr(24, *np.broadcast_shapes(q_arr.shape, s_arr.shape[:-2] + q_arr.shape[-2:]))
    assert_same(lambda: attention_node(q, s, gate), lambda: chain_cma(q, s, s, gate), [q, s, gate], g)


def neck_node(x: Tensor, p: dict, act: str) -> Tensor:
    """The ``bottleneck`` kernel pair as one node over ``x`` and the
    tensors ``p`` by part, keeping its backward: every operand must need a
    gradient."""
    return kernel_node(bottleneck, [x, p["down_w"], p["down_b"], p["up_w"], p["up_b"]], act, True)


def neck_leaves(*args, **kwargs) -> dict:
    """``helpers.bottleneck_parts`` as leaves, None where it gives None."""
    return {part: None if a is None else Tensor(a) for part, a in bottleneck_parts(*args, **kwargs).items()}


@pytest.mark.parametrize("act,bias", [("gelu", True), ("relu", False), ("relu", True), ("gelu", False)])
@pytest.mark.parametrize("name", SHAPES)
def test_bottleneck_matches_chain(name, act, bias):
    b, n, d, _, _ = SHAPES[name]
    p = neck_leaves(d, 4, 2, seed=7, name=f"test.{name}", bias=bias)
    p["up_w"].data = arr(30, *p["up_w"].shape)
    params = [p["down_w"], p["up_w"]]
    if bias:
        p["down_b"].data, p["up_b"].data = arr(31, *p["down_b"].shape), arr(32, d)
        params += [p["down_b"], p["up_b"]]
    for t in params:
        t.requires_grad = True
    x = Tensor(arr(33, b, n, d), requires_grad=True)
    assert_same(lambda: neck_node(x, p, act), lambda: chain_bottleneck(x, p, act), [x] + params, arr(34, b, n, d))


def assert_lone_is_one_slot(op, arrays, g):
    """The op on one direction's plain tensors against the same op on every
    operand with a leading axis of one, every operand needing a gradient:
    output, every gradient and the MAC and softmax tallies bit for bit."""
    lone = [None if a is None else Tensor(a, requires_grad=True) for a in arrays]
    stacked = [None if a is None else Tensor(a[None], requires_grad=True) for a in arrays]
    results = []
    for leaves, upstream in ((lone, g), (stacked, g[None])):
        with count_macs() as c:
            out = op(*leaves)
        out._backward(upstream)
        results.append((out.data, [None if t is None else t.grad for t in leaves], (c.macs, c.softmax_elems)))
    (y, got, macs), (want_y, want, want_macs) = results
    np.testing.assert_array_equal(y, want_y[0])
    assert macs == want_macs
    for t, a, b in zip(lone, got, want, strict=True):
        if t is None:
            assert a is None and b is None
        else:
            assert np.shape(a) == b.shape[1:]
            np.testing.assert_array_equal(a, b[0])


# (query, source) shapes: 2-D, batched, the 2-D latent query over a batch
LONE_CMA = {"2d": ((5, 8), (7, 8)), "batched": ((3, 5, 8), (3, 7, 8)), "latent": ((2, 8), (3, 7, 8))}


@pytest.mark.parametrize("shapes", LONE_CMA)
def test_gated_attention_lone_is_one_slot(shapes):
    q_shape, s_shape = LONE_CMA[shapes]
    s = arr(70, *s_shape)
    g = arr(72, *s_shape[:-2] + q_shape[-2:])
    assert_lone_is_one_slot(attention_node, [arr(73, *q_shape), s, np.array(0.6)], g)


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("act", ["gelu", "relu"])
def test_grouped_bottleneck_lone_is_one_slot(act, bias):
    # width 16 in 2 groups, narrowed to 4: x, down_w, down_b, up_w, up_b
    arrays = [arr(74, 3, 5, 16), arr(75, 2, 8, 2), arr(76, 4) if bias else None, arr(77, 2, 2, 8),
              arr(78, 16) if bias else None]

    def op(x, down_w, down_b, up_w, up_b):
        return neck_node(x, {"down_w": down_w, "down_b": down_b, "up_w": up_w, "up_b": up_b}, act)
    assert_lone_is_one_slot(op, arrays, arr(79, 3, 5, 16))


def test_no_grad_records_no_closure(monkeypatch):
    # under no_grad nothing is recorded and nothing is kept: no closure, no
    # GELU derivative, in the frozen MLP or in a site's bottleneck
    w = layer("odd")
    x = Tensor(arr(40, 2, 3, 6, 16), requires_grad=True)
    sites = random_sites(("v2a", "a2v"), 16, 1, 43)
    derivs = []

    def spy(v, deriv):
        derivs.append(deriv)
        return gelu_fwd(v, deriv)
    monkeypatch.setattr(backbone, "gelu_fwd", spy)
    monkeypatch.setitem(ACTIVATIONS, "gelu", spy)
    with no_grad():
        outs = layer_forward([x], w, {"mha": sites, "mlp": sites})
    for out in outs:
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    assert derivs == [False] * 3


def assert_frozen_weight_takes_no_gradient(field, seed):
    """A frozen weight is a plain array: it has no ``requires_grad`` flag to
    set, and a backward through the layer reaches the input alone, leaving
    the weight bit for bit as drawn."""
    w = layer("odd")
    weight = getattr(w, field)
    assert type(weight) is np.ndarray
    with pytest.raises(AttributeError):
        weight.requires_grad = True
    before = weight.copy()
    x = Tensor(arr(seed, 2, 3, 6, 16), requires_grad=True)
    [out] = layer_forward([x], w, {})
    backward(sum_all(out))
    assert x.grad is not None
    assert getattr(w, field) is weight
    np.testing.assert_array_equal(weight, before)


@pytest.mark.parametrize("field", ["ln1_gain", "wq", "wk", "wv", "wo"])
def test_frozen_attention_refuses_a_trainable_weight(field):
    assert_frozen_weight_takes_no_gradient(field, 41)


@pytest.mark.parametrize("field", ["ln2_shift", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"])
def test_frozen_mlp_refuses_a_trainable_weight(field):
    assert_frozen_weight_takes_no_gradient(field, 42)


# the final stacks the head reads: one stack of both streams, or one stack
# per stream at unequal token counts (audio first, as STACK_ORDER puts it)
HEAD_STACKS = {"one-stack": ((2, 4),), "two-stacks": ((1, 6), (1, 4))}


@pytest.mark.parametrize("stacks", HEAD_STACKS)
@pytest.mark.parametrize("name", ["readme", "wide", "odd"])
def test_head_matches_chain(name, stacks):
    b, _, d, _, _ = SHAPES[name]
    tensors = [Tensor(arr(64 + i, s, b, n, d), requires_grad=True) for i, (s, n) in enumerate(HEAD_STACKS[stacks])]
    weight = Tensor(arr(66, 2 * d, 2), requires_grad=True)
    bias = Tensor(arr(67, 2), requires_grad=True)
    assert_same(lambda: event_head(tensors, weight, bias), lambda: chain_head(tensors, weight, bias),
                tensors + [weight, bias], arr(68, b, 2))


# a train step of the whole model: README config, train-wide config, and an
# odd one (2 heads, 6 audio against 4 visual tokens, ReLU, no bias; direct
# and latent)
STEP_CONFIGS = {
    "readme": {},
    "wide": dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4),
    "odd-latent": dict(width=16, heads=2, latent_count=1, spec_hw=(9, 6), bottleneck_act="relu",
                       bottleneck_bias=False),
    "odd-direct": dict(width=16, heads=2, spec_hw=(9, 6), bottleneck_act="relu", bottleneck_bias=False,
                       use_latents=False, mode="a2v"),
}


def train_step(model, batch):
    model.registry.zero_grad()
    logits = model.logits(batch)
    backward(cross_entropy_logits(logits, batch.labels))
    return logits.data, {name: t.grad for name, t in model.registry.trainable()}


@pytest.mark.parametrize("name", STEP_CONFIGS)
def test_train_step_matches_chains_bitwise(name, monkeypatch):
    cfg = ModelConfig(**STEP_CONFIGS[name])
    model = TwoStreamModel(cfg, seed=0)
    batch = generate_dataset(0, 8, 0.1, cfg.image_hw, cfg.spec_hw)
    # move every site off its zero up-projection so every gradient is live
    for sites in model.sites:
        for s in sites.values():
            s.parts["up_w"].data[...] = 0.1 * arr(50, *s.parts["up_w"].data.shape[1:])
    logits, grads = train_step(model, batch)
    monkeypatch.setattr(model_module, "layer_forward", chain_layer_forward)
    monkeypatch.setattr(model_module, "event_head", chain_head)
    want_logits, want_grads = train_step(model, batch)
    np.testing.assert_array_equal(logits, want_logits)
    assert grads.keys() == want_grads.keys()
    for key in grads:
        np.testing.assert_array_equal(grads[key], want_grads[key], err_msg=key)
