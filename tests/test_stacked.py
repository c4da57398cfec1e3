"""Differential tests of one stack of both streams against a stack per stream.

``TwoStreamModel.forward`` carries the streams through the layers in stacks,
and one layer function runs them: with equal token counts in mode
``bidirectional`` or ``none`` both streams share a stack, so each frozen
block and each attachment's sites run once for both. The reference runs the
same layer function with each stream in a stack of its own, as unequal
counts and the one-direction modes run. Over those two modes x {latent,
direct}, at the README config and the train-wide benchmark config, one train
step must give bitwise equal logits, gradients within 1e-12 and equal MAC
and softmax tallies. The gradients cannot be bitwise equal: the
contributions to a stream's tokens arrive in a different order when one node
serves both streams. Then the row pieces: the ``take`` and ``add_rows``
oracles of the rows the stacks hand out and take back, the ``Slots``
operands of the oracle's per-block layer, the refusal of one stack of both
streams for sites in one direction, and the sites' check of their direction
count at construction."""
import numpy as np
import pytest

from avfuse import model as model_module
from avfuse.autodiff import ShapeError, Tensor, backward, count_macs, cross_entropy_logits
from avfuse.backbone import init_layer_weights
from avfuse.fusion import MODE_DIRECTIONS, MODES, AdapterSites, build_layer_sites, layer_forward
from avfuse.model import ModelConfig, TwoStreamModel, event_head
from avfuse.tasks import generate_dataset

from helpers import Slots, add_rows, mul, site_views, sum_all, take

CONFIGS = {"readme": {}, "wide": dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4)}
# the modes whose streams share one stack at equal token counts
STACKED_MODES = [m for m in MODES if len(MODE_DIRECTIONS[m]) != 1]


def arr(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def logits_apart(model, batch):
    """``model.logits`` with each stream in a stack of its own: the path
    that unequal token counts take."""
    xa, xv = model.tokenize(batch)
    stacks = [Tensor([x]) for x in (xa, xv)]
    for w, sites in zip(model.layers, model.sites):
        stacks = layer_forward(stacks, w, sites)
    return event_head(stacks, model.head_weight, model.head_bias)


def train_step(model, batch, logits_of):
    """Logits, every trainable's gradient, and the step's MAC and softmax
    tallies."""
    model.registry.zero_grad()
    with count_macs() as c:
        logits = logits_of(batch)
        backward(cross_entropy_logits(logits, batch.labels))
    return logits.data, {name: t.grad for name, t in model.registry.trainable()}, (c.macs, c.softmax_elems)


@pytest.mark.parametrize("use_latents", [True, False], ids=["latent", "direct"])
@pytest.mark.parametrize("mode", STACKED_MODES)
@pytest.mark.parametrize("name", CONFIGS)
def test_stacked_step_matches_per_stream(name, mode, use_latents):
    cfg = ModelConfig(**CONFIGS[name], mode=mode, use_latents=use_latents)
    model = TwoStreamModel(cfg, seed=0)
    # move every trainable off its init, so every site term and gradient is live
    noise = np.random.default_rng(1)
    for _, t in site_views(model):
        t.data += 0.1 * noise.standard_normal(t.shape)
    batch = generate_dataset(0, 8, 0.1, cfg.image_hw, cfg.spec_hw)
    logits, grads, tallies = train_step(model, batch, model.logits)
    want_logits, want_grads, want_tallies = train_step(model, batch, lambda b: logits_apart(model, b))
    np.testing.assert_array_equal(logits, want_logits)
    assert tallies == want_tallies
    assert grads.keys() == want_grads.keys()
    for key in grads:
        assert np.max(np.abs(grads[key] - want_grads[key])) <= 1e-12, key


def test_unequal_token_counts_take_the_per_stream_path(monkeypatch):
    # one layer function for every token count and mode: unequal counts and
    # one-direction modes give each stream a stack of its own, equal counts
    # in the other modes one stack of both
    calls = []

    def spy(stacks, w, sites):
        calls.append([x.shape[:3] for x in stacks])
        return layer_forward(stacks, w, sites)

    monkeypatch.setattr(model_module, "layer_forward", spy)
    for spec_hw, mode, shapes in (
        ((9, 6), "bidirectional", [(1, 4, 6), (1, 4, 4)]),  # 6 audio tokens against 4 visual ones
        ((8, 8), "bidirectional", [(2, 4, 4)]),
        ((8, 8), "a2v", [(1, 4, 4), (1, 4, 4)]),
    ):
        cfg = ModelConfig(spec_hw=spec_hw, mode=mode)
        calls.clear()
        batch = generate_dataset(0, 4, 0.1, cfg.image_hw, cfg.spec_hw)
        logits = TwoStreamModel(cfg, seed=0).logits(batch)
        assert logits.shape == (4, 2)
        assert calls == [shapes] * cfg.layers


@pytest.mark.parametrize("mode", MODES)
def test_stacked_layer_rows_are_the_dual_layer_outputs(mode):
    # one layer at single-sample shapes, a batch of one: the rows of one
    # stack of both streams are the two stacks' outputs, one stream each,
    # bit for bit; sites in one direction refuse one stack of both streams
    w = init_layer_weights(8, 2, 4, "L4")
    xa, xv = Tensor(arr(1, 1, 5, 8)), Tensor(arr(2, 1, 5, 8))
    sites = build_layer_sites(0, 8, 2, 2, 2, 3, mode)
    for s in sites.values():
        s.parts["up_w"].data[...] = 0.1 * arr(3, *s.parts["up_w"].data.shape[1:])
    za, zv = layer_forward([Tensor([x.data]) for x in (xa, xv)], w, sites)
    if mode in STACKED_MODES:
        (y,) = layer_forward([Tensor([xa.data, xv.data])], w, sites)
        np.testing.assert_array_equal(y.data, np.concatenate([za.data, zv.data]))
    else:
        with pytest.raises(ShapeError, match="one stack of both streams needs sites in both directions"):
            layer_forward([Tensor([xa.data, xv.data])], w, sites)
    # unstacked tokens, three streams, one stream, too few or too many axes,
    # and one stream's (2, N, D) batch, which a 3-D stack would read as a
    # one-sample stack of both streams
    for bad in ([xa], [Tensor(arr(4, 3, 1, 5, 8))], [Tensor([xa.data])], [Tensor(arr(5, 2, 8))],
                [Tensor(arr(6, 2, 1, 3, 5, 8))], [Tensor([xa.data]), Tensor(arr(7, 2, 4, 8))],
                [Tensor(arr(8, 2, 5, 8))]):
        with pytest.raises(ShapeError, match=r"need \(S, B, N, D\) stacks"):
            layer_forward(bad, w, sites)


def grads_under(out, g, leaves):
    backward(sum_all(mul(out, Tensor(g))))
    return [t.grad for t in leaves]


def test_take_and_add_rows():
    x = Tensor(arr(13, 2, 3, 4), requires_grad=True)
    row = take(x, 1)
    np.testing.assert_array_equal(row.data, x.data[1])
    (gx,) = grads_under(row, arr(14, 3, 4), [x])
    np.testing.assert_array_equal(gx, np.stack([np.zeros((3, 4)), arr(14, 3, 4)]))

    for rows in ((1,), (0, 1)):
        y, t = Tensor(arr(15, 2, 3, 4), requires_grad=True), Tensor(arr(16, len(rows), 3, 4), requires_grad=True)
        out = add_rows(y, t, rows)
        want = y.data.copy()
        want[list(rows)] += t.data
        np.testing.assert_array_equal(out.data, want)
        g = arr(17, 2, 3, 4)
        gy, gt = grads_under(out, g, [y, t])
        np.testing.assert_array_equal(gy, g)
        np.testing.assert_array_equal(gt, g[list(rows)])
    with pytest.raises(ValueError):
        add_rows(y, Tensor(np.zeros((1, 3, 4))), (2,))


def test_slots_read_and_route():
    # the oracle's operands: rows of one tensor, a view, the gradient back in
    # its rows, zeros where no slot reads; rows of a stacked parameter route
    # the same way, into the leaf that holds every direction
    x = Tensor(arr(22, 2, 3), requires_grad=True)
    flipped = Slots.rows(x, (1, 0))
    assert np.shares_memory(flipped.data, x.data)
    np.testing.assert_array_equal(flipped.data, x.data[::-1])
    flipped.route(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
    x.grad = None
    Slots.rows(x, (1,)).route(np.array([[3.0, 3.0, 3.0]]))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])

    gates = Tensor(arr(20, 2), requires_grad=True)
    for row in (0, 1):
        one = Slots.rows(gates, (row,))
        np.testing.assert_array_equal(one.data, gates.data[row:row + 1])
        one.route(np.array([row + 1.0]))
    np.testing.assert_array_equal(gates.grad, [1.0, 2.0])
    frozen = Tensor(arr(21, 2, 3))
    Slots.rows(frozen, (0,)).route(np.ones((1, 3)))
    assert frozen.grad is None


def test_adapter_forward_checks_the_direction_count():
    # the sites' leaves must lead with one row per direction: checked once,
    # when the sites are built, not on every adapter call
    sites = build_layer_sites(0, 8, 2, 2, 2, 0, "bidirectional")["mha"]
    with pytest.raises(ValueError, match="number of directions, 1"):
        AdapterSites(("a2v",), sites.act, sites.parts)
