"""Differential tests of the kernels against the code they replaced, at the
train-wide benchmark shapes and at odd ones: ``grouped_linear`` and ``gelu``
against the einsum and np.power kernels (``helpers.einsum_grouped_linear``
and ``helpers.power_gelu``), to 1e-12; and the in-place ``gelu``,
``layer_norm``, attention softmax and biased ``matmul`` against the plain
expressions they ran before (``helpers.product_gelu``,
``helpers.expr_layer_norm``, ``helpers.expr_attention`` and
``helpers.matmul_add``), bit for bit."""
import numpy as np
import pytest

from avfuse.autodiff import (
    Tensor,
    add,
    attention,
    backward,
    gelu,
    grouped_linear,
    layer_norm,
    matmul,
    mul,
    reshape,
)
from avfuse.backbone import ImageInput, SpectrogramInput
from avfuse.model import ModelConfig, TwoStreamModel, frozen_twin

from helpers import (
    einsum_grouped_linear,
    expr_attention,
    expr_layer_norm,
    matmul_add,
    power_gelu,
    product_gelu,
    sum_all,
)

# (input shape, grouped weight shape): the train-wide down and up
# projections, then three groups of odd widths, batched and 2-D.
GROUPED = {
    "wide-down": ((8, 64, 128), (2, 64, 16)),
    "wide-up": ((8, 64, 32), (2, 16, 64)),
    "odd": ((3, 7, 15), (3, 5, 2)),
    "odd-2d": ((7, 15), (3, 5, 2)),
}
GELU = {"wide": (8, 64, 512), "odd": (3, 7, 5)}


def arr(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def assert_close(got, want):
    """Agreement to 1e-12 of the reference tensor's largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def run_op(op, arrays, g):
    """The op's output and the gradient of every input under upstream ``g``."""
    ts = [None if a is None else Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ts)
    out._backward(g)
    return out.data, [None if t is None else t.grad for t in ts]


def assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("name", GROUPED)
def test_grouped_linear_matches_einsum_oracle(name, with_bias):
    xs, ws = GROUPED[name]
    x, w = arr(1, *xs), arr(2, *ws)
    b = arr(3, ws[0] * ws[2]) if with_bias else None
    g = arr(4, *xs[:-1], ws[0] * ws[2])
    y, grads = run_op(grouped_linear, [x, w, b], g)
    want_y, *want_grads = einsum_grouped_linear(x, w, b, g)
    assert_close(y, want_y)
    for got, want in zip(grads, want_grads):
        if want is None:
            assert got is None
        else:
            assert_close(got, want)


@pytest.mark.parametrize("name", GELU)
def test_gelu_matches_power_oracle(name):
    v, g = 2.0 * arr(5, *GELU[name]), arr(6, *GELU[name])
    y, (dv,) = run_op(gelu, [v], g)
    want_y, want_dv = power_gelu(v, g)
    assert_close(y, want_y)
    assert_close(dv, want_dv)


def test_batch_rows_match_single_samples_bitwise():
    xs, ws = GROUPED["wide-down"]
    x, w, b = arr(7, *xs), arr(8, *ws), arr(9, ws[0] * ws[2])
    g = arr(10, *xs[:-1], ws[0] * ws[2])
    y, (dx, _, _) = run_op(grouped_linear, [x, w, b], g)
    h, (dh,) = run_op(gelu, [x], x)
    for i in range(xs[0]):
        one_y, (one_dx, _, _) = run_op(grouped_linear, [x[i], w, b], g[i])
        np.testing.assert_array_equal(y[i], one_y)
        np.testing.assert_array_equal(dx[i], one_dx)
        one_h, (one_dh,) = run_op(gelu, [x[i]], x[i])
        np.testing.assert_array_equal(h[i], one_h)
        np.testing.assert_array_equal(dh[i], one_dh)


@pytest.mark.parametrize("use_latents", [True, False], ids=["latent", "direct"])
def test_identity_at_init_stays_bitwise_at_width_128(use_latents):
    # the train-wide model: 64+64 tokens, width 128, m=4
    cfg = ModelConfig(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4,
                      use_latents=use_latents)
    r = np.random.default_rng(11)
    pairs = [(ImageInput(r.uniform(size=cfg.image_hw + (3,))), SpectrogramInput(r.standard_normal(cfg.spec_hw)))
             for _ in range(8)]
    got = TwoStreamModel(cfg, seed=0).logits_batch(pairs).data
    np.testing.assert_array_equal(got, frozen_twin(cfg, seed=0).logits_batch(pairs).data)


# train-wide shapes (the MLP's hidden activations, the layer norms' inputs),
# then odd ones, batched and 2-D; gelu's "odd-blocks" spans one full block
# of autodiff._BLOCK values and a partial one
IN_PLACE_GELU = {"wide": (8, 64, 512), "odd": (3, 7, 5), "odd-2d": (7, 5), "odd-blocks": (3, 7, 1001)}
IN_PLACE_NORM = {"wide": (8, 64, 128), "wide-hidden": (8, 64, 512), "odd": (3, 7, 5), "odd-2d": (7, 5)}
# (q, k, v shapes, heads): self-attention at train-wide width, whose scores
# are (8, 4, 64, 64); a 2-D latent query broadcast over the batch, as in cma;
# and odd widths with unequal query and key counts
IN_PLACE_ATTENTION = {
    "wide": ((8, 64, 128), (8, 64, 128), (8, 64, 128), 4),
    "wide-latent": ((4, 128), (8, 64, 128), (8, 64, 128), 4),
    "odd": ((3, 5, 6), (3, 7, 6), (3, 7, 9), 3),
    "odd-2d": ((5, 6), (7, 6), (7, 9), 3),
}
# (input, weight): the MLP's two products at train-wide width, the head's
# (B, 1, 2D) pooled rows, and odd shapes
BIASED_MATMUL = {
    "wide-up": ((8, 64, 128), (128, 512)),
    "wide-down": ((8, 64, 512), (512, 128)),
    "head": ((8, 1, 256), (256, 2)),
    "odd": ((3, 5, 7), (7, 3)),
    "odd-2d": ((5, 7), (7, 3)),
}


@pytest.mark.parametrize("name", IN_PLACE_GELU)
def test_in_place_gelu_is_bitwise_the_expression(name):
    v, g = 2.0 * arr(20, *IN_PLACE_GELU[name]), arr(21, *IN_PLACE_GELU[name])
    y, (dv,) = run_op(gelu, [v], g)
    assert_same((y, dv), product_gelu(v, g))


@pytest.mark.parametrize("name", IN_PLACE_NORM)
def test_in_place_layer_norm_is_bitwise_the_expression(name):
    shape = IN_PLACE_NORM[name]
    x, g = 3.0 * arr(22, *shape) + 0.5, arr(23, *shape)
    gain, shift = 1.0 + 0.1 * arr(24, shape[-1]), 0.1 * arr(25, shape[-1])
    y, grads = run_op(layer_norm, [x, gain, shift], g)
    assert_same((y, *grads), expr_layer_norm(x, gain, shift, g))


@pytest.mark.parametrize("name", IN_PLACE_ATTENTION)
def test_in_place_attention_softmax_is_bitwise_the_expression(name):
    qs, ks, vs, heads = IN_PLACE_ATTENTION[name]
    q, k, v = 2.0 * arr(26, *qs), 2.0 * arr(27, *ks), arr(28, *vs)
    g = arr(29, *ks[:-2], qs[-2], vs[-1])
    y, grads = run_op(lambda *ts: attention(*ts, heads=heads), [q, k, v], g)
    assert_same((y, *grads), expr_attention(q, k, v, heads, g))


@pytest.mark.parametrize("name", BIASED_MATMUL)
def test_biased_matmul_is_bitwise_matmul_then_add(name):
    xs, ws = BIASED_MATMUL[name]
    a, w, b = arr(30, *xs), arr(31, *ws), arr(32, ws[1])
    g = arr(33, *xs[:-1], ws[1])
    y, grads = run_op(matmul, [a, w, b], g)
    assert_same((y, *grads), matmul_add(a, w, b, g))


def test_biased_head_matches_the_reshape_then_add_chain():
    # event_head adds its bias before the (B, 1, 2) -> (B, 2) reshape; the
    # bias gradient must equal the old add-after-reshape one bit for bit
    xs, ws = BIASED_MATMUL["head"]
    p, w, b, g = arr(34, *xs), arr(35, *ws), arr(36, ws[1]), arr(37, xs[0], ws[1])
    new = [Tensor(t, requires_grad=True) for t in (p, w, b)]
    old = [Tensor(t, requires_grad=True) for t in (p, w, b)]
    fused = reshape(matmul(*new), (xs[0], ws[1]))
    chain = add(reshape(matmul(*old[:2]), (xs[0], ws[1])), old[2])
    np.testing.assert_array_equal(fused.data, chain.data)
    for out in (fused, chain):
        backward(sum_all(mul(out, Tensor(g))))
    for t_new, t_old in zip(new, old):
        np.testing.assert_array_equal(t_new.grad, t_old.grad)
