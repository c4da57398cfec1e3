"""Differential tests: ``grouped_linear`` and ``gelu`` against the einsum and
np.power kernels they replaced (``helpers.einsum_grouped_linear`` and
``helpers.power_gelu``), at the train-wide benchmark shapes and at odd ones."""
import numpy as np
import pytest

from avfuse.autodiff import Tensor, gelu, grouped_linear
from avfuse.backbone import ImageInput, SpectrogramInput
from avfuse.model import ModelConfig, TwoStreamModel, frozen_twin

from helpers import einsum_grouped_linear, power_gelu

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
