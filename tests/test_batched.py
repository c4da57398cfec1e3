"""Differential tests: the batched forward against the per-sample, per-head
forward it replaced (``helpers.oracle_logits_batch``), over every fusion mode
and both adapter variants."""
import numpy as np
import pytest

from avfuse.autodiff import Rng, backward, count_macs, cross_entropy_logits
from avfuse.fusion import MODES
from avfuse.model import ModelConfig, TwoStreamModel, frozen_twin

from helpers import oracle_logits_batch, rand_batch, site_views

CELLS = [(mode, latents) for mode in MODES for latents in (True, False)]

# Off the default shapes: two heads, one latent, a spectrogram grid that
# needs padding, a bias-free ReLU bottleneck and no audio positions.
ODD = dict(width=16, heads=2, latent_count=1, spec_hw=(9, 6), bottleneck_act="relu",
           bottleneck_bias=False, audio_pos="none")


def make_batch(cfg, count, seed):
    r = Rng.for_name(seed, "batched.inputs")
    batch = rand_batch(r, cfg, count)
    labels = r.integers(count, 0, 2).astype(np.int64)
    return batch, labels


def perturb(model, seed):
    """Move every trainable tensor off its init, so every site is live."""
    r = np.random.default_rng(seed)
    for _, t in site_views(model):
        t.data += 0.3 * r.standard_normal(t.shape)


def logits_grads_counts(model, logits_fn, batch, labels):
    model.registry.zero_grad()
    with count_macs() as counter:
        logits = logits_fn(batch)
    backward(cross_entropy_logits(logits, labels))
    assert all(type(t) is np.ndarray for _, t in model.registry.frozen())
    grads = {name: t.grad.copy() for name, t in model.registry.trainable()}
    return logits.data, grads, (counter.macs, counter.softmax_elems)


@pytest.mark.parametrize("odd", [False, True], ids=["default", "odd"])
@pytest.mark.parametrize("mode,use_latents", CELLS)
def test_batched_matches_per_sample_oracle(mode, use_latents, odd):
    cfg = ModelConfig(mode=mode, use_latents=use_latents, **(ODD if odd else {}))
    model = TwoStreamModel(cfg, seed=3)
    perturb(model, 7)
    batch, labels = make_batch(cfg, 8, 11)
    new_logits, new_grads, new_counts = logits_grads_counts(model, model.logits, batch, labels)
    old_logits, old_grads, old_counts = logits_grads_counts(
        model, lambda b: oracle_logits_batch(model, b), batch, labels)
    if odd:
        assert np.max(np.abs(new_logits - old_logits)) <= 1e-12
    else:
        np.testing.assert_array_equal(new_logits, old_logits)
    assert new_counts == old_counts
    assert new_grads.keys() == old_grads.keys()
    for name, g in new_grads.items():
        assert np.max(np.abs(g - old_grads[name])) <= 1e-12, name


@pytest.mark.parametrize("mode,use_latents", CELLS)
def test_identity_at_init_stays_bitwise(mode, use_latents):
    cfg = ModelConfig(mode=mode, use_latents=use_latents)
    adapted = TwoStreamModel(cfg, seed=0)
    frozen = frozen_twin(cfg, seed=0)
    batch, _ = make_batch(cfg, 8, 12)
    got = adapted.logits(batch).data
    np.testing.assert_array_equal(got, frozen.logits(batch).data)
    np.testing.assert_array_equal(got, oracle_logits_batch(frozen, batch).data)

