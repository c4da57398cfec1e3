"""Config sweep: about forty small valid configs drawn from a seeded numpy
generator, plus the edge cases the random draw is unlikely to hit. Each
config must keep three properties of the whole model:

- identity at init: its logits equal its frozen twin's, bit for bit;
- batch independence: with every trainable moved off its init, each logits
  row equals its sample scored alone, bit for bit;
- gradients: central differences agree with the analytic gradient at
  ``helpers.check_gradients``' tolerances, on one sampled coordinate of every
  trainable parameter (each adapter site's slot of a stacked leaf counts as
  one), with every trainable moved off its init.
"""
import numpy as np
import pytest

from avfuse.autodiff import cross_entropy_logits
from avfuse.backbone import InputBatch
from avfuse.fusion import MODES
from avfuse.model import ModelConfig, TwoStreamModel, frozen_twin

from helpers import check_gradients, site_views

# README shapes at one layer unless an entry says otherwise
EDGES = {name: {"layers": 1, **fields} for name, fields in {
    # one bottleneck column per group with two groups: the activation's
    # input is then a strided view of the grouped product
    "one-column-groups": dict(width=8, heads=2, ratio=4, groups=2),
    "one-column-groups-direct": dict(width=16, heads=4, ratio=4, groups=4, use_latents=False),
    "one-visual-token": dict(image_hw=(4, 4)),
    "one-token-each": dict(image_hw=(4, 4), spec_hw=(3, 2), mode="v2a"),
    "m-above-both-counts": dict(latent_count=7, spec_hw=(4, 8)),
    "three-layers": dict(layers=3, width=8, heads=2, ratio=2, groups=2),
    "heads-equal-width": dict(width=8, heads=8, ratio=2, groups=2),
    "relu": dict(bottleneck_act="relu"),
    "no-bias": dict(bottleneck_bias=False),
    "no-audio-pos": dict(audio_pos="none", spec_hw=(9, 6)),
    "more-audio-tokens": dict(spec_hw=(12, 8)),
    "more-visual-tokens": dict(image_hw=(12, 8), spec_hw=(5, 3), mode="a2v"),
}.items()}


def random_config(r: np.random.Generator) -> dict:
    heads, ratio, groups, patch = (int(r.choice(c)) for c in ((1, 2, 4), (1, 2, 4), (1, 2), (2, 4)))
    unit = int(np.lcm(heads, ratio * groups))
    return dict(
        layers=int(r.integers(1, 3)),
        width=unit * int(r.integers(1, 16 // unit + 1)),
        heads=heads,
        patch=patch,
        image_hw=(patch * int(r.integers(1, 4)), patch * int(r.integers(1, 4))),
        spec_hw=(int(r.integers(1, 3 * patch + 1)), int(r.integers(1, 3 * patch + 1))),
        latent_count=int(r.integers(1, 5)),
        ratio=ratio,
        groups=groups,
        mode=str(r.choice(MODES)),
        use_latents=bool(r.integers(2)),
        bottleneck_act=str(r.choice(["gelu", "relu"])),
        bottleneck_bias=bool(r.integers(2)),
        audio_pos=str(r.choice(["resize", "none"])),
    )


_draws = np.random.default_rng(2024)
CONFIGS = EDGES | {f"random-{i}": random_config(_draws) for i in range(40)}


def inputs(cfg: ModelConfig, r: np.random.Generator, count: int) -> InputBatch:
    pairs = [(r.uniform(size=cfg.image_hw + (3,)), r.standard_normal(cfg.spec_hw)) for _ in range(count)]
    return InputBatch(np.stack([img for img, _ in pairs]), np.stack([spec for _, spec in pairs]))


@pytest.mark.parametrize("name", CONFIGS)
def test_config_keeps_identity_batch_rows_and_gradients(name):
    cfg = ModelConfig(**CONFIGS[name])
    r = np.random.default_rng(7)
    batch = inputs(cfg, r, 3)
    model = TwoStreamModel(cfg, seed=0)
    np.testing.assert_array_equal(model.logits(batch).data, frozen_twin(cfg, seed=0).logits(batch).data)

    for _, t in site_views(model):
        t.data += 0.3 * r.standard_normal(t.shape)
    logits = model.logits(batch).data
    for i, row in enumerate(logits):
        np.testing.assert_array_equal(row, model.logits(batch[i:i + 1]).data[0])

    # one coordinate drawn per parameter, in registration order, and checked
    # on the leaf that holds it
    leaves = [t for _, t in model.registry.trainable()]
    picks = {id(t): [] for t in leaves}
    for _, view in site_views(model):
        leaf = next(t for t in leaves if np.shares_memory(t.data, view.data))
        start = (view.data.ctypes.data - leaf.data.ctypes.data) // leaf.data.itemsize
        picks[id(leaf)].append(start + int(r.integers(view.size)))
    queue = iter([picks[id(t)] for t in leaves])
    labels = np.array([0, 1])
    check_gradients(
        lambda: cross_entropy_logits(model.logits(batch[:2]), labels),
        leaves,
        coords=lambda size: next(queue),
    )
