"""Memory guard: the bytes one train step (batched forward, cross-entropy,
backward) allocates, traced by ``tracemalloc``, at the README config and at
the train-wide benchmark config, there also in mode ``a2v``. Bounds are on
the traced peak and on what the step still holds after ``backward`` while
its loss is alive. ``backward`` frees the graph, so that is the trainable
gradients and the loss itself. Each bound sits under 5% above the figure
measured when it was set (README: peak 0.835 MiB, held 0.043 MiB;
train-wide: peak 41.12 MiB, held 0.315 MiB; train-wide ``a2v``: peak
20.98 MiB, held 0.160 MiB), so a change that makes a step keep more
activations has to move a number here on purpose: a frozen block that kept
its saved activations for an input that needs no gradient (layer 0's
attention) read a train-wide peak of 47.12 MiB, and ``a2v`` read a peak of
31.43 MiB while both streams shared one stack, whose source rows then ran
through every backward. Before the frozen blocks added their residual and
cross term in their own node, the peaks were 0.883 and 44.13 MiB; before
``backward`` freed the graph and the GELU kernels saved their derivative,
the figures were 1.071 / 0.408 and 56.65 / 20.61 MiB."""
import gc
import tracemalloc

import numpy as np
import pytest

from avfuse.autodiff import backward, cross_entropy_logits
from avfuse.model import ModelConfig, TwoStreamModel
from avfuse.tasks import generate_dataset

MIB = 2**20

# config overrides: (peak bound, held bound) in MiB
WIDE = dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4)
BOUNDS = {
    "readme": ({}, 0.87, 0.045),
    "train-wide": (WIDE, 43.0, 0.33),
    "train-wide-a2v": (dict(WIDE, mode="a2v"), 21.9, 0.165),
}


@pytest.mark.parametrize("name", BOUNDS)
def test_train_step_memory_is_bounded(name):
    overrides, peak_bound, held_bound = BOUNDS[name]
    cfg = ModelConfig(**overrides)
    model = TwoStreamModel(cfg, seed=0)
    batch = generate_dataset(0, 8, 0.1, cfg.image_hw, cfg.spec_hw)

    def step():
        model.registry.zero_grad()
        loss = cross_entropy_logits(model.logits(batch), batch.labels)
        backward(loss)
        return loss

    step()  # a first step builds whatever caches numpy and the interpreter keep
    gc.collect()
    tracemalloc.start()
    try:
        loss = step()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    print(f"{name}: peak {peak / MIB:.3f} MiB, held {held / MIB:.3f} MiB")
    assert peak / MIB <= peak_bound
    assert held / MIB <= held_bound
