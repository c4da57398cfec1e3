"""Memory guard: the bytes one train step (batched forward, cross-entropy,
backward) allocates, traced by ``tracemalloc``, at the README config and at
the train-wide benchmark config. Bounds are on the traced peak and on what
the step still holds after ``backward`` while its loss is alive (the graph's
node outputs and the trainable gradients). Each bound sits under 5% above
the figure measured when it was set (README: peak 1.071 MiB, held
0.408 MiB; train-wide: peak 56.65 MiB, held 20.61 MiB), so a change that
makes a step keep more activations has to move a number here on purpose."""
import gc
import tracemalloc

import numpy as np
import pytest

from avfuse.autodiff import backward, cross_entropy_logits
from avfuse.model import ModelConfig, TwoStreamModel
from avfuse.tasks import generate_dataset

MIB = 2**20

# config overrides: (peak bound, held bound) in MiB
BOUNDS = {
    "readme": ({}, 1.12, 0.425),
    "train-wide": (dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4), 59.0, 21.5),
}


@pytest.mark.parametrize("name", BOUNDS)
def test_train_step_memory_is_bounded(name):
    overrides, peak_bound, held_bound = BOUNDS[name]
    cfg = ModelConfig(**overrides)
    model = TwoStreamModel(cfg, seed=0)
    batch = generate_dataset(0, 8, 0.1, cfg.image_hw, cfg.spec_hw)
    pairs = [(s.image, s.spectrogram) for s in batch]
    labels = np.array([s.label for s in batch])

    def step():
        model.registry.zero_grad()
        loss = cross_entropy_logits(model.logits_batch(pairs), labels)
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
