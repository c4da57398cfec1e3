"""Cost guard: the tape nodes and ``count_macs`` tallies of one train step
(batched forward, cross-entropy, backward) at the README config (also in
``a2v`` and with direct sites), at the train-wide benchmark config and at
unequal token counts, pinned to exact numbers, and the Python-level calls
the step makes to the package's own functions. A change that adds nodes,
arithmetic or calls to a step has to update a number here on purpose.
Counts only, no timing.

The README step records 6 nodes over its 2 layers, 2 × layers × stacks + 2:
one per layer half per stack (the frozen block, its residual and the term
of every site that writes the stack: compress, fuse and bottleneck for each
direction), 1 ``event_head`` and 1 ``cross_entropy_logits``. Every
``Tensor._node`` call is pinned too, 6 at README, so every node records a
gradient: tokenization and stacking record no node, since the tokens come
out of the frozen stem as plain arrays and each stack is a leaf copied from
them,
and layer 0's attention half, whose input needs no gradient, still records
one for its sites. In mode ``none`` the four half nodes record no gradient.

At README shapes a step's time follows its Python-level calls more closely
than its nodes, so those are pinned too: every call, counted with
``sys.setprofile``, of a function whose code lives in ``src/avfuse``. Frames
named ``<...>`` (comprehensions, generator expressions, lambdas) are not
counted: their number changes with the Python version, which inlines
comprehensions from 3.12 on. Inside a layer half's node the frozen block
and the sites run as forward kernels that record nothing and return their
backward as a closure, so no gradient passes through the tape between them:
each site leaf gets its gradient with one ``_accum``, and the stack its
target and source rows' gradients as views of its own gradient's rows. The
adapter parameters are one stacked leaf per layer, attachment and part, read
whole, so one direction (``a2v``) makes as many calls as two. The attention
kernels take no head count: only ``mha`` splits its operands into heads,
with Q, K and V from one product, and merges its results back. The site
parameters are checked when the sites are built, and a layer checks its
stacks, widths and heads once per call. The frozen weights are plain arrays
that no node takes as a parent, so no call checks that they need no
gradient, and a site's parts are read from its ``parts`` dict, not through
a call."""
import sys
from pathlib import Path

import numpy as np
import pytest

import avfuse
from avfuse.autodiff import Tensor, backward, count_macs, cross_entropy_logits
from avfuse.model import ModelConfig, TwoStreamModel
from avfuse.tasks import generate_dataset

SOURCE = str(Path(avfuse.__file__).resolve().parent)

# config overrides: (tape nodes, Tensor._node calls, forward MACs, softmax
# elements, package calls) per step
PINNED = {
    "readme": ({}, 6, 6, 1_836_032, 3_072, 299),
    # one direction: its sites still run once per attachment, so only MACs
    # and softmax elements fall; its rows of the stack take their gradients
    # through zero-filled arrays
    "readme-a2v": (dict(mode="a2v"), 6, 6, 1_770_496, 2_560, 302),
    # direct sites have no compress step
    "readme-direct": (dict(use_latents=False), 6, 6, 1_836_032, 3_072, 258),
    "train-wide": (
        dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4), 6, 6, 467_668_992, 557_056,
        299,
    ),
    # 6 audio tokens against 4 visual ones: a stack per stream, so every
    # frozen block and site runs per stream, each site on its rows of the
    # stacked parameters
    "unequal": (dict(spec_hw=(12, 8)), 10, 10, 2_307_072, 4_608, 613),
    # no adapter sites: the frozen blocks, the head and the loss; only the
    # head and the loss record a gradient
    "none": (dict(mode="none"), 2, 6, 1_704_960, 2_048, 88),
}


@pytest.mark.parametrize("name", PINNED)
def test_train_step_cost_is_pinned(name, monkeypatch):
    overrides, nodes, records, macs, softmax_elems, calls = PINNED[name]
    cfg = ModelConfig(**overrides)
    model = TwoStreamModel(cfg, seed=0)
    batch = generate_dataset(0, 8, 0.1, cfg.image_hw, cfg.spec_hw)
    created = []
    node = Tensor._node

    def counted(data, parents):
        out = node(data, parents)
        created.append(out.requires_grad)
        return out

    made = 0

    def profile(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code.co_filename.startswith(SOURCE) and frame.f_code.co_name[0] != "<":
            made += 1

    monkeypatch.setattr(Tensor, "_node", staticmethod(counted))
    with count_macs() as counter:
        sys.setprofile(profile)
        try:
            logits = model.logits(batch)
            backward(cross_entropy_logits(logits, batch.labels))
        finally:
            sys.setprofile(None)
    assert (sum(created), len(created), counter.macs, counter.softmax_elems, made) == (
        nodes, records, macs, softmax_elems, calls)
