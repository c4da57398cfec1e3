"""Workloads and metric definitions of the avfuse benchmark.

Each workload fixes a model config, a data config and the train step the
timed window repeats through ``tasks.train``; the gate's scoring after the
window runs 16-sample requests through ``tasks.evaluate``. The metric tables
below are the single list that ``run.py`` emits and that ``selftest.py``
checks against ``BENCHMARK.json``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    batch: int = 8
    lr: float = 1e-3
    noise: float = 0.1
    train_count: int = 1024
    test_count: int = 256
    # Training runs until the timed window is over and the accuracy gate
    # passes: from then on, every ``check_every`` steps past ``min_steps``, a
    # probe of the first ``probe_count`` test samples and then the whole test
    # set are scored. No pass by ``max_steps``, or within the harness's
    # give-up time after the window, fails the gate. ``max_steps`` is far
    # beyond what a window holds, so the window, not the step count, ends
    # training. The loss digest covers the first ``min_steps`` steps, which
    # every run makes.
    min_steps: int = 100
    check_every: int = 25
    max_steps: int = 100_000
    probe_count: int = 32
    gate_accuracy: float = 0.9
    request_size: int = 16

    def model_config(self, ModelConfig):
        return ModelConfig(**self.model)


# README default config: 2 layers, width 32, 4 heads, patch 4, 8x8 image and
# 8x8 spectrogram (4+4 tokens), m=2, ratio 4, groups 2, bidirectional.
SMALL = dict(layers=2, width=32, heads=4, patch=4, image_hw=(8, 8), spec_hw=(8, 8),
             latent_count=2, ratio=4, groups=2, mode="bidirectional", use_latents=True)
WIDE = dict(SMALL, width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4)

WORKLOADS = {
    "train-small": Workload(
        name="train-small",
        why="README default config, 4+4 tokens, width 32, batch 8, through tasks.train: ~2k tape nodes "
            "carry 1.84M forward MACs a step, so Python and the tape bound it",
        model=SMALL,
    ),
    "train-wide": Workload(
        name="train-wide",
        why="64+64 tokens (32x32 inputs), width 128, m=4, batch 8: ~468M forward MACs a step, so BLAS, "
            "attention and tape memory bound it",
        model=WIDE,
        min_steps=50,
        check_every=10,
    ),
}


def input_sizes(wl: Workload, ModelConfig) -> dict:
    """Sizes a reader needs to compare workloads; printed in every run header."""
    cfg = wl.model_config(ModelConfig)
    return {
        "tokens": f"{cfg.n_visual_tokens}+{cfg.n_audio_tokens}",
        "width": cfg.width,
        "layers": cfg.layers,
        "latents": cfg.latent_count,
        "batch": wl.batch,
        "request_size": wl.request_size,
        "train_count": wl.train_count,
        "test_count": wl.test_count,
        "min_steps": wl.min_steps,
    }


def tiny(wl: Workload) -> Workload:
    """A seconds-long variant of a workload for the harness self-test. It is
    too short to train, so its accuracy gate is not expected to pass. It
    makes exactly 8 steps, more than the harness's warm-up steps, so the
    latency percentile has steps to read."""
    return replace(
        wl,
        model=dict(wl.model, layers=1, width=8, heads=2, ratio=2, groups=2, latent_count=2,
                   image_hw=(8, 8), spec_hw=(8, 8)),
        batch=2,
        train_count=8,
        test_count=8,
        min_steps=8,
        check_every=1,
        max_steps=8,
        probe_count=4,
        request_size=4,
    )


# (name, unit). Step latency is gated at its 90th percentile over the whole
# window. On a shared 2-vCPU machine the host flips between a fast state and
# one ~1.6x slower, in bursts of a few steps and in stretches of up to a
# minute; the median and the low percentiles follow the share of fast steps
# in a window, while the 90th percentile stays on a slow-state step (see
# README.md in this directory).
END_TO_END = (
    ("setup_s", "s"),
    ("train_step_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
)

# (name, unit, prediction). Values are per train step of the window, except
# tasks.evaluate (per scoring request after the window), generate_dataset
# (per set-up) and serialization (per save or load call of the checkpoint
# after the window).
PER_LAYER = (
    ("autodiff.graph_nodes", "count", "moves train_step_ms on train-small; little change on train-wide"),
    ("autodiff.backward.ms", "ms", "moves train_step_ms on train-*; training path only"),
    ("autodiff.fwd_macs", "count", "count_macs tally; unchanged by any change that keeps the arithmetic"),
    ("autodiff.softmax_elems", "count", "count_macs tally; unchanged by any change that keeps the arithmetic"),
    ("autodiff.fwd_gmacs_per_s", "GMAC/s", "moves train_step_ms on train-wide"),
    ("backbone.embed.ms", "ms", "small share everywhere"),
    ("backbone.mha.ms", "ms", "moves train-wide first, then train-small"),
    ("backbone.mha.calls", "count", "one per stream per layer per sample; fixed by the config"),
    ("backbone.mlp.ms", "ms", "moves train-wide first, then train-small"),
    ("backbone.mlp.calls", "count", "fixed by the config"),
    ("fusion.adapter.ms", "ms", "moves train-small; small share on train-wide"),
    ("fusion.adapter.calls", "count", "fixed by the config"),
    ("fusion.compress.ms", "ms", "moves train-small; small share on train-wide"),
    ("fusion.fuse.ms", "ms", "moves train-small; small share on train-wide"),
    ("fusion.bottleneck.ms", "ms", "moves train-small; small share on train-wide"),
    ("model.forward.ms", "ms", "moves train_step_ms everywhere"),
    ("model.tokenize.ms", "ms", "small share everywhere"),
    ("model.head.ms", "ms", "small share everywhere"),
    ("tasks.loss.ms", "ms", "training path only"),
    ("tasks.adam.ms", "ms", "moves train_step_ms on train-*; training path only"),
    ("tasks.step_self.ms", "ms",
     "step time outside every wrapped call (batch draw, frozen-gradient check, row append); moves train-*"),
    ("tasks.evaluate.ms", "ms", "forward-only scoring request; on no gated path, 0 per train step"),
    ("tasks.generate_dataset.ms", "ms", "per set-up; moves setup_s"),
    ("serialization.save.ms", "ms", "per call, checkpoint after the window; on no gated path"),
    ("serialization.load.ms", "ms", "per call, checkpoint after the window; on no gated path"),
    ("serialization.bytes", "bytes", "bytes written by save_weights; fixed by the config"),
    ("python.gc.ms", "ms", "moves the slow tail of train_step_ms on train-small"),
    ("python.gc.collections", "count", "moves the slow tail of train_step_ms on train-small"),
    ("python.gc.collected", "count", "objects freed by the cyclic collector; moves the slow tail on train-small"),
    ("trace.overhead_pct", "%", "traced vs untraced train_step_ms.p90"),
)
