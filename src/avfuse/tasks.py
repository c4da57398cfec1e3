"""Synthetic paired-stream task, optimizer, and training loop.

The task: each sample carries an image whose stripe orientation encodes a
binary visual class and a spectrogram whose comb orientation (alternating
hot lines along frequency vs. along time) encodes a binary audio class; the
label is 1 exactly when the two classes agree. The patterns alternate at
period 2, finer than any patch, so every patch of a sample carries its
stream's class and mean-pooled features stay class-separable. Neither stream
alone determines the label, and no additive function of per-stream features
can express it, so a frozen two-stream model only clears chance by moving
information across streams. That makes test accuracy a direct probe of
whether the cross-modal path works.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, Rng, Tensor, backward, cross_entropy_logits, derive_seed, no_grad
from .backbone import ImageInput, SpectrogramInput
from .model import ModelConfig, TwoStreamModel
from .serialization import format_float

PAIR_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

METRICS_COLUMNS = ("step", "loss", "split", "accuracy", "mode", "m", "seed")

# Samples per batched forward in ``evaluate``; bounds the size of the
# (batch, tokens, 4*width) temporaries when a whole test set is scored.
EVAL_CHUNK = 16


# Largest magnitude whose square is finite in float64: a weight past it
# overflows any product with a value of its own size.
SQUARE_SAFE = float(np.sqrt(np.finfo(np.float64).max))


class FrozenGradientError(RuntimeError):
    """A backward pass deposited gradient into a frozen parameter."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or non-finite attention scores."""


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


@dataclass
class SyntheticAvSample:
    image: ImageInput
    spectrogram: SpectrogramInput
    audio_class: int
    visual_class: int
    label: int


def visual_template(cls: int, hw: tuple[int, int]) -> np.ndarray:
    """Class 0: bright vertical stripes; class 1: bright horizontal stripes."""
    h, w = hw
    base = np.full((h, w, 3), 0.1)
    if cls == 0:
        base[:, ::2, :] = 0.9
    else:
        base[::2, :, :] = 0.9
    return base


def audio_template(cls: int, hw: tuple[int, int]) -> np.ndarray:
    """Class 0: a comb of hot lines along the frequency axis; class 1: the
    comb runs along the time axis. Period 2, so every patch sees it."""
    m, c = hw
    base = np.full((m, c), 0.1)
    if cls == 0:
        base[:, ::2] = 0.9
    else:
        base[::2, :] = 0.9
    return base


def xnor_label(audio_class: int, visual_class: int) -> int:
    return 1 if audio_class == visual_class else 0


def generate_dataset(
    seed: int,
    count: int,
    noise: float,
    image_hw: tuple[int, int] = (8, 8),
    spec_hw: tuple[int, int] = (8, 8),
) -> list[SyntheticAvSample]:
    """Draw ``count`` paired samples.

    Class pairs cycle through all four combinations, so pair counts never
    differ by more than one; the final ordering is a seeded shuffle. Each
    sample's noise comes from its own derived stream, so generation could be
    sharded by index without changing a single sample.
    """
    if count < 4:
        raise ValueError(f"generate_dataset: need count >= 4, got {count}")
    if not (0.0 <= noise < 1.0):
        raise ValueError(f"generate_dataset: noise must lie in [0, 1), got {noise}")
    samples = []
    for i in range(count):
        a_cls, v_cls = PAIR_ORDER[i % 4]
        rng = Rng(derive_seed(seed, f"sample.{i}"))
        img = visual_template(v_cls, image_hw)
        spec = audio_template(a_cls, spec_hw)
        if noise > 0.0:
            img = img + rng.normal(img.shape, std=noise)
            spec = spec + rng.normal(spec.shape, std=noise)
        img = np.clip(img, 0.0, 1.0)
        samples.append(
            SyntheticAvSample(
                image=ImageInput(img),
                spectrogram=SpectrogramInput(spec),
                audio_class=a_cls,
                visual_class=v_cls,
                label=xnor_label(a_cls, v_cls),
            )
        )
    order = Rng.for_name(seed, "order").permutation(count)
    return [samples[i] for i in order]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam over named parameter groups, each with its own learning rate.

    Only parameters handed in at construction are ever touched, and moment
    state is created lazily on the first gradient, so parameters that never
    receive one (and frozen parameters, which are never handed in) leave no
    trace in ``state``.
    """

    def __init__(
        self,
        groups: list[tuple[list[tuple[str, Tensor]], float]],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.groups = [(list(params), float(lr)) for params, lr in groups]
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[str, dict[str, np.ndarray]] = {}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for params, lr in self.groups:
            for name, p in params:
                if p.grad is None:
                    continue
                st = self.state.get(name)
                if st is None:
                    st = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
                    self.state[name] = st
                st["m"] = b1 * st["m"] + (1.0 - b1) * p.grad
                st["v"] = b2 * st["v"] + (1.0 - b2) * p.grad**2
                mhat = st["m"] / bias1
                vhat = st["v"] / bias2
                p.data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)


# ---------------------------------------------------------------------------
# training and evaluation
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    lr_adapter: float = 1e-3
    lr_head: float = 1e-3
    steps: int = 500
    batch_size: int = 8
    seed: int = 0
    eval_every: int = 0  # 0: evaluate only after the last step

    def validate(self) -> None:
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        for name in ("lr_adapter", "lr_head"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def evaluate(model: TwoStreamModel, samples: list[SyntheticAvSample]) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Scores ``EVAL_CHUNK`` samples per batched forward without recording a
    tape. Logits rows do not depend on the batch they ride in, so the hits
    equal those of scoring each sample alone.
    """
    hits = 0
    with no_grad():
        for lo in range(0, len(samples), EVAL_CHUNK):
            chunk = samples[lo : lo + EVAL_CHUNK]
            logits = model.logits_batch([(s.image, s.spectrogram) for s in chunk])
            labels = np.asarray([s.label for s in chunk])
            hits += int((np.argmax(logits.data, axis=1) == labels).sum())
    return hits / len(samples)


def make_optimizer(model: TwoStreamModel, cfg: TrainConfig) -> Adam:
    head, adapter = [], []
    for name, tensor in model.registry.trainable():
        (head if name.startswith("head.") else adapter).append((name, tensor))
    return Adam([(adapter, cfg.lr_adapter), (head, cfg.lr_head)])


def _divergence(model: TwoStreamModel, step: int, what: str) -> DivergenceError:
    """The error for a step that went non-finite. It names the first
    trainable parameter, in registry order, whose value or gradient holds a
    non-finite entry or one of magnitude past ``SQUARE_SAFE``."""
    culprit = next(
        (f"{name!r} ({kind}, max |x| = {np.abs(arr).max():.3g})"
         for name, tensor in model.registry.trainable()
         for kind, arr in (("value", tensor.data), ("gradient", tensor.grad))
         if arr is not None and not (np.abs(arr) <= SQUARE_SAFE).all()),
        None,
    )
    where = (f"first trainable parameter out of range: {culprit}" if culprit is not None
             else f"every trainable parameter is finite and within {SQUARE_SAFE:.3g}")
    return DivergenceError(f"training diverged at step {step}: {what}; {where}")


def train(
    model: TwoStreamModel,
    train_samples: list[SyntheticAvSample],
    test_samples: list[SyntheticAvSample],
    cfg: TrainConfig,
) -> list[dict]:
    """Optimize the trainable parameters; returns metric rows.

    Each step draws a with-replacement batch from its own seeded stream,
    writes one loss row, and any gradient that lands on a frozen parameter
    aborts the run. A non-finite loss or non-finite attention scores raise
    ``DivergenceError`` naming the step and the first trainable parameter
    that is out of range. Test accuracy is recorded every ``eval_every``
    steps and always after the final step (for steps=0 that is the untouched
    model).
    """
    cfg.validate()
    optimizer = make_optimizer(model, cfg)
    batch_rng = Rng.for_name(cfg.seed, "train.batches")
    mode = model.cfg.mode
    m = model.cfg.latent_count
    rows: list[dict] = []

    def eval_row(step: int) -> dict:
        acc = evaluate(model, test_samples)
        return {
            "step": step,
            "loss": "",
            "split": "test",
            "accuracy": acc,
            "mode": mode,
            "m": m,
            "seed": cfg.seed,
        }

    for step in range(1, cfg.steps + 1):
        idx = batch_rng.integers(cfg.batch_size, 0, len(train_samples))
        batch = [train_samples[int(i)] for i in idx]
        labels = np.asarray([s.label for s in batch], dtype=np.int64)
        try:
            logits = model.logits_batch([(s.image, s.spectrogram) for s in batch])
        except NonFiniteError as e:
            raise _divergence(model, step, str(e)) from e
        loss = cross_entropy_logits(logits, labels)
        if not np.isfinite(loss.data):
            raise _divergence(model, step, f"loss is {loss.item()}")
        model.registry.zero_grad()
        backward(loss)
        for name, tensor in model.registry.frozen():
            if tensor.grad is not None:
                raise FrozenGradientError(f"gradient reached frozen parameter {name!r}")
        optimizer.step()
        rows.append(
            {
                "step": step,
                "loss": loss.item(),
                "split": "train",
                "accuracy": "",
                "mode": mode,
                "m": m,
                "seed": cfg.seed,
            }
        )
        if cfg.eval_every and step % cfg.eval_every == 0 and step != cfg.steps:
            rows.append(eval_row(step))
    rows.append(eval_row(cfg.steps))
    return rows


def final_test_accuracy(rows: list[dict]) -> float:
    for row in reversed(rows):
        if row["split"] == "test":
            return float(row["accuracy"])
    raise ValueError("no evaluation rows present")


def metrics_to_csv(rows: list[dict]) -> str:
    """Metrics rows as CSV text: LF line endings, '.' decimals, floats at 17
    significant digits, empty cells for fields a row does not carry."""
    out = [",".join(METRICS_COLUMNS)]
    for row in rows:
        cells = []
        for key in METRICS_COLUMNS:
            v = row[key]
            if v == "":
                cells.append("")
            elif isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# one full experiment
# ---------------------------------------------------------------------------


@dataclass
class DataConfig:
    train_count: int = 1024
    test_count: int = 256
    noise: float = 0.1


@dataclass
class ExperimentResult:
    model: TwoStreamModel
    rows: list[dict] = field(default_factory=list)

    @property
    def test_accuracy(self) -> float:
        return final_test_accuracy(self.rows)


def run_experiment(model_cfg: ModelConfig, train_cfg: TrainConfig, data_cfg: DataConfig) -> ExperimentResult:
    """Generate data, build the model, train, and evaluate, all derived from
    ``train_cfg.seed``. Train and test draws come from disjoint seed
    derivations, never from overlapping streams."""
    seed = train_cfg.seed
    train_samples = generate_dataset(
        derive_seed(seed, "train-data"), data_cfg.train_count, data_cfg.noise,
        model_cfg.image_hw, model_cfg.spec_hw,
    )
    test_samples = generate_dataset(
        derive_seed(seed, "test-data"), data_cfg.test_count, data_cfg.noise,
        model_cfg.image_hw, model_cfg.spec_hw,
    )
    model = TwoStreamModel(model_cfg, seed)
    rows = train(model, train_samples, test_samples, train_cfg)
    return ExperimentResult(model=model, rows=rows)
