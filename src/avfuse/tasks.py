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

import ctypes
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError, Rng, ShapeError, Tensor, backward, cross_entropy_logits, derive_seed, no_grad
from .backbone import InputBatch
from .model import ModelConfig, TwoStreamModel, require, require_seed, require_size

PAIR_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

METRICS_COLUMNS = ("step", "loss", "split", "accuracy", "mode", "m", "seed")

# Samples per batched forward in ``evaluate``; bounds the size of the
# (batch, tokens, 4*width) temporaries when a whole test set is scored.
EVAL_CHUNK = 16


# Largest magnitude whose square is finite in float64: a weight past it
# overflows any product with a value of its own size.
SQUARE_SAFE = float(np.sqrt(np.finfo(np.float64).max))
# Largest finite float64. A Python int past it compares below inf, yet
# cannot become a float.
FLOAT_MAX = float(np.finfo(np.float64).max)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or non-finite attention scores."""


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


class SampleSet(InputBatch):
    """A labelled set: an ``InputBatch`` plus each sample's int64
    ``audio_class`` and ``visual_class`` and its ``labels``, their
    ``xnor_label``. Indexing takes the same rows of all five arrays."""

    def __init__(self, images, specs, audio_class, visual_class):
        super().__init__(images, specs)
        self.audio_class = np.asarray(audio_class, dtype=np.int64)
        self.visual_class = np.asarray(visual_class, dtype=np.int64)
        if self.audio_class.shape != (len(self),) or self.visual_class.shape != (len(self),):
            raise ShapeError(f"SampleSet: need one audio and one visual class per sample, got shapes "
                             f"{self.audio_class.shape} and {self.visual_class.shape} for {len(self)} samples")
        self.labels = xnor_label(self.audio_class, self.visual_class)


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


def xnor_label(audio_class, visual_class):
    """1 where the two classes agree, else 0, as int64: of two classes or
    of two arrays of them."""
    return np.equal(audio_class, visual_class).astype(np.int64)


def _check_sets(noise: float, **counts: int) -> None:
    """Refuse each sample count that is not an integer >= 4, and a noise
    level that is not a number in [0, 1), with a ``FieldError`` naming the
    argument: the one rule of ``generate_dataset`` and
    ``DataConfig.validate``."""
    for name, count in counts.items():
        require(name, count, "an integer", lambda v: v >= 4, ">= 4")
    require("noise", noise, "a number", lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def generate_dataset(
    seed: int,
    count: int,
    noise: float,
    image_hw: tuple[int, int] = (8, 8),
    spec_hw: tuple[int, int] = (8, 8),
) -> SampleSet:
    """Draw ``count`` paired samples as one ``SampleSet``.

    Class pairs cycle through all four combinations, so pair counts never
    differ by more than one; the rows are in a seeded shuffled order, drawn
    first: row ``r`` holds sample ``order[r]``. Sample ``i`` is its class
    templates plus its noise, one draw of ``H*W*3 + T*F`` values from the
    stream of ``derive_seed(seed, f"sample.{i}")`` (one generator, re-keyed
    per sample), image part first, written straight into its row of two
    set-wide arrays. So sample ``i`` depends only on ``(seed, i)``, and
    generation could be sharded by index without changing a single sample.
    The arguments are checked before any draw, the seed by the rule of
    ``TrainConfig.validate``, and the set once, as a whole.
    """
    require_seed(seed)
    _check_sets(noise, count=count)
    require_size("image_hw", image_hw)
    require_size("spec_hw", spec_hw)
    order = Rng.for_name(seed, "order").permutation(count)
    audio_class, visual_class = np.asarray(PAIR_ORDER)[order % 4].T
    image_shape, spec_shape = (*image_hw, 3), tuple(spec_hw)
    images, specs = np.empty((count, *image_shape)), np.empty((count, *spec_shape))
    visual = [visual_template(cls, image_hw) for cls in (0, 1)]
    audio = [audio_template(cls, spec_hw) for cls in (0, 1)]
    split, size = images[0].size, images[0].size + specs[0].size
    rng = Rng(0)
    for row, i in enumerate(order):
        a_cls, v_cls = audio_class[row], visual_class[row]
        if noise > 0.0:
            rng.rekey(derive_seed(seed, f"sample.{i}"))
            draw = rng.normal(size, std=noise)
            np.add(visual[v_cls], draw[:split].reshape(image_shape), out=images[row])
            np.add(audio[a_cls], draw[split:].reshape(spec_shape), out=specs[row])
        else:
            images[row], specs[row] = visual[v_cls], audio[a_cls]
    np.clip(images, 0.0, 1.0, out=images)
    return SampleSet(images, specs, audio_class, visual_class)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam over named parameter groups, each with its own learning rate.

    The parameters' values live in one flat float64 vector, laid out in
    group order: construction copies each value into its slice and rebinds
    ``p.data`` to a view of that slice, so ``step`` updates every parameter
    in place with the same few numpy calls, whatever their count. Only
    parameters handed in at construction are touched (frozen ones never
    are), ``state`` maps each name to views of its slices of the flat
    moment vectors, and every parameter must carry a gradient at each step
    and still hold its view: a ``.data`` rebound after construction would
    no longer see the updates, so ``step`` refuses it.
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
        self.t = 0
        self._params = [p for params, _ in self.groups for _, p in params]
        self._names = [name for params, _ in self.groups for name, _ in params]
        self._views = []  # each parameter's view of ``values``, as bound here
        n = sum(p.data.size for p in self._params)
        self.values, self.m, self.v = np.empty(n), np.zeros(n), np.zeros(n)
        self._grad, self._tmp = np.empty(n), np.empty(n)
        self._tmp_by_lr = []  # each group's slice of _tmp, with its rate
        self.state: dict[str, dict[str, np.ndarray]] = {}
        lo = 0
        for params, lr in self.groups:
            self._tmp_by_lr.append((self._tmp[lo:lo + sum(p.data.size for _, p in params)], lr))
            for name, p in params:
                shape, hi = p.data.shape, lo + p.data.size
                self.values[lo:hi] = np.ravel(p.data)
                p.data = self.values[lo:hi].reshape(shape)
                self._views.append(p.data)
                self.state[name] = {"m": self.m[lo:hi].reshape(shape), "v": self.v[lo:hi].reshape(shape)}
                lo = hi

    def step(self) -> None:
        grads = [p.grad for p in self._params]
        for name, p, view, g in zip(self._names, self._params, self._views, grads):
            if g is None:
                raise RuntimeError(f"trainable parameter {name!r} received no gradient")
            if p.data is not view:
                raise RuntimeError(f"trainable parameter {name!r} was rebound after the optimizer was built")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        g, tmp, m, v = self._grad, self._tmp, self.m, self.v
        np.concatenate(grads, axis=None, out=g)
        # the per-tensor expressions, in their operation order, in place:
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
        # p = p - lr*(m/bias1) / (sqrt(v/bias2) + eps)
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v *= b2
        v += tmp
        np.divide(m, bias1, out=tmp)
        for part, lr in self._tmp_by_lr:
            part *= lr
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        tmp /= g
        self.values -= tmp


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
        require_seed(self.seed)
        for name, low in (("steps", 0), ("batch_size", 1), ("eval_every", 0)):
            require(name, getattr(self, name), "an integer", lambda v: v >= low, f">= {low}")
        for name in ("lr_adapter", "lr_head"):
            require(name, getattr(self, name), "a number", lambda v: 0.0 < v <= FLOAT_MAX, "finite and > 0")


def evaluate(model: TwoStreamModel, samples: SampleSet) -> float:
    """Fraction of samples whose argmax logit matches the label.

    Scores ``EVAL_CHUNK``-row slices, one batched forward each, without
    recording a tape. Logits rows do not depend on the batch they ride in,
    so the hits equal those of scoring each sample alone.
    """
    if not samples:
        raise ValueError("evaluate: samples is empty, so there is no accuracy to report")
    hits = 0
    with no_grad():
        for lo in range(0, len(samples), EVAL_CHUNK):
            chunk = samples[lo : lo + EVAL_CHUNK]
            hits += int((np.argmax(model.logits(chunk).data, axis=1) == chunk.labels).sum())
    return hits / len(samples)


def make_optimizer(model: TwoStreamModel, cfg: TrainConfig) -> Adam:
    """Adam over the model's trainable leaves, the stacked adapter leaves at
    ``lr_adapter`` and the head at ``lr_head``."""
    head, adapter = [], []
    for name, tensor in model.registry.trainable():
        (head if name.startswith("head.") else adapter).append((name, tensor))
    return Adam([(adapter, cfg.lr_adapter), (head, cfg.lr_head)])


def _divergence(model: TwoStreamModel, step: int, what: str) -> DivergenceError:
    """The error for a step that went non-finite. It names the first
    trainable parameter, in registry order, whose value or gradient holds a
    non-finite entry or one of magnitude past ``SQUARE_SAFE``: an adapter
    site's parameter by its own name, not by the stacked leaf that holds
    it."""
    culprit = next(
        (f"{name!r} ({kind}, max |x| = {np.abs(arr).max():.3g})"
         for name, tensor, frozen in model.registry.items() if not frozen
         for kind, arr in (("value", tensor.data), ("gradient", tensor.grad))
         if arr is not None and not (np.abs(arr) <= SQUARE_SAFE).all()),
        None,
    )
    where = (f"first trainable parameter out of range: {culprit}" if culprit is not None
             else f"every trainable parameter is finite and within {SQUARE_SAFE:.3g}")
    return DivergenceError(f"training diverged at step {step}: {what}; {where}")


def _keep_freed_pages() -> None:
    """Ask glibc to keep this process's freed heap pages mapped.

    ``backward`` frees each step's graph, tens of MiB at the benchmark's
    train-wide shapes; with glibc's defaults the heap is trimmed after every
    step and the next forward faults it back in. The setting acts on this
    process only and is the same on every call; where the C library has no
    ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep up to 256 MiB of freed heap
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB, glibc's cap, come from the heap


def train(
    model: TwoStreamModel,
    train_samples: SampleSet,
    test_samples: SampleSet,
    cfg: TrainConfig,
) -> list[dict]:
    """Optimize the trainable parameters; returns metric rows.

    Each step draws a with-replacement batch from its own seeded stream and
    writes one loss row; the frozen weights are plain arrays, outside the
    tape, so no gradient reaches them. A non-finite loss or non-finite
    attention scores raise ``DivergenceError`` naming the step and the first
    trainable parameter that is out of range. Test accuracy is recorded
    every ``eval_every`` steps and always after the final step (for steps=0
    that is the untouched model). ``backward`` frees each step's graph
    before the next forward.
    """
    if not train_samples or not test_samples:
        raise ValueError(f"train: {'test_samples' if train_samples else 'train_samples'} is empty")
    cfg.validate()
    _keep_freed_pages()
    optimizer = make_optimizer(model, cfg)
    batch_rng = Rng.for_name(cfg.seed, "train.batches")
    # (step, loss, split, accuracy) per row; the columns every row shares
    # join them once, on return
    rows: list[tuple] = []

    for step in range(1, cfg.steps + 1):
        idx = batch_rng.integers(cfg.batch_size, 0, len(train_samples))
        batch = train_samples[idx]
        try:
            loss = cross_entropy_logits(model.logits(batch), batch.labels)
        except NonFiniteError as e:
            raise _divergence(model, step, str(e)) from e
        if not np.isfinite(loss.data):
            raise _divergence(model, step, f"loss is {loss.item()}")
        model.registry.zero_grad()
        backward(loss)
        optimizer.step()
        rows.append((step, loss.item(), "train", ""))
        if cfg.eval_every and step % cfg.eval_every == 0 and step != cfg.steps:
            rows.append((step, "", "test", evaluate(model, test_samples)))
    rows.append((cfg.steps, "", "test", evaluate(model, test_samples)))
    shared = (model.cfg.mode, model.cfg.latent_count, cfg.seed)
    return [dict(zip(METRICS_COLUMNS, row + shared)) for row in rows]


def final_test_accuracy(rows: list[dict]) -> float:
    for row in reversed(rows):
        if row["split"] == "test":
            return float(row["accuracy"])
    raise ValueError("no evaluation rows present")


# ---------------------------------------------------------------------------
# one full experiment
# ---------------------------------------------------------------------------


@dataclass
class DataConfig:
    train_count: int = 1024
    test_count: int = 256
    noise: float = 0.1

    def validate(self) -> None:
        _check_sets(self.noise, train_count=self.train_count, test_count=self.test_count)


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
    derivations, never from overlapping streams. All three configs are
    validated before any data is generated."""
    model_cfg.validate()
    train_cfg.validate()
    data_cfg.validate()
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
