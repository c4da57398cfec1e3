"""In-process A/B timer: a train step or a set-up of this checkout against another's.

Copies ``src/avfuse`` of this checkout and of ``<other-checkout>`` into a
temporary directory as two packages of distinct names, builds the same seed-0
model in each at one shape, and alternates single train steps (batched
forward, cross-entropy, ``zero_grad``, backward, one Adam step on a fixed
batch of 8) between them, swapping which side goes first on every
alternation, so both sides see the same host state. Prints each side's
step-time quartiles and the share of alternations each side was faster in::

    python3 tests/ab_step.py <other-checkout> [--shape readme|train-wide|unequal] [--pairs N] [--setup]

``--pairs`` must be at least 2, since the quartiles need two alternations;
without it the shape's default count runs.

With ``--setup`` it alternates the benchmark harness's set-up instead of a
train step: a 1,024-sample train set and a 256-sample test set at noise 0.1
from ``tasks.generate_dataset`` and a fresh model, all alive at once as in
the harness. Beside the whole set-up it reports its two parts, the data
(both sets) and the model constructor, so a change to one shows as such.

It sizes a change in one process; it does not replace the paired runs of
``bench/run.py``. Pytest does not collect it: its name does not start with
``test_``.
"""
from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent

SHAPES = {
    "readme": {},
    "train-wide": dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4),
    "unequal": dict(spec_hw=(12, 8)),
}
# alternations per shape when --pairs is not given
PAIRS = {"readme": 400, "train-wide": 30, "unequal": 200}
SETUP_PAIRS = {"readme": 40, "train-wide": 12, "unequal": 40}
WARMUP = 5


def load(root: Path, name: str, into: Path):
    """Package ``name``: a copy of ``root``'s ``src/avfuse`` under ``into``."""
    shutil.copytree(root / "src" / "avfuse", into / name)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("autodiff", "model", "tasks")}


def stepper(av, fields: dict):
    """A function running one train step of a fresh seed-0 model."""
    cfg = av["model"].ModelConfig(**fields)
    model = av["model"].TwoStreamModel(cfg, seed=0)
    tasks, autodiff = av["tasks"], av["autodiff"]
    batch = tasks.generate_dataset(0, 8, 0.1, cfg.image_hw, cfg.spec_hw)
    if hasattr(model, "logits_batch"):
        # a checkout whose sets are lists of per-sample objects, scored as
        # (image, spectrogram) pairs
        pairs = [(s.image, s.spectrogram) for s in batch]
        labels = np.array([s.label for s in batch])

        def logits():
            return model.logits_batch(pairs)
    else:
        labels = batch.labels

        def logits():
            return model.logits(batch)
    optimizer = tasks.make_optimizer(model, tasks.TrainConfig())

    def step() -> dict[str, float]:
        t0 = perf_counter()
        loss = autodiff.cross_entropy_logits(logits(), labels)
        model.registry.zero_grad()
        autodiff.backward(loss)
        optimizer.step()
        return {"step": perf_counter() - t0}

    return step


def setupper(av, fields: dict):
    """A function running the benchmark harness's set-up at one shape,
    timing its data part, its model part and the whole."""
    cfg = av["model"].ModelConfig(**fields)
    tasks, derive = av["tasks"], av["autodiff"].derive_seed

    def setup() -> dict[str, float]:
        t0 = perf_counter()
        # both sets and the model are alive at once, as in the harness
        live = [tasks.generate_dataset(derive(0, name), count, 0.1, cfg.image_hw, cfg.spec_hw)
                for name, count in (("train-data", 1024), ("test-data", 256))]
        t1 = perf_counter()
        live.append(av["model"].TwoStreamModel(cfg, seed=0))
        t2 = perf_counter()
        return {"data": t1 - t0, "model": t2 - t1, "set-up": t2 - t0}

    return setup


def quartiles_ms(times: list[dict[str, float]], part: str) -> list[float]:
    return [1e3 * q for q in statistics.quantiles([t[part] for t in times], n=4)]


def at_least_two(text: str) -> int:
    """An alternation count: the quartiles need two of them."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 alternations for quartiles, got {n}")
    return n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare against")
    parser.add_argument("--shape", choices=SHAPES, default="readme")
    parser.add_argument("--pairs", type=at_least_two, help="alternations to time, at least 2 (default by shape)")
    parser.add_argument("--setup", action="store_true", help="time the harness's set-up, not a train step")
    args = parser.parse_args()
    pairs = args.pairs or (SETUP_PAIRS if args.setup else PAIRS)[args.shape]
    make = setupper if args.setup else stepper
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {"this": HERE.parent, "other": args.other.resolve()}
        timers = {side: make(load(root, f"avfuse_ab_{side}", Path(tmp)), SHAPES[args.shape])
                 for side, root in sides.items()}
        times: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
        order = list(sides)
        for i in range(WARMUP + pairs):
            took = {side: timers[side]() for side in order}
            order.reverse()
            if i >= WARMUP:
                for side, t in took.items():
                    times[side].append(t)
    # the last part is the whole, which decides the faster share
    *parts, what = times["this"][0]
    wins = sum(a[what] < b[what] for a, b in zip(times["this"], times["other"]))
    print(f"shape {args.shape}, {pairs} alternations; {what} ms q1 / median / q3:")
    for side, root in sides.items():
        q1, q2, q3 = quartiles_ms(times[side], what)
        won = wins if side == "this" else pairs - wins
        print(f"  {side:5s} {q1:8.3f} {q2:8.3f} {q3:8.3f}   faster in {won / pairs:6.1%}   ({root})")
    for part in parts:
        print(f"  of which {part}, ms q1 / median / q3:")
        for side in sides:
            print(f"  {side:5s} " + " ".join(f"{q:8.3f}" for q in quartiles_ms(times[side], part)))


if __name__ == "__main__":
    main()
