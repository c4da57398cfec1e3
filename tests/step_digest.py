"""Differential check for numeric refactors: one digest line per train step.

Each case builds a model at seed 0, moves every trainable off its init by a
fixed in-place draw, and runs one train step (batched forward, cross-entropy,
backward) on 8 generated samples. The case's line holds its name, the
number of ``Tensor._node`` calls the step made, and a SHA-256 over the
logits, each trainable's name and gradient bytes in registry order, and the
step's MAC and softmax tallies.

The cases are 4 modes x {latent, direct} at the README config, the
train-wide benchmark config, ``spec_hw=(9, 6)`` and ``spec_hw=(12, 8)``
(32 cases), then the 52 configs of ``tests/test_sweep.py``: its edge cases
and the 40 drawn by ``random_config`` from ``default_rng(2024)``.

A change that must keep every output bitwise runs this in the parent
checkout and in its own (a ``git worktree`` of the parent works), then
diffs the two outputs; only the node column may differ, and only where the
change means it to::

    python3 tests/step_digest.py > after.txt
    (cd ../parent && python3 tests/step_digest.py) > before.txt
    diff before.txt after.txt

Copy this file into a parent that lacks it. It imports the package from the
``src/`` beside it, so each checkout runs its own code. Pytest does not
collect it: its name does not start with ``test_``.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from avfuse.autodiff import Tensor, backward, count_macs, cross_entropy_logits  # noqa: E402
from avfuse.fusion import MODES  # noqa: E402
from avfuse.model import ModelConfig, TwoStreamModel  # noqa: E402
from avfuse.tasks import generate_dataset  # noqa: E402
from test_sweep import CONFIGS as SWEEP  # noqa: E402

SHAPES = {
    "readme": {},
    "wide": dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4),
    "spec9x6": dict(spec_hw=(9, 6)),
    "spec12x8": dict(spec_hw=(12, 8)),
}


def cases():
    for shape, fields in SHAPES.items():
        for mode in MODES:
            for use_latents in (True, False):
                kind = "latent" if use_latents else "direct"
                yield f"{shape}-{mode}-{kind}", dict(fields, mode=mode, use_latents=use_latents)
    for name, fields in SWEEP.items():
        yield f"sweep-{name}", fields


def step_line(name: str, fields: dict) -> str:
    cfg = ModelConfig(**fields)
    model = TwoStreamModel(cfg, seed=0)
    noise = np.random.default_rng(1)
    for _, t in model.registry.trainable():
        t.data += 0.1 * noise.standard_normal(t.shape)
    batch = generate_dataset(0, 8, 0.1, cfg.image_hw, cfg.spec_hw)
    records = 0
    node = Tensor._node

    def counted(data, parents):
        nonlocal records
        records += 1
        return node(data, parents)

    Tensor._node = staticmethod(counted)
    try:
        with count_macs() as c:
            logits = model.logits_batch([(s.image, s.spectrogram) for s in batch])
            backward(cross_entropy_logits(logits, np.array([s.label for s in batch])))
    finally:
        Tensor._node = staticmethod(node)
    digest = hashlib.sha256(logits.data.tobytes())
    for pname, t in model.registry.trainable():
        digest.update(pname.encode("utf-8"))
        digest.update(b"none" if t.grad is None else t.grad.tobytes())
    digest.update(f"{c.macs} {c.softmax_elems}".encode("utf-8"))
    return f"{name} {records} {digest.hexdigest()}"


def main() -> None:
    for name, fields in cases():
        print(step_line(name, fields), flush=True)


if __name__ == "__main__":
    main()
