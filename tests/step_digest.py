"""Differential check for numeric refactors: one digest line per train step.

Each case builds a model at seed 0, moves every trainable parameter off its
init by a fixed in-place draw, and runs one train step (batched forward,
cross-entropy, backward) on 8 generated samples, then one ``Adam.step``. The
case's line holds its name, the number of ``Tensor._node`` calls the step
made, a SHA-256 over the logits, each trainable parameter's name and
gradient bytes and the step's MAC and softmax tallies, and a SHA-256 over
each trainable parameter's name and value bytes after the Adam step.
Parameters are drawn, hashed and named through the registry's per-site view,
``registry.items()``, in registration order, so the digests do not depend on
how the parameters are stored.

The cases are 4 modes x {latent, direct} at the README config, the
train-wide benchmark config, ``spec_hw=(9, 6)`` and ``spec_hw=(12, 8)``
(32 cases), then the 52 configs of ``tests/test_sweep.py``: its edge cases
and the 40 drawn by ``random_config`` from ``default_rng(2024)``.

``tests/step_digests.txt`` holds the lines, after a header that records the
Python version, the numpy version and numpy's BLAS build, since the digests
depend on the BLAS kernels; ``tests/test_step_digests.py`` recomputes them in
Tier-1. A change that means to move a digest regenerates the file on purpose
and says why::

    python3 tests/step_digest.py > tests/step_digests.txt

It imports the package from the ``src/`` beside it, so each checkout runs
its own code. Pytest does not collect it: its name does not start with
``test_``.
"""
from __future__ import annotations

import hashlib
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from avfuse.autodiff import Tensor, backward, count_macs, cross_entropy_logits  # noqa: E402
from avfuse.fusion import MODES  # noqa: E402
from avfuse.model import ModelConfig, TwoStreamModel  # noqa: E402
from avfuse.tasks import TrainConfig, generate_dataset, make_optimizer  # noqa: E402
from test_sweep import CONFIGS as SWEEP  # noqa: E402

DIGESTS = HERE / "step_digests.txt"

SHAPES = {
    "readme": {},
    "wide": dict(width=128, image_hw=(32, 32), spec_hw=(32, 32), latent_count=4),
    "spec9x6": dict(spec_hw=(9, 6)),
    "spec12x8": dict(spec_hw=(12, 8)),
}


def environment() -> dict[str, str]:
    """The fields the digests depend on beside the code: the Python and
    numpy versions and numpy's BLAS build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']} ({' '.join(blas.get('openblas configuration', '').split())})"
    except (TypeError, KeyError):
        build = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": build}


def read_digests(path: Path = DIGESTS) -> tuple[dict[str, str], list[str]]:
    """The recorded environment and digest lines of ``path``."""
    header, lines = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            field, _, value = line[2:].partition(" ")
            header[field] = value
        elif line:
            lines.append(line)
    return header, lines


def trainable_views(model):
    """Each trainable parameter's per-site view, in registration order."""
    return [(name, t) for name, t, frozen in model.registry.items() if not frozen]


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
    for _, t in trainable_views(model):
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
            logits = model.logits(batch)
            backward(cross_entropy_logits(logits, batch.labels))
    finally:
        Tensor._node = staticmethod(node)
    digest = hashlib.sha256(logits.data.tobytes())
    for pname, t in trainable_views(model):
        digest.update(pname.encode("utf-8"))
        digest.update(b"none" if t.grad is None else t.grad.tobytes())
    digest.update(f"{c.macs} {c.softmax_elems}".encode("utf-8"))
    make_optimizer(model, TrainConfig()).step()
    # the optimizer rebinds the parameters, so the views are taken again
    values = hashlib.sha256()
    for pname, t in trainable_views(model):
        values.update(pname.encode("utf-8"))
        values.update(t.data.tobytes())
    return f"{name} {records} {digest.hexdigest()} {values.hexdigest()}"


def main() -> None:
    for field, value in environment().items():
        print(f"# {field} {value}")
    for name, fields in cases():
        print(step_line(name, fields), flush=True)


if __name__ == "__main__":
    main()
