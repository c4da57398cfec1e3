"""Traffic census: the statements of ``src/avfuse`` that no run reaches.

Runs, in this process, every CLI subcommand in every fusion mode and option
variant at one-layer shapes, ``train`` in every variant at the README and
train-wide shapes, each subcommand once more with its progress output (kept
out of the report), ``train`` once with ``--seed``, and a weight save and
load with both state hashes compared around it, under a ``sys.settrace``
hook that records the lines run in frames of ``src/avfuse``. Then it
prints, per file, every executable statement no run reached, leaving out
``raise`` statements: a refusal is reached by bad input, which the tests
supply. With ``--tests`` it also runs Tier-1 under the hook and prints the
statements that only tests reach. Work done in a subprocess is not
traced. ::

    python3 tests/traffic_census.py [--tests]

It imports the package from the ``src/`` beside it. Pytest does not collect
it: its name does not start with ``test_``.
"""
from __future__ import annotations

import ast
import contextlib
import dis
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "avfuse"
sys.path[:0] = [str(SOURCE.parent), str(HERE)]

ONE_LAYER = dict(layers=1, width=8, heads=2, patch=4, latents=2, bottleneck_ratio=2, groups=2, steps=2,
                 batch_size=4, lr_adapter=1e-3, lr_head=1e-3, noise=0.1, train_count=8, test_count=4,
                 latents_sweep=[1, 2])
SHAPES = {"readme": dict(layers=2, width=32, heads=4, bottleneck_ratio=4, steps=1, train_count=4),
          "train-wide": dict(layers=2, width=128, heads=4, bottleneck_ratio=4, latents=4, image_hw=[32, 32],
                             spec_hw=[32, 32], steps=1, train_count=4)}
VARIANTS = {"base": {}, "relu": dict(bottleneck_act="relu"), "no-bias": dict(bottleneck_bias=False),
            "no-audio-pos": dict(audio_pos="none"), "direct": dict(use_latents=False),
            "audio-longer": dict(spec_hw=[12, 8]), "audio-padded": dict(spec_hw=[10, 8]),
            "visual-longer": dict(image_hw=[12, 8]),
            "one-group": dict(groups=1), "one-head": dict(heads=1), "heads-width": dict(heads=8),
            "one-latent": dict(latents=1), "eval-every": dict(eval_every=1), "two-seeds": dict(seeds=[0, 1])}
COMMANDS = ("train", "ablation", "latent-sweep", "cost-report")
MODES = ("none", "a2v", "v2a", "bidirectional")


def statements(path: Path) -> list[int]:
    """First lines of the statements of ``path`` that compile to code, but
    for every line of a ``raise`` statement."""
    text = path.read_text()
    tree = ast.parse(text)
    raising = {n for node in ast.walk(tree) if isinstance(node, ast.Raise)
               for n in range(node.lineno, node.end_lineno + 1)}
    codes, starts = [compile(text, str(path), "exec")], set()
    while codes:
        code = codes.pop()
        starts.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [c for c in code.co_consts if isinstance(c, type(code))]
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)} & starts - raising)


def run_matrix() -> None:
    from avfuse.cli import main
    from avfuse.model import ModelConfig, TwoStreamModel

    quiet = ["--quiet"]
    runs = [(c, m, v, {}, quiet) for c in COMMANDS for m in MODES for v in VARIANTS]
    runs += [("train", "bidirectional", v, SHAPES[s], quiet) for s in SHAPES for v in VARIANTS]
    runs += [(c, "bidirectional", "base", {}, []) for c in COMMANDS]
    runs += [("train", "bidirectional", "base", {}, ["--seed", "3"] + quiet)]
    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, mode, variant, shape, flags) in enumerate(runs):
            cfg = Path(tmp) / f"{i}.json"
            cfg.write_text(json.dumps({**ONE_LAYER, **shape, **VARIANTS[variant], "mode": mode}))
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / str(i))] + flags)
            if code != 0:
                raise SystemExit(f"census: {command} {mode} {variant} {shape} {flags} failed")
        # hashed around the round trip, as the benchmark's gates hash it
        saved, loaded = TwoStreamModel(ModelConfig(), 1), TwoStreamModel(ModelConfig(), 2)
        saved.save_weights(Path(tmp) / "w")
        loaded.load_weights(Path(tmp) / "w")
        if (loaded.frozen_hash(), loaded.registry.state_hash(frozen_only=False)) != (
                saved.frozen_hash(), saved.registry.state_hash(frozen_only=False)):
            raise SystemExit("census: a weight save and load changed the model's state hash")


def traced(run) -> set[tuple[str, int]]:
    """The (file, line) pairs of ``src/avfuse`` that ``run()`` reaches."""
    prefix, reached = str(SOURCE), set()

    def trace(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def report(title: str, lines: set[tuple[str, int]]) -> None:
    print(f"== {title}")
    for path in sorted(SOURCE.glob("*.py")):
        source = path.read_text().splitlines()
        for n in statements(path):
            if (str(path), n) in lines:
                print(f"{path.relative_to(SOURCE.parent)}:{n}: {source[n - 1].strip()}")


if __name__ == "__main__":
    runs = traced(run_matrix)
    report("statements no run reaches", {(str(p), n) for p in SOURCE.glob("*.py") for n in statements(p)} - runs)
    if "--tests" in sys.argv[1:]:
        import pytest

        tests = traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", str(HERE)]))
        report("statements only tests reach", tests - runs)
