"""Command-line front end: train, ablation, latent-sweep, cost-report.

Every subcommand takes --config (JSON), an --out directory, an optional
--seed override, and --quiet. The resolved configuration (defaults filled,
override applied) is echoed to <out>/config.json next to the outputs, and a
rerun with the same inputs rewrites every output byte-for-byte. Exit codes:
0 success, 2 invalid configuration, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .costs import (
    count_params,
    fusion_macs_total,
    grouped_projection_params,
    mac_bottleneck,
    mac_fusion,
    reports_to_csv,
)
from .model import ModelConfig, TwoStreamModel
from .serialization import format_float, write_atomic, write_json
from .tasks import DataConfig, TrainConfig, metrics_to_csv, run_experiment

TRAIN_COMMANDS = ("train", "ablation", "latent-sweep")
ALL_COMMANDS = TRAIN_COMMANDS + ("cost-report",)

ABLATION_MODES = ("none", "a2v", "v2a", "bidirectional")
ABLATION_METHODS = ("direct", "latent")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


# Value ranges: the text names the range, the test admits a value.
Range = tuple[str, Callable[[float], bool]]
AT_LEAST_1: Range = (">= 1", lambda v: v >= 1)
AT_LEAST_0: Range = (">= 0", lambda v: v >= 0)
AT_LEAST_4: Range = (">= 4", lambda v: v >= 4)
SEED_RANGE: Range = ("in [0, 2**64)", lambda v: 0 <= v < 2**64)
POSITIVE_FINITE: Range = ("finite and > 0", lambda v: 0.0 < v < math.inf)
UNIT_INTERVAL: Range = ("in [0, 1)", lambda v: 0.0 <= v < 1.0)


@dataclass
class Field:
    name: str
    kind: str  # int | float | bool | str | pair | int_list
    required_for: tuple[str, ...] = ()
    default: object = None
    valid: Range | None = None  # for a pair or list: every entry


FIELDS = [
    Field("layers", "int", required_for=ALL_COMMANDS, valid=AT_LEAST_1),
    Field("width", "int", required_for=ALL_COMMANDS, valid=AT_LEAST_1),
    Field("heads", "int", required_for=ALL_COMMANDS, valid=AT_LEAST_1),
    Field("patch", "int", required_for=ALL_COMMANDS, valid=AT_LEAST_1),
    Field("latents", "int", required_for=ALL_COMMANDS, valid=AT_LEAST_1),
    Field("bottleneck_ratio", "int", required_for=ALL_COMMANDS, valid=AT_LEAST_1),
    Field("groups", "int", required_for=ALL_COMMANDS, valid=AT_LEAST_1),
    Field("image_hw", "pair", default=[8, 8], valid=AT_LEAST_1),
    Field("spec_hw", "pair", default=[8, 8], valid=AT_LEAST_1),
    Field("mode", "str", default="bidirectional"),
    Field("use_latents", "bool", default=True),
    Field("bottleneck_act", "str", default="gelu"),
    Field("bottleneck_bias", "bool", default=True),
    Field("audio_pos", "str", default="resize"),
    Field("seed", "int", default=0, valid=SEED_RANGE),
    Field("steps", "int", required_for=TRAIN_COMMANDS, valid=AT_LEAST_0),
    Field("batch_size", "int", required_for=TRAIN_COMMANDS, valid=AT_LEAST_1),
    Field("lr_adapter", "float", required_for=TRAIN_COMMANDS, valid=POSITIVE_FINITE),
    Field("lr_head", "float", required_for=TRAIN_COMMANDS, valid=POSITIVE_FINITE),
    Field("noise", "float", required_for=TRAIN_COMMANDS, valid=UNIT_INTERVAL),
    Field("train_count", "int", required_for=TRAIN_COMMANDS, valid=AT_LEAST_4),
    Field("test_count", "int", required_for=TRAIN_COMMANDS, valid=AT_LEAST_4),
    Field("eval_every", "int", default=0, valid=AT_LEAST_0),
    Field("seeds", "int_list", default=None, valid=SEED_RANGE),  # ablation; defaults to [seed]
    Field("latents_sweep", "int_list", required_for=("latent-sweep",), valid=AT_LEAST_1),
]


def _check_kind(field: Field, value):
    kind = field.kind
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field '{field.name}' must be an integer")
        return int(value)
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field '{field.name}' must be a number")
        return float(value)
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"field '{field.name}' must be a boolean")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"field '{field.name}' must be a string")
        return value
    if kind == "pair":
        if (
            not isinstance(value, list)
            or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
        ):
            raise ConfigError(f"field '{field.name}' must be a pair of integers")
        return [int(v) for v in value]
    if kind == "int_list":
        if (
            not isinstance(value, list)
            or not value
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
        ):
            raise ConfigError(f"field '{field.name}' must be a non-empty list of integers")
        return [int(v) for v in value]
    raise AssertionError(kind)


def load_run_config(path: str, command: str, seed_override: int | None) -> dict:
    """Read, type-check and complete the config for one subcommand. Raises
    ConfigError naming the specific field on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    known = {f.name: f for f in FIELDS}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown field '{key}'")

    resolved: dict = {"command": command}
    for field in FIELDS:
        if field.name in raw:
            resolved[field.name] = _check_kind(field, raw[field.name])
        elif command in field.required_for:
            raise ConfigError(f"missing required field '{field.name}'")
        else:
            resolved[field.name] = field.default

    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    if resolved["seeds"] is None:
        resolved["seeds"] = [resolved["seed"]]

    for field in FIELDS:
        value = resolved[field.name]
        if field.valid is None or value is None:
            continue
        text, ok = field.valid
        if not all(ok(v) for v in (value if isinstance(value, list) else [value])):
            entries = " entries" if isinstance(value, list) else ""
            raise ConfigError(f"field '{field.name}'{entries} must be {text}, got {value!r}")

    # semantic checks, reported against their field
    try:
        build_model_cfg(resolved).validate()
    except ValueError as e:
        raise ConfigError(f"invalid model configuration: {e}")
    if command in TRAIN_COMMANDS:
        try:
            build_train_cfg(resolved).validate()
        except ValueError as e:
            raise ConfigError(f"invalid training configuration: {e}")
    return resolved


def build_model_cfg(
    resolved: dict,
    mode: str | None = None,
    use_latents: bool | None = None,
    latent_count: int | None = None,
) -> ModelConfig:
    return ModelConfig(
        layers=resolved["layers"],
        width=resolved["width"],
        heads=resolved["heads"],
        patch=resolved["patch"],
        image_hw=tuple(resolved["image_hw"]),
        spec_hw=tuple(resolved["spec_hw"]),
        latent_count=resolved["latents"] if latent_count is None else latent_count,
        ratio=resolved["bottleneck_ratio"],
        groups=resolved["groups"],
        mode=resolved["mode"] if mode is None else mode,
        use_latents=resolved["use_latents"] if use_latents is None else use_latents,
        bottleneck_act=resolved["bottleneck_act"],
        bottleneck_bias=resolved["bottleneck_bias"],
        audio_pos=resolved["audio_pos"],
    )


def build_train_cfg(resolved: dict, seed: int | None = None) -> TrainConfig:
    return TrainConfig(
        lr_adapter=resolved["lr_adapter"],
        lr_head=resolved["lr_head"],
        steps=resolved["steps"],
        batch_size=resolved["batch_size"],
        seed=resolved["seed"] if seed is None else seed,
        eval_every=resolved["eval_every"],
    )


def build_data_cfg(resolved: dict) -> DataConfig:
    return DataConfig(
        train_count=resolved["train_count"],
        test_count=resolved["test_count"],
        noise=resolved["noise"],
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _echo_config(resolved: dict, outdir: Path) -> None:
    write_json(outdir / "config.json", resolved)


def _write_text(path: Path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def cmd_train(resolved: dict, outdir: Path, quiet: bool) -> None:
    result = run_experiment(build_model_cfg(resolved), build_train_cfg(resolved), build_data_cfg(resolved))
    _write_text(outdir / "metrics.csv", metrics_to_csv(result.rows))
    result.model.save_weights(outdir / "weights")
    if not quiet:
        print(f"train: final test accuracy {result.test_accuracy:.4f}")


def _mean_accuracy(resolved: dict, mode: str, use_latents: bool, latent_count: int | None = None) -> float:
    accs = []
    for seed in resolved["seeds"]:
        model_cfg = build_model_cfg(resolved, mode=mode, use_latents=use_latents, latent_count=latent_count)
        result = run_experiment(model_cfg, build_train_cfg(resolved, seed=seed), build_data_cfg(resolved))
        accs.append(result.test_accuracy)
    return sum(accs) / len(accs)


def cmd_ablation(resolved: dict, outdir: Path, quiet: bool) -> None:
    """The eight-row grid: both fusion methods crossed with the four modes,
    every cell trained with the same shared seed list."""
    lines = ["method,a2v,v2a,accuracy"]
    for method in ABLATION_METHODS:
        for mode in ABLATION_MODES:
            acc = _mean_accuracy(resolved, mode, use_latents=(method == "latent"))
            a2v = int(mode in ("a2v", "bidirectional"))
            v2a = int(mode in ("v2a", "bidirectional"))
            lines.append(f"{method},{a2v},{v2a},{format_float(acc)}")
            if not quiet:
                print(f"ablation: {method} mode={mode} accuracy {acc:.4f}")
    _write_text(outdir / "ablation.csv", "\n".join(lines) + "\n")


def cmd_latent_sweep(resolved: dict, outdir: Path, quiet: bool) -> None:
    """Accuracy and analytic fusion MACs per latent count."""
    cfg0 = build_model_cfg(resolved)
    n, k = cfg0.n_visual_tokens, cfg0.n_audio_tokens
    lines = ["m,accuracy,fusion_macs"]
    for m in resolved["latents_sweep"]:
        acc = _mean_accuracy(resolved, cfg0.mode, use_latents=cfg0.use_latents, latent_count=m)
        macs = model_fusion_macs(cfg0.layers, n, k, m, cfg0.width, cfg0.mode, cfg0.use_latents)
        lines.append(f"{m},{format_float(acc)},{macs}")
        if not quiet:
            print(f"latent-sweep: m={m} accuracy {acc:.4f} fusion_macs {macs}")
    _write_text(outdir / "latent_sweep.csv", "\n".join(lines) + "\n")


def model_fusion_macs(
    layers: int, n: int, k: int, latent_count: int, width: int, mode: str, use_latents: bool
) -> int:
    """Fusion MACs for one full forward pass: every layer injects beside both
    sub-steps, so each enabled direction runs twice per layer."""
    return layers * 2 * fusion_macs_total(n, k, latent_count, width, mode, use_latents)


def cmd_cost_report(resolved: dict, outdir: Path, quiet: bool) -> None:
    """Parameter and MAC accounting for the latent and direct variants of the
    configured model."""
    report: dict = {"ratios": {}}
    csv_rows = []
    cfg_latent = build_model_cfg(resolved, use_latents=True)
    cfg_direct = build_model_cfg(resolved, use_latents=False)
    n, k = cfg_latent.n_visual_tokens, cfg_latent.n_audio_tokens
    m, d = cfg_latent.latent_count, cfg_latent.width

    params = {}
    for label, cfg in (("latent", cfg_latent), ("direct", cfg_direct)):
        model = TwoStreamModel(cfg, resolved["seed"])
        pr = count_params(model.registry, title=label)
        params[label] = pr.to_json_dict()
        csv_rows.extend(pr.csv_rows())
    report["params"] = params

    macs = {}
    for label in ("latent", "direct"):
        per_dir = {}
        total = 0
        for direction, (tn, tk) in (("a2v", (n, k)), ("v2a", (k, n))):
            mr = mac_fusion(tn, tk, m, d, variant=label)
            per_dir[direction] = mr.to_json_dict()
            total += mr.total_macs
            rows = mr.csv_rows()
            for r in rows:
                r["name"] = f"{label}.{direction}." + r["name"].split(".", 1)[1]
            csv_rows.extend(rows)
        per_dir["total_macs"] = total
        macs[label] = per_dir
    report["fusion_macs"] = macs

    report["bottleneck"] = {
        "macs_per_site_visual_tokens": mac_bottleneck(n, d, cfg_latent.ratio, cfg_latent.groups),
        "macs_per_site_audio_tokens": mac_bottleneck(k, d, cfg_latent.ratio, cfg_latent.groups),
    }
    report["ratios"]["direct_over_latent_fusion_macs"] = (
        macs["direct"]["total_macs"] / macs["latent"]["total_macs"]
    )
    report["ratios"]["grouped_projection_param_fraction"] = (
        grouped_projection_params(d, cfg_latent.ratio, cfg_latent.groups)
        / (2 * d * (d // cfg_latent.ratio))
    )
    report["config"] = {"n": n, "k": k, "latent_count": m, "width": d,
                        "ratio": cfg_latent.ratio, "groups": cfg_latent.groups,
                        "heads": cfg_latent.heads, "layers": cfg_latent.layers}

    write_json(outdir / "cost_report.json", report)
    _write_text(outdir / "cost_report.csv", reports_to_csv(csv_rows))
    if not quiet:
        ratio = report["ratios"]["direct_over_latent_fusion_macs"]
        print(f"cost-report: direct/latent fusion MAC ratio {ratio:.2f}")


HANDLERS = {
    "train": cmd_train,
    "ablation": cmd_ablation,
    "latent-sweep": cmd_latent_sweep,
    "cost-report": cmd_cost_report,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avfuse",
        description="Train and audit cross-modal adapters on a frozen two-stream backbone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ALL_COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to a JSON run configuration")
        sp.add_argument("--out", default="./runs", help="output directory (default ./runs)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = load_run_config(args.config, args.command, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _echo_config(resolved, outdir)
        HANDLERS[args.command](resolved, outdir, args.quiet)
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
