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
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .costs import (
    REPORT_COLUMNS,
    count_params,
    grouped_projection_params,
    mac_bottleneck,
    mac_fusion,
    model_fusion_macs,
    target_source,
)
from .fusion import MODE_DIRECTIONS
from .model import FieldError, ModelConfig, TwoStreamModel, is_integer
from .serialization import csv_text, write_atomic, write_json
from .tasks import METRICS_COLUMNS, DataConfig, TrainConfig, run_experiment

TRAIN_COMMANDS = ("train", "ablation", "latent-sweep")
ALL_COMMANDS = TRAIN_COMMANDS + ("cost-report",)

ABLATION_METHODS = ("direct", "latent")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


@dataclass
class Field:
    name: str
    kind: str  # a key of JSON_KINDS
    required_for: tuple[str, ...] = ()
    default: object = None


FIELDS = [
    Field("layers", "int", required_for=ALL_COMMANDS),
    Field("width", "int", required_for=ALL_COMMANDS),
    Field("heads", "int", required_for=ALL_COMMANDS),
    Field("patch", "int", required_for=ALL_COMMANDS),
    Field("latents", "int", required_for=ALL_COMMANDS),
    Field("bottleneck_ratio", "int", required_for=ALL_COMMANDS),
    Field("groups", "int", required_for=ALL_COMMANDS),
    Field("image_hw", "pair", default=[8, 8]),
    Field("spec_hw", "pair", default=[8, 8]),
    Field("mode", "str", default="bidirectional"),
    Field("use_latents", "bool", default=True),
    Field("bottleneck_act", "str", default="gelu"),
    Field("bottleneck_bias", "bool", default=True),
    Field("audio_pos", "str", default="resize"),
    Field("seed", "int", default=0),
    Field("steps", "int", required_for=TRAIN_COMMANDS),
    Field("batch_size", "int", required_for=TRAIN_COMMANDS),
    Field("lr_adapter", "float", required_for=TRAIN_COMMANDS),
    Field("lr_head", "float", required_for=TRAIN_COMMANDS),
    Field("noise", "float", required_for=TRAIN_COMMANDS),
    Field("train_count", "int", required_for=TRAIN_COMMANDS),
    Field("test_count", "int", required_for=TRAIN_COMMANDS),
    Field("eval_every", "int", default=0),
    Field("seeds", "int_list", default=None),  # ablation; defaults to [seed]
    Field("latents_sweep", "int_list", required_for=("latent-sweep",)),
]

# JSON kind -> (the text a refusal gives, the test a parsed value passes)
JSON_KINDS = {
    "int": ("an integer", is_integer),
    "float": ("a number", lambda v: is_integer(v) or isinstance(v, float)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "pair": ("a pair of integers", lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_integer, v))),
    "int_list": ("a non-empty list of integers", lambda v: isinstance(v, list) and v and all(map(is_integer, v))),
}

# The config attribute a JSON field feeds, where the names differ; a list
# field feeds its attribute entry by entry. Every range is the config
# class's own: the CLI checks JSON kinds only.
ATTRIBUTES = {"latents": "latent_count", "bottleneck_ratio": "ratio", "seeds": "seed", "latents_sweep": "latent_count"}
JSON_NAMES = {ATTRIBUTES[f.name]: f.name for f in FIELDS if f.name in ATTRIBUTES and f.kind != "int_list"}
CONFIGS = {ModelConfig: "model", TrainConfig: "training", DataConfig: "data"}


def _check_kind(field: Field, value):
    text, ok = JSON_KINDS[field.kind]
    if not ok(value):
        raise ConfigError(f"field '{field.name}' must be {text}")
    if field.kind != "float":
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field '{field.name}' must be a number within float range, got an integer "
                          f"of {len(str(value))} digits") from None


def load_run_config(path: str, command: str, seed_override: int | None) -> dict:
    """Read, type-check and complete the config for one subcommand, then
    validate every config class it feeds. Raises ConfigError naming the
    specific field on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:
        raise ConfigError(f"config file cannot be read: {e}")
    except ValueError as e:  # bad JSON, not UTF-8, or an integer past Python's digit limit
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

    # each config the fields feed, then each list entry through the
    # attribute it feeds
    for cls, what in CONFIGS.items():
        cfg = build_config(cls, resolved)
        _validate(cfg, what)
        for field in FIELDS:
            attr = ATTRIBUTES.get(field.name)
            if field.kind == "int_list" and hasattr(cfg, attr):
                for entry in resolved[field.name] or ():
                    _validate(replace(cfg, **{attr: entry}), what, list_name=field.name)
    return resolved


def _validate(cfg, what: str, list_name: str | None = None) -> None:
    """Validate ``cfg`` and report a refusal under its JSON field name, or
    as the entries of list field ``list_name``."""
    try:
        cfg.validate()
    except FieldError as e:
        where = f"'{list_name}' entries" if list_name else f"'{JSON_NAMES.get(e.field, e.field)}'"
        raise ConfigError(f"invalid {what} configuration: field {where} {e.reason}") from None


def build_config(cls, resolved: dict):
    """A ``cls`` config from the resolved fields that feed it and are set,
    over the dataclass defaults."""
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for field in FIELDS:
        attr, value = ATTRIBUTES.get(field.name, field.name), resolved[field.name]
        if field.kind != "int_list" and attr in names and value is not None:
            kwargs[attr] = tuple(value) if field.kind == "pair" else value
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _echo_config(resolved: dict, outdir: Path) -> None:
    write_json(outdir / "config.json", resolved)


def _write_text(path: Path, text: str) -> None:
    write_atomic(path, text.encode("utf-8"))


def cmd_train(resolved: dict, outdir: Path, quiet: bool) -> None:
    result = run_experiment(*(build_config(cls, resolved) for cls in CONFIGS))  # model, training, data
    _write_text(outdir / "metrics.csv", csv_text(METRICS_COLUMNS, result.rows))
    result.model.save_weights(outdir / "weights")
    if not quiet:
        print(f"train: final test accuracy {result.test_accuracy:.4f}")


def _mean_accuracy(resolved: dict, model_cfg: ModelConfig) -> float:
    train_cfg, data_cfg = build_config(TrainConfig, resolved), build_config(DataConfig, resolved)
    accs = []
    for seed in resolved["seeds"]:
        result = run_experiment(model_cfg, replace(train_cfg, seed=seed), data_cfg)
        accs.append(result.test_accuracy)
    return sum(accs) / len(accs)


def cmd_ablation(resolved: dict, outdir: Path, quiet: bool) -> None:
    """The eight-row grid: both fusion methods crossed with the four modes,
    every cell trained with the same shared seed list."""
    cfg = build_config(ModelConfig, resolved)
    rows = []
    for method in ABLATION_METHODS:
        for mode, directions in MODE_DIRECTIONS.items():
            acc = _mean_accuracy(resolved, replace(cfg, mode=mode, use_latents=(method == "latent")))
            rows.append({"method": method, "a2v": int("a2v" in directions), "v2a": int("v2a" in directions),
                         "accuracy": acc})
            if not quiet:
                print(f"ablation: {method} mode={mode} accuracy {acc:.4f}")
    _write_text(outdir / "ablation.csv", csv_text(("method", "a2v", "v2a", "accuracy"), rows))


def cmd_latent_sweep(resolved: dict, outdir: Path, quiet: bool) -> None:
    """Accuracy and analytic fusion MACs per latent count."""
    cfg0 = build_config(ModelConfig, resolved)
    n, k = cfg0.n_visual_tokens, cfg0.n_audio_tokens
    rows = []
    for m in resolved["latents_sweep"]:
        acc = _mean_accuracy(resolved, replace(cfg0, latent_count=m))
        macs = model_fusion_macs(cfg0.layers, n, k, m, cfg0.width, cfg0.mode, cfg0.use_latents)
        rows.append({"m": m, "accuracy": acc, "fusion_macs": macs})
        if not quiet:
            print(f"latent-sweep: m={m} accuracy {acc:.4f} fusion_macs {macs}")
    _write_text(outdir / "latent_sweep.csv", csv_text(("m", "accuracy", "fusion_macs"), rows))


def cmd_cost_report(resolved: dict, outdir: Path, quiet: bool) -> None:
    """Parameter and MAC accounting for the latent and direct variants of the
    configured model."""
    report: dict = {"ratios": {}}
    csv_rows = []
    cfg = build_config(ModelConfig, resolved)
    cfg_latent, cfg_direct = replace(cfg, use_latents=True), replace(cfg, use_latents=False)
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
        for direction, (tn, tk) in target_source(n, k).items():
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
        / grouped_projection_params(d, cfg_latent.ratio, 1)
    )
    report["config"] = {"n": n, "k": k, "latent_count": m, "width": d,
                        "ratio": cfg_latent.ratio, "groups": cfg_latent.groups,
                        "heads": cfg_latent.heads, "layers": cfg_latent.layers}

    write_json(outdir / "cost_report.json", report)
    _write_text(outdir / "cost_report.csv", csv_text(REPORT_COLUMNS, csv_rows))
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
