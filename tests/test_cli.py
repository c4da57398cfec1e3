"""CLI tests: config validation, outputs, determinism, exit codes."""
import ctypes
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from avfuse.cli import ATTRIBUTES, CONFIGS, FIELDS, ConfigError, load_run_config, main

TINY = {
    "layers": 1,
    "width": 8,
    "heads": 2,
    "patch": 4,
    "latents": 2,
    "bottleneck_ratio": 2,
    "groups": 2,
    "steps": 2,
    "batch_size": 4,
    "lr_adapter": 1e-3,
    "lr_head": 1e-3,
    "noise": 0.1,
    "train_count": 8,
    "test_count": 4,
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = dict(TINY)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args):
    return main(args)


class TestConfigLoading:
    def test_resolves_defaults(self, tmp_path):
        resolved = load_run_config(write_config(tmp_path), "train", None)
        assert resolved["mode"] == "bidirectional"
        assert resolved["seed"] == 0
        assert resolved["seeds"] == [0]
        assert resolved["image_hw"] == [8, 8]

    def test_seed_override(self, tmp_path):
        resolved = load_run_config(write_config(tmp_path), "train", 7)
        assert resolved["seed"] == 7
        assert resolved["seeds"] == [7]

    def test_missing_required_field_named(self, tmp_path):
        cfg = dict(TINY)
        del cfg["steps"]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="steps"):
            load_run_config(str(p), "train", None)

    def test_cost_report_does_not_need_training_fields(self, tmp_path):
        cfg = {k: TINY[k] for k in ("layers", "width", "heads", "patch", "latents", "bottleneck_ratio", "groups")}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        resolved = load_run_config(str(p), "cost-report", None)
        assert resolved["command"] == "cost-report"

    def test_unknown_field_named(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery"):
            load_run_config(write_config(tmp_path, {"mystery": 1}), "train", None)

    def test_type_errors_named(self, tmp_path):
        with pytest.raises(ConfigError, match="width"):
            load_run_config(write_config(tmp_path, {"width": "wide"}), "train", None)
        with pytest.raises(ConfigError, match="latents_sweep"):
            load_run_config(write_config(tmp_path, {"latents_sweep": []}), "latent-sweep", None)
        for field, bad, kind in (("lr_adapter", "fast", "a number"), ("use_latents", 1, "a boolean"),
                                 ("mode", 3, "a string"), ("image_hw", [8, 8, 8], "a pair of integers"),
                                 ("lr_head", 10**400, "a number")):
            with pytest.raises(ConfigError, match=f"field '{field}' must be {kind}"):
                load_run_config(write_config(tmp_path, {field: bad}), "train", None)
        p = tmp_path / "list.json"
        p.write_text(json.dumps([TINY]))
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_run_config(str(p), "train", None)

    def test_semantic_model_error(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            load_run_config(write_config(tmp_path, {"heads": 3}), "train", None)

    def test_bad_json_and_missing_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(str(p), "train", None)
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(str(tmp_path / "absent.json"), "train", None)
        with pytest.raises(ConfigError, match="cannot be read"):
            load_run_config(str(tmp_path), "train", None)
        p.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="not valid JSON: 'utf-8' codec"):
            load_run_config(str(p), "train", None)
        p.write_text(json.dumps(TINY)[:-1] + ', "seed": ' + "1" * 4301 + "}")
        with pytest.raises(ConfigError, match="not valid JSON: Exceeds the limit"):
            load_run_config(str(p), "train", None)

    def test_optional_defaults_match_the_dataclasses(self):
        # each FIELDS default feeds a config attribute whose dataclass
        # default must agree, read through the CLI's own JSON-to-attribute map
        defaults = {f.name: f.default for cls in CONFIGS for f in dataclasses.fields(cls)}
        checked = []
        for field in FIELDS:
            if field.default is not None:
                want = defaults[ATTRIBUTES.get(field.name, field.name)]
                assert (tuple(field.default) if field.kind == "pair" else field.default) == want, field.name
                checked.append(field.name)
        assert checked == ["image_hw", "spec_hw", "mode", "use_latents", "bottleneck_act", "bottleneck_bias",
                           "audio_pos", "seed", "eval_every"]


class TestExitCodes:
    def test_success_zero(self, tmp_path, capsys):
        code = run_cli(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0

    def test_invalid_config_two(self, tmp_path, capsys):
        cfg = dict(TINY)
        del cfg["width"]
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        code = run_cli(["train", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "width" in capsys.readouterr().err

    def test_unknown_activation_two(self, tmp_path, capsys):
        p = write_config(tmp_path, {"bottleneck_act": "tanh"})
        code = run_cli(["train", "--config", p, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bottleneck_act" in capsys.readouterr().err

    def test_runtime_failure_three(self, tmp_path, capsys, monkeypatch):
        import avfuse.cli as cli_mod

        def boom(*a, **k):
            raise RuntimeError("deliberate")

        monkeypatch.setitem(cli_mod.HANDLERS, "train", boom)
        code = run_cli(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "deliberate" in capsys.readouterr().err

    def test_out_of_range_values_two(self, tmp_path, capsys):
        # one or more out-of-range values, as raw JSON, for every field that
        # has a range or a fixed set of values; each fails at load, names its
        # field, and no output directory is made
        bad = {
            "layers": ["0"],
            "width": ["0"],
            "heads": ["0", "-2"],
            "patch": ["0"],
            "latents": ["0"],
            "bottleneck_ratio": ["0"],
            "groups": ["0"],
            "image_hw": ["[0, 0]", "[8, -4]"],
            "spec_hw": ["[0, 0]", "[-8, 8]"],
            "mode": ['"both"'],
            "bottleneck_act": ['"tanh"'],
            "audio_pos": ['"sideways"'],
            "seed": ["-1", str(2**64)],
            "steps": ["-1"],
            "batch_size": ["0"],
            "lr_adapter": ["1e400", "-1.0", "0.0"],
            "lr_head": ["NaN", "-Infinity"],
            "noise": ["1.0", "-0.5"],
            "train_count": ["3"],
            "test_count": ["3"],
            "eval_every": ["-1"],
            "seeds": ["[-1]", f"[0, {2**64}]"],
            "latents_sweep": ["[0]"],
        }
        ranged = {f.name for f in FIELDS if f.kind != "bool"}
        assert ranged == set(bad)
        # cost-report needs no training field, yet refuses one that is given and bad
        for command in ("latent-sweep", "cost-report"):
            for name, values in bad.items():
                for raw in values:
                    cfg = {k: v for k, v in dict(TINY, latents_sweep=[2]).items() if k != name}
                    p = tmp_path / "c.json"
                    p.write_text(json.dumps(cfg)[:-1] + f', "{name}": {raw}}}')
                    out = tmp_path / "never"
                    code = run_cli([command, "--config", str(p), "--out", str(out), "--quiet"])
                    err = capsys.readouterr().err
                    assert code == 2, (command, name, raw, err)
                    assert re.search(rf"\b{name}\b", err), (command, name, raw, err)
                    assert not out.exists()

    def test_seed_override_out_of_range_two(self, tmp_path, capsys):
        code = run_cli(["train", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_divergence_three_names_step_and_parameter(self, tmp_path, capsys):
        p = write_config(tmp_path, {"lr_adapter": 1e300, "steps": 4})
        code = run_cli(["train", "--config", p, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged at step 2" in err and "'adapter." in err


class TestTrainCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(["train", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        assert run_cli(["train", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        for name in ("config.json", "metrics.csv", "weights.json", "weights.bin"):
            assert (out1 / name).exists(), name
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_runs_without_mallopt(self, tmp_path, monkeypatch):
        # a C library that cannot be opened leaves the heap at its defaults,
        # which changes no output byte
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(["train", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        opened = []

        def no_libc(*args, **kwargs):
            opened.append(args)
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert run_cli(["train", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        assert opened
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_metrics_layout(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r"
        run_cli(["train", "--config", cfg, "--out", str(out), "--quiet"])
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "step,loss,split,accuracy,mode,m,seed"
        assert len(lines) == 1 + TINY["steps"] + 1  # header, train rows, final eval

    def test_config_echo_includes_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r"
        run_cli(["train", "--config", cfg, "--out", str(out), "--seed", "9", "--quiet"])
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["seed"] == 9
        assert echoed["command"] == "train"

    def test_zero_steps_writes_eval_row_only(self, tmp_path):
        cfg = write_config(tmp_path, {"steps": 0})
        out = tmp_path / "r0"
        assert run_cli(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header plus the single evaluation row
        assert lines[1].split(",")[2] == "test"

    def test_input_config_never_mutated(self, tmp_path):
        cfg = write_config(tmp_path, {"latents_sweep": [2]})
        before = Path(cfg).read_bytes()
        for cmd in ("train", "ablation", "latent-sweep", "cost-report"):
            assert run_cli([cmd, "--config", cfg, "--out", str(tmp_path / cmd), "--quiet"]) == 0
            assert Path(cfg).read_bytes() == before, cmd

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_cli(["train", "--config", cfg, "--out", str(tmp_path / "q"), "--quiet"])
        assert capsys.readouterr().out == ""
        run_cli(["train", "--config", cfg, "--out", str(tmp_path / "v")])
        assert "accuracy" in capsys.readouterr().out


class TestAblationCommand:
    def test_grid_shape_and_none_rows_match(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ab"
        assert run_cli(["ablation", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "method,a2v,v2a,accuracy"
        assert len(lines) == 9
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["direct"] * 4 + ["latent"] * 4
        assert [(r[1], r[2]) for r in rows[:4]] == [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")]
        # mode=none must be bit-identical between the two methods
        assert rows[0] == ["direct", "0", "0", rows[4][3]]

    def test_ablation_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        o1, o2 = tmp_path / "a1", tmp_path / "a2"
        run_cli(["ablation", "--config", cfg, "--out", str(o1), "--quiet"])
        run_cli(["ablation", "--config", cfg, "--out", str(o2), "--quiet"])
        assert (o1 / "ablation.csv").read_bytes() == (o2 / "ablation.csv").read_bytes()

    def test_multi_seed_mean(self, tmp_path):
        cfg = write_config(tmp_path, {"seeds": [0, 1]})
        out = tmp_path / "ms"
        assert run_cli(["ablation", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        for line in lines[1:]:
            acc = float(line.split(",")[3])
            assert 0.0 <= acc <= 1.0


class TestLatentSweepCommand:
    def test_rows_and_affine_macs(self, tmp_path):
        cfg = write_config(tmp_path, {"latents_sweep": [1, 2, 3, 4]})
        out = tmp_path / "sw"
        assert run_cli(["latent-sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        lines = (out / "latent_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "m,accuracy,fusion_macs"
        ms = [int(line.split(",")[0]) for line in lines[1:]]
        macs = [int(line.split(",")[2]) for line in lines[1:]]
        assert ms == [1, 2, 3, 4]
        diffs = [b - a for a, b in zip(macs, macs[1:])]
        assert len(set(diffs)) == 1 and diffs[0] > 0


class TestCostReportCommand:
    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cr"
        assert run_cli(["cost-report", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "cost_report.json").read_text())
        assert set(report) >= {"params", "fusion_macs", "bottleneck", "ratios", "config"}
        assert report["ratios"]["grouped_projection_param_fraction"] == 0.5
        assert report["fusion_macs"]["direct"]["total_macs"] > 0
        lat = report["params"]["latent"]
        assert lat["frozen_total"] > 0 and lat["trainable_total"] > 0
        csv_lines = (out / "cost_report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "name,frozen,trainable,macs"

    def test_dense_projection_count_comes_from_the_cost_model(self, tmp_path, monkeypatch):
        # the fraction's denominator is the one-group count of
        # costs.grouped_projection_params, not a formula of the report's own
        from avfuse import cli

        calls = []
        real = cli.grouped_projection_params
        monkeypatch.setattr(cli, "grouped_projection_params", lambda *a: calls.append(a) or real(*a))
        cfg = write_config(tmp_path)
        out = tmp_path / "cr"
        assert run_cli(["cost-report", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert calls == [(8, 2, 2), (8, 2, 1)]
        report = json.loads((out / "cost_report.json").read_text())
        assert report["ratios"]["grouped_projection_param_fraction"] == real(8, 2, 2) / real(8, 2, 1)

    def test_direct_costs_exceed_latent_at_64_tokens(self, tmp_path):
        # n = k = 64 tokens per stream, m = 2: n*k far above m*(n + 2k)
        cfg = write_config(tmp_path, {"image_hw": [32, 32], "spec_hw": [32, 32]})
        out = tmp_path / "cr64"
        assert run_cli(["cost-report", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "cost_report.json").read_text())
        direct = report["fusion_macs"]["direct"]["total_macs"]
        latent = report["fusion_macs"]["latent"]["total_macs"]
        assert direct > latent

    def test_readme_config_bytes_pinned(self, tmp_path):
        # the complete training config in the README; reruns matching each
        # other cannot show a refactor that changes both runs' bytes alike
        readme = {
            "layers": 2, "width": 32, "heads": 4, "patch": 4, "latents": 2,
            "bottleneck_ratio": 4, "groups": 2, "steps": 500, "batch_size": 8,
            "lr_adapter": 1e-3, "lr_head": 1e-3, "noise": 0.1,
            "train_count": 1024, "test_count": 256,
        }
        cfg = tmp_path / "readme.json"
        cfg.write_text(json.dumps(readme))
        out = tmp_path / "cr"
        assert run_cli(["cost-report", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("cost_report.json", "cost_report.csv")}
        assert digests == {
            "cost_report.json": "35563465e619ce857d4b6da6ad0281033e9787bb11163342ba9bd48301f06c37",
            "cost_report.csv": "832f31bf3cefbe057d00e32bf687e1578d826bba3f5f3299bd55c357ddfff5df",
        }

    def test_cost_report_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        o1, o2 = tmp_path / "c1", tmp_path / "c2"
        run_cli(["cost-report", "--config", cfg, "--out", str(o1), "--quiet"])
        run_cli(["cost-report", "--config", cfg, "--out", str(o2), "--quiet"])
        for name in ("cost_report.json", "cost_report.csv", "config.json"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()
