"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured value once it holds. Run with ``pytest -v`` for the per-criterion
pass/fail listing (add ``-s`` to see the measured values on passing runs).
"""
import json
import time

import numpy as np

from avfuse.autodiff import Rng, count_macs
from avfuse.backbone import FreezeRegistry
from avfuse.cli import main as cli_main
from avfuse.costs import count_params, mac_fusion
from avfuse.fusion import build_layer_sites, compress_to_latents, fuse_with_latents, gated_attention
from avfuse.model import ModelConfig, TwoStreamModel, frozen_twin
from avfuse.tasks import DataConfig, TrainConfig, generate_dataset, run_experiment, train

from helpers import check_gradients, rand_batch


def test_criterion_1_identity_at_init():
    """Adapted logits equal frozen-twin logits to < 1e-12 on 100 inputs."""
    t0 = time.time()
    cfg = ModelConfig(layers=2, width=32, mode="bidirectional")
    adapted = TwoStreamModel(cfg, seed=0)
    frozen = frozen_twin(cfg, seed=0)
    r = Rng.for_name(0, "acceptance.identity")
    worst = 0.0
    for _ in range(100):
        one = rand_batch(r, cfg)
        diff = np.max(np.abs(adapted.logits(one).data - frozen.logits(one).data))
        worst = max(worst, float(diff))
    elapsed = time.time() - t0
    assert worst < 1e-12, worst
    assert elapsed < 10.0, elapsed
    print(f"PASS criterion 1 identity-at-init: max |diff| = {worst} over 100 inputs ({elapsed:.1f}s)")


def test_criterion_2_gradient_correctness():
    """Analytic gradients match central differences (step 1e-5, rel < 1e-6)
    for every trainable parameter of the d=16, m=2, 2-layer config."""
    t0 = time.time()
    cfg = ModelConfig(layers=2, width=16, heads=2, latent_count=2, ratio=4, groups=2, mode="bidirectional")
    model = TwoStreamModel(cfg, seed=0)
    batch = generate_dataset(0, 4, 0.1, cfg.image_hw, cfg.spec_hw)[:2]

    from avfuse.autodiff import cross_entropy_logits

    def make_loss():
        return cross_entropy_logits(model.logits(batch), batch.labels)

    params = [t for _, t in model.registry.trainable()]
    n_coords = sum(t.size for t in params)
    worst = check_gradients(make_loss, params, h=1e-5, rtol=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 120.0, elapsed
    print(
        f"PASS criterion 2 gradient-correctness: worst rel err {worst:.3e} over "
        f"{len(params)} tensors / {n_coords} coordinates ({elapsed:.1f}s)"
    )


def test_criterion_3_freeze_invariance():
    """SHA-256 of the frozen tensors unchanged after 500 steps; optimizer
    state holds no frozen entries."""
    cfg = ModelConfig(layers=1, width=8, heads=2, patch=4, latent_count=2, ratio=2, groups=2)
    model = TwoStreamModel(cfg, seed=0)
    before = model.frozen_hash()
    tr = generate_dataset(0, 16, 0.1)
    te = generate_dataset(1, 4, 0.1)

    from avfuse.tasks import make_optimizer

    tc = TrainConfig(steps=500, batch_size=4, seed=0)
    opt = make_optimizer(model, tc)

    # run the real loop but keep the constructed optimizer for inspection
    from avfuse.autodiff import backward, cross_entropy_logits

    batch_rng = Rng.for_name(tc.seed, "train.batches")
    for _ in range(tc.steps):
        idx = batch_rng.integers(tc.batch_size, 0, len(tr))
        batch = tr[idx]
        logits = model.logits(batch)
        model.registry.zero_grad()
        backward(cross_entropy_logits(logits, batch.labels))
        opt.step()

    after = model.frozen_hash()
    assert after == before
    frozen_names = {name for name, _, frozen in model.registry.items() if frozen}
    leaked = frozen_names & set(opt.state)
    assert not leaked, leaked
    print(
        f"PASS criterion 3 freeze-invariance: frozen SHA-256 {before[:12]}... unchanged "
        f"after 500 steps; optimizer state covers {len(opt.state)} trainable tensors, 0 frozen"
    )


def test_criterion_4_cost_scaling():
    """Instrumented MACs: direct fusion fits c*n*k with zero residual, latent
    fusion is affine in (n, k) at m=2, and the direct/latent ratio at
    n=k=2048, d=768 exceeds 100x."""
    t0 = time.time()
    d, m = 8, 2
    r = np.random.default_rng(0)
    gate = np.array(0.5)

    def instrumented_direct(n, k):
        q = r.standard_normal((n, d))
        kv = r.standard_normal((k, d))
        with count_macs() as c:
            gated_attention(q, kv, gate, None)
        return c.macs

    def instrumented_latent(n, k):
        lat = r.standard_normal((m, d))
        src = r.standard_normal((k, d))
        dst = r.standard_normal((n, d))
        with count_macs() as c:
            summary, _ = compress_to_latents(lat, src, gate, None)
            fuse_with_latents(dst, summary, gate, None)
        return c.macs

    grid = [(n, k) for n in (1, 2, 3, 5, 8) for k in (1, 2, 4, 7)]
    # direct: solve c from the unit cell, then demand zero residual everywhere
    c_dir = instrumented_direct(1, 1)
    residuals = [instrumented_direct(n, k) - c_dir * n * k for n, k in grid]
    assert all(v == 0 for v in residuals), residuals

    # latent: solve the affine coefficients from three probes, zero residual
    f00 = instrumented_latent(1, 1)
    fn = instrumented_latent(2, 1) - f00
    fk = instrumented_latent(1, 2) - f00
    base = f00 - fn - fk
    lat_res = [instrumented_latent(n, k) - (base + fn * n + fk * k) for n, k in grid]
    assert all(v == 0 for v in lat_res), lat_res

    # formulas match the instrumented counts, then scale them up
    assert c_dir == mac_fusion(1, 1, m, d, "direct").total_macs
    assert instrumented_latent(3, 7) == mac_fusion(3, 7, m, d, "latent").total_macs
    big_direct = mac_fusion(2048, 2048, 2, 768, "direct").total_macs
    big_latent = mac_fusion(2048, 2048, 2, 768, "latent").total_macs
    ratio = big_direct / big_latent
    elapsed = time.time() - t0
    assert ratio > 100.0, ratio
    assert elapsed < 60.0, elapsed
    print(
        "PASS criterion 4 cost-scaling: direct = c*n*k and latent affine in (n,k) with zero "
        f"residual on {len(grid)} instrumented cells; ratio at n=k=2048,d=768 is {ratio:.0f}x ({elapsed:.1f}s)"
    )


def test_criterion_5_grouped_accounting():
    """count_params reports exactly 0.5x projection weights for G=2 vs dense
    for every (d, rho) with d divisible by 2*rho, by enumeration."""
    checked = 0
    for d in range(4, 129, 2):
        for rho in (1, 2, 4, 8, 16):
            if d % (2 * rho):
                continue
            sizes = {}
            for groups in (1, 2):
                reg = FreezeRegistry()
                p = build_layer_sites(0, d, 1, rho, groups, 0, "a2v", bias=False)["mha"].parts
                reg.register("site.down_w", p["down_w"])
                reg.register("site.up_w", p["up_w"])
                sizes[groups] = count_params(reg).trainable_total
            assert sizes[2] * 2 == sizes[1], (d, rho, sizes)
            checked += 1
    assert checked > 100
    print(f"PASS criterion 5 grouped-accounting: G=2 is exactly 0.5x dense on {checked} (d, rho) pairs")


def test_criterion_6_fusion_necessity():
    """On the paired synthetic task (noise 0.1, 1024/256, 500 steps, seeds
    0-2): bidirectional >= unidirectional >= none + 20pts, bidirectional >= 90%."""
    t0 = time.time()
    means = {}
    for mode in ("none", "a2v", "v2a", "bidirectional"):
        accs = [
            run_experiment(ModelConfig(mode=mode), TrainConfig(seed=s), DataConfig()).test_accuracy
            for s in (0, 1, 2)
        ]
        means[mode] = float(np.mean(accs))
    elapsed = time.time() - t0
    uni_lo = min(means["a2v"], means["v2a"])
    uni_hi = max(means["a2v"], means["v2a"])
    assert means["bidirectional"] >= uni_hi, means
    assert uni_lo >= means["none"] + 0.20, means
    assert means["bidirectional"] >= 0.90, means
    assert elapsed < 900.0, elapsed
    print(
        "PASS criterion 6 fusion-necessity: mean accuracies "
        f"none={means['none']:.3f} a2v={means['a2v']:.3f} v2a={means['v2a']:.3f} "
        f"bidirectional={means['bidirectional']:.3f} ({elapsed:.0f}s)"
    )


def _tiny_config(tmp_path, extra=None):
    cfg = {
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
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_criterion_7_ablation_table_shape(tmp_path):
    """The ablation grid is 8 rows of {direct, latent} x 4 modes with
    identical mode=none rows, and the sweep MAC column is exactly affine."""
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "ab"
    assert cli_main(["ablation", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "method,a2v,v2a,accuracy"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    assert [r[0] for r in rows] == ["direct"] * 4 + ["latent"] * 4
    flags = [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")]
    assert [(r[1], r[2]) for r in rows[:4]] == flags
    assert [(r[1], r[2]) for r in rows[4:]] == flags
    assert rows[0][3] == rows[4][3]  # mode=none identical across methods

    sweep_cfg = _tiny_config(tmp_path, {"latents_sweep": [1, 2, 3, 5, 8]})
    out2 = tmp_path / "sw"
    assert cli_main(["latent-sweep", "--config", sweep_cfg, "--out", str(out2), "--quiet"]) == 0
    sw = (out2 / "latent_sweep.csv").read_text().strip().split("\n")
    assert sw[0] == "m,accuracy,fusion_macs"
    ms = [int(line.split(",")[0]) for line in sw[1:]]
    macs = [int(line.split(",")[2]) for line in sw[1:]]
    # exactly affine: macs = a + b*m for the fitted (a, b), zero residual
    b = (macs[1] - macs[0]) // (ms[1] - ms[0])
    a = macs[0] - b * ms[0]
    assert all(macs[i] == a + b * ms[i] for i in range(len(ms))), macs
    print(
        "PASS criterion 7 ablation-table-shape: 8-row grid with matching mode=none rows; "
        f"sweep MACs affine in m (slope {b})"
    )


def test_criterion_8_determinism(tmp_path):
    """Each subcommand run twice with the same config and seed produces
    byte-identical outputs."""
    outputs = {
        "train": ("config.json", "metrics.csv", "weights.json", "weights.bin"),
        "ablation": ("config.json", "ablation.csv"),
        "latent-sweep": ("config.json", "latent_sweep.csv"),
        "cost-report": ("config.json", "cost_report.json", "cost_report.csv"),
    }
    checked = []
    for command, files in outputs.items():
        extra = {"latents_sweep": [1, 2]} if command == "latent-sweep" else None
        cfg = _tiny_config(tmp_path, extra)
        d1 = tmp_path / f"{command}-1"
        d2 = tmp_path / f"{command}-2"
        assert cli_main([command, "--config", cfg, "--out", str(d1), "--quiet"]) == 0
        assert cli_main([command, "--config", cfg, "--out", str(d2), "--quiet"]) == 0
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (command, name)
            checked.append(f"{command}/{name}")
    print(f"PASS criterion 8 determinism: {len(checked)} output files byte-identical across reruns")
