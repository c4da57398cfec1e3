"""Parameter and MAC accounting tests.

The analytic formulas are checked two independent ways: against hand
arithmetic, and against the instrumented counter wrapped around the real
forward pass.
"""
import numpy as np
import pytest

from avfuse.autodiff import Tensor, count_macs
from avfuse.backbone import AUDIO, VISUAL, FreezeRegistry, TokenSet
from avfuse.costs import (
    SchemeSpec,
    bottleneck_params,
    count_params,
    fusion_macs_total,
    grouped_projection_params,
    mac_bottleneck,
    mac_fusion,
    reports_to_csv,
    scheme_param_report,
    scheme_table,
)
from avfuse.fusion import adapter_forward, build_site, cma, compress_to_latents


class TestParamFormulas:
    def test_grouped_projection_hand_counts(self):
        # d=8, rho=2, G=1: down 8x4 + up 4x8 = 64
        assert grouped_projection_params(8, 2, 1) == 64
        # G=2: two blocks of 4x2 down + 2x4 up = 2*(8+8) = 32
        assert grouped_projection_params(8, 2, 2) == 32

    def test_grouped_halving_enumeration(self):
        # G=2 must give exactly half the dense count whenever 2*rho divides d
        for d in range(4, 129, 4):
            for rho in (1, 2, 4, 8):
                if d % (2 * rho):
                    continue
                dense = grouped_projection_params(d, rho, 1)
                grouped = grouped_projection_params(d, rho, 2)
                assert grouped * 2 == dense, (d, rho)

    def test_grouped_projection_matches_built_tensors(self):
        from avfuse.fusion import init_bottleneck

        for width, rho, groups in ((16, 4, 2), (12, 3, 2), (8, 2, 1)):
            p = init_bottleneck(width, rho, groups, 0, "chk")
            built = p.down_w.size + p.up_w.size
            assert built == grouped_projection_params(width, rho, groups)
            with_bias = built + p.down_b.size + p.up_b.size
            assert with_bias == bottleneck_params(width, rho, groups, bias=True)

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            grouped_projection_params(10, 4, 2)

    def test_frozen_only_model_has_zero_trainable(self):
        from avfuse.model import ModelConfig, TwoStreamModel

        cfg = ModelConfig(mode="none")
        model = TwoStreamModel(cfg, seed=0)
        # the head's (2*width, 2) weight and 2 biases are all that trains
        assert count_params(model.registry).trainable_total == 4 * cfg.width + 2

    def test_count_params_from_registry(self):
        reg = FreezeRegistry()
        reg.register("backbone.w", Tensor(np.zeros((4, 4))), frozen=True)
        reg.register("adapter.g", Tensor(np.zeros(())), frozen=False)
        reg.register("head.w", Tensor(np.zeros((8, 2))), frozen=False)
        rep = count_params(reg)
        assert rep.frozen_total == 16
        assert rep.trainable_total == 17
        assert rep.total == 33
        assert [e.name for e in rep.entries] == ["backbone.w", "adapter.g", "head.w"]


class TestMacFormulas:
    def test_latent_formula(self):
        rep = mac_fusion(n=10, k=6, latent_count=2, width=8, variant="latent")
        assert rep.ops["compression"].macs == 2 * 2 * 6 * 8
        assert rep.ops["fusion"].macs == 2 * 10 * 2 * 8
        assert rep.ops["compression"].softmax_elems == 2 * 6
        assert rep.ops["fusion"].softmax_elems == 10 * 2
        assert rep.total_macs == 192 + 320

    def test_unit_cell_hand_count(self):
        # n=k=m=d=1: compression 2 + fusion 2
        assert mac_fusion(1, 1, 1, 1, "latent").total_macs == 4

    def test_direct_formula(self):
        rep = mac_fusion(n=10, k=6, latent_count=2, width=8, variant="direct")
        assert rep.total_macs == 2 * 10 * 6 * 8
        assert rep.total_softmax_elems == 60

    def test_latent_affine_in_n_and_k(self):
        # first differences in n and in k are constant (affine), and the
        # mixed second difference vanishes
        m, d = 3, 16

        def f(n, k):
            return mac_fusion(n, k, m, d, "latent").total_macs

        dn = [f(n + 1, 5) - f(n, 5) for n in range(2, 12)]
        dk = [f(7, k + 1) - f(7, k) for k in range(2, 12)]
        assert len(set(dn)) == 1 and len(set(dk)) == 1
        assert f(9, 9) - f(9, 8) - f(8, 9) + f(8, 8) == 0

    def test_direct_bilinear(self):
        d = 16

        def f(n, k):
            return mac_fusion(n, k, 1, d, "direct").total_macs

        # exact fit to c*n*k with zero residual
        c = f(1, 1)
        for n in range(1, 9):
            for k in range(1, 9):
                assert f(n, k) == c * n * k

    def test_instrumented_cma_matches_direct_formula(self):
        r = np.random.default_rng(0)
        n, k, d = 7, 5, 8
        q = Tensor(r.standard_normal((n, d)))
        kv = Tensor(r.standard_normal((k, d)))
        with count_macs() as c:
            cma(q, kv, kv, Tensor(0.5))
        rep = mac_fusion(n, k, 1, d, "direct")
        assert c.macs == rep.total_macs
        assert c.softmax_elems == rep.total_softmax_elems

    def test_instrumented_site_matches_analytic_total(self):
        # full adapter forward, latent and direct, against formula sums
        r = np.random.default_rng(1)
        n, k, m, d, rho, g = 6, 9, 2, 8, 2, 2
        src = TokenSet(AUDIO, Tensor(r.standard_normal((k, d))), 0)
        dst = TokenSet(VISUAL, Tensor(r.standard_normal((n, d))), 0)
        for use_latents, variant in ((True, "latent"), (False, "direct")):
            site = build_site("a2v", "mha", 0, d, m, rho, g, 0, use_latents=use_latents)
            with count_macs() as c:
                adapter_forward(src, dst, site)
            want = mac_fusion(n, k, m, d, variant).total_macs + mac_bottleneck(n, d, rho, g)
            assert c.macs == want, variant
            assert c.softmax_elems == mac_fusion(n, k, m, d, variant).total_softmax_elems

    def test_fusion_macs_total_directions(self):
        n, k, m, d = 10, 6, 2, 8
        a2v = mac_fusion(n, k, m, d, "latent").total_macs
        v2a = mac_fusion(k, n, m, d, "latent").total_macs
        assert fusion_macs_total(n, k, m, d, "a2v") == a2v
        assert fusion_macs_total(n, k, m, d, "v2a") == v2a
        assert fusion_macs_total(n, k, m, d, "bidirectional") == a2v + v2a
        assert fusion_macs_total(n, k, m, d, "none") == 0

    def test_large_config_ratio(self):
        n = k = 2048
        d = 768
        direct = mac_fusion(n, k, 2, d, "direct").total_macs
        latent = mac_fusion(n, k, 2, d, "latent").total_macs
        assert direct / latent > 100.0

    def test_mac_fusion_validates(self):
        with pytest.raises(ValueError):
            mac_fusion(0, 5, 2, 8)
        with pytest.raises(ValueError):
            mac_fusion(5, 5, 2, 8, variant="other")


class TestSchemes:
    def test_latent_adapter_matches_built_model(self):
        from avfuse.model import ModelConfig, TwoStreamModel

        cfg = ModelConfig(mode="bidirectional")
        model = TwoStreamModel(cfg, seed=0)
        rep = count_params(model.registry)
        head = 4 * cfg.width + 2
        spec = SchemeSpec(
            scheme="latent_adapter",
            width=cfg.width,
            layers=cfg.layers,
            sites_per_layer=4,
            latent_count=cfg.latent_count,
            ratio=cfg.ratio,
            groups=cfg.groups,
        )
        assert scheme_param_report(spec).trainable_total == rep.trainable_total - head

    def test_direct_adapter_matches_built_model(self):
        from avfuse.model import ModelConfig, TwoStreamModel

        cfg = ModelConfig(mode="bidirectional", use_latents=False)
        model = TwoStreamModel(cfg, seed=0)
        head = 4 * cfg.width + 2
        spec = SchemeSpec(
            scheme="direct_adapter",
            width=cfg.width,
            layers=cfg.layers,
            ratio=cfg.ratio,
            groups=cfg.groups,
        )
        assert scheme_param_report(spec).trainable_total == count_params(model.registry).trainable_total - head

    def test_lora_rank_zero_is_empty(self):
        spec = SchemeSpec(scheme="lora", width=32, layers=2, rank=0)
        assert scheme_param_report(spec).trainable_total == 0

    def test_dense_adapter_hand_count(self):
        # d=8, rho=4, one site, no bias: down 8x2 + up 2x8 = 32
        spec = SchemeSpec(scheme="adapter", width=8, layers=1, sites_per_layer=1, ratio=4, bias=False)
        assert scheme_param_report(spec).trainable_total == 32

    def test_lora_hand_count(self):
        # 2 layers, d=32, rank 4: 2 * 2 matrices * 2 factors... each target
        # projection gains d*r + r*d = 2*32*4 = 256; q and v per layer: 512;
        # two layers: 1024
        spec = SchemeSpec(scheme="lora", width=32, layers=2, rank=4)
        assert scheme_param_report(spec).trainable_total == 1024

    def test_compacter_hand_count(self):
        # d=16, rho=4, kron=2, 1 layer, 1 site: per projection
        # 2^3 + 16*4/2 = 40; two projections = 80; biases 4+16 = 20
        spec = SchemeSpec(
            scheme="compacter", width=16, layers=1, sites_per_layer=1, ratio=4, kron=2
        )
        assert scheme_param_report(spec).trainable_total == 100

    def test_compacter_divisibility(self):
        with pytest.raises(ValueError):
            scheme_param_report(SchemeSpec(scheme="compacter", width=10, layers=1, kron=4))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_param_report(SchemeSpec(scheme="mystery", width=8, layers=1))

    def test_scheme_table_order(self):
        specs = [
            SchemeSpec(scheme="lora", width=16, layers=1),
            SchemeSpec(scheme="adapter", width=16, layers=1),
        ]
        table = scheme_table(specs)
        assert [r.title for r in table] == ["lora", "adapter"]


class TestReportFormats:
    def test_csv_rendering(self):
        rep = mac_fusion(4, 3, 2, 8, "latent")
        text = reports_to_csv(rep.csv_rows())
        lines = text.split("\n")
        assert lines[0] == "name,frozen,trainable,macs"
        assert lines[1].startswith("latent.compression,")
        assert "\r" not in text
