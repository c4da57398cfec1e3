"""Parameter and MAC accounting tests.

The analytic formulas are checked two independent ways: against hand
arithmetic, and against the instrumented counter wrapped around the real
forward pass.
"""
import numpy as np
import pytest

from avfuse.autodiff import Tensor, count_macs
from avfuse.backbone import FreezeRegistry
from avfuse.costs import (
    REPORT_COLUMNS,
    count_params,
    fusion_macs_total,
    grouped_projection_params,
    mac_bottleneck,
    mac_fusion,
)
from avfuse.fusion import build_layer_sites, gated_attention
from avfuse.serialization import csv_text

from helpers import site_term


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
        from helpers import bottleneck_parts

        for width, rho, groups in ((16, 4, 2), (12, 3, 2), (8, 2, 1)):
            p = bottleneck_parts(width, rho, groups, 0, "chk")
            built = p["down_w"].size + p["up_w"].size
            assert built == grouped_projection_params(width, rho, groups)

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            grouped_projection_params(10, 4, 2)

    def test_frozen_only_model_has_zero_trainable(self):
        from avfuse.model import ModelConfig, TwoStreamModel

        cfg = ModelConfig(mode="none")
        model = TwoStreamModel(cfg, seed=0)
        # the head's (2*width, 2) weight and 2 biases are all that trains
        assert count_params(model.registry).trainable_total == 4 * cfg.width + 2

    @pytest.mark.parametrize("use_latents, per_site", [(True, 362), (False, 297)], ids=["latent", "direct"])
    def test_built_adapter_trainables_hand_count(self, use_latents, per_site):
        from avfuse.model import ModelConfig, TwoStreamModel

        # README config, bidirectional: 2 layers x 2 directions x 2
        # attachments = 8 sites at width 32, m = 2, ratio 4, groups 2. One
        # site: down_w 2 x 16 x 4 = 128, up_w 128, down_b 8, up_b 32, the
        # fuse gate 1 (297), plus latents 2 x 32 = 64 and the compression
        # gate 1 for a latent site (362)
        cfg = ModelConfig(mode="bidirectional", use_latents=use_latents)
        model = TwoStreamModel(cfg, seed=0)
        head = 2 * 32 * 2 + 2
        assert count_params(model.registry).trainable_total - head == 8 * per_site

    def test_count_params_from_registry(self):
        reg = FreezeRegistry()
        reg.register("backbone.w", np.zeros((4, 4)))
        reg.register("adapter.g", Tensor(np.zeros(())))
        reg.register("head.w", Tensor(np.zeros((8, 2))))
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
        q = r.standard_normal((n, d))
        kv = r.standard_normal((k, d))
        with count_macs() as c:
            gated_attention(q, kv, kv, np.array(0.5), (False,) * 4)
        rep = mac_fusion(n, k, 1, d, "direct")
        assert c.macs == rep.total_macs
        assert c.softmax_elems == rep.total_softmax_elems

    def test_instrumented_site_matches_analytic_total(self):
        # full adapter forward, latent and direct, against formula sums
        r = np.random.default_rng(1)
        n, k, m, d, rho, g = 6, 9, 2, 8, 2, 2
        src, dst = r.standard_normal((k, d)), r.standard_normal((n, d))
        for use_latents, variant in ((True, "latent"), (False, "direct")):
            sites = build_layer_sites(0, d, m, rho, g, 0, "a2v", use_latents=use_latents)
            with count_macs() as c:
                site_term(sites, "a2v_mha", src, dst)
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


class TestReportFormats:
    def test_csv_rendering(self):
        rep = mac_fusion(4, 3, 2, 8, "latent")
        text = csv_text(REPORT_COLUMNS, rep.csv_rows())
        lines = text.split("\n")
        assert lines[0] == "name,frozen,trainable,macs"
        assert lines[1].startswith("latent.compression,")
        assert "\r" not in text
