"""Cross-modal adapter tests: gated attention, bottleneck, sites."""
import numpy as np
import pytest

from avfuse.autodiff import Rng, ShapeError, Tensor, backward, mul
from avfuse.backbone import AUDIO, VISUAL, FreezeRegistry, TokenSet, init_layer_weights
from avfuse.fusion import (
    ATTACHMENTS,
    DIRECTIONS,
    GATE_INIT,
    MODES,
    AdapterSite,
    BottleneckParams,
    adapter_forward,
    bottleneck,
    build_layer_sites,
    build_site,
    cma,
    compress_to_latents,
    direction_enables,
    dual_layer_forward,
    fuse_with_latents,
    init_bottleneck,
)

from helpers import block_diag_from_grouped, loop_matmul, mean_all, scalar_cma, scalar_gelu


def tok(modality, arr, layer=0):
    return TokenSet(modality, Tensor(np.asarray(arr, dtype=float)), layer)


class TestCma:
    def test_matches_scalar_oracle(self):
        r = np.random.default_rng(0)
        q = r.standard_normal((4, 6))
        k = r.standard_normal((3, 6))
        v = r.standard_normal((3, 6))
        for gate in (0.0, 0.3, -1.2):
            got = cma(Tensor(q), Tensor(k), Tensor(v), Tensor(gate)).data
            np.testing.assert_allclose(got, scalar_cma(q, k, v, gate), rtol=1e-12)

    def test_closed_gate_returns_query_exactly(self):
        r = np.random.default_rng(2)
        q = r.standard_normal((3, 5))
        got = cma(Tensor(q), Tensor(r.standard_normal((4, 5))), Tensor(r.standard_normal((4, 5))), Tensor(0.0))
        np.testing.assert_array_equal(got.data, q)

    def test_gate_gradient_nonzero_at_closed_gate(self):
        # the gate's gradient flows through the additive term even at g=0
        r = np.random.default_rng(3)
        q = Tensor(r.standard_normal((3, 5)))
        k = Tensor(r.standard_normal((4, 5)))
        v = Tensor(r.standard_normal((4, 5)))
        g = Tensor(0.0, requires_grad=True)
        out = cma(q, k, v, g)
        backward(mean_all(mul(out, out)))
        assert g.grad is not None
        assert abs(float(g.grad)) > 1e-8

    def test_single_key_adds_gated_value(self):
        # softmax over one key is 1, so each row gets q_i + g*v
        r = np.random.default_rng(20)
        q = r.standard_normal((4, 6))
        v = r.standard_normal((1, 6))
        got = cma(Tensor(q), Tensor(r.standard_normal((1, 6))), Tensor(v), Tensor(0.8)).data
        np.testing.assert_allclose(got, q + 0.8 * v, rtol=1e-12)

    def test_value_row_count_free(self):
        # key/value length is independent of query length
        got = cma(Tensor(np.zeros((2, 3))), Tensor(np.zeros((7, 3))), Tensor(np.ones((7, 3))), Tensor(1.0))
        assert got.data.shape == (2, 3)
        np.testing.assert_allclose(got.data, 1.0, rtol=1e-12)

    def test_shape_errors(self):
        q = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            cma(q, Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), Tensor(0.0))
        with pytest.raises(ShapeError):
            cma(q, Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), Tensor(0.0))
        with pytest.raises(ShapeError):
            cma(q, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(1)))


class TestLatents:
    def test_compress_shape_and_oracle(self):
        r = np.random.default_rng(4)
        lat = Tensor(r.standard_normal((2, 6)))
        src = tok(AUDIO, r.standard_normal((9, 6)))
        out = compress_to_latents(lat, src, Tensor(0.5))
        assert out.data.shape == (2, 6)
        want = scalar_cma(lat.data, src.tokens.data, src.tokens.data, 0.5)
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    def test_compress_uniform_tokens(self):
        # every source token equal to u: attention weights sum to 1, summary = l_i + g*u
        r = np.random.default_rng(21)
        u = r.standard_normal(6)
        lat = Tensor(r.standard_normal((3, 6)))
        src = tok(AUDIO, np.tile(u, (9, 1)))
        out = compress_to_latents(lat, src, Tensor(0.4)).data
        np.testing.assert_allclose(out, lat.data + 0.4 * u, rtol=1e-12)

    def test_compress_at_full_token_scale(self):
        r = np.random.default_rng(22)
        lat = Tensor(r.standard_normal((2, 768)) * 0.02)
        src = tok(VISUAL, r.standard_normal((2048, 768)))
        out = compress_to_latents(lat, src, Tensor(1.0))
        assert out.data.shape == (2, 768)

    def test_fuse_preserves_target_shape(self):
        r = np.random.default_rng(5)
        target = tok(VISUAL, r.standard_normal((7, 6)))
        summary = Tensor(r.standard_normal((2, 6)))
        out = fuse_with_latents(target, summary, Tensor(0.3))
        assert out.data.shape == (7, 6)
        want = scalar_cma(target.tokens.data, summary.data, summary.data, 0.3)
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    def test_fuse_single_summary_row(self):
        r = np.random.default_rng(23)
        x = r.standard_normal((5, 6))
        s = r.standard_normal((1, 6))
        out = fuse_with_latents(tok(VISUAL, x), Tensor(s), Tensor(-0.6)).data
        np.testing.assert_allclose(out, x - 0.6 * s, rtol=1e-12)


class TestBottleneck:
    def test_zero_at_init(self):
        p = init_bottleneck(8, 2, 2, 0, "b")
        x = Tensor(np.random.default_rng(6).standard_normal((5, 8)))
        np.testing.assert_array_equal(bottleneck(x, p).data, np.zeros((5, 8)))

    def test_matches_dense_block_diagonal_oracle(self):
        r = np.random.default_rng(7)
        p = init_bottleneck(8, 2, 2, 1, "b2")
        # fill the zero-init pieces so the whole path is exercised
        p.up_w.data = r.standard_normal(p.up_w.shape) * 0.1
        p.down_b.data = r.standard_normal(p.down_b.shape) * 0.1
        p.up_b.data = r.standard_normal(p.up_b.shape) * 0.1
        x = r.standard_normal((3, 8))
        down_dense = block_diag_from_grouped(p.down_w.data)
        up_dense = block_diag_from_grouped(p.up_w.data)
        hidden = np.vectorize(scalar_gelu)(loop_matmul(x, down_dense) + p.down_b.data)
        want = loop_matmul(hidden, up_dense) + p.up_b.data
        np.testing.assert_allclose(bottleneck(Tensor(x), p).data, want, rtol=1e-12)

    def test_shapes_and_divisibility(self):
        p = init_bottleneck(16, 4, 2, 0, "b3")
        assert p.down_w.shape == (2, 8, 2)
        assert p.up_w.shape == (2, 2, 8)
        assert p.width == 16 and p.narrow == 4 and p.groups == 2
        with pytest.raises(ShapeError):
            init_bottleneck(10, 4, 2, 0, "bad")
        with pytest.raises(ValueError):
            init_bottleneck(8, 0, 2, 0, "bad")

    def test_bias_free_variant(self):
        p = init_bottleneck(8, 2, 1, 0, "b4", bias=False)
        assert p.down_b is None and p.up_b is None
        x = Tensor(np.ones((2, 8)))
        np.testing.assert_array_equal(bottleneck(x, p).data, np.zeros((2, 8)))

    def test_relu_activation_honored(self):
        p = init_bottleneck(4, 2, 1, 5, "b5", act="relu")
        r = np.random.default_rng(8)
        p.up_w.data = r.standard_normal(p.up_w.shape)
        x = r.standard_normal((2, 4))
        down_dense = block_diag_from_grouped(p.down_w.data)
        hidden = np.maximum(loop_matmul(x, down_dense), 0.0)
        want = loop_matmul(hidden, block_diag_from_grouped(p.up_w.data))
        np.testing.assert_allclose(bottleneck(Tensor(x), p).data, want, rtol=1e-12)


class TestSites:
    def test_build_registers_trainable_names(self):
        reg = FreezeRegistry()
        build_site("a2v", "mha", 0, 8, 2, 2, 2, 0, registry=reg)
        names = sorted(name for name, _ in reg.trainable())
        assert names == [
            "adapter.layer0.a2v_mha.down_b",
            "adapter.layer0.a2v_mha.down_w",
            "adapter.layer0.a2v_mha.gate_compress",
            "adapter.layer0.a2v_mha.gate_fuse",
            "adapter.layer0.a2v_mha.latents",
            "adapter.layer0.a2v_mha.up_b",
            "adapter.layer0.a2v_mha.up_w",
        ]
        assert not list(reg.frozen())

    def test_gate_init_open_up_projection_zero(self):
        site = build_site("v2a", "mlp", 1, 8, 2, 2, 2, 0)
        assert float(site.gate_fuse.data) == GATE_INIT
        assert float(site.gate_compress.data) == GATE_INIT
        np.testing.assert_array_equal(site.neck.up_w.data, 0.0)

    def test_direct_site_has_no_latents(self):
        reg = FreezeRegistry()
        site = build_site("a2v", "mha", 0, 8, 2, 2, 2, 0, use_latents=False, registry=reg)
        assert site.latents is None and site.gate_compress is None
        names = [name for name, _ in reg.trainable()]
        assert not any("latents" in n or "gate_compress" in n for n in names)

    def test_sites_never_share_parameters(self):
        reg = FreezeRegistry()
        s1 = build_site("a2v", "mha", 0, 8, 2, 2, 2, 0, registry=reg)
        s2 = build_site("a2v", "mlp", 0, 8, 2, 2, 2, 0, registry=reg)
        assert s1.latents is not s2.latents
        assert s1.gate_fuse is not s2.gate_fuse
        assert s1.neck.down_w is not s2.neck.down_w

    def test_adapter_forward_zero_at_init(self):
        r = np.random.default_rng(9)
        site = build_site("a2v", "mha", 0, 8, 2, 2, 2, 3)
        src = tok(AUDIO, r.standard_normal((5, 8)))
        dst = tok(VISUAL, r.standard_normal((4, 8)))
        out = adapter_forward(src, dst, site)
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    def test_adapter_forward_latent_oracle(self):
        r = np.random.default_rng(10)
        site = build_site("a2v", "mha", 0, 8, 2, 2, 1, 4)
        site.neck.up_w.data = r.standard_normal(site.neck.up_w.shape) * 0.1
        site.gate_compress.data = np.array(0.4)
        site.gate_fuse.data = np.array(-0.6)
        src = tok(AUDIO, r.standard_normal((5, 8)))
        dst = tok(VISUAL, r.standard_normal((3, 8)))
        got = adapter_forward(src, dst, site).data

        summary = scalar_cma(site.latents.data, src.tokens.data, src.tokens.data, 0.4)
        fused = scalar_cma(dst.tokens.data, summary, summary, -0.6)
        hidden = np.vectorize(scalar_gelu)(
            loop_matmul(fused, block_diag_from_grouped(site.neck.down_w.data)) + site.neck.down_b.data
        )
        want = loop_matmul(hidden, block_diag_from_grouped(site.neck.up_w.data)) + site.neck.up_b.data
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_adapter_forward_direct_oracle(self):
        r = np.random.default_rng(11)
        site = build_site("v2a", "mlp", 0, 8, 2, 2, 1, 5, use_latents=False)
        site.neck.up_w.data = r.standard_normal(site.neck.up_w.shape) * 0.1
        site.gate_fuse.data = np.array(0.8)
        src = tok(VISUAL, r.standard_normal((6, 8)))
        dst = tok(AUDIO, r.standard_normal((4, 8)))
        got = adapter_forward(src, dst, site).data

        fused = scalar_cma(dst.tokens.data, src.tokens.data, src.tokens.data, 0.8)
        hidden = np.vectorize(scalar_gelu)(
            loop_matmul(fused, block_diag_from_grouped(site.neck.down_w.data)) + site.neck.down_b.data
        )
        want = loop_matmul(hidden, block_diag_from_grouped(site.neck.up_w.data)) + site.neck.up_b.data
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_adapter_forward_modality_guard(self):
        site = build_site("a2v", "mha", 0, 8, 2, 2, 2, 0)
        with pytest.raises(ValueError):
            adapter_forward(tok(VISUAL, np.zeros((3, 8))), tok(AUDIO, np.zeros((3, 8))), site)

    def test_direction_enables(self):
        assert direction_enables("bidirectional", "a2v")
        assert direction_enables("bidirectional", "v2a")
        assert direction_enables("a2v", "a2v") and not direction_enables("a2v", "v2a")
        assert not direction_enables("none", "a2v")
        with pytest.raises(ValueError):
            direction_enables("bidirectional", "sideways")


class TestDualLayer:
    def _streams(self, seed, width=8, na=5, nv=4):
        r = np.random.default_rng(seed)
        xa = tok(AUDIO, r.standard_normal((na, width)))
        xv = tok(VISUAL, r.standard_normal((nv, width)))
        return xa, xv

    def test_mode_none_equals_frozen_layers(self):
        from avfuse.backbone import mha, mlp
        from avfuse.autodiff import add

        w = init_layer_weights(8, 2, 0, "L0")
        xa, xv = self._streams(12)
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "none")
        ya, yv = dual_layer_forward(xa, xv, w, sites, "none")
        assert ya.layer == 1 and yv.layer == 1
        for x, y in ((xa, ya), (xv, yv)):
            mid = add(x.tokens, mha(x, w))
            midset = TokenSet(x.modality, mid, x.layer)
            want = add(mid, mlp(midset, w)).data
            np.testing.assert_array_equal(y.tokens.data, want)

    def test_a2v_leaves_audio_stream_untouched(self):
        # no audio-side additive term exists in a2v mode, even with open adapters
        w = init_layer_weights(8, 2, 5, "L5")
        xa, xv = self._streams(17)
        sites = build_layer_sites(0, 8, 2, 2, 2, 11, "a2v")
        r = np.random.default_rng(18)
        for s in sites.all_sites():
            s.neck.up_w.data = r.standard_normal(s.neck.up_w.shape) * 0.1
        ya_adapted, yv_adapted = dual_layer_forward(xa, xv, w, sites, "a2v")
        plain = build_layer_sites(0, 8, 2, 2, 2, 11, "none")
        ya_plain, yv_plain = dual_layer_forward(xa, xv, w, plain, "none")
        np.testing.assert_array_equal(ya_adapted.tokens.data, ya_plain.tokens.data)
        assert not np.array_equal(yv_adapted.tokens.data, yv_plain.tokens.data)

    def test_sites_built_only_for_enabled_directions(self):
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "a2v")
        assert sites.a2v_mha is not None and sites.a2v_mlp is not None
        assert sites.v2a_mha is None and sites.v2a_mlp is None

    def test_missing_sites_rejected(self):
        w = init_layer_weights(8, 2, 0, "L")
        xa, xv = self._streams(13)
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "a2v")
        with pytest.raises(ValueError):
            dual_layer_forward(xa, xv, w, sites, "bidirectional")

    def test_layer_and_modality_guards(self):
        w = init_layer_weights(8, 2, 0, "L")
        xa, xv = self._streams(14)
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "none")
        with pytest.raises(ValueError):
            dual_layer_forward(xv, xa, w, sites, "none")
        late = TokenSet(AUDIO, xa.tokens, layer=1)
        with pytest.raises(ValueError):
            dual_layer_forward(late, xv, w, sites, "none")

    def test_bidirectional_reads_consistent_states(self):
        # order independence: swapping which direction is computed first
        # must not change the result, because both attention-side terms read
        # pre-update states and both MLP-side terms read post-attention ones
        w = init_layer_weights(8, 2, 7, "L7")
        xa, xv = self._streams(15)
        sites = build_layer_sites(0, 8, 2, 2, 2, 9, "bidirectional")
        r = np.random.default_rng(16)
        for s in sites.all_sites():
            s.neck.up_w.data = r.standard_normal(s.neck.up_w.shape) * 0.05
        ya, yv = dual_layer_forward(xa, xv, w, sites, "bidirectional")

        from avfuse.autodiff import add
        from avfuse.backbone import mha, mlp

        cross_v = adapter_forward(xa, xv, sites.a2v_mha)
        cross_a = adapter_forward(xv, xa, sites.v2a_mha)
        mid_a = add(add(xa.tokens, mha(xa, w)), cross_a)
        mid_v = add(add(xv.tokens, mha(xv, w)), cross_v)
        mset_a = TokenSet(AUDIO, mid_a, 0)
        mset_v = TokenSet(VISUAL, mid_v, 0)
        want_a = add(add(mid_a, mlp(mset_a, w)), adapter_forward(mset_v, mset_a, sites.v2a_mlp))
        want_v = add(add(mid_v, mlp(mset_v, w)), adapter_forward(mset_a, mset_v, sites.a2v_mlp))
        np.testing.assert_allclose(ya.tokens.data, want_a.data, rtol=1e-12)
        np.testing.assert_allclose(yv.tokens.data, want_v.data, rtol=1e-12)
