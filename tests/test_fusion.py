"""Cross-modal adapter tests: gated attention, bottleneck, sites."""
import re

import numpy as np
import pytest

from avfuse.autodiff import Rng, ShapeError, Tensor
from avfuse.backbone import FreezeRegistry, init_layer_weights, mha, mlp
from avfuse.fusion import (
    ATTACHMENTS,
    GATE_INIT,
    LATENT_INIT_STD,
    MODE_DIRECTIONS,
    MODES,
    PARTS,
    SLOT_ORDER,
    AdapterSites,
    bottleneck,
    build_layer_sites,
    compress_to_latents,
    fuse_with_latents,
    gated_attention,
    layer_forward,
)

from helpers import (
    block_diag_from_grouped,
    bottleneck_parts,
    loop_matmul,
    scalar_cma,
    scalar_gelu,
    site_row,
    site_term,
    take,
)


def tok(arr):
    return Tensor(np.asarray(arr, dtype=float))


def gated(q: np.ndarray, source: np.ndarray, gate: float) -> np.ndarray:
    """The output ``gated_attention`` gives under a scalar gate, with no
    gradient wanted."""
    out, back = gated_attention(q, source, np.array(gate), None)
    assert back is None
    return out


class TestCma:
    def test_matches_scalar_oracle(self):
        r = np.random.default_rng(0)
        q = r.standard_normal((4, 6))
        source = r.standard_normal((3, 6))
        for gate in (0.0, 0.3, -1.2):
            np.testing.assert_allclose(gated(q, source, gate), scalar_cma(q, source, source, gate), rtol=1e-12)

    def test_closed_gate_returns_query_exactly(self):
        r = np.random.default_rng(2)
        q = r.standard_normal((3, 5))
        got = gated(q, r.standard_normal((4, 5)), 0.0)
        np.testing.assert_array_equal(got, q)

    def test_gate_gradient_nonzero_at_closed_gate(self):
        # the gate's gradient flows through the additive term even at g=0
        r = np.random.default_rng(3)
        q = r.standard_normal((3, 5))
        source = r.standard_normal((4, 5))
        out, back = gated_attention(q, source, np.array(0.0), (False, False))
        # the gradient of mean(out * out)
        dq, dsource, dgate = back(2.0 * out / out.size)
        assert dq is None and dsource is None
        assert abs(float(dgate)) > 1e-8

    def test_single_key_adds_gated_value(self):
        # softmax over one key is 1, so each row gets q_i + g*v
        r = np.random.default_rng(20)
        q = r.standard_normal((4, 6))
        v = r.standard_normal((1, 6))
        got = gated(q, v, 0.8)
        np.testing.assert_allclose(got, q + 0.8 * v, rtol=1e-12)

    def test_value_row_count_free(self):
        # the source's length is independent of the query's
        got = gated(np.zeros((2, 3)), np.ones((7, 3)), 1.0)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, 1.0, rtol=1e-12)


def compress(latents: Tensor, source: Tensor, gate: float) -> np.ndarray:
    """The summary ``compress_to_latents`` gives, with no gradient wanted."""
    out, back = compress_to_latents(latents.data, source.data, np.array(gate), None)
    assert back is None
    return out


def neck(x: np.ndarray, p: dict, act: str = "gelu") -> np.ndarray:
    """The output of the ``bottleneck`` kernel for the arrays ``p`` by part
    (``helpers.bottleneck_parts``)."""
    return bottleneck(x, p["down_w"], p["down_b"], p["up_w"], p["up_b"], act, False)[0]


class TestLatents:
    def test_compress_shape_and_oracle(self):
        r = np.random.default_rng(4)
        lat = Tensor(r.standard_normal((2, 6)))
        src = tok(r.standard_normal((9, 6)))
        out = compress(lat, src, 0.5)
        assert out.shape == (2, 6)
        want = scalar_cma(lat.data, src.data, src.data, 0.5)
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_compress_uniform_tokens(self):
        # every source token equal to u: attention weights sum to 1, summary = l_i + g*u
        r = np.random.default_rng(21)
        u = r.standard_normal(6)
        lat = Tensor(r.standard_normal((3, 6)))
        src = tok(np.tile(u, (9, 1)))
        out = compress(lat, src, 0.4)
        np.testing.assert_allclose(out, lat.data + 0.4 * u, rtol=1e-12)

    def test_compress_at_full_token_scale(self):
        r = np.random.default_rng(22)
        lat = Tensor(r.standard_normal((2, 768)) * 0.02)
        src = tok(r.standard_normal((2048, 768)))
        out = compress(lat, src, 1.0)
        assert out.shape == (2, 768)

    def test_fuse_preserves_target_shape(self):
        r = np.random.default_rng(5)
        target = tok(r.standard_normal((7, 6)))
        summary = Tensor(r.standard_normal((2, 6)))
        out, back = fuse_with_latents(target.data, summary.data, np.array(0.3), None)
        assert out.shape == (7, 6) and back is None
        want = scalar_cma(target.data, summary.data, summary.data, 0.3)
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_fuse_single_summary_row(self):
        r = np.random.default_rng(23)
        x = r.standard_normal((5, 6))
        s = r.standard_normal((1, 6))
        out = fuse_with_latents(x, s, np.array(-0.6), None)[0]
        np.testing.assert_allclose(out, x - 0.6 * s, rtol=1e-12)


class TestBottleneck:
    def test_zero_at_init(self):
        p = bottleneck_parts(8, 2, 2, 0, "b")
        x = Tensor(np.random.default_rng(6).standard_normal((5, 8)))
        np.testing.assert_array_equal(neck(x.data, p), np.zeros((5, 8)))

    def test_matches_dense_block_diagonal_oracle(self):
        r = np.random.default_rng(7)
        p = bottleneck_parts(8, 2, 2, 1, "b2")
        # fill the zero-init pieces so the whole path is exercised
        p["up_w"] = r.standard_normal(p["up_w"].shape) * 0.1
        p["down_b"] = r.standard_normal(p["down_b"].shape) * 0.1
        p["up_b"] = r.standard_normal(p["up_b"].shape) * 0.1
        x = r.standard_normal((3, 8))
        down_dense = block_diag_from_grouped(p["down_w"])
        up_dense = block_diag_from_grouped(p["up_w"])
        hidden = np.vectorize(scalar_gelu)(loop_matmul(x, down_dense) + p["down_b"])
        want = loop_matmul(hidden, up_dense) + p["up_b"]
        np.testing.assert_allclose(neck(x, p), want, rtol=1e-12)

    def test_shapes_and_divisibility(self):
        p = bottleneck_parts(16, 4, 2, 0, "b3")
        assert p["down_w"].shape == (2, 8, 2)
        assert p["up_w"].shape == (2, 2, 8)
        # the sites refuse a width the bottleneck cannot split, and a ratio
        # or group count below 1
        with pytest.raises(ShapeError):
            build_layer_sites(0, 10, 2, 4, 2, 0, "a2v")
        with pytest.raises(ValueError):
            build_layer_sites(0, 8, 2, 0, 2, 0, "a2v")
        # the sites check their bottleneck once, when built, and the layer
        # checks the tokens' width against it on every call
        sites = build_layer_sites(0, 16, 2, 4, 2, 0, "a2v")
        w = init_layer_weights(16, 2, 0, "wide")
        with pytest.raises(ShapeError, match=r"widths \[8, 16\] do not match layer width 16"):
            layer_forward([Tensor(np.ones((1, 1, 2, 8)))] * 2, w, sites)
        with pytest.raises(ShapeError, match=r"widths \[16\] do not match layer width 8"):
            layer_forward([Tensor(np.ones((1, 1, 2, 16)))] * 2, init_layer_weights(8, 2, 0, "narrow"), sites)
        with pytest.raises(ShapeError, match=r"need \(S, B, N, D\) stacks"):
            layer_forward([Tensor(np.ones((1, 2, 16)))] * 2, w, sites)
        at = sites["mha"]
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            AdapterSites(at.directions, "tanh", at.parts)
        with pytest.raises(ShapeError, match="up_w of shape"):
            AdapterSites(at.directions, "gelu", dict(at.parts, up_w=at.parts["down_w"]))
        with pytest.raises(ShapeError, match="latents of shape"):
            AdapterSites(at.directions, "gelu", dict(at.parts, latents=Tensor(np.zeros((1, 2, 8)), requires_grad=True)))
        # adapter_forward unpacks the parts by position
        with pytest.raises(ValueError, match="parts must be"):
            AdapterSites(at.directions, "gelu", dict(reversed(at.parts.items())))

    def test_bias_free_variant(self):
        p = bottleneck_parts(8, 2, 1, 0, "b4", bias=False)
        assert p["down_b"] is None and p["up_b"] is None
        np.testing.assert_array_equal(neck(np.ones((2, 8)), p), np.zeros((2, 8)))

    def test_relu_activation_honored(self):
        p = bottleneck_parts(4, 2, 1, 5, "b5")
        r = np.random.default_rng(8)
        p["up_w"] = r.standard_normal(p["up_w"].shape)
        x = r.standard_normal((2, 4))
        down_dense = block_diag_from_grouped(p["down_w"])
        hidden = np.maximum(loop_matmul(x, down_dense), 0.0)
        want = loop_matmul(hidden, block_diag_from_grouped(p["up_w"]))
        np.testing.assert_allclose(neck(x, p, "relu"), want, rtol=1e-12)


class TestSites:
    def test_build_registers_trainable_names(self):
        # per site in items(), per stacked leaf in trainable()
        reg = FreezeRegistry()
        build_layer_sites(0, 8, 2, 2, 2, 0, "a2v", registry=reg)
        parts = ["down_b", "down_w", "gate_compress", "gate_fuse", "latents", "up_b", "up_w"]
        assert sorted(name for name, _, _ in reg.items()) == [
            f"adapter.layer0.a2v_{a}.{p}" for a in ATTACHMENTS for p in parts]
        assert sorted(name for name, _ in reg.trainable()) == [
            f"adapter.layer0.{a}.{p}" for a in ATTACHMENTS for p in parts]
        assert not [name for name, _, frozen in reg.items() if frozen]

    @pytest.mark.parametrize("directions", [("x2y",), ("a2v", "a2v"), ("a2v", "v2a")],
                             ids=["unknown", "repeated", "reversed"])
    def test_refuses_directions_outside_slot_order(self, directions):
        # each is refused when the sites are built, naming the directions,
        # not later by the layer with a KeyError or a row error
        parts = build_layer_sites(0, 8, 2, 2, 2, 0, "a2v" if len(directions) == 1 else "bidirectional")["mha"].parts
        with pytest.raises(ValueError, match=re.escape(f"got {directions}")):
            AdapterSites(directions, "gelu", parts)

    def test_parts_are_trainable_leaves(self):
        # built without a registry, every part is already a trainable leaf;
        # a part that needs no gradient, a plain array or a graph node is
        # refused, naming the part
        parts = build_layer_sites(0, 8, 2, 2, 2, 0, "a2v")["mha"].parts
        assert all(t.requires_grad and not t._parents for t in parts.values())
        down_w = parts["down_w"]
        node = Tensor._node(down_w.data.copy(), (down_w,))
        for bad in (Tensor(down_w.data), down_w.data, node):
            with pytest.raises(ValueError, match="down_w must be a trainable leaf"):
                AdapterSites(("a2v",), "gelu", dict(parts, down_w=bad))

    def test_gate_init_open_up_projection_zero(self):
        sites = build_layer_sites(1, 8, 2, 2, 2, 0, "bidirectional")["mlp"]
        np.testing.assert_array_equal(sites.parts["gate_fuse"].data, [GATE_INIT, GATE_INIT])
        np.testing.assert_array_equal(sites.parts["gate_compress"].data, [GATE_INIT, GATE_INIT])
        np.testing.assert_array_equal(sites.parts["up_w"].data, 0.0)

    def test_direct_site_has_no_latents(self):
        reg = FreezeRegistry()
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "a2v", use_latents=False, registry=reg)["mha"]
        assert sites.parts["latents"] is None and sites.parts["gate_compress"] is None
        names = [name for name, _, _ in reg.items()] + [name for name, _ in reg.trainable()]
        assert not any("latents" in n or "gate_compress" in n for n in names)

    def test_sites_never_share_parameters(self):
        # one leaf per attachment and part; each direction's slot drawn from
        # its own site's stream, so the slots differ
        layer = build_layer_sites(0, 8, 2, 2, 2, 0, "bidirectional")
        mha, mlp = layer["mha"], layer["mlp"]
        assert mha.parts["latents"] is not mlp.parts["latents"]
        assert mha.parts["gate_fuse"] is not mlp.parts["gate_fuse"]
        assert mha.parts["down_w"] is not mlp.parts["down_w"]
        assert mha.directions == mlp.directions == SLOT_ORDER == ("v2a", "a2v")
        for sites, attachment in ((mha, "mha"), (mlp, "mlp")):
            for row, direction in enumerate(sites.directions):
                base = f"adapter.layer0.{direction}_{attachment}"
                want = Rng.for_name(0, f"{base}.latents").normal((2, 8), std=LATENT_INIT_STD)
                np.testing.assert_array_equal(sites.parts["latents"].data[row], want)
                want = bottleneck_parts(8, 2, 2, 0, base)["down_w"]
                np.testing.assert_array_equal(sites.parts["down_w"].data[row], want)
            assert not np.array_equal(sites.parts["latents"].data[0], sites.parts["latents"].data[1])

    def test_adapter_forward_zero_at_init(self):
        r = np.random.default_rng(9)
        sites = build_layer_sites(0, 8, 2, 2, 2, 3, "a2v")
        out = site_term(sites, "a2v_mha", r.standard_normal((5, 8)), r.standard_normal((4, 8)))
        np.testing.assert_array_equal(out.data, np.zeros((4, 8)))

    def test_adapter_forward_latent_oracle(self):
        r = np.random.default_rng(10)
        sites = build_layer_sites(0, 8, 2, 2, 1, 4, "a2v")
        up_w = site_row(sites, "a2v_mha", "up_w")
        up_w[...] = r.standard_normal(up_w.shape) * 0.1
        site_row(sites, "a2v_mha", "gate_compress")[...] = 0.4
        site_row(sites, "a2v_mha", "gate_fuse")[...] = -0.6
        src = tok(r.standard_normal((5, 8)))
        dst = tok(r.standard_normal((3, 8)))
        got = site_term(sites, "a2v_mha", src.data, dst.data).data

        def part(name):
            return site_row(sites, "a2v_mha", name)

        summary = scalar_cma(part("latents"), src.data, src.data, 0.4)
        fused = scalar_cma(dst.data, summary, summary, -0.6)
        hidden = np.vectorize(scalar_gelu)(
            loop_matmul(fused, block_diag_from_grouped(part("down_w"))) + part("down_b")
        )
        want = loop_matmul(hidden, block_diag_from_grouped(part("up_w"))) + part("up_b")
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_adapter_forward_direct_oracle(self):
        r = np.random.default_rng(11)
        sites = build_layer_sites(0, 8, 2, 2, 1, 5, "v2a", use_latents=False)
        up_w = site_row(sites, "v2a_mlp", "up_w")
        up_w[...] = r.standard_normal(up_w.shape) * 0.1
        site_row(sites, "v2a_mlp", "gate_fuse")[...] = 0.8
        src = tok(r.standard_normal((6, 8)))
        dst = tok(r.standard_normal((4, 8)))
        got = site_term(sites, "v2a_mlp", src.data, dst.data).data

        def part(name):
            return site_row(sites, "v2a_mlp", name)

        fused = scalar_cma(dst.data, src.data, src.data, 0.8)
        hidden = np.vectorize(scalar_gelu)(
            loop_matmul(fused, block_diag_from_grouped(part("down_w"))) + part("down_b")
        )
        want = loop_matmul(hidden, block_diag_from_grouped(part("up_w"))) + part("up_b")
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("use_latents", [True, False], ids=["latent", "direct"])
    @pytest.mark.parametrize("mode", MODES)
    def test_layer_sites_follow_mode_table(self, mode, use_latents):
        want_directions = {"none": (), "a2v": ("a2v",), "v2a": ("v2a",), "bidirectional": ("a2v", "v2a")}
        assert MODE_DIRECTIONS[mode] == want_directions[mode]
        reg = FreezeRegistry()
        sites = build_layer_sites(1, 8, 2, 2, 2, 0, mode, use_latents=use_latents, registry=reg)
        directions = MODE_DIRECTIONS[mode]
        assert list(sites) == (list(ATTACHMENTS) if directions else [])
        # each leaf's slots in target-row order
        assert all(s.directions == tuple(d for d in ("v2a", "a2v") if d in directions) for s in sites.values())
        parts = [p for p in PARTS if use_latents or p not in ("latents", "gate_compress")]
        # per-site names in the order direction, attachment, part, each a
        # view of its slot of the leaf
        items = list(reg.items())
        assert [name for name, _, _ in items] == [
            f"adapter.layer1.{d}_{a}.{p}" for d in directions for a in ATTACHMENTS for p in parts]
        for name, view, frozen in items:
            _, _, key, part = name.split(".")
            assert not frozen
            assert np.shares_memory(view.data, site_row(sites, key, part))
        assert [name for name, _ in reg.trainable()] == [
            f"adapter.layer1.{a}.{p}" for a in (ATTACHMENTS if directions else ()) for p in parts]
        with pytest.raises(ValueError, match="'sideways'"):
            build_layer_sites(0, 8, 2, 2, 2, 0, "sideways", use_latents=use_latents)


def layer_apart(xa, xv, w, sites):
    """``layer_forward`` with each stream of one sample in a stack of its
    own, a batch of one, as unequal token counts run; returns the (audio,
    visual) tokens."""
    za, zv = layer_forward([Tensor([[x.data]]) for x in (xa, xv)], w, sites)
    return take(take(za, 0), 0), take(take(zv, 0), 0)


class TestDualLayer:
    def _streams(self, seed, width=8, na=5, nv=4):
        r = np.random.default_rng(seed)
        xa = tok(r.standard_normal((na, width)))
        xv = tok(r.standard_normal((nv, width)))
        return xa, xv

    def test_mode_none_equals_frozen_layers(self):
        w = init_layer_weights(8, 2, 0, "L0")
        xa, xv = self._streams(12)
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "none")
        ya, yv = layer_apart(xa, xv, w, sites)
        for x, y in ((xa, ya), (xv, yv)):
            want = mlp(mha(x.data, w, False)[0], w, False)[0]
            np.testing.assert_array_equal(y.data, want)

    def test_a2v_leaves_audio_stream_untouched(self):
        # no audio-side additive term exists in a2v mode, even with open adapters
        w = init_layer_weights(8, 2, 5, "L5")
        xa, xv = self._streams(17)
        sites = build_layer_sites(0, 8, 2, 2, 2, 11, "a2v")
        r = np.random.default_rng(18)
        for key in ("a2v_mha", "a2v_mlp"):
            up_w = site_row(sites, key, "up_w")
            up_w[...] = r.standard_normal(up_w.shape) * 0.1
        ya_adapted, yv_adapted = layer_apart(xa, xv, w, sites)
        plain = build_layer_sites(0, 8, 2, 2, 2, 11, "none")
        ya_plain, yv_plain = layer_apart(xa, xv, w, plain)
        np.testing.assert_array_equal(ya_adapted.data, ya_plain.data)
        assert not np.array_equal(yv_adapted.data, yv_plain.data)

    def test_sites_built_only_for_enabled_directions(self):
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "a2v")
        assert set(sites) == {"mha", "mlp"}
        assert all(s.directions == ("a2v",) for s in sites.values())

    def test_layer_and_modality_guards(self):
        w = init_layer_weights(8, 2, 0, "L")
        xa, xv = self._streams(14)
        sites = build_layer_sites(0, 8, 2, 2, 2, 0, "none")
        # unstacked tokens
        with pytest.raises(ShapeError, match=r"need \(S, B, N, D\) stacks"):
            layer_forward([xa, xv], w, sites)
        # stacks that do not hold one row per stream: one stream, a third
        # stream, a stack of three rows
        one = [Tensor([[x.data]]) for x in (xa, xv)]
        for bad in (one[:1], one + [Tensor([[xa.data]])], [Tensor(np.stack([xv.data[None]] * 3))]):
            with pytest.raises(ShapeError, match="one row per stream"):
                layer_forward(bad, w, sites)
        # a (B, N, D) batch handed in as a stack: its batch axis is not streams
        batches = [Tensor(np.stack([x.data] * 3)) for x in (xa, xv)]
        with pytest.raises(ShapeError, match=r"need \(S, B, N, D\) stacks"):
            layer_forward(batches, w, sites)

    def test_bidirectional_reads_consistent_states(self):
        # order independence: swapping which direction is computed first
        # must not change the result, because both attention-side terms read
        # pre-update states and both MLP-side terms read post-attention ones
        w = init_layer_weights(8, 2, 7, "L7")
        xa, xv = self._streams(15)
        sites = build_layer_sites(0, 8, 2, 2, 2, 9, "bidirectional")
        r = np.random.default_rng(16)
        for key in ("a2v_mha", "a2v_mlp", "v2a_mha", "v2a_mlp"):
            up_w = site_row(sites, key, "up_w")
            up_w[...] = r.standard_normal(up_w.shape) * 0.05
        ya, yv = layer_apart(xa, xv, w, sites)

        cross_v = site_term(sites, "a2v_mha", xa.data, xv.data)
        cross_a = site_term(sites, "v2a_mha", xv.data, xa.data)
        mid_a = mha(xa.data, w, False)[0] + cross_a.data
        mid_v = mha(xv.data, w, False)[0] + cross_v.data
        want_a = mlp(mid_a, w, False)[0] + site_term(sites, "v2a_mlp", mid_v, mid_a).data
        want_v = mlp(mid_v, w, False)[0] + site_term(sites, "a2v_mlp", mid_a, mid_v).data
        np.testing.assert_allclose(ya.data, want_a, rtol=1e-12)
        np.testing.assert_allclose(yv.data, want_v, rtol=1e-12)
