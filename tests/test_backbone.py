"""Tokenization, frozen blocks, and registry tests."""
import hashlib

import numpy as np
import pytest

from avfuse.autodiff import Rng, ShapeError, Tensor
from avfuse.backbone import (
    AUDIO,
    VISUAL,
    FreezeRegistry,
    ImageInput,
    SpectrogramInput,
    TokenSet,
    init_layer_weights,
    mha,
    mlp,
    pad_to_multiple,
    patch_embed,
    resize_pos_table,
    spectrogram_embed,
    unfold_patches,
)

from helpers import expr_layer_norm, loop_matmul, scalar_layer_norm, scalar_softmax_rows


class TestInputs:
    def test_image_validation(self):
        ImageInput(np.zeros((4, 4, 3)))
        with pytest.raises(ShapeError):
            ImageInput(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ImageInput(np.full((4, 4, 3), 1.5))
        with pytest.raises(ValueError):
            bad = np.zeros((4, 4, 3))
            bad[0, 0, 0] = np.nan
            ImageInput(bad)

    def test_spectrogram_validation(self):
        SpectrogramInput(np.full((3, 5), -7.0))  # any finite range is legal
        with pytest.raises(ShapeError):
            SpectrogramInput(np.zeros((3, 5, 1)))
        with pytest.raises(ValueError):
            bad = np.zeros((3, 5))
            bad[1, 1] = np.inf
            SpectrogramInput(bad)


class TestUnfold:
    def test_unfold_matches_manual_loops(self):
        r = np.random.default_rng(0)
        grid = r.standard_normal((4, 6, 3))
        got = unfold_patches(grid, 2)
        assert got.shape == (6, 12)
        # patch row-major over the grid; within a patch rows, cols, channels
        idx = 0
        for gy in range(2):
            for gx in range(3):
                want = grid[gy * 2 : gy * 2 + 2, gx * 2 : gx * 2 + 2, :].reshape(-1)
                np.testing.assert_array_equal(got[idx], want)
                idx += 1

    def test_unfold_rejects_nondivisible(self):
        with pytest.raises(ShapeError):
            unfold_patches(np.zeros((5, 4, 3)), 2)

    def test_pad_to_multiple(self):
        x = np.arange(6.0).reshape(2, 3)
        padded = pad_to_multiple(x, 4)
        assert padded.shape == (4, 4)
        np.testing.assert_array_equal(padded[:2, :3], x)
        assert padded[2:].sum() == 0.0 and padded[:, 3].sum() == 0.0
        same = pad_to_multiple(np.zeros((4, 4)), 4)
        assert same.shape == (4, 4)


class TestEmbedding:
    def test_patch_embed_is_projection(self):
        r = np.random.default_rng(1)
        img = ImageInput(r.uniform(size=(4, 4, 3)))
        proj = r.standard_normal((12, 5))
        ts = patch_embed([img], 2, Tensor(proj))
        assert ts.modality == VISUAL and ts.layer == 0
        want = loop_matmul(unfold_patches(img.pixels, 2), proj)
        np.testing.assert_allclose(ts.tokens.data[0], want, rtol=1e-13)

    def test_patch_embed_zero_image_zero_tokens(self):
        # bias-free projection: zero input must give exactly zero tokens
        img = ImageInput(np.zeros((4, 4, 3)))
        proj = Tensor(np.random.default_rng(2).standard_normal((12, 5)))
        ts = patch_embed([img], 2, proj)
        np.testing.assert_array_equal(ts.tokens.data, np.zeros((1, 4, 5)))

    def test_patch_embed_adds_positions(self):
        r = np.random.default_rng(3)
        img = ImageInput(r.uniform(size=(4, 4, 3)))
        proj = Tensor(r.standard_normal((12, 5)))
        pos = r.standard_normal((4, 5))
        without = patch_embed([img], 2, proj)
        with_pos = patch_embed([img], 2, proj, Tensor(pos))
        np.testing.assert_allclose(with_pos.tokens.data, without.tokens.data + pos, rtol=1e-14)
        with pytest.raises(ShapeError):
            patch_embed([img], 2, proj, Tensor(np.zeros((3, 5))))

    def test_spectrogram_embed_replicates_channels_and_pads(self):
        r = np.random.default_rng(4)
        spec = SpectrogramInput(r.standard_normal((3, 5)))
        proj = r.standard_normal((12, 6))
        ts = spectrogram_embed([spec], 2, Tensor(proj))
        assert ts.modality == AUDIO
        padded = pad_to_multiple(spec.values, 2)
        three = np.repeat(padded[:, :, None], 3, axis=2)
        want = loop_matmul(unfold_patches(three, 2), proj)
        assert ts.tokens.data.shape == (1, 6, 6)  # ceil(3/2)*ceil(5/2) = 2*3
        np.testing.assert_allclose(ts.tokens.data[0], want, rtol=1e-13)


class TestResizePos:
    def test_identity_when_grids_match(self):
        pos = np.random.default_rng(5).standard_normal((6, 4))
        out = resize_pos_table(pos, (2, 3), (2, 3))
        np.testing.assert_array_equal(out, pos)

    def test_constant_table_stays_constant(self):
        pos = np.full((4, 3), 2.5)
        out = resize_pos_table(pos, (2, 2), (5, 7))
        assert out.shape == (35, 3)
        np.testing.assert_allclose(out, 2.5, rtol=1e-14)

    def test_endpoints_preserved(self):
        r = np.random.default_rng(6)
        pos = r.standard_normal((9, 2))
        out = resize_pos_table(pos, (3, 3), (5, 5)).reshape(5, 5, 2)
        table = pos.reshape(3, 3, 2)
        np.testing.assert_allclose(out[0, 0], table[0, 0], rtol=1e-14)
        np.testing.assert_allclose(out[0, 4], table[0, 2], rtol=1e-14)
        np.testing.assert_allclose(out[4, 0], table[2, 0], rtol=1e-14)
        np.testing.assert_allclose(out[4, 4], table[2, 2], rtol=1e-14)

    def test_linear_ramp_interpolates_linearly(self):
        # a table linear in the column index must stay linear at any size
        xs = np.arange(4.0)
        pos = np.stack([np.tile(xs, 3), np.tile(xs, 3) * -2.0], axis=1)
        out = resize_pos_table(pos, (3, 4), (3, 7)).reshape(3, 7, 2)
        want = np.linspace(0.0, 3.0, 7)
        for row in range(3):
            np.testing.assert_allclose(out[row, :, 0], want, rtol=1e-12)
            np.testing.assert_allclose(out[row, :, 1], -2.0 * want, rtol=1e-12)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            resize_pos_table(np.zeros((5, 2)), (2, 3), (4, 4))


class TestLayerBlocks:
    def test_init_draws_are_name_stable(self):
        a = init_layer_weights(8, 2, 0, "layer0")
        b = init_layer_weights(8, 2, 0, "layer0")
        np.testing.assert_array_equal(a.wq.data, b.wq.data)
        c = init_layer_weights(8, 2, 0, "layer1")
        assert not np.array_equal(a.wq.data, c.wq.data)
        np.testing.assert_array_equal(a.ln1_gain.data, np.ones(8))
        np.testing.assert_array_equal(a.mlp_b1.data, np.zeros(32))

    def test_init_rejects_bad_heads(self):
        with pytest.raises(ShapeError):
            init_layer_weights(8, 3, 0, "x")

    def test_mha_matches_per_head_oracle(self):
        r = np.random.default_rng(7)
        w = init_layer_weights(8, 2, 3, "oracle")
        x = TokenSet(VISUAL, Tensor(r.standard_normal((5, 8))), layer=0)
        got = mha(x, w).data

        t = scalar_layer_norm(x.tokens.data, w.ln1_gain.data, w.ln1_shift.data)
        q = loop_matmul(t, w.wq.data)
        k = loop_matmul(t, w.wk.data)
        v = loop_matmul(t, w.wv.data)
        heads = []
        for i in range(2):
            sl = slice(i * 4, (i + 1) * 4)
            scores = loop_matmul(q[:, sl], k[:, sl].T) / np.sqrt(4.0)
            heads.append(loop_matmul(scalar_softmax_rows(scores), v[:, sl]))
        want = loop_matmul(np.hstack(heads), w.wo.data)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_single_head_equals_multi_with_same_width(self):
        # one head over width d is plain attention; check shape plumbing
        r = np.random.default_rng(8)
        w = init_layer_weights(6, 1, 4, "single")
        x = TokenSet(AUDIO, Tensor(r.standard_normal((4, 6))), layer=0)
        got = mha(x, w).data
        t = scalar_layer_norm(x.tokens.data, w.ln1_gain.data, w.ln1_shift.data)
        q = t @ w.wq.data
        k = t @ w.wk.data
        v = t @ w.wv.data
        attn = scalar_softmax_rows(q @ k.T / np.sqrt(6.0))
        np.testing.assert_allclose(got, attn @ v @ w.wo.data, rtol=1e-12)

    def test_mha_identity_weights_single_token(self):
        # softmax over one key is 1, so identity projections pass the
        # normalized token through
        w = init_layer_weights(4, 2, 0, "ident")
        for t in (w.wq, w.wk, w.wv, w.wo):
            t.data = np.eye(4)
        tok = np.array([[0.5, -1.25, 2.0, 3.75]])
        got = mha(TokenSet(VISUAL, Tensor(tok), layer=0), w).data
        normed = expr_layer_norm(tok, w.ln1_gain.data, w.ln1_shift.data, np.zeros_like(tok))[0]
        np.testing.assert_array_equal(got, normed)

    def test_mha_identity_weights_equal_tokens(self):
        # equal keys give uniform attention, so the shared normalized token
        # is returned
        w = init_layer_weights(4, 2, 0, "ident2")
        for t in (w.wq, w.wk, w.wv, w.wo):
            t.data = np.eye(4)
        toks = np.stack([np.array([1.0, -2.0, 0.25, 4.0])] * 2)
        x = TokenSet(AUDIO, Tensor(toks), layer=0)
        got = mha(x, w).data
        normed = expr_layer_norm(toks, w.ln1_gain.data, w.ln1_shift.data, np.zeros_like(toks))[0]
        np.testing.assert_allclose(got, normed, rtol=1e-15)

    def test_mha_permutation_equivariance(self):
        r = np.random.default_rng(21)
        w = init_layer_weights(8, 2, 6, "perm")
        x = r.standard_normal((7, 8))
        perm = r.permutation(7)
        base = mha(TokenSet(VISUAL, Tensor(x), layer=0), w).data
        shuffled = mha(TokenSet(VISUAL, Tensor(x[perm]), layer=0), w).data
        np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12)

    def test_mlp_zero_weights_gives_zero(self):
        w = init_layer_weights(4, 2, 0, "zmlp")
        for t in (w.mlp_w1, w.mlp_b1, w.mlp_w2, w.mlp_b2):
            t.data = np.zeros_like(t.data)
        x = TokenSet(VISUAL, Tensor(np.random.default_rng(22).standard_normal((3, 4))), layer=0)
        np.testing.assert_array_equal(mlp(x, w).data, np.zeros((3, 4)))

    def test_mlp_matches_scalar_path(self):
        from helpers import scalar_gelu

        r = np.random.default_rng(9)
        w = init_layer_weights(4, 2, 5, "mlp")
        x = TokenSet(VISUAL, Tensor(r.standard_normal((3, 4))), layer=0)
        got = mlp(x, w).data
        t = scalar_layer_norm(x.tokens.data, w.ln2_gain.data, w.ln2_shift.data)
        hidden = loop_matmul(t, w.mlp_w1.data) + w.mlp_b1.data
        hidden = np.vectorize(scalar_gelu)(hidden)
        want = loop_matmul(hidden, w.mlp_w2.data) + w.mlp_b2.data
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_width_mismatch_rejected(self):
        w = init_layer_weights(8, 2, 0, "m")
        x = TokenSet(VISUAL, Tensor(np.zeros((3, 6))), layer=0)
        with pytest.raises(ShapeError):
            mha(x, w)
        with pytest.raises(ShapeError):
            mlp(x, w)


class TestFreezeRegistry:
    def test_register_and_split(self):
        reg = FreezeRegistry()
        a = Tensor(np.ones(2))
        b = Tensor(np.zeros(3))
        reg.register("frozen.x", a, frozen=True)
        reg.register("train.y", b, frozen=False)
        assert dict(reg.trainable()) == {"train.y": b}
        assert dict(reg.frozen()) == {"frozen.x": a}

    def test_duplicate_name_rejected(self):
        reg = FreezeRegistry()
        reg.register("x", Tensor(np.ones(1)), frozen=False)
        with pytest.raises(ValueError):
            reg.register("x", Tensor(np.ones(1)), frozen=False)

    def test_state_hash_tracks_frozen_only(self):
        reg = FreezeRegistry()
        fr = Tensor(np.ones(4))
        tr = Tensor(np.ones(4))
        reg.register("a.frozen", fr, frozen=True)
        reg.register("b.train", tr, frozen=False)
        h0 = reg.state_hash()
        tr.data = tr.data + 1.0
        assert reg.state_hash() == h0
        fr.data = fr.data + 1.0
        assert reg.state_hash() != h0

    def test_state_hash_is_order_independent_sha256(self):
        # same entries registered in a different order hash identically
        x = np.arange(4.0)
        y = np.arange(3.0)
        r1 = FreezeRegistry()
        r1.register("p", Tensor(x), frozen=True)
        r1.register("q", Tensor(y), frozen=True)
        r2 = FreezeRegistry()
        r2.register("q", Tensor(y), frozen=True)
        r2.register("p", Tensor(x), frozen=True)
        assert r1.state_hash() == r2.state_hash()
        assert len(r1.state_hash()) == len(hashlib.sha256(b"").hexdigest())

    def test_zero_grad_clears_trainable(self):
        reg = FreezeRegistry()
        t = Tensor(np.ones(2), requires_grad=True)
        t.grad = np.ones(2)
        reg.register("t", t, frozen=False)
        reg.zero_grad()
        assert t.grad is None
