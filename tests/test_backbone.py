"""Tokenization, frozen blocks, and registry tests."""
import hashlib

import numpy as np
import pytest

from avfuse.autodiff import Rng, ShapeError, Tensor
from avfuse.backbone import (
    FreezeRegistry,
    InputBatch,
    init_layer_weights,
    mha,
    mlp,
    pad_to_multiple,
    patch_embed,
    resize_pos_table,
    spectrogram_embed,
    unfold_patches,
)
from avfuse.fusion import layer_forward
from avfuse.tasks import SampleSet

from helpers import (
    add,
    chain_mha,
    chain_mlp,
    chain_residual,
    expr_layer_norm,
    loop_matmul,
    matmul,
    scalar_layer_norm,
    scalar_softmax_rows,
)


def batch(images=None, specs=None, count=3):
    """A batch of ``count`` zero images (4, 2, 3) and spectrograms (3, 5),
    either array replaced by the one given."""
    return InputBatch(np.zeros((count, 4, 2, 3)) if images is None else images,
                      np.zeros((count, 3, 5)) if specs is None else specs)


class TestInputs:
    def test_image_validation(self):
        InputBatch(np.zeros((1, 4, 4, 3)), np.zeros((1, 4, 4)))
        with pytest.raises(ShapeError):
            batch(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            batch(np.full((3, 4, 4, 3), 1.5))
        with pytest.raises(ValueError):
            bad = np.zeros((3, 4, 4, 3))
            bad[0, 0, 0, 0] = np.nan
            batch(bad)
        with pytest.raises(ShapeError, match=r"InputBatch: images need a non-empty grid, got shape \(0, 8, 3\)"):
            batch(np.zeros((3, 0, 8, 3)))

    def test_spectrogram_validation(self):
        batch(specs=np.full((3, 3, 5), -7.0))  # any finite range is legal
        with pytest.raises(ShapeError):
            batch(specs=np.zeros((3, 3, 5, 1)))
        with pytest.raises(ValueError):
            bad = np.zeros((3, 3, 5))
            bad[0, 1, 1] = np.inf
            batch(specs=bad)
        with pytest.raises(ShapeError, match=r"InputBatch: specs need a non-empty grid, got shape \(0, 8\)"):
            batch(specs=np.zeros((3, 0, 8)))

    @pytest.mark.parametrize("images, specs", [(0, 0), (2, 3), (3, 2)])
    def test_refuses_no_samples_or_unequal_counts(self, images, specs):
        with pytest.raises(ShapeError, match=f"need as many images as specs, at least one, got {images} and {specs}"):
            InputBatch(np.zeros((images, 4, 2, 3)), np.zeros((specs, 3, 5)))

    def test_holds_float64_without_a_copy(self):
        images = np.zeros((2, 4, 2, 3))
        ints = batch(images, np.zeros((2, 3, 5), dtype=np.int32), count=2)
        assert ints.images is images and ints.specs.dtype == np.float64


# the image input and the spectrogram input of a batch: which argument of
# ``batch`` each is, and one grid's shape
STREAMS = {"ImageInput": ("images", (4, 2, 3)), "SpectrogramInput": ("specs", (3, 5))}


def _refusal(stream: str, stack: np.ndarray, bad_row: int, kind: type[Exception]) -> str:
    """The message a batch holding ``stack`` as ``stream``'s array is
    refused with, checked to be the type and message a batch of its row
    ``bad_row`` alone is refused with."""
    field = STREAMS[stream][0]
    with pytest.raises(kind) as one:
        batch(**{field: stack[bad_row:bad_row + 1]}, count=1)
    with pytest.raises(kind) as whole:
        batch(**{field: stack}, count=len(stack))
    assert type(whole.value) is type(one.value) and str(whole.value) == str(one.value)
    return str(whole.value)


class TestRows:
    @pytest.mark.parametrize("bad_row", [0, 2])
    @pytest.mark.parametrize("stream, bad_value", [("ImageInput", v) for v in (np.nan, np.inf, -np.inf, -0.25, 1.5)]
                             + [("SpectrogramInput", v) for v in (np.nan, np.inf, -np.inf)])
    def test_refuses_a_bad_value_as_the_constructor_does(self, stream, bad_value, bad_row):
        stack = np.full((3, *STREAMS[stream][1]), 0.5)
        stack[bad_row].flat[-1] = bad_value
        _refusal(stream, stack, bad_row, ValueError)

    @pytest.mark.parametrize("stream, grid", [("ImageInput", (0, 2, 3)), ("ImageInput", (4, 2, 4)),
                                              ("ImageInput", (4, 2)), ("SpectrogramInput", (0, 5)),
                                              ("SpectrogramInput", (3, 5, 1)), ("SpectrogramInput", (5,))])
    def test_refuses_a_bad_grid_as_the_constructor_does(self, stream, grid):
        assert str(grid) in _refusal(stream, np.zeros((3, *grid)), 0, ShapeError)

    @pytest.mark.parametrize("stream", STREAMS)
    def test_rows_are_views_equal_to_checked_inputs(self, stream):
        field, shape = STREAMS[stream]
        stack = np.random.default_rng(0).uniform(size=(4, *shape))
        whole = batch(**{field: stack}, count=4)
        for i in range(4):
            row = getattr(whole[i:i + 1], field)
            assert np.shares_memory(row, stack)
            assert row.tobytes() == getattr(batch(**{field: stack[i:i + 1].copy()}, count=1), field).tobytes()

    @pytest.mark.parametrize("stream", STREAMS)
    def test_no_rows_give_no_inputs(self, stream):
        # an empty part of a checked batch is a batch of no rows
        part = batch(count=3)[3:]
        assert len(part) == 0 and getattr(part, STREAMS[stream][0]).shape == (0, *STREAMS[stream][1])

    def test_spectrogram_rows_take_any_finite_range(self):
        stack = np.array([np.full((3, 5), -7.0), np.full((3, 5), 40.0)])
        assert batch(specs=stack, count=2).specs.tobytes() == stack.tobytes()

    def test_indexing_takes_the_same_rows_of_every_field(self):
        data = SampleSet(np.random.default_rng(1).uniform(size=(6, 4, 2, 3)),
                         np.random.default_rng(2).standard_normal((6, 3, 5)), [0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 1, 1])
        fields = ("images", "specs", "audio_class", "visual_class", "labels")
        part = data[1:4]
        assert type(part) is SampleSet and len(part) == 3
        for name in fields:
            assert np.shares_memory(getattr(part, name), getattr(data, name)), name
            assert getattr(part, name).tobytes() == getattr(data, name)[1:4].tobytes(), name
        picked = data[np.array([5, 0, 5])]
        assert type(picked) is SampleSet and len(picked) == 3
        for name in fields:
            rows = getattr(data, name)
            np.testing.assert_array_equal(getattr(picked, name), np.stack([rows[5], rows[0], rows[5]]), err_msg=name)
            assert not np.shares_memory(getattr(picked, name), rows), name
        with pytest.raises(IndexError, match="SampleSet: index with a slice or a 1-D index array"):
            data[2]


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
        img = r.uniform(size=(1, 4, 4, 3))
        proj = r.standard_normal((12, 5))
        ts = patch_embed(img, 2, proj)
        assert ts.shape == (1, 4, 5)
        want = loop_matmul(unfold_patches(img[0], 2), proj)
        np.testing.assert_allclose(ts[0], want, rtol=1e-13)

    def test_patch_embed_zero_image_zero_tokens(self):
        # bias-free projection: zero input must give exactly zero tokens
        img = np.zeros((1, 4, 4, 3))
        proj = np.random.default_rng(2).standard_normal((12, 5))
        ts = patch_embed(img, 2, proj)
        np.testing.assert_array_equal(ts, np.zeros((1, 4, 5)))

    def test_patch_embed_adds_positions(self):
        r = np.random.default_rng(3)
        img = r.uniform(size=(1, 4, 4, 3))
        proj = r.standard_normal((12, 5))
        pos = r.standard_normal((4, 5))
        without = patch_embed(img, 2, proj)
        with_pos = patch_embed(img, 2, proj, pos)
        np.testing.assert_allclose(with_pos, without + pos, rtol=1e-14)
        with pytest.raises(ShapeError):
            patch_embed(img, 2, proj, np.zeros((3, 5)))

    def test_spectrogram_embed_replicates_channels_and_pads(self):
        r = np.random.default_rng(4)
        spec = r.standard_normal((1, 3, 5))
        proj = r.standard_normal((12, 6))
        ts = spectrogram_embed(spec, 2, proj)
        padded = pad_to_multiple(spec[0], 2)
        three = np.repeat(padded[:, :, None], 3, axis=2)
        want = loop_matmul(unfold_patches(three, 2), proj)
        assert ts.shape == (1, 6, 6)  # ceil(3/2)*ceil(5/2) = 2*3
        np.testing.assert_allclose(ts[0], want, rtol=1e-13)

    @pytest.mark.parametrize("with_pos", [False, True], ids=["no-pos", "pos"])
    def test_embeds_are_leaves_bitwise_the_tape_chain(self, with_pos, monkeypatch):
        # the frozen stem runs on kernels: its tokens are the tape chain
        # add(matmul(patches, proj), pos) bit for bit, as plain arrays that
        # record no node, and the table is added into the product, not into
        # itself
        records = []
        node = Tensor._node

        def recorded(data, parents):
            records.append(data.shape)
            return node(data, parents)

        monkeypatch.setattr(Tensor, "_node", staticmethod(recorded))
        r = np.random.default_rng(5)
        images = np.stack([r.uniform(size=(4, 6, 3)) for _ in range(2)])
        specs = np.stack([r.standard_normal((3, 5)) for _ in range(2)])
        proj = r.standard_normal((12, 5))
        padded = np.stack([pad_to_multiple(s, 2) for s in specs])
        cases = (
            (patch_embed, images, unfold_patches(images, 2)),
            (spectrogram_embed, specs, unfold_patches(np.repeat(padded[..., None], 3, axis=-1), 2)),
        )
        for embed, inputs, patches in cases:
            table = r.standard_normal((patches.shape[-2], 5))
            pos = table.copy() if with_pos else None
            tokens = embed(inputs, 2, proj, pos)
            assert records == []
            want = matmul(Tensor(patches), proj)
            if with_pos:
                want = add(want, pos)
                np.testing.assert_array_equal(pos, table)
            assert type(tokens) is np.ndarray
            np.testing.assert_array_equal(tokens, want.data)
            records.clear()

    def test_embeds_refuse_a_trainable_or_misshapen_table(self):
        img, spec = np.zeros((1, 4, 4, 3)), np.zeros((1, 4, 4))
        proj = np.ones((12, 5))
        # the stem's weights and tokens are plain arrays: none of them can be
        # flagged for a gradient
        for embed, x in ((patch_embed, img), (spectrogram_embed, spec)):
            pos = np.zeros((4, 5))
            tokens = embed(x, 2, proj, pos)
            for value in (proj, pos, tokens):
                with pytest.raises(AttributeError):
                    value.requires_grad = True
        for embed, x in ((patch_embed, img), (spectrogram_embed, spec)):
            with pytest.raises(ShapeError, match=f"{embed.__name__}: positional table shape"):
                embed(x, 2, proj, np.zeros((3, 5)))


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


def term_of(block, x: Tensor, w) -> np.ndarray:
    """The attention or MLP term of a frozen layer half, ``mha`` or ``mlp``:
    its single-op chain (``chain_mha`` or ``chain_mlp``, the same kernels)
    of ``x``, once the block's forward kernel is checked to give the input
    plus that term, bit for bit."""
    term = {mha: chain_mha, mlp: chain_mlp}[block](x, w)
    y, back = block(x.data, w, False)
    assert back is None
    np.testing.assert_array_equal(y, chain_residual(x, term).data)
    return term.data


class TestLayerBlocks:
    def test_init_draws_are_name_stable(self):
        a = init_layer_weights(8, 2, 0, "layer0")
        b = init_layer_weights(8, 2, 0, "layer0")
        np.testing.assert_array_equal(a.wq, b.wq)
        c = init_layer_weights(8, 2, 0, "layer1")
        assert not np.array_equal(a.wq, c.wq)
        np.testing.assert_array_equal(a.ln1_gain, np.ones(8))
        np.testing.assert_array_equal(a.mlp_b1, np.zeros(32))

    def test_init_rejects_bad_heads(self):
        with pytest.raises(ShapeError):
            init_layer_weights(8, 3, 0, "x")

    def test_mha_matches_per_head_oracle(self):
        r = np.random.default_rng(7)
        w = init_layer_weights(8, 2, 3, "oracle")
        x = Tensor(r.standard_normal((5, 8)))
        got = term_of(mha, x, w)

        t = scalar_layer_norm(x.data, w.ln1_gain, w.ln1_shift)
        q = loop_matmul(t, w.wq)
        k = loop_matmul(t, w.wk)
        v = loop_matmul(t, w.wv)
        heads = []
        for i in range(2):
            sl = slice(i * 4, (i + 1) * 4)
            scores = loop_matmul(q[:, sl], k[:, sl].T) / np.sqrt(4.0)
            heads.append(loop_matmul(scalar_softmax_rows(scores), v[:, sl]))
        want = loop_matmul(np.hstack(heads), w.wo)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_single_head_equals_multi_with_same_width(self):
        # one head over width d is plain attention; check shape plumbing
        r = np.random.default_rng(8)
        w = init_layer_weights(6, 1, 4, "single")
        x = Tensor(r.standard_normal((4, 6)))
        got = term_of(mha, x, w)
        t = scalar_layer_norm(x.data, w.ln1_gain, w.ln1_shift)
        q = t @ w.wq
        k = t @ w.wk
        v = t @ w.wv
        attn = scalar_softmax_rows(q @ k.T / np.sqrt(6.0))
        np.testing.assert_allclose(got, attn @ v @ w.wo, rtol=1e-12)

    def test_mha_identity_weights_single_token(self):
        # softmax over one key is 1, so identity projections pass the
        # normalized token through
        w = init_layer_weights(4, 2, 0, "ident")
        for name in ("wq", "wk", "wv", "wo"):
            setattr(w, name, np.eye(4))
        tok = np.array([[0.5, -1.25, 2.0, 3.75]])
        got = term_of(mha, Tensor(tok), w)
        normed = expr_layer_norm(tok, w.ln1_gain, w.ln1_shift, np.zeros_like(tok))[0]
        np.testing.assert_array_equal(got, normed)

    def test_mha_identity_weights_equal_tokens(self):
        # equal keys give uniform attention, so the shared normalized token
        # is returned
        w = init_layer_weights(4, 2, 0, "ident2")
        for name in ("wq", "wk", "wv", "wo"):
            setattr(w, name, np.eye(4))
        toks = np.stack([np.array([1.0, -2.0, 0.25, 4.0])] * 2)
        x = Tensor(toks)
        got = term_of(mha, x, w)
        normed = expr_layer_norm(toks, w.ln1_gain, w.ln1_shift, np.zeros_like(toks))[0]
        np.testing.assert_allclose(got, normed, rtol=1e-15)

    def test_mha_permutation_equivariance(self):
        r = np.random.default_rng(21)
        w = init_layer_weights(8, 2, 6, "perm")
        x = r.standard_normal((7, 8))
        perm = r.permutation(7)
        base = term_of(mha, Tensor(x), w)
        shuffled = term_of(mha, Tensor(x[perm]), w)
        np.testing.assert_allclose(shuffled, base[perm], rtol=1e-12)

    def test_mlp_zero_weights_gives_zero(self):
        w = init_layer_weights(4, 2, 0, "zmlp")
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            setattr(w, name, np.zeros_like(getattr(w, name)))
        x = Tensor(np.random.default_rng(22).standard_normal((3, 4)))
        np.testing.assert_array_equal(term_of(mlp, x, w), np.zeros((3, 4)))

    def test_mlp_matches_scalar_path(self):
        from helpers import scalar_gelu

        r = np.random.default_rng(9)
        w = init_layer_weights(4, 2, 5, "mlp")
        x = Tensor(r.standard_normal((3, 4)))
        got = term_of(mlp, x, w)
        t = scalar_layer_norm(x.data, w.ln2_gain, w.ln2_shift)
        hidden = loop_matmul(t, w.mlp_w1) + w.mlp_b1
        hidden = np.vectorize(scalar_gelu)(hidden)
        want = loop_matmul(hidden, w.mlp_w2) + w.mlp_b2
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_width_mismatch_rejected(self):
        # the blocks are kernels; the layer checks the token width for them
        w = init_layer_weights(8, 2, 0, "m")
        x = Tensor(np.zeros((2, 1, 3, 6)))
        with pytest.raises(ShapeError, match="do not match layer width 8"):
            layer_forward([x], w, {})


class TestFreezeRegistry:
    def test_register_and_split(self):
        reg = FreezeRegistry()
        a = np.ones(2)
        b = Tensor(np.zeros(3))
        reg.register("frozen.x", a)
        reg.register("train.y", b)
        assert b.requires_grad
        assert dict(reg.trainable()) == {"train.y": b}
        assert {name: v for name, v, frozen in reg.items() if frozen} == {"frozen.x": a}

    def test_frozen_parameters_are_read_through_items(self):
        # the per-parameter view is items() alone, each entry with its
        # frozen flag; there is no separate frozen() view
        reg = FreezeRegistry()
        a = reg.register("frozen.x", np.ones(2))
        reg.register("train.y", Tensor(np.zeros(3)))
        assert [(name, frozen) for name, _, frozen in reg.items()] == [("frozen.x", True), ("train.y", False)]
        assert next(reg.items())[1] is a
        assert not hasattr(reg, "frozen")

    def test_duplicate_name_rejected(self):
        reg = FreezeRegistry()
        reg.register("x", Tensor(np.ones(1)))
        with pytest.raises(ValueError):
            reg.register("x", Tensor(np.ones(1)))

    def test_state_hash_tracks_frozen_only(self):
        reg = FreezeRegistry()
        fr = np.ones(4)
        tr = Tensor(np.ones(4))
        reg.register("a.frozen", fr)
        reg.register("b.train", tr)
        h0 = reg.state_hash()
        tr.data = tr.data + 1.0
        assert reg.state_hash() == h0
        fr += 1.0
        assert reg.state_hash() != h0

    def test_state_hash_is_order_independent_sha256(self):
        # same entries registered in a different order hash identically
        x = np.arange(4.0)
        y = np.arange(3.0)
        r1 = FreezeRegistry()
        r1.register("p", x.copy())
        r1.register("q", y.copy())
        r2 = FreezeRegistry()
        r2.register("q", y.copy())
        r2.register("p", x.copy())
        assert r1.state_hash() == r2.state_hash()
        assert len(r1.state_hash()) == len(hashlib.sha256(b"").hexdigest())

    def test_stacked_leaf_has_a_view_per_row(self):
        # per parameter: named rows, viewed when read, saved, hashed and
        # loaded in place; per leaf: trainable() yields the stack
        from avfuse.serialization import ContainerEntry

        reg = FreezeRegistry()
        reg.register("a.frozen", np.ones(2))
        leaf = reg.register_stack("b.stack", Tensor(np.arange(6.0).reshape(2, 3)))
        reg.register_row("b.second", leaf, 1)
        reg.register_row("b.first", leaf, 0)
        assert leaf.requires_grad
        assert dict(reg.trainable()) == {"b.stack": leaf}
        assert [(n, f) for n, _, f in reg.items()] == [("a.frozen", True), ("b.second", False), ("b.first", False)]
        leaf.grad = np.full((2, 3), 5.0)
        views = {n: t for n, t, _ in reg.items()}
        assert np.shares_memory(views["b.second"].data, leaf.data) and not views["b.second"].requires_grad
        np.testing.assert_array_equal(views["b.second"].data, [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(views["b.first"].grad, [5.0, 5.0, 5.0])
        assert [n for n, _, _ in reg.entries_for_save()] == ["a.frozen", "b.second", "b.first"]
        h0 = reg.state_hash(frozen_only=False)
        reg.load_arrays([ContainerEntry("a.frozen", np.ones(2), True), ContainerEntry("b.second", np.zeros(3), False),
                         ContainerEntry("b.first", np.arange(3.0), False)])
        np.testing.assert_array_equal(leaf.data, [[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        assert reg.state_hash(frozen_only=False) != h0
        reg.zero_grad()
        assert leaf.grad is None
        with pytest.raises(ValueError, match="register_stack did not register"):
            reg.register_row("c.row", Tensor(np.zeros((2, 3))), 0)
        with pytest.raises(ValueError, match="register_stack did not register"):
            reg.register_row("c.row", leaf, 2)
        with pytest.raises(ValueError, match="registered twice"):
            reg.register_stack("b.first", Tensor(np.zeros(1)))

    def test_register_row_refuses_a_row_of_a_whole_tensor(self):
        # a row of a leaf from register rather than register_stack would be
        # saved twice: once in the whole tensor's entry and once on its own
        reg = FreezeRegistry()
        w = reg.register("head.weight", Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="register_stack did not register"):
            reg.register_row("head.weight.row0", w, 0)
        assert [n for n, _, _ in reg.entries_for_save()] == ["head.weight"]

    def test_zero_grad_clears_trainable(self):
        reg = FreezeRegistry()
        t = Tensor(np.ones(2), requires_grad=True)
        t.grad = np.ones(2)
        reg.register("t", t)
        reg.zero_grad()
        assert t.grad is None
