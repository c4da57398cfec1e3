"""Whole-model tests: wiring, identity at init, persistence."""
import numpy as np
import pytest

from avfuse.autodiff import Rng, ShapeError, Tensor
from avfuse.backbone import ImageInput, SpectrogramInput
from avfuse.fusion import MODES
from avfuse.model import ModelConfig, TwoStreamModel, event_head, frozen_twin


def rand_inputs(r, cfg):
    img = ImageInput(r.uniform(cfg.image_hw + (3,)))
    spec = SpectrogramInput(r.normal(cfg.spec_hw))
    return img, spec


class TestConfig:
    def test_defaults_validate(self):
        ModelConfig().validate()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ModelConfig(width=30).validate()  # heads=4 does not divide 30
        with pytest.raises(ValueError):
            ModelConfig(image_hw=(10, 8)).validate()  # patch=4 mismatch
        with pytest.raises(ValueError):
            ModelConfig(ratio=3).validate()  # 32 % (3*2) != 0
        with pytest.raises(ValueError):
            ModelConfig(mode="both").validate()
        with pytest.raises(ValueError, match="heads"):
            ModelConfig(heads=0).validate()  # no modulo by zero
        with pytest.raises(ValueError, match="image_hw"):
            ModelConfig(image_hw=(0, 0)).validate()
        with pytest.raises(ValueError, match="spec_hw"):
            ModelConfig(spec_hw=(-4, 8)).validate()

    @pytest.mark.parametrize("field_name", ["bottleneck_act"])
    def test_rejects_unknown_activation(self, field_name):
        with pytest.raises(ValueError, match=field_name):
            ModelConfig(**{field_name: "tanh"}).validate()

    def test_audio_grid_ceils(self):
        cfg = ModelConfig(spec_hw=(9, 6), patch=4)
        assert cfg.audio_grid == (3, 2)
        assert cfg.n_audio_tokens == 6


class TestWiring:
    def test_token_counts(self):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(0, "wiring")
        img, spec = rand_inputs(r, cfg)
        xa, xv = model.tokenize([img], [spec])
        assert xv.tokens.shape == (1, cfg.n_visual_tokens, cfg.width)
        assert xa.tokens.shape == (1, cfg.n_audio_tokens, cfg.width)

    def test_forward_advances_layers(self):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(1, "wiring")
        img, spec = rand_inputs(r, cfg)
        xa, xv = model.forward([img], [spec])
        assert xa.layer == cfg.layers and xv.layer == cfg.layers

    def test_logits_shape(self):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(2, "wiring")
        out = model.logits(*rand_inputs(r, cfg))
        assert out.shape == (1, 2)

    def test_input_shape_guards(self):
        model = TwoStreamModel(ModelConfig(), seed=0)
        with pytest.raises(ShapeError):
            model.tokenize([ImageInput(np.zeros((4, 8, 3)))], [SpectrogramInput(np.zeros((8, 8)))])
        with pytest.raises(ShapeError):
            model.tokenize([ImageInput(np.zeros((8, 8, 3)))], [SpectrogramInput(np.zeros((16, 8)))])

    def test_batched_tokens_and_guards(self):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(4, "wiring")
        pairs = [rand_inputs(r, cfg) for _ in range(3)]
        images, specs = [p[0] for p in pairs], [p[1] for p in pairs]
        xa, xv = model.tokenize(images, specs)
        assert xv.tokens.shape == (3, cfg.n_visual_tokens, cfg.width)
        assert xa.tokens.shape == (3, cfg.n_audio_tokens, cfg.width)
        single_a, _ = model.tokenize(images[1:2], specs[1:2])
        np.testing.assert_array_equal(xa.tokens.data[1], single_a.tokens.data[0])
        with pytest.raises(ShapeError):
            model.tokenize(images, specs[:2])
        with pytest.raises(ShapeError):
            model.tokenize([], [])
        with pytest.raises(ShapeError):
            model.tokenize(images, specs[:2] + [SpectrogramInput(np.zeros((16, 8)))])

    def test_event_head_guard(self):
        from avfuse.backbone import AUDIO, VISUAL, TokenSet

        xa = TokenSet(AUDIO, Tensor(np.zeros((1, 3, 4))), 0)
        xv = TokenSet(VISUAL, Tensor(np.zeros((1, 5, 4))), 0)
        with pytest.raises(ShapeError):
            event_head(xa, xv, Tensor(np.zeros((6, 2))), Tensor(np.zeros(2)))

    def test_frozen_trainable_split(self):
        model = TwoStreamModel(ModelConfig(mode="bidirectional"), seed=0)
        frozen = [n for n, _ in model.registry.frozen()]
        trainable = [n for n, _ in model.registry.trainable()]
        assert all(n.startswith("backbone.") for n in frozen)
        assert all(n.startswith(("adapter.", "head.")) for n in trainable)
        # 4 sites per layer, 7 tensors each, 2 layers, plus head weight+bias
        assert len(trainable) == 2 * 4 * 7 + 2

    def test_mode_none_has_only_head_trainable(self):
        model = TwoStreamModel(ModelConfig(mode="none"), seed=0)
        assert sorted(n for n, _ in model.registry.trainable()) == ["head.bias", "head.weight"]


class TestIdentityAtInit:
    def test_adapted_equals_frozen_bitwise(self):
        cfg = ModelConfig(mode="bidirectional")
        adapted = TwoStreamModel(cfg, seed=0)
        frozen = frozen_twin(cfg, seed=0)
        r = Rng.for_name(42, "identity")
        for _ in range(10):
            img, spec = rand_inputs(r, cfg)
            a = adapted.logits(img, spec).data
            b = frozen.logits(img, spec).data
            np.testing.assert_array_equal(a, b)

    def test_direct_variant_also_identity(self):
        cfg = ModelConfig(mode="bidirectional", use_latents=False)
        adapted = TwoStreamModel(cfg, seed=5)
        frozen = frozen_twin(cfg, seed=5)
        r = Rng.for_name(43, "identity")
        img, spec = rand_inputs(r, cfg)
        np.testing.assert_array_equal(adapted.logits(img, spec).data, frozen.logits(img, spec).data)

    def test_shared_components_identical_across_modes(self):
        # per-name RNG streams: the backbone must not depend on which sites exist
        a = TwoStreamModel(ModelConfig(mode="none"), seed=9)
        b = TwoStreamModel(ModelConfig(mode="bidirectional"), seed=9)
        np.testing.assert_array_equal(a.patch_proj.data, b.patch_proj.data)
        np.testing.assert_array_equal(a.layers[1].wq.data, b.layers[1].wq.data)
        np.testing.assert_array_equal(a.head_weight.data, b.head_weight.data)

    def test_different_seeds_differ(self):
        a = TwoStreamModel(ModelConfig(), seed=0)
        b = TwoStreamModel(ModelConfig(), seed=1)
        assert not np.array_equal(a.patch_proj.data, b.patch_proj.data)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        # move something trainable, save, rebuild fresh, load, compare logits
        site = model.sites[0].a2v_mha
        site.neck.up_w.data = np.random.default_rng(0).standard_normal(site.neck.up_w.shape) * 0.1
        model.save_weights(tmp_path / "w")

        fresh = TwoStreamModel(cfg, seed=0)
        fresh.load_weights(tmp_path / "w")
        r = Rng.for_name(44, "persist")
        img, spec = rand_inputs(r, cfg)
        np.testing.assert_array_equal(
            model.logits(img, spec).data, fresh.logits(img, spec).data
        )

    def test_frozen_hash_ignores_trainable_changes(self):
        model = TwoStreamModel(ModelConfig(), seed=0)
        h0 = model.frozen_hash()
        model.head_weight.data = model.head_weight.data + 1.0
        assert model.frozen_hash() == h0
        model.patch_proj.data = model.patch_proj.data + 1.0
        assert model.frozen_hash() != h0

    def test_logits_batch_matches_singles(self):
        # a sample's logits do not depend on the batch it rides in, bit for
        # bit, with every adapter site moved off its init and live
        for mode in MODES:
            for use_latents in (True, False):
                cfg = ModelConfig(mode=mode, use_latents=use_latents)
                model = TwoStreamModel(cfg, seed=0)
                noise = np.random.default_rng(45)
                for _, t in model.registry.trainable():
                    t.data = t.data + 0.3 * noise.standard_normal(t.shape)
                r = Rng.for_name(45, "batch")
                pairs = [rand_inputs(r, cfg) for _ in range(8)]
                batch = model.logits_batch(pairs).data
                assert batch.shape == (8, 2)
                for i, (img, spec) in enumerate(pairs):
                    np.testing.assert_array_equal(batch[i : i + 1], model.logits(img, spec).data)
