"""Whole-model tests: wiring, identity at init, persistence."""
import numpy as np
import pytest

from avfuse import model as model_module
from avfuse.autodiff import Rng, ShapeError, Tensor
from avfuse.backbone import InputBatch
from avfuse.fusion import MODES
from avfuse.model import FieldError, ModelConfig, TwoStreamModel, event_head, frozen_twin
from avfuse.serialization import save_tensors

from helpers import rand_batch, site_row, site_views


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
        for field in ("layers", "patch", "latent_count"):
            with pytest.raises(ValueError, match=f"{field} must be >= 1"):
                ModelConfig(**{field: 0}).validate()

    @pytest.mark.parametrize("name,bad", [("layers", True), ("width", 32.0), ("heads", "4"), ("patch", 4.0),
                                          ("latent_count", 2.5), ("ratio", None), ("groups", False)])
    def test_rejects_a_count_that_is_not_an_integer(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            ModelConfig(**{name: bad}).validate()
        # numpy integers are integers
        ModelConfig(**{name: np.int64(getattr(ModelConfig(), name))}).validate()

    @pytest.mark.parametrize("name", ["image_hw", "spec_hw"])
    @pytest.mark.parametrize("bad", [(8, 8, 8), (8,), (8.0, 8), (8, True), 8, "88"])
    def test_rejects_sizes_that_are_not_two_integers(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be two integers"):
            ModelConfig(**{name: bad}).validate()
        ModelConfig(**{name: (np.int64(8), 8)}).validate()

    @pytest.mark.parametrize("name,bad", [("use_latents", "no"), ("use_latents", 1), ("bottleneck_bias", 0),
                                          ("bottleneck_bias", None)])
    def test_rejects_a_flag_that_is_not_a_bool(self, name, bad):
        # a truthy non-bool would otherwise read as true and build latent sites
        with pytest.raises(FieldError, match=f"{name} must be a boolean, got {bad!r}") as info:
            ModelConfig(**{name: bad}).validate()
        assert info.value.field == name
        ModelConfig(**{name: False}).validate()

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
        xa, xv = model.tokenize(rand_batch(r, cfg))
        assert xv.shape == (1, cfg.n_visual_tokens, cfg.width)
        assert xa.shape == (1, cfg.n_audio_tokens, cfg.width)

    def test_forward_advances_layers(self):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(1, "wiring")
        stacks = model.forward(rand_batch(r, cfg))
        assert [x.shape for x in stacks] == [(2, 1, cfg.n_visual_tokens, cfg.width)]

    @pytest.mark.parametrize("spec_hw, shapes", [((8, 8), [(2, 3, 4, 32)]),
                                                  ((12, 8), [(1, 3, 6, 32), (1, 3, 4, 32)])])
    def test_forward_stacks_the_streams_in_stack_order(self, spec_hw, shapes, monkeypatch):
        # equal token counts share one stack, unequal ones get a one-row
        # stack each; either way the rows, in order, are audio then visual
        cfg = ModelConfig(spec_hw=spec_hw)
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(5, "wiring")
        batch = rand_batch(r, cfg, 3)
        monkeypatch.setattr(model_module, "layer_forward", lambda stacks, w, sites: stacks)
        stacks = model.forward(batch)
        assert [x.shape for x in stacks] == shapes
        rows = [row for x in stacks for row in x.data]
        for row, tokens in zip(rows, model.tokenize(batch), strict=True):
            np.testing.assert_array_equal(row, tokens)

    def test_logits_shape(self):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(2, "wiring")
        out = model.logits(rand_batch(r, cfg))
        assert out.shape == (1, 2)

    def test_input_shape_guards(self):
        model = TwoStreamModel(ModelConfig(), seed=0)
        with pytest.raises(ShapeError, match=r"image shape \(4, 8\) does not match"):
            model.tokenize(InputBatch(np.zeros((1, 4, 8, 3)), np.zeros((1, 8, 8))))
        with pytest.raises(ShapeError, match=r"spectrogram shape \(16, 8\) does not match"):
            model.tokenize(InputBatch(np.zeros((1, 8, 8, 3)), np.zeros((1, 16, 8))))

    def test_batched_tokens_and_guards(self):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        r = Rng.for_name(4, "wiring")
        batch = rand_batch(r, cfg, 3)
        xa, xv = model.tokenize(batch)
        assert xv.shape == (3, cfg.n_visual_tokens, cfg.width)
        assert xa.shape == (3, cfg.n_audio_tokens, cfg.width)
        single_a, _ = model.tokenize(batch[1:2])
        np.testing.assert_array_equal(xa[1], single_a[0])
        with pytest.raises(ShapeError, match="as many images as specs"):
            InputBatch(batch.images, batch.specs[:2])
        with pytest.raises(ShapeError, match="tokenize: need a non-empty batch"):
            model.tokenize(batch[3:])

    def test_event_head_guard(self):
        stacks = [Tensor(np.zeros((1, 1, n, 4))) for n in (3, 5)]
        assert event_head(stacks, Tensor(np.zeros((8, 2))), Tensor(np.zeros(2))).shape == (1, 2)
        with pytest.raises(ShapeError):
            event_head(stacks, Tensor(np.zeros((6, 2))), Tensor(np.zeros(2)))
        # one stack of both streams pools both rows
        both = [Tensor(np.zeros((2, 1, 3, 4)))]
        assert event_head(both, Tensor(np.zeros((8, 2))), Tensor(np.zeros(2))).shape == (1, 2)
        # a 3-D stack is refused before the forward, not in the backward
        with pytest.raises(ShapeError, match=r"need \(S, B, N, D\) stacks"):
            event_head([Tensor(np.zeros((2, 3, 4)), requires_grad=True)], Tensor(np.zeros((8, 2))),
                       Tensor(np.zeros(2)))

    def test_frozen_trainable_split(self):
        model = TwoStreamModel(ModelConfig(mode="bidirectional"), seed=0)
        frozen = [n for n, _ in model.registry.frozen()]
        trainable = [n for n, _ in model.registry.trainable()]
        assert all(n.startswith("backbone.") for n in frozen)
        assert all(n.startswith(("adapter.", "head.")) for n in trainable)
        # per site: 4 sites per layer, 7 tensors each, 2 layers, plus head
        # weight+bias; per leaf: each attachment's 7 parts stack both sites
        assert len(site_views(model)) == 2 * 4 * 7 + 2
        assert len(trainable) == 2 * 2 * 7 + 2

    @pytest.mark.parametrize("spec_hw", [(8, 8), (12, 8)])
    def test_frozen_state_is_plain_arrays(self, spec_hw):
        # what is frozen is a plain array, never a tensor: every frozen
        # registry value and the tokens the frozen stem returns
        cfg = ModelConfig(spec_hw=spec_hw)
        model = TwoStreamModel(cfg, seed=0)
        frozen = list(model.registry.frozen())
        assert len(frozen) == 2 + 12 * cfg.layers
        assert all(type(value) is np.ndarray for _, value in frozen)
        assert all(type(tokens) is np.ndarray for tokens in model.tokenize(rand_batch(Rng(0), cfg, 2)))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, 2**64, "0"])
    def test_refuses_a_seed_outside_64_bits(self, seed):
        # the rule of TrainConfig.validate: 1.5 would build seed 1's
        # weights, and -1 those of 2**64 - 1 under another saved seed
        with pytest.raises(FieldError, match="seed must be ") as e:
            TwoStreamModel(ModelConfig(), seed)
        assert e.value.field == "seed"

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
            one = rand_batch(r, cfg)
            a = adapted.logits(one).data
            b = frozen.logits(one).data
            np.testing.assert_array_equal(a, b)

    def test_direct_variant_also_identity(self):
        cfg = ModelConfig(mode="bidirectional", use_latents=False)
        adapted = TwoStreamModel(cfg, seed=5)
        frozen = frozen_twin(cfg, seed=5)
        r = Rng.for_name(43, "identity")
        one = rand_batch(r, cfg)
        np.testing.assert_array_equal(adapted.logits(one).data, frozen.logits(one).data)

    def test_shared_components_identical_across_modes(self):
        # per-name RNG streams: the backbone must not depend on which sites exist
        a = TwoStreamModel(ModelConfig(mode="none"), seed=9)
        b = TwoStreamModel(ModelConfig(mode="bidirectional"), seed=9)
        np.testing.assert_array_equal(a.patch_proj, b.patch_proj)
        np.testing.assert_array_equal(a.layers[1].wq, b.layers[1].wq)
        np.testing.assert_array_equal(a.head_weight.data, b.head_weight.data)

    def test_different_seeds_differ(self):
        a = TwoStreamModel(ModelConfig(), seed=0)
        b = TwoStreamModel(ModelConfig(), seed=1)
        assert not np.array_equal(a.patch_proj, b.patch_proj)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        cfg = ModelConfig()
        model = TwoStreamModel(cfg, seed=0)
        # move something trainable, save, rebuild fresh, load, compare logits
        up_w = site_row(model.sites[0], "a2v_mha", "up_w")
        up_w[...] = np.random.default_rng(0).standard_normal(up_w.shape) * 0.1
        model.save_weights(tmp_path / "w")

        fresh = TwoStreamModel(cfg, seed=0)
        fresh.load_weights(tmp_path / "w")
        r = Rng.for_name(44, "persist")
        one = rand_batch(r, cfg)
        np.testing.assert_array_equal(model.logits(one).data, fresh.logits(one).data)

    def test_load_into_another_seed_matches_logits(self, tmp_path):
        # the audio positional table derives from pos_visual, so a load must
        # rebuild it; audio grid 3x2 against a visual 2x2 one, so it is resampled
        for spec_hw in ((8, 8), (12, 8)):
            cfg = ModelConfig(spec_hw=spec_hw)
            model = TwoStreamModel(cfg, seed=1)
            model.save_weights(tmp_path / "w")
            other = TwoStreamModel(cfg, seed=2)
            other.load_weights(tmp_path / "w")
            assert other.registry.state_hash(frozen_only=False) == model.registry.state_hash(frozen_only=False)
            r = Rng.for_name(46, "persist")
            one = rand_batch(r, cfg)
            np.testing.assert_array_equal(model.logits(one).data, other.logits(one).data)

    # each container is the seed-1 model's, with head.bias, its last entry,
    # made unloadable: every entry before it passes its checks
    REFUSALS = {
        "unknown": "unknown parameter 'head.extra'",
        "shape": r"parameter 'head.bias': container shape \(3,\)",
        "frozen": "parameter 'head.bias': frozen flag mismatch",
        "missing": r"missing parameters: \['head.bias'\]",
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_load_changes_nothing(self, tmp_path, case):
        cfg = ModelConfig()
        entries = list(TwoStreamModel(cfg, seed=1).registry.entries_for_save())
        assert entries[-1][0] == "head.bias"
        name, value, frozen = entries[-1]
        if case == "unknown":
            entries.append(("head.extra", value, frozen))
        elif case == "shape":
            entries[-1] = (name, np.zeros(3), frozen)
        elif case == "frozen":
            entries[-1] = (name, value, not frozen)
        else:
            entries.pop()
        save_tensors(tmp_path / "w", entries)
        other = TwoStreamModel(cfg, seed=2)
        before = other.registry.state_hash(frozen_only=False)
        with pytest.raises(ValueError, match=self.REFUSALS[case]):
            other.load_weights(tmp_path / "w")
        assert other.registry.state_hash(frozen_only=False) == before

    def test_frozen_hash_ignores_trainable_changes(self):
        model = TwoStreamModel(ModelConfig(), seed=0)
        h0 = model.frozen_hash()
        model.head_weight.data = model.head_weight.data + 1.0
        assert model.frozen_hash() == h0
        model.patch_proj += 1.0
        assert model.frozen_hash() != h0

    def test_logits_batch_matches_singles(self):
        # a sample's logits do not depend on the batch it rides in, bit for
        # bit, with every adapter site moved off its init and live
        for mode in MODES:
            for use_latents in (True, False):
                cfg = ModelConfig(mode=mode, use_latents=use_latents)
                model = TwoStreamModel(cfg, seed=0)
                noise = np.random.default_rng(45)
                for _, t in site_views(model):
                    t.data += 0.3 * noise.standard_normal(t.shape)
                r = Rng.for_name(45, "batch")
                batch = rand_batch(r, cfg, 8)
                logits = model.logits(batch).data
                assert logits.shape == (8, 2)
                for i in range(8):
                    np.testing.assert_array_equal(logits[i : i + 1], model.logits(batch[i : i + 1]).data)
