"""Synthetic task, optimizer, and training-loop tests."""
import collections
import math
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from avfuse import tasks
from avfuse.autodiff import Rng, ShapeError, Tensor, backward, cross_entropy_logits, derive_seed
from avfuse.backbone import InputBatch
from avfuse.model import FieldError, ModelConfig, TwoStreamModel
from avfuse.tasks import (
    SQUARE_SAFE,
    Adam,
    DataConfig,
    DivergenceError,
    SampleSet,
    TrainConfig,
    audio_template,
    evaluate,
    final_test_accuracy,
    generate_dataset,
    make_optimizer,
    run_experiment,
    train,
    visual_template,
    xnor_label,
    METRICS_COLUMNS,
)

from avfuse.serialization import csv_text

from helpers import LoopAdam, loop_generate_dataset, site_views


SMALL_MODEL = dict(layers=1, width=8, heads=2, patch=4, latent_count=2, ratio=2, groups=2)


class TestTemplates:
    def test_visual_orientation(self):
        t0 = visual_template(0, (4, 4))
        t1 = visual_template(1, (4, 4))
        # class 0: columns alternate; class 1: rows alternate
        np.testing.assert_array_equal(t0[:, 0], np.full((4, 3), 0.9))
        np.testing.assert_array_equal(t0[:, 1], np.full((4, 3), 0.1))
        np.testing.assert_array_equal(t1[0, :], np.full((4, 3), 0.9))
        np.testing.assert_array_equal(t1[1, :], np.full((4, 3), 0.1))

    def test_audio_orientation(self):
        t0 = audio_template(0, (4, 6))
        t1 = audio_template(1, (4, 6))
        np.testing.assert_array_equal(t0[:, 0], 0.9)
        np.testing.assert_array_equal(t0[:, 1], 0.1)
        np.testing.assert_array_equal(t1[0, :], 0.9)
        np.testing.assert_array_equal(t1[1, :], 0.1)

    def test_every_patch_distinguishes_classes(self):
        # any aligned 2x2 window separates the classes in both streams
        v0, v1 = visual_template(0, (8, 8)), visual_template(1, (8, 8))
        a0, a1 = audio_template(0, (8, 8)), audio_template(1, (8, 8))
        for y in range(0, 8, 2):
            for x in range(0, 8, 2):
                assert not np.array_equal(v0[y : y + 2, x : x + 2], v1[y : y + 2, x : x + 2])
                assert not np.array_equal(a0[y : y + 2, x : x + 2], a1[y : y + 2, x : x + 2])

    def test_xnor_truth_table(self):
        assert xnor_label(0, 0) == 1
        assert xnor_label(1, 1) == 1
        assert xnor_label(0, 1) == 0
        assert xnor_label(1, 0) == 0


class TestDataset:
    def test_balanced_pairs_and_labels(self):
        data = generate_dataset(0, 64, 0.1)
        pairs = list(zip(data.audio_class.tolist(), data.visual_class.tolist()))
        for combo in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert pairs.count(combo) == 16
        assert data.labels.sum() == 32 and data.labels.dtype == np.int64
        for (a_cls, v_cls), label in zip(pairs, data.labels):
            assert label == xnor_label(a_cls, v_cls)

    def test_deterministic_and_seed_sensitive(self):
        a = generate_dataset(3, 8, 0.1)
        b = generate_dataset(3, 8, 0.1)
        c = generate_dataset(4, 8, 0.1)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.specs, b.specs)
        assert any(not np.array_equal(x, y) for x, y in zip(a.images, c.images))

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
    def test_refuses_a_seed_outside_64_bits(self, bad):
        with pytest.raises(FieldError, match=rf"seed must be (an integer|in \[0, 2\*\*64\)), got {bad!r}"):
            generate_dataset(bad, 4, 0.1)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True])
    def test_refuses_a_bad_seed_before_any_draw(self, bad, noise, monkeypatch):
        # by TrainConfig.validate's rule, at every noise level: at noise 0
        # no sample draw would ever key a stream by the seed
        monkeypatch.setattr(tasks, "Rng", None)
        with pytest.raises(FieldError, match="seed must be ") as e:
            generate_dataset(bad, 4, noise)
        assert e.value.field == "seed"

    def test_noise_zero_gives_clean_templates(self):
        data = generate_dataset(0, 4, 0.0)
        for image, spec, a_cls, v_cls in zip(data.images, data.specs, data.audio_class, data.visual_class):
            np.testing.assert_array_equal(image, visual_template(v_cls, (8, 8)))
            np.testing.assert_array_equal(spec, audio_template(a_cls, (8, 8)))

    def test_images_stay_in_range(self):
        data = generate_dataset(1, 16, 0.5)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(0, 3, 0.1)
        with pytest.raises(ValueError):
            generate_dataset(0, 8, 1.5)

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize("count", [4, 5, 37])
    @pytest.mark.parametrize("image_hw, spec_hw", [((8, 8), (9, 6)), ((8, 8), (5, 3)), ((12, 8), (8, 8)),
                                                   ((32, 32), (32, 32))])
    def test_matches_per_sample_loop_bitwise(self, noise, count, image_hw, spec_hw):
        got = generate_dataset(11, count, noise, image_hw, spec_hw)
        want = loop_generate_dataset(11, count, noise, image_hw, spec_hw)
        assert type(got) is SampleSet and len(got) == len(want) == count
        for name in ("audio_class", "visual_class", "labels", "images", "specs"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), name
        assert got.images.shape == (count, *image_hw, 3) and got.specs.shape == (count, *spec_hw)

    def test_samples_are_rows_of_two_set_wide_arrays(self):
        # written in place: the set is two arrays, and generating it holds
        # no gathered copy of either beside them
        tracemalloc.start()
        try:
            data = generate_dataset(2, 256, 0.1, (32, 32), (32, 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.images.shape == (256, 32, 32, 3) and data.specs.shape == (256, 32, 32)
        assert data.images.flags.owndata and data.specs.flags.owndata
        assert peak < data.images.nbytes + data.specs.nbytes + data.specs.nbytes // 2

    @pytest.mark.parametrize("count", [4, 64, 1024])
    def test_each_input_class_checks_a_set_once(self, monkeypatch, count):
        calls = collections.Counter()
        init = InputBatch.__init__

        def counted(self, images, specs):
            calls[type(self).__name__, len(images)] += 1
            init(self, images, specs)

        monkeypatch.setattr(InputBatch, "__init__", counted)
        generate_dataset(0, count, 0.1)
        assert calls == {("SampleSet", count): 1}

    def test_sample_set_refuses_a_class_count_unlike_its_samples(self):
        images, specs = np.zeros((4, 8, 8, 3)), np.zeros((4, 8, 8))
        with pytest.raises(ShapeError, match=r"one audio and one visual class per sample, got shapes \(3,\) and "
                                             r"\(4,\) for 4 samples"):
            SampleSet(images, specs, [0, 1, 0], [0, 1, 0, 1])
        np.testing.assert_array_equal(SampleSet(images, specs, [0, 1, 0, 1], [0, 0, 1, 1]).labels, [1, 0, 0, 1])

    def test_sample_depends_only_on_seed_and_index(self):
        # sample i sits in the row the shuffle gives it, so every sample of
        # a 5-sample set is a sample of a 9-sample one
        small, big = generate_dataset(4, 5, 0.1), generate_dataset(4, 9, 0.1)
        for name in ("images", "specs"):
            rows = {row.tobytes() for row in getattr(big, name)}
            assert all(row.tobytes() in rows for row in getattr(small, name)), name

    @pytest.mark.parametrize("field, image_hw, spec_hw", [
        ("spec_hw", (8, 8), (0, 8)),
        ("image_hw", (8, 0), (8, 8)),
        ("spec_hw", (8, 8), (8, 8, 1)),
        ("image_hw", (8.0, 8), (8, 8)),
        ("image_hw", (True, 8), (8, 8)),
        ("image_hw", ("8", 8), (8, 8)),
    ])
    def test_refuses_empty_or_malformed_grids_before_any_draw(self, monkeypatch, field, image_hw, spec_hw):
        # the rule ModelConfig.validate applies to its sizes, by the same function
        monkeypatch.setattr(Rng, "permutation", lambda *a, **k: pytest.fail("drew the order"))
        monkeypatch.setattr(Rng, "normal", lambda *a, **k: pytest.fail("drew noise"))
        with pytest.raises(FieldError, match=f"^{field} ") as info:
            generate_dataset(0, 4, 0.1, image_hw, spec_hw)
        assert info.value.field == field
        with pytest.raises(FieldError, match=re.escape(str(info.value))):
            ModelConfig(**{field: image_hw if field == "image_hw" else spec_hw}).validate()


class TestAdditiveHeadCeiling:
    def test_logistic_probe_on_pooled_unimodal_features_stays_near_chance(self):
        """An additive readout of per-stream features cannot express XNOR.

        Train a logistic regression on concatenated mean-pooled patch
        features of both streams (the exact information a mode=none model
        feeds its head) with full-batch gradient descent; it must stay
        within a few points of 50%.
        """
        data = generate_dataset(derive_seed(0, "probe"), 256, 0.1)
        feats = []
        for image, spec in zip(data.images, data.specs):
            img = image.reshape(-1, 3).mean(axis=0)
            spec_mean = spec.reshape(-1).mean(keepdims=True)
            # include per-class discriminative stats, not just global means:
            # column/row contrast picks the orientation out of each stream
            vcol = image[:, ::2, :].mean() - image[:, 1::2, :].mean()
            vrow = image[::2, :, :].mean() - image[1::2, :, :].mean()
            acol = spec[:, ::2].mean() - spec[:, 1::2].mean()
            arow = spec[::2, :].mean() - spec[1::2, :].mean()
            feats.append(np.concatenate([img, spec_mean, [vcol, vrow, acol, arow]]))
        x = np.asarray(feats)
        x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-9)
        y = data.labels.astype(float)
        w = np.zeros(x.shape[1])
        b = 0.0
        for _ in range(3000):
            p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
            g = p - y
            w -= 0.5 * (x.T @ g) / len(y)
            b -= 0.5 * g.mean()
        acc = float((np.where(x @ w + b > 0, 1, 0) == y).mean())
        assert acc <= 0.60, acc

    def test_logistic_probe_on_class_indicators_stays_near_chance(self):
        # even with the two pattern classes handed over as one-hot features,
        # the convex logistic optimum over additive inputs cannot fit XNOR
        data = generate_dataset(derive_seed(0, "indicator-probe"), 1024, 0.1)
        a_cls, v_cls = data.audio_class, data.visual_class
        x = np.stack([a_cls == 0, a_cls == 1, v_cls == 0, v_cls == 1], axis=1).astype(float)
        y = data.labels.astype(float)
        w = np.zeros(4)
        b = 0.0
        for _ in range(5000):
            p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
            g = p - y
            w -= 0.5 * (x.T @ g) / len(y)
            b -= 0.5 * g.mean()
        acc = float((np.where(x @ w + b > 0, 1, 0) == y).mean())
        assert acc <= 0.55, acc


class TestAdam:
    def test_single_step_matches_hand_calc(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, -1.0])
        opt = Adam([([("p", p)], 0.1)])
        opt.step()
        # first step: mhat = g, vhat = g^2 -> update = lr * g/(|g|+eps) = lr*sign
        np.testing.assert_allclose(p.data, [1.0 - 0.1 * (0.5 / (0.5 + 1e-8)), 2.0 + 0.1], atol=1e-9)

    def test_zero_lr_leaves_parameters_bitwise(self):
        r = np.random.default_rng(0)
        p = Tensor(r.standard_normal(4), requires_grad=True)
        before = p.data.copy()
        opt = Adam([([("p", p)], 0.0)])
        for _ in range(5):
            p.grad = r.standard_normal(4)
            opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_missing_gradient_raises_and_changes_nothing(self):
        r = np.random.default_rng(1)
        p = Tensor(r.standard_normal(3), requires_grad=True)
        q = Tensor(r.standard_normal((2, 2)), requires_grad=True)
        opt = Adam([([("p", p), ("q", q)], 0.1)])
        p.grad, q.grad = r.standard_normal(3), r.standard_normal((2, 2))
        opt.step()
        p.grad, q.grad = r.standard_normal(3), None
        before = [a.copy() for a in (opt.values, opt.m, opt.v)]
        with pytest.raises(RuntimeError, match="'q'"):
            opt.step()
        assert opt.t == 1
        for a, b in zip((opt.values, opt.m, opt.v), before):
            np.testing.assert_array_equal(a, b)

    def test_rebound_parameter_raises_and_changes_nothing(self):
        # a tensor whose .data is replaced after make_optimizer no longer
        # sees the flat vector's updates; the step refuses it by name
        model = TwoStreamModel(ModelConfig(), seed=0)
        opt = make_optimizer(model, TrainConfig())
        _grads_of_one_batch(model)
        opt.step()
        model.head_weight.data = model.head_weight.data + 0.0
        _grads_of_one_batch(model)
        before = [a.copy() for a in (opt.values, opt.m, opt.v)]
        rebound = model.head_weight.data.copy()
        with pytest.raises(RuntimeError, match="'head.weight'"):
            opt.step()
        assert opt.t == 1
        for a, b in zip((opt.values, opt.m, opt.v), before):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.head_weight.data, rebound)

    def test_matches_per_tensor_loop_bitwise(self):
        # two learning-rate groups and a zero one; a 0-d gate and a 3-D
        # grouped weight; values and both moments bitwise after every step
        r = np.random.default_rng(2)
        shapes = [[(2, 4, 3), ()], [(5, 2), (2,)], [(4,)]]
        rates = [1e-2, 0.3, 0.0]
        init = [[r.standard_normal(s) for s in group] for group in shapes]

        def build(opt_cls):
            params = [[(f"g{i}.p{j}", Tensor(a, requires_grad=True)) for j, a in enumerate(group)]
                      for i, group in enumerate(init)]
            return params, opt_cls([(group, lr) for group, lr in zip(params, rates)])

        flat_params, flat = build(Adam)
        loop_params, loop = build(LoopAdam)
        pairs = [(fp, lp) for fg, lg in zip(flat_params, loop_params) for fp, lp in zip(fg, lg)]
        for _ in range(50):
            for (_, fp), (_, lp) in pairs:
                fp.grad = r.standard_normal(fp.shape)
                lp.grad = fp.grad.copy()
            flat.step()
            loop.step()
            for (name, fp), (_, lp) in pairs:
                np.testing.assert_array_equal(fp.data, lp.data)
                np.testing.assert_array_equal(flat.state[name]["m"], loop.state[name]["m"])
                np.testing.assert_array_equal(flat.state[name]["v"], loop.state[name]["v"])
        for (_, fp), init_value in zip(flat_params[2], init[2]):
            np.testing.assert_array_equal(fp.data, init_value)

    def test_train_matches_per_tensor_loop(self, monkeypatch):
        # the README config end to end: metric rows and every weight equal
        cfgs = ModelConfig(), TrainConfig(), DataConfig()
        flat = run_experiment(*cfgs)
        monkeypatch.setattr(tasks, "Adam", LoopAdam)
        loop = run_experiment(*cfgs)
        assert flat.rows == loop.rows
        assert flat.model.registry.state_hash(frozen_only=False) == loop.model.registry.state_hash(frozen_only=False)

    def test_loaded_weights_stay_in_the_optimizer_vector(self, tmp_path):
        model = TwoStreamModel(ModelConfig(), seed=0)
        opt = make_optimizer(model, TrainConfig())
        for _ in range(3):
            _grads_of_one_batch(model)
            opt.step()
        source = TwoStreamModel(ModelConfig(), seed=1)
        noise = np.random.default_rng(3)
        for _, t in site_views(source):
            t.data += 0.1 * noise.standard_normal(t.shape)
        source.save_weights(tmp_path / "w")
        model.load_weights(tmp_path / "w")
        loaded = {name: t.data.copy() for name, t in source.registry.trainable()}
        for name, t in model.registry.trainable():
            assert np.shares_memory(t.data, opt.values), name
            np.testing.assert_array_equal(t.data, loaded[name])
        _grads_of_one_batch(model)
        opt.step()
        for name, t in model.registry.trainable():
            assert np.shares_memory(t.data, opt.values), name
            assert not np.array_equal(t.data, loaded[name]), name

    def test_step_calls_do_not_grow_with_tensor_count(self):
        # ufuncs raise no profile events, but the builtin calls a per-tensor
        # loop makes (the old loop's dict lookups among them) do
        def step_calls(opt_cls, mode):
            model = TwoStreamModel(ModelConfig(mode=mode), seed=0)
            opt = make_optimizer(model, TrainConfig())
            if opt_cls is not Adam:
                opt = opt_cls(opt.groups)
            _grads_of_one_batch(model)
            calls = collections.Counter()

            def profile(frame, event, arg):
                if event in ("call", "c_call"):
                    calls[event] += 1

            sys.setprofile(profile)
            try:
                opt.step()
            finally:
                sys.setprofile(None)
            return sum(1 for _ in model.registry.trainable()), calls

        (many, readme), (few, head_only) = step_calls(Adam, "bidirectional"), step_calls(Adam, "none")
        assert (many, few) == (30, 2)
        assert readme == head_only
        assert step_calls(LoopAdam, "bidirectional")[1] != step_calls(LoopAdam, "none")[1]

    def test_per_group_learning_rates(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        q = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.ones(1)
        q.grad = np.ones(1)
        opt = Adam([([("p", p)], 0.1), ([("q", q)], 0.01)])
        opt.step()
        assert abs(float(p.data[0])) > 9 * abs(float(q.data[0]))

    def test_optimizer_only_sees_trainable(self):
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        opt = make_optimizer(model, TrainConfig())
        named = {name for params, _ in opt.groups for name, _ in params}
        assert named == {name for name, _ in model.registry.trainable()}
        assert not any(n.startswith("backbone.") for n in named)


def _grads_of_one_batch(model: TwoStreamModel) -> None:
    """Leave one 8-sample batch's gradients on the model's trainables."""
    batch = generate_dataset(5, 8, 0.1, model.cfg.image_hw, model.cfg.spec_hw)
    logits = model.logits(batch)
    model.registry.zero_grad()
    backward(cross_entropy_logits(logits, batch.labels))


class TestTrainLoop:
    def test_config_rejects_bad_learning_rates(self):
        # NaN, infinite, zero or negative rates would train a garbage model
        for name in ("lr_adapter", "lr_head"):
            for bad in (float("nan"), float("inf"), 0.0, -1.0, 10**400, "x", True):
                with pytest.raises(ValueError, match=name):
                    TrainConfig(**{name: bad}).validate()

    def test_config_rejects_bad_counts(self):
        for name, bad in (("steps", -1), ("batch_size", 0), ("eval_every", -1)):
            with pytest.raises(ValueError, match=f"{name} must be >= "):
                TrainConfig(**{name: bad}).validate()

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_config_rejects_a_seed_outside_64_bits(self, bad):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            TrainConfig(seed=bad).validate()
        TrainConfig(seed=2**64 - 1).validate()

    @pytest.mark.parametrize("name,bad", [("steps", 2.5), ("batch_size", 2.5), ("eval_every", 1.5), ("seed", 1.5),
                                          ("seed", True), ("steps", "3")])
    def test_config_rejects_a_count_that_is_not_an_integer(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            TrainConfig(**{name: bad}).validate()
        # numpy integers are integers
        TrainConfig(**{name: np.int64(3)}).validate()

    @pytest.mark.parametrize("name,bad,why", [
        ("train_count", 10.5, "must be an integer"), ("test_count", "8", "must be an integer"),
        ("train_count", True, "must be an integer"), ("train_count", 3, "must be >= 4"),
        ("test_count", np.int64(3), "must be >= 4"), ("noise", "0.1", "must be a number"),
        ("noise", None, "must be a number"), ("noise", float("nan"), "must be in [0, 1)"),
        ("noise", 1.0, "must be in [0, 1)"),
    ])
    def test_data_config_rejects_a_bad_count_or_noise(self, name, bad, why):
        with pytest.raises(FieldError, match=re.escape(f"{name} {why}")) as info:
            DataConfig(**{name: bad}).validate()
        assert info.value.field == name
        DataConfig(**{name: np.int64(4) if name != "noise" else np.float64(0.0)}).validate()

    def test_generate_dataset_names_a_count_that_is_not_an_integer(self):
        with pytest.raises(FieldError, match=r"count must be an integer, got 10\.5"):
            generate_dataset(0, 10.5, 0.1)

    def _tiny_run(self, mode="bidirectional", steps=3, seed=0, eval_every=0):
        mc = ModelConfig(mode=mode, **SMALL_MODEL)
        tc = TrainConfig(steps=steps, batch_size=4, seed=seed, eval_every=eval_every)
        tr = generate_dataset(0, 8, 0.1)
        te = generate_dataset(1, 4, 0.1)
        model = TwoStreamModel(mc, seed)
        rows = train(model, tr, te, tc)
        return model, rows

    def test_divergence_names_step_and_parameter(self):
        # lr 1e300 throws the adapters to ~1e300 in step 1; step 2's forward
        # then overflows into non-finite attention scores
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        tc = TrainConfig(steps=5, batch_size=4, lr_adapter=1e300)
        with pytest.raises(DivergenceError) as info:
            train(model, generate_dataset(0, 8, 0.1), generate_dataset(1, 4, 0.1), tc)
        msg = str(info.value)
        assert "at step 2" in msg and "non-finite" in msg
        # the named parameter is the first trainable one, in registry order,
        # with a non-finite value or gradient, or one past SQUARE_SAFE; an
        # adapter site's parameter by its own name
        first = next(name for name, t in site_views(model)
                     if any(a is not None and not (np.abs(a) <= SQUARE_SAFE).all() for a in (t.data, t.grad)))
        assert repr(first) in msg

    def test_non_finite_loss_is_divergence(self):
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        model.head_bias.data[0] = np.nan
        with pytest.raises(DivergenceError, match=r"at step 1: loss is nan.*'head\.bias' \(value"):
            train(model, generate_dataset(0, 8, 0.1), generate_dataset(1, 4, 0.1), TrainConfig(steps=2))

    def test_row_schema_and_final_eval(self):
        _, rows = self._tiny_run(steps=3)
        assert [r["step"] for r in rows] == [1, 2, 3, 3]
        assert [r["split"] for r in rows] == ["train", "train", "train", "test"]
        for r in rows:
            assert set(r) == set(METRICS_COLUMNS)
        assert rows[-1]["accuracy"] != ""

    def test_eval_every_inserts_rows(self):
        _, rows = self._tiny_run(steps=4, eval_every=2)
        evals = [r["step"] for r in rows if r["split"] == "test"]
        assert evals == [2, 4]

    def test_zero_steps_still_evaluates(self):
        _, rows = self._tiny_run(steps=0)
        assert len(rows) == 1 and rows[0]["split"] == "test" and rows[0]["step"] == 0

    def test_frozen_parameters_untouched_and_loss_moves(self):
        model, rows = self._tiny_run(steps=5)
        fresh = TwoStreamModel(ModelConfig(mode="bidirectional", **SMALL_MODEL), seed=0)
        for (name, a), (_, b) in zip(sorted(model.registry.frozen()), sorted(fresh.registry.frozen())):
            np.testing.assert_array_equal(a, b, err_msg=name)
        losses = [r["loss"] for r in rows if r["split"] == "train"]
        assert losses[0] != losses[-1]

    def test_training_is_seed_deterministic(self):
        m1, rows1 = self._tiny_run(steps=4, seed=5)
        m2, rows2 = self._tiny_run(steps=4, seed=5)
        assert rows1 == rows2
        np.testing.assert_array_equal(m1.head_weight.data, m2.head_weight.data)

    def test_final_test_accuracy_helper(self):
        _, rows = self._tiny_run(steps=2)
        assert final_test_accuracy(rows) == rows[-1]["accuracy"]
        with pytest.raises(ValueError):
            final_test_accuracy([])

    def test_evaluate_counts_argmax_hits(self):
        mc = ModelConfig(mode="none", **SMALL_MODEL)
        model = TwoStreamModel(mc, seed=0)
        data = generate_dataset(2, 4, 0.1)
        acc = evaluate(model, data)
        assert 0.0 <= acc <= 1.0
        assert acc * 4 == int(acc * 4)

    def test_evaluate_hits_match_chunks_and_single_samples(self):
        # the whole set in one call, 16-sample requests and per-sample argmax
        # all count the same hits
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        noise = np.random.default_rng(3)
        for _, t in site_views(model):
            t.data += 0.5 * noise.standard_normal(t.shape)
        data = generate_dataset(3, 40, 0.3)
        whole = round(evaluate(model, data) * len(data))
        chunks = sum(round(evaluate(model, data[i : i + 16]) * len(data[i : i + 16])) for i in range(0, 40, 16))
        singles = sum(int(np.argmax(model.logits(data[i:i + 1]).data[0]) == data.labels[i]) for i in range(40))
        assert whole == chunks == singles
        assert 0 < whole < len(data)

    def test_step_graph_is_freed_before_the_next_forward(self, monkeypatch):
        # backward releases the graph and train names no node of it past the
        # step, so each step's logits node is gone before the next forward
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        real, refs = model.logits, []

        def spy(batch):
            assert [r() for r in refs] == [None] * len(refs)
            out = real(batch)
            if out.requires_grad:
                refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(model, "logits", spy)
        train(model, generate_dataset(0, 8, 0.1), generate_dataset(1, 4, 0.1), TrainConfig(steps=3, batch_size=4))
        assert len(refs) == 3

    @pytest.mark.parametrize("empty", ["train_samples", "test_samples"])
    def test_train_refuses_an_empty_sample_list_before_any_step(self, monkeypatch, empty):
        # an empty test set used to train every step, then divide by zero
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        calls = []
        monkeypatch.setattr(model, "logits", lambda batch: calls.append(batch))
        before = {name: t.data.copy() for name, t in model.registry.trainable()}
        data = {"train_samples": generate_dataset(0, 8, 0.1), "test_samples": generate_dataset(1, 4, 0.1)}
        data[empty] = data[empty][:0]
        with pytest.raises(ValueError, match=f"train: {empty} is empty"):
            train(model, data["train_samples"], data["test_samples"], TrainConfig(steps=200, batch_size=4))
        assert calls == []
        for name, t in model.registry.trainable():
            np.testing.assert_array_equal(t.data, before[name], err_msg=name)

    def test_evaluate_refuses_an_empty_sample_list(self, monkeypatch):
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        calls = []
        monkeypatch.setattr(model, "logits", lambda batch: calls.append(batch))
        with pytest.raises(ValueError, match="evaluate: samples is empty"):
            evaluate(model, generate_dataset(0, 4, 0.1)[4:])
        assert calls == []

    def test_evaluate_records_no_graph(self, monkeypatch):
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        seen = []
        real = model.logits

        def spy(batch):
            out = real(batch)
            seen.append((len(batch), out.requires_grad))
            return out

        monkeypatch.setattr(model, "logits", spy)
        evaluate(model, generate_dataset(4, 20, 0.1))
        assert seen == [(16, False), (4, False)]
        assert model.logits(generate_dataset(5, 4, 0.1)).requires_grad


class TestMetricsCsv:
    def test_header_and_layout(self):
        _, rows = TestTrainLoop()._tiny_run(steps=2)
        text = csv_text(METRICS_COLUMNS, rows)
        lines = text.split("\n")
        assert lines[0] == "step,loss,split,accuracy,mode,m,seed"
        assert text.endswith("\n") and "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "train" and first[3] == ""

    def test_floats_round_trip(self):
        _, rows = TestTrainLoop()._tiny_run(steps=2)
        text = csv_text(METRICS_COLUMNS, rows)
        line = text.split("\n")[1].split(",")
        assert float(line[1]) == rows[0]["loss"]


class TestRunExperiment:
    def test_end_to_end_small(self):
        res = run_experiment(
            ModelConfig(mode="none", **SMALL_MODEL),
            TrainConfig(steps=2, batch_size=4, seed=0),
            DataConfig(train_count=8, test_count=4, noise=0.1),
        )
        assert 0.0 <= res.test_accuracy <= 1.0
        assert res.model.cfg.mode == "none"

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_refuses_a_seed_outside_64_bits_before_any_data(self, monkeypatch, bad):
        monkeypatch.setattr(tasks, "generate_dataset", lambda *a, **k: pytest.fail("generated data"))
        with pytest.raises(ValueError, match="seed must be in"):
            run_experiment(ModelConfig(mode="none", **SMALL_MODEL), TrainConfig(seed=bad), DataConfig())

    @pytest.mark.parametrize("bad", [dict(image_hw=(8, 8, 8)), dict(spec_hw=(8,)), dict(layers=True),
                                     dict(width=8.0)])
    def test_refuses_a_malformed_model_config_before_any_data(self, monkeypatch, bad):
        monkeypatch.setattr(tasks, "generate_dataset", lambda *a, **k: pytest.fail("generated data"))
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be "):
            run_experiment(ModelConfig(**{**SMALL_MODEL, **bad}), TrainConfig(), DataConfig())

    def test_refuses_a_small_test_set_before_any_data(self, monkeypatch):
        # the train set would be drawn in full before the test count failed
        monkeypatch.setattr(tasks, "generate_dataset", lambda *a, **k: pytest.fail("generated data"))
        with pytest.raises(ValueError, match="test_count must be >= 4, got 3"):
            run_experiment(ModelConfig(mode="none", **SMALL_MODEL), TrainConfig(), DataConfig(test_count=3))

    def test_train_and_test_data_disjoint_streams(self):
        tr = generate_dataset(derive_seed(0, "train-data"), 8, 0.1)
        te = generate_dataset(derive_seed(0, "test-data"), 8, 0.1)
        assert not any(np.array_equal(a, b) for a in tr.images for b in te.images)
