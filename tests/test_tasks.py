"""Synthetic task, optimizer, and training-loop tests."""
import math

import numpy as np
import pytest

from avfuse.autodiff import Rng, Tensor, derive_seed
from avfuse.model import ModelConfig, TwoStreamModel
from avfuse.tasks import (
    SQUARE_SAFE,
    Adam,
    DataConfig,
    DivergenceError,
    TrainConfig,
    audio_template,
    evaluate,
    final_test_accuracy,
    generate_dataset,
    make_optimizer,
    metrics_to_csv,
    run_experiment,
    train,
    visual_template,
    xnor_label,
    METRICS_COLUMNS,
)


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
        pairs = [(s.audio_class, s.visual_class) for s in data]
        for combo in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert pairs.count(combo) == 16
        assert sum(s.label for s in data) == 32
        for s in data:
            assert s.label == xnor_label(s.audio_class, s.visual_class)

    def test_deterministic_and_seed_sensitive(self):
        a = generate_dataset(3, 8, 0.1)
        b = generate_dataset(3, 8, 0.1)
        c = generate_dataset(4, 8, 0.1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.image.pixels, y.image.pixels)
            np.testing.assert_array_equal(x.spectrogram.values, y.spectrogram.values)
        assert any(
            not np.array_equal(x.image.pixels, y.image.pixels) for x, y in zip(a, c)
        )

    def test_noise_zero_gives_clean_templates(self):
        data = generate_dataset(0, 4, 0.0)
        for s in data:
            np.testing.assert_array_equal(s.image.pixels, visual_template(s.visual_class, (8, 8)))
            np.testing.assert_array_equal(s.spectrogram.values, audio_template(s.audio_class, (8, 8)))

    def test_images_stay_in_range(self):
        data = generate_dataset(1, 16, 0.5)
        for s in data:
            assert s.image.pixels.min() >= 0.0 and s.image.pixels.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(0, 3, 0.1)
        with pytest.raises(ValueError):
            generate_dataset(0, 8, 1.5)


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
        labels = []
        for s in data:
            img = s.image.pixels.reshape(-1, 3).mean(axis=0)
            spec = s.spectrogram.values.reshape(-1).mean(keepdims=True)
            # include per-class discriminative stats, not just global means:
            # column/row contrast picks the orientation out of each stream
            vcol = s.image.pixels[:, ::2, :].mean() - s.image.pixels[:, 1::2, :].mean()
            vrow = s.image.pixels[::2, :, :].mean() - s.image.pixels[1::2, :, :].mean()
            acol = s.spectrogram.values[:, ::2].mean() - s.spectrogram.values[:, 1::2].mean()
            arow = s.spectrogram.values[::2, :].mean() - s.spectrogram.values[1::2, :].mean()
            feats.append(np.concatenate([img, spec, [vcol, vrow, acol, arow]]))
            labels.append(s.label)
        x = np.asarray(feats)
        x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-9)
        y = np.asarray(labels, dtype=float)
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
        x = np.stack(
            [
                np.array(
                    [s.audio_class == 0, s.audio_class == 1, s.visual_class == 0, s.visual_class == 1],
                    dtype=float,
                )
                for s in data
            ]
        )
        y = np.asarray([s.label for s in data], dtype=float)
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

    def test_skips_parameters_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(2)
        opt = Adam([([("p", p), ("q", q)], 0.1)])
        opt.step()
        assert "p" in opt.state and "q" not in opt.state
        np.testing.assert_array_equal(q.data, np.ones(2))

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


class TestTrainLoop:
    def test_config_rejects_bad_learning_rates(self):
        # NaN, infinite, zero or negative rates would train a garbage model
        for name in ("lr_adapter", "lr_head"):
            for bad in (float("nan"), float("inf"), 0.0, -1.0):
                with pytest.raises(ValueError, match=name):
                    TrainConfig(**{name: bad}).validate()

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
        # with a non-finite value or gradient, or one past SQUARE_SAFE
        first = next(name for name, t in model.registry.trainable()
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
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)
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
        for _, t in model.registry.trainable():
            t.data = t.data + 0.5 * noise.standard_normal(t.shape)
        data = generate_dataset(3, 40, 0.3)
        whole = round(evaluate(model, data) * len(data))
        chunks = sum(round(evaluate(model, data[i : i + 16]) * len(data[i : i + 16])) for i in range(0, 40, 16))
        singles = sum(int(np.argmax(model.logits(s.image, s.spectrogram).data[0]) == s.label) for s in data)
        assert whole == chunks == singles
        assert 0 < whole < len(data)

    def test_evaluate_records_no_graph(self, monkeypatch):
        model = TwoStreamModel(ModelConfig(**SMALL_MODEL), seed=0)
        seen = []
        real = model.logits_batch

        def spy(pairs):
            out = real(pairs)
            seen.append((len(pairs), out.requires_grad))
            return out

        monkeypatch.setattr(model, "logits_batch", spy)
        evaluate(model, generate_dataset(4, 20, 0.1))
        assert seen == [(16, False), (4, False)]
        assert model.logits_batch(
            [(s.image, s.spectrogram) for s in generate_dataset(5, 4, 0.1)]).requires_grad


class TestMetricsCsv:
    def test_header_and_layout(self):
        _, rows = TestTrainLoop()._tiny_run(steps=2)
        text = metrics_to_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "step,loss,split,accuracy,mode,m,seed"
        assert text.endswith("\n") and "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "train" and first[3] == ""

    def test_floats_round_trip(self):
        _, rows = TestTrainLoop()._tiny_run(steps=2)
        text = metrics_to_csv(rows)
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

    def test_train_and_test_data_disjoint_streams(self):
        tr = generate_dataset(derive_seed(0, "train-data"), 8, 0.1)
        te = generate_dataset(derive_seed(0, "test-data"), 8, 0.1)
        assert not any(
            np.array_equal(a.image.pixels, b.image.pixels) for a in tr for b in te
        )
