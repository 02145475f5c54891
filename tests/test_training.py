import math
import tracemalloc
import weakref

import numpy as np
import pytest

from rotoconv import training
from rotoconv.basis import populate_partial
from rotoconv.datasets import LabeledImageSet, synthetic_labeled_set
from rotoconv.groups import rotate_exact90
from rotoconv.network import build_model
from rotoconv.optim import AMSGrad
from rotoconv.tensor import Tensor
from rotoconv.training import (TrainConfig, TrainingDivergence, augment,
                               channel_stats, evaluate, model_input, normalize, rotate_images,
                               train, write_training_csv)
from rotoconv.verify import small_group_model

from oracles import Float64AMSGrad, rotation_dense_matrix


class TestAugment:
    def test_all_flags_off_is_identity(self, rng):
        batch = rng.random((5, 1, 8, 8)).astype(np.float32)
        out = augment(batch, TrainConfig(), np.random.default_rng(0))
        assert np.array_equal(out, batch)

    def test_translation_moves_impulse(self):
        batch = np.zeros((1, 1, 9, 9), dtype=np.float32)
        batch[0, 0, 4, 4] = 1.0
        cfg = TrainConfig(max_translate=4)
        seen = set()
        for seed in range(40):
            out = augment(batch, cfg, np.random.default_rng(seed))
            ys, xs = np.nonzero(out[0, 0])
            assert len(ys) == 1
            dy, dx = int(ys[0]) - 4, int(xs[0]) - 4
            assert -4 <= dy <= 4 and -4 <= dx <= 4
            assert out[0, 0, 4 + dy, 4 + dx] == 1.0
            seen.add((dy, dx))
        assert len(seen) > 5

    def test_translation_zero_fills(self):
        batch = np.ones((1, 1, 6, 6), dtype=np.float32)
        cfg = TrainConfig(max_translate=4)
        out = augment(batch, cfg, np.random.default_rng(1))
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_quarter_mode_is_exact_permutation(self, rng):
        batch = rng.random((6, 1, 8, 8)).astype(np.float32)
        cfg = TrainConfig(rotation_augment="quarter")
        out = augment(batch, cfg, np.random.default_rng(3))
        for img, got in zip(batch, out):
            candidates = [rotate_exact90(img, q) for q in range(4)]
            assert any(np.array_equal(got, c) for c in candidates)

    def test_flip_reverses_columns(self, rng):
        batch = rng.random((8, 1, 6, 6)).astype(np.float32)
        cfg = TrainConfig(flip=True)
        out = augment(batch, cfg, np.random.default_rng(0))
        for img, got in zip(batch, out):
            assert np.array_equal(got, img) or np.array_equal(got, img[..., ::-1])

    def test_normalization_uses_given_stats(self, rng):
        batch = rng.random((4, 3, 6, 6)).astype(np.float32)
        model = TestEvaluate.StubModel("float32", channel_stats(batch))
        cfg = TrainConfig(color_normalize=True)
        out = model_input(model, augment(batch, cfg, np.random.default_rng(0)))
        assert np.abs(out.mean(axis=(0, 2, 3))).max() <= 1e-5

    def test_full_mode_runs(self, rng):
        batch = rng.random((2, 1, 9, 9)).astype(np.float32)
        cfg = TrainConfig(rotation_augment="full")
        out = augment(batch, cfg, np.random.default_rng(2))
        assert out.shape == batch.shape

    @pytest.mark.parametrize("mode", ["eighth", "full"])
    def test_rotation_matches_oracle(self, rng, mode):
        batch = rng.random((5, 2, 9, 9)).astype(np.float32)
        out = augment(batch, TrainConfig(rotation_augment=mode), np.random.default_rng(4))
        draw = np.random.default_rng(4)
        if mode == "eighth":
            angles = 2 * math.pi * draw.integers(0, 8, size=5) / 8
        else:
            angles = draw.uniform(0.0, 2 * math.pi, size=5)
        assert out.dtype == np.float32
        for img, got, angle in zip(batch, out, angles):
            oracle = rotation_dense_matrix(9, float(angle), "gaussian")
            expect = (img.astype(np.float64).reshape(-1, 81) @ oracle.T).reshape(img.shape)
            assert np.abs(got - expect).max() <= 1e-6, angle

    @pytest.mark.parametrize("mode", ["quarter", "eighth", "full"])
    def test_non_square_rejected(self, rng, mode):
        batch = rng.random((3, 1, 8, 10)).astype(np.float32)
        with pytest.raises(ValueError, match="square"):
            augment(batch, TrainConfig(rotation_augment=mode), np.random.default_rng(0))

    def test_deterministic_given_generator_seed(self, rng):
        batch = rng.random((4, 1, 8, 8)).astype(np.float32)
        cfg = TrainConfig(flip=True, max_translate=2, rotation_augment="eighth")
        a = augment(batch, cfg, np.random.default_rng(7))
        b = augment(batch, cfg, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestRotateImages:
    @pytest.mark.parametrize("angle", [0.0, 45.0, 90.0, 137.0])
    def test_non_square_rejected(self, rng, angle):
        with pytest.raises(ValueError, match="square"):
            rotate_images(rng.random((8, 1, 28, 32)), angle)

    def test_quarter_turns_are_exact(self, rng):
        stack = rng.random((3, 2, 7, 7)).astype(np.float32)
        for q in range(4):
            assert np.array_equal(rotate_images(stack, 90.0 * q), rotate_exact90(stack, q))


class TestAMSGrad:
    SHAPES = [(4, 3, 3), (6,), (2, 5)]

    def run(self, optimizer_type, dtype, steps=3, weight_decay=1e-2, seed=0):
        """``steps`` steps of ``optimizer_type`` on parameters of SHAPES in ``dtype``, each fed
        a fresh copy of the same gradients (a step may write into them) -> (parameters,
        then m, v and v_max), as arrays."""
        rng = np.random.default_rng(seed)
        params = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                  for s in self.SHAPES]
        grads = [[rng.standard_normal(s) * 10.0 ** rng.integers(-4, 2) for s in self.SHAPES]
                 for _ in range(steps)]
        optimizer = optimizer_type(params, 1e-3, weight_decay)
        for step in grads:
            for p, g in zip(params, step):
                p.grad = g.astype(dtype)
            optimizer.step()
        return [p.data for p in params], optimizer.m, optimizer.v, optimizer.v_max

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_moments_in_parameter_dtype_updated_in_place(self, dtype):
        optimizer = AMSGrad([Tensor(np.zeros(s, dtype), requires_grad=True)
                             for s in self.SHAPES])
        state = [list(optimizer.m), list(optimizer.v), list(optimizer.v_max)]
        rng = np.random.default_rng(1)
        for _ in range(3):
            for p in optimizer.params:
                p.grad = rng.standard_normal(p.data.shape).astype(dtype)
            optimizer.step()
        for before, after in zip(state, (optimizer.m, optimizer.v, optimizer.v_max)):
            assert all(a is b for a, b in zip(before, after))
            assert [a.dtype for a in after] == [np.dtype(dtype)] * len(self.SHAPES)
            assert all(np.any(a != 0) for a in after)

    def test_float64_steps_bitwise_the_float64_formula(self):
        for got, want in zip(self.run(AMSGrad, "float64"), self.run(Float64AMSGrad, "float64")):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_float32_steps_near_the_float64_formula(self):
        """Float32 moments move a float32 parameter by the float64 formula's step to within
        one rounding of the parameter: over 50 seeds the parameters differed by at most
        1.2e-7 (one float32 ulp in [1, 2)) after steps of up to 3e-3, and the moments by
        at most 9e-6 relative (the first moment, where weight decay nearly cancels g)."""
        (got, *got_moments), (want, *want_moments) = (self.run(AMSGrad, "float32"),
                                                      self.run(Float64AMSGrad, "float32"))
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=2.5e-7)
        for a, b in zip(sum(got_moments, []), sum(want_moments, [])):
            np.testing.assert_allclose(a, b, rtol=3e-5)


class TestTrain:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -1), ("batch_size", 0),
        ("epochs", 1.5), ("epochs", True), ("batch_size", 2.5), ("batch_size", True),
        ("learning_rate", -5.0), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("weight_decay", -1e-6), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("max_translate", 2.5), ("max_translate", True)])
    def test_config_range_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_learning_rate_keeps_parameters(self, partial_basis):
        ds = synthetic_labeled_set(20, 8, 4, seed=0)
        model = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        before = [p.data.copy() for p in model.parameters()]
        train(model, ds, TrainConfig(epochs=2, batch_size=10, learning_rate=0.0, seed=0))
        assert all(np.array_equal(a, p.data)
                   for a, p in zip(before, model.parameters()))

    def test_overfits_ten_images(self, partial_basis):
        ds = synthetic_labeled_set(10, 12, 3, seed=1)
        model = small_group_model(partial_basis, channels=(4, 6), classes=3,
                                  seed=5, dtype="float32")
        rows = train(model, ds, TrainConfig(epochs=200, batch_size=10,
                                            learning_rate=1e-2, seed=0))
        assert rows[-1]["train_acc"] == 1.0

    def test_basis_frozen_during_training(self, partial_basis):
        ds = synthetic_labeled_set(20, 8, 4, seed=0)
        model = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        before = partial_basis.elements.tobytes()
        train(model, ds, TrainConfig(epochs=2, batch_size=10, seed=0))
        assert partial_basis.elements.tobytes() == before

    def test_deterministic_given_seed(self, partial_basis):
        ds = synthetic_labeled_set(20, 8, 4, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=10, learning_rate=1e-3, seed=6)
        m1 = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        r1 = train(m1, ds, cfg)
        m2 = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        r2 = train(m2, ds, cfg)
        assert r1 == r2
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(m1.parameters(), m2.parameters()))

    def test_non_finite_inputs_abort(self, partial_basis):
        ds = synthetic_labeled_set(10, 8, 2, seed=0)
        ds.images[0, 0, 0, 0] = np.nan
        model = small_group_model(partial_basis, classes=2, seed=1, dtype="float32")
        with pytest.raises(TrainingDivergence):
            train(model, ds, TrainConfig(epochs=1, batch_size=10, seed=0))

    def test_batch_graph_freed_before_next_forward(self, partial_basis, monkeypatch):
        ds = synthetic_labeled_set(8, 8, 2, seed=0)
        model = small_group_model(partial_basis, classes=2, seed=1, dtype="float32")
        first = model.layers[0]
        forward = first.forward
        earlier, alive = [], []

        def spy(x, training):
            alive.append([ref() is not None for ref in earlier])
            out = forward(x, training)
            earlier.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(first, "forward", spy)
        train(model, ds, TrainConfig(epochs=1, batch_size=4, seed=0))
        assert alive == [[], [False]]

    def test_group_model_step_memory(self):
        """One float32 step of the full group model, B=2 at 3x32x32, allocates a traced peak
        of 57.89 MiB (60,698,136 bytes; the peak repeats to within 10 KB), bounded
        here with 5% to spare. With float64 AMSGrad moments rebuilt every step, the
        previous step's gradients held through the forward, and a BatchNorm adjoint that
        held four map-sized arrays and then copied its result, it was 73.45 MiB
        (77,018,328 bytes)."""
        basis = populate_partial(np.random.default_rng(11).uniform(-1.0, 1.0, (2, 9, 3, 3)))
        model = build_model("group", "partial", basis, in_channels=3, seed=0)
        ds = synthetic_labeled_set(2, 32, 10, seed=0, channels=3)
        config = TrainConfig(epochs=1, batch_size=2, flip=True, max_translate=4, seed=0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train(model, ds, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.05 * 60_698_136

    def test_input_stats_normalize_batches_without_color_normalize(self, partial_basis):
        """A model that brings input statistics (a resumed checkpoint's) trains on
        normalized batches, as ``evaluate`` reads them, with the flag off."""
        ds = synthetic_labeled_set(8, 8, 4, seed=0)
        model = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        model.input_stats = (np.array([5.0]), np.array([2.0]))
        batches = []
        forward = model.forward
        model.forward = lambda x, training=False: batches.append(x.data) or forward(x, training)
        train(model, ds, TrainConfig(epochs=1, batch_size=8, seed=0))
        want = normalize(ds.images, model.input_stats)
        assert np.array_equal(np.sort(batches[0], axis=None), np.sort(want, axis=None))

    @pytest.mark.parametrize("train_classes, val_classes, split", [(10, 4, "train"),
                                                                   (4, 10, "test")])
    def test_class_count_checked_before_the_first_step(self, partial_basis, train_classes,
                                                       val_classes, split):
        train_set = synthetic_labeled_set(8, 8, train_classes, seed=0)
        val_set = synthetic_labeled_set(8, 8, val_classes, seed=0, split="test")
        model = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match=f"classes=4, but the {split} set has 10 classes"):
            train(model, train_set, TrainConfig(epochs=1, batch_size=8, seed=0), val_set)
        assert all(np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))

    def test_log_csv(self, tmp_path, partial_basis):
        ds = synthetic_labeled_set(20, 8, 4, seed=0)
        model = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        path = tmp_path / "log.csv"
        rows = train(model, ds, TrainConfig(epochs=2, batch_size=10, seed=0), val_set=ds)
        write_training_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_acc"
        assert len(lines) == 3


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self, partial_basis):
        ds = synthetic_labeled_set(50, 8, 10, seed=0)
        model = small_group_model(partial_basis, classes=10, seed=1, dtype="float32")
        for p in model.parameters():
            p.data[...] = 0.0
        result = evaluate(model, ds)
        assert result.accuracy == pytest.approx(0.1)

    def test_deterministic(self, partial_basis):
        ds = synthetic_labeled_set(30, 8, 5, seed=2)
        model = small_group_model(partial_basis, classes=5, seed=3, dtype="float32")
        a = evaluate(model, ds)
        b = evaluate(model, ds)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.confusion, b.confusion)

    def test_confusion_rows_sum_to_class_counts(self, partial_basis):
        ds = synthetic_labeled_set(40, 8, 5, seed=2)
        model = small_group_model(partial_basis, classes=5, seed=3, dtype="float32")
        result = evaluate(model, ds)
        assert np.array_equal(result.confusion.sum(axis=1),
                              np.bincount(ds.labels, minlength=5))
        assert result.n == 40

    def test_normalization_stats_applied(self, partial_basis, rng):
        ds = synthetic_labeled_set(20, 8, 4, seed=0)
        model = small_group_model(partial_basis, classes=4, seed=1, dtype="float32")
        plain = evaluate(model, ds)
        model.input_stats = (np.array([5.0]), np.array([2.0]))
        shifted = evaluate(model, ds)
        assert not np.array_equal(plain.confusion, shifted.confusion) or \
            plain.accuracy == shifted.accuracy

    def test_logits_of_another_class_count_rejected(self):
        ds = LabeledImageSet(np.zeros((4, 1, 2, 2), np.float32), np.arange(4), "test", 4)
        with pytest.raises(ValueError, match="classes=10, but the test set has 4 classes"):
            evaluate(self.StubModel("float32", None), ds)

    class StubModel:
        """What ``evaluate`` reads of a model: its dtype, input statistics and a forward
        that returns constant logits, keeping a copy of each input batch when asked."""

        def __init__(self, dtype, input_stats, keep=False):
            self.dtype = np.dtype(dtype)
            self.input_stats = input_stats
            self.batches = [] if keep else None

        def forward(self, x, training):
            if self.batches is not None:
                self.batches.append(x.data.copy())
            return Tensor(np.zeros((x.data.shape[0], 10), dtype=self.dtype))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_batches_equal_whole_set_normalization_bitwise(self, dtype, monkeypatch):
        """Converting and normalizing batch by batch feeds the forward the very
        inputs that normalizing the whole converted set did, so logits are unchanged."""
        ds = synthetic_labeled_set(50, 8, 10, seed=0, channels=3)
        stats = channel_stats(ds.images)
        model = self.StubModel(dtype, stats, keep=True)
        monkeypatch.setattr(training, "_EVAL_BATCH", 16)
        evaluate(model, ds)
        want = normalize(ds.images.astype(dtype), stats)
        assert [len(b) for b in model.batches] == [16, 16, 16, 2]
        got = np.concatenate(model.batches)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_holds_one_batch(self):
        """A normalized float32 set of 2000 images is never copied or normalized whole:
        the traced peak stays under half the set's own bytes (the whole-set copy and
        its float64 temporaries took about five times them)."""
        images = np.random.default_rng(0).random((2000, 3, 16, 16)).astype(np.float32)
        ds = LabeledImageSet(images, np.arange(2000) % 10, "test")
        model = self.StubModel("float32", channel_stats(images))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = evaluate(model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n == 2000
        assert peak - start <= images.nbytes // 2
