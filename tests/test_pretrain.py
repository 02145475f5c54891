import math
import tracemalloc
import weakref

import numpy as np
import pytest

from rotoconv import tensor as T
from rotoconv.basis import Basis, check_partial_tying, initialize_elements, populate_partial
from rotoconv.datasets import synthetic_image_corpus
from rotoconv.groups import RotationOperators, crop_margin
from rotoconv.pretrain import (PretrainConfig, PretrainDivergence, _ops_for,
                               _probe_equiv, basis_slots, corpus_images,
                               equivariance_loss, image_terms, orthogonality_term, pretrain,
                               reconstruction_loss, total_loss, write_loss_csv)
from rotoconv.tensor import Tensor

from oracles import (brute_correlate2d, equivariance_term, pair_maps, reconstruction_term,
                     rotation_dense_matrix)


def rotate_via_oracle(images, s, size):
    m = rotation_dense_matrix(size, s * math.pi / 4.0)
    flat = images.reshape(-1, size * size).T
    return (m @ flat).T.reshape(images.shape)


def equiv_loss_oracle(images, elements, s, r, crop_fraction=0.25):
    """Both branches via dense operators and loop convolution."""
    b, _, h, _ = images.shape
    kernels = elements[:, :, None]  # [8, N, 1, k, k]
    branch_a = brute_correlate2d(rotate_via_oracle(images, s, h), kernels[r % 8])
    inner = brute_correlate2d(images, kernels[(r - s) % 8])
    branch_b = rotate_via_oracle(inner, s, h)
    m = crop_margin(h, crop_fraction)
    diff = (branch_a - branch_b)[..., m:h - m, m:h - m]
    return float(np.abs(diff).sum()) / (b * diff.shape[-1] * diff.shape[-2])


def rec_loss_oracle(images, elements, s, r, crop_fraction=0.25):
    b, _, h, _ = images.shape
    kernels = elements[:, :, None]
    target = rotate_via_oracle(images, s, h)
    inner = brute_correlate2d(images, kernels[(r - s) % 8])
    rotated = rotate_via_oracle(inner, s, h)
    k = elements.shape[-1]
    flipped = kernels[r % 8][:, :, ::-1, ::-1]  # [N,1,k,k] -> adjoint kernel [1,N,k,k]
    recon = brute_correlate2d(rotated, flipped.transpose(1, 0, 2, 3))
    m = crop_margin(h, crop_fraction)
    diff = (target - recon)[..., m:h - m, m:h - m]
    return float(np.abs(diff).sum()) / (b * diff.shape[-1] * diff.shape[-2])


class TestEquivarianceLoss:
    def test_unrotated_image_branch_is_zero(self, small_corpus, partial_basis):
        for r in range(8):
            assert equivariance_loss(small_corpus, partial_basis, 0, r) == 0.0

    def test_exact_subgroup_is_zero_for_partial(self, small_corpus, partial_basis):
        for s in (2, 4, 6):
            for r in (0, 2, 4, 6):
                assert equivariance_loss(small_corpus, partial_basis, s, r) <= 1e-6

    def test_random_basis_matches_dense_oracle(self, rng, small_corpus):
        elements = rng.uniform(-1, 1, (8, 3, 3, 3))
        basis = Basis(elements, "full")
        got = equivariance_loss(small_corpus, basis, 1, 1)
        expect = equiv_loss_oracle(small_corpus[:, None].astype(np.float64), elements, 1, 1)
        assert got > 0.0
        assert abs(got - expect) <= 1e-10 * max(expect, 1.0)

    def test_general_pair_matches_oracle(self, rng, small_corpus):
        elements = rng.uniform(-1, 1, (8, 2, 3, 3))
        basis = Basis(elements, "full")
        for s, r in [(1, 4), (3, 0), (5, 7)]:
            got = equivariance_loss(small_corpus, basis, s, r)
            expect = equiv_loss_oracle(small_corpus[:, None].astype(np.float64),
                                       elements, s, r)
            assert abs(got - expect) <= 1e-10 * max(expect, 1.0)


class TestReconstructionLoss:
    def test_dirac_reconstructs_exactly(self, small_corpus):
        elements = np.zeros((8, 1, 3, 3))
        elements[:, 0, 1, 1] = 1.0
        basis = Basis(elements, "full")
        assert reconstruction_loss(small_corpus, basis, 0, 0) == 0.0

    def test_zero_images_zero_loss(self, partial_basis):
        assert reconstruction_loss(np.zeros((2, 10, 10)), partial_basis, 1, 3) == 0.0

    def test_matches_dense_oracle(self, rng, small_corpus):
        elements = rng.uniform(-1, 1, (8, 3, 3, 3))
        basis = Basis(elements, "full")
        got = reconstruction_loss(small_corpus, basis, 1, 2)
        expect = rec_loss_oracle(small_corpus[:, None].astype(np.float64), elements, 1, 2)
        assert abs(got - expect) <= 1e-10 * max(expect, 1.0)


class TestTotalLoss:
    def test_zero_basis_assembly(self, small_corpus):
        n = 4
        basis = Basis(np.zeros((8, n, 3, 3)), "full")
        terms = total_loss(small_corpus, basis, 1, 1)
        assert terms["equiv"] == 0.0
        assert terms["orth"] == 8 * n
        h = small_corpus.shape[-1]
        m = crop_margin(h, 0.25)
        rotated = rotate_via_oracle(small_corpus[:, None].astype(np.float64), 1, h)
        cropped = rotated[..., m:h - m, m:h - m]
        expect_rec = float(np.abs(cropped).sum()) / (len(small_corpus) * cropped.shape[-1] ** 2)
        assert abs(terms["rec"] - expect_rec) <= 1e-10
        assert abs(terms["total"] - (terms["equiv"] + terms["orth"] + terms["rec"])) <= 1e-9

    def test_weights_select_terms(self, rng, small_corpus):
        basis = Basis(rng.uniform(-1, 1, (8, 3, 3, 3)), "full")
        cfg = PretrainConfig(n_elements=3, loss_weights=(1.0, 0.0, 0.0))
        terms = total_loss(small_corpus, basis, 2, 5, cfg)
        assert abs(terms["total"] - terms["equiv"]) <= 1e-12


@pytest.mark.parametrize("evaluator", [total_loss, equivariance_loss, reconstruction_loss])
def test_evaluators_reject_config_order_other_than_the_basis(small_corpus, partial_basis,
                                                             evaluator):
    cfg = PretrainConfig(order=4, n_elements=4)
    with pytest.raises(ValueError, match="config order 4 .* basis order 8"):
        evaluator(small_corpus, partial_basis, 1, 3, cfg)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("evaluator", [total_loss, equivariance_loss, reconstruction_loss])
def test_evaluators_chunked_equal_full_batch_graph_bitwise(small_corpus, partial_basis,
                                                           evaluator, dtype):
    """Batches of 7 leave a short last chunk of the 24 images; each value is still the
    full-batch graph reference's, bit for bit."""
    cfg = PretrainConfig(n_elements=4, batch_size=7)
    images = corpus_images(small_corpus, dtype)
    slots = Tensor(partial_basis.elements.astype(dtype), requires_grad=True)
    ops = _ops_for(images, cfg)
    margin = crop_margin(images.shape[-1], cfg.crop_fraction)
    for s, r in [(1, 1), (3, 6), (2, 5), (0, 3)]:
        maps = pair_maps(Tensor(images), slots, ops, s, r)
        equiv = equivariance_term(*maps, margin).item()
        rec = reconstruction_term(*maps, margin).item()
        got = evaluator(small_corpus, partial_basis, s, r, cfg, dtype)
        if evaluator is total_loss:
            assert (got["equiv"].hex(), got["rec"].hex()) == (equiv.hex(), rec.hex())
        else:
            want = equiv if evaluator is equivariance_loss else rec
            assert got.hex() == want.hex()


def test_one_draw_terms_equal_graph_reference_bitwise(small_corpus, partial_basis):
    from rotoconv.pretrain import equivariance_term as one_draw_equiv
    from rotoconv.pretrain import reconstruction_term as one_draw_rec

    images = corpus_images(small_corpus, "float64")
    slots = Tensor(partial_basis.elements, requires_grad=True)
    ops = RotationOperators(images.shape[-1], 8)
    maps = pair_maps(Tensor(images), slots, ops, 3, 6)
    for got, want in [(one_draw_equiv, equivariance_term),
                      (one_draw_rec, reconstruction_term)]:
        term = got(images, slots, ops, 3, 6, 4)
        assert term.requires_grad
        assert term.item().hex() == want(*maps, 4).item().hex()


def _image_terms_of(images, basis, s, r):
    ops = RotationOperators(images.shape[-1], basis.order)
    return image_terms(images, Tensor(basis.elements), ops, [(s, r)], 3)


@pytest.mark.parametrize("evaluator", [_image_terms_of, total_loss, equivariance_loss,
                                       reconstruction_loss])
@pytest.mark.parametrize("s, r", [(1.5, 1), (1, 3.0), (np.float64(2), 2), (True, 1), (1, False)])
def test_non_integer_draw_indices_rejected(small_corpus, partial_basis, evaluator, s, r):
    """A fractional s would turn the images by a fraction of a group step; r would be
    truncated to a slot; a bool would pass for 0 or 1."""
    images = corpus_images(small_corpus, "float64")
    with pytest.raises(ValueError, match=r"draw \(.*\) needs integer"):
        evaluator(images, partial_basis, s, r)


def test_evaluators_build_no_graph(small_corpus, partial_basis, monkeypatch):
    """The graph-free evaluators and the 45 degree probe run on arrays alone."""
    cfg = PretrainConfig(n_elements=4, batch_size=7, partial=True)
    images = corpus_images(small_corpus, cfg.dtype)
    param = Tensor(partial_basis.elements[:2].astype(cfg.dtype), requires_grad=True)
    ops = _ops_for(images, cfg)
    original = Tensor.from_op
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs.get("op"))
        return original(*args, **kwargs)

    monkeypatch.setattr(Tensor, "from_op", staticmethod(counting))
    for evaluator in (total_loss, equivariance_loss, reconstruction_loss):
        evaluator(small_corpus, partial_basis, 1, 3, cfg)
    _probe_equiv(images, param, cfg, ops, crop_margin(images.shape[-1], cfg.crop_fraction))
    assert calls == []


def slot_list_loss(param, partial, images, ops, draws, margin, weights):
    """The pretraining objective built one orientation at a time, each term on its own."""
    order, stride = 8, 2
    if partial:
        base = [T.take_slot(param, rho) for rho in range(stride)]
        slots = [T.rot90_spatial(base[r % stride], r // stride) for r in range(order)]
    else:
        slots = [T.take_slot(param, r) for r in range(order)]
    n, k = param.data.shape[1], param.data.shape[-1]
    size = images.data.shape[-1]

    def kernel(r):
        return T.reshape(slots[r % order], (n, 1, k, k))

    def rotate(x, s):
        if s % order == 0:
            return x
        return T.spatial_linear_map(x, lambda m: ops.apply_flat(m, s),
                                    lambda m: ops.apply_flat_t(m, s), (size, size))

    def mean_abs(diff):
        return T.scale(T.l1_norm(diff), 1.0 / (diff.data.shape[0] * diff.data.shape[-1] ** 2))

    total = None
    we, wo, wr = weights
    for s, r in draws:
        branch_a = T.correlate2d(rotate(images, s), kernel(r))
        branch_b = rotate(T.correlate2d(images, kernel(r - s)), s)
        equiv = mean_abs(T.crop2d(branch_a - branch_b, margin))
        target = T.crop2d(rotate(images, s), margin)
        inner = rotate(T.correlate2d(images, kernel(r - s)), s)
        recon = T.crop2d(T.transpose_correlate2d(inner, kernel(r)), margin)
        rec = mean_abs(target - recon)
        term = T.scale(equiv, we) + T.scale(rec, wr)
        total = term if total is None else total + term
    for slot in slots:
        flat = T.reshape(slot, (n, k * k))
        gram = T.matmul(flat, T.transpose(flat, (1, 0)))
        total = total + T.scale(T.l1_norm(gram - Tensor(np.eye(n))), wo)
    return total


@pytest.mark.parametrize("partial", [True, False])
def test_stacked_loss_and_gradient_match_slot_list_reference(rng, partial):
    images = Tensor(rng.random((3, 1, 12, 12)))
    ops = RotationOperators(12, 8)
    draws = [(1, 3), (2, 6), (5, 0), (0, 7)]
    weights = (10.0, 1.0, 0.5)
    init = rng.uniform(-0.7, 0.7, (2 if partial else 8, 3, 3, 3))

    stacked = Tensor(init.copy(), requires_grad=True)
    slots = basis_slots(stacked, partial)
    loss = T.scale(orthogonality_term(slots), weights[1])
    for s, r in draws:
        maps = pair_maps(images, slots, ops, s, r)
        loss = (loss + T.scale(equivariance_term(*maps, 3), weights[0])
                + T.scale(reconstruction_term(*maps, 3), weights[2]))
    loss.backward()

    reference = Tensor(init.copy(), requires_grad=True)
    want = slot_list_loss(reference, partial, images, ops, draws, 3, weights)
    want.backward()
    assert abs(loss.item() - want.item()) <= 1e-12 * abs(want.item())
    scale = np.abs(reference.grad).max()
    assert np.abs(stacked.grad - reference.grad).max() <= 1e-12 * scale


ALL_PAIRS = [(s, r) for s in range(8) for r in range(8)]


def weighted_step(slots, terms_fn, weights=(10.0, 1.0, 0.5)):
    """``batch_loss``'s objective on ``slots``, backpropagated: the two image terms
    from ``terms_fn(slots)`` as (equiv, rec) tensors, orthogonality where
    ``batch_loss`` adds it. Returns the two image terms as floats."""
    le, lr = terms_fn(slots)
    loss = (T.scale(le, weights[0]) + T.scale(orthogonality_term(slots), weights[1])
            + T.scale(lr, weights[2]))
    loss.backward()
    return le.item(), lr.item()


def graph_terms(images, ops, draws, margin):
    def terms(slots):
        maps = [pair_maps(Tensor(images), slots, ops, s, r) for s, r in draws]
        e_terms = [equivariance_term(*m, margin) for m in maps]
        r_terms = [reconstruction_term(*m, margin) for m in maps]
        return sum(e_terms[1:], e_terms[0]), sum(r_terms[1:], r_terms[0])
    return terms


def node_terms(images, ops, draws, margin):
    def terms(slots):
        out = image_terms(images, slots, ops, draws, margin)
        return T.take_slot(out, 0), T.take_slot(out, 1)
    return terms


class TestImageTerms:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("partial", [True, False])
    def test_equals_graph_reference_bitwise(self, rng, dtype, partial):
        """Every single draw and the all-pairs list: both terms and the slot gradient."""
        images = rng.random((3, 1, 12, 12)).astype(dtype)
        ops = RotationOperators(12, 8)
        init = rng.uniform(-0.7, 0.7, (2 if partial else 8, 3, 3, 3)).astype(dtype)
        stack = basis_slots(Tensor(init), partial).data
        for draws in [[pair] for pair in ALL_PAIRS] + [ALL_PAIRS]:
            got_slots = Tensor(stack.copy(), requires_grad=True)
            got = weighted_step(got_slots, node_terms(images, ops, draws, 3))
            want_slots = Tensor(stack.copy(), requires_grad=True)
            want = weighted_step(want_slots, graph_terms(images, ops, draws, 3))
            assert [v.hex() for v in got] == [v.hex() for v in want], draws
            assert got_slots.grad.tobytes() == want_slots.grad.tobytes(), draws

    @pytest.mark.parametrize("column_bytes", [4000, 40000])
    def test_chunked_and_rebuilt_columns_match_reference(self, rng, monkeypatch, column_bytes):
        """Columns cut into chunks, and a budget spent part way through the draws."""
        monkeypatch.setattr(T, "_COLUMN_BYTES", column_bytes)
        images = rng.random((5, 1, 12, 12))
        ops = RotationOperators(12, 8)
        stack = basis_slots(Tensor(rng.uniform(-0.7, 0.7, (2, 3, 3, 3))), True).data
        draws = [(1, 3), (0, 0), (5, 2), (2, 6)]
        got_slots = Tensor(stack.copy(), requires_grad=True)
        got = weighted_step(got_slots, node_terms(images, ops, draws, 3))
        want_slots = Tensor(stack.copy(), requires_grad=True)
        want = weighted_step(want_slots, graph_terms(images, ops, draws, 3))
        assert got == want
        assert got_slots.grad.tobytes() == want_slots.grad.tobytes()

    @staticmethod
    def live_columns(monkeypatch):
        """Patch im2col to record, at each call, the bytes of earlier column buffers still alive."""
        buffers, live = [], []
        column_blocks = T._column_blocks

        def tracked(x, k, step):
            alive = [ref() for ref in buffers if ref() is not None]
            live.append(sum(a.nbytes for a in alive))
            for sl, cols in column_blocks(x, k, step):
                buffers.append(weakref.ref(cols.base))  # the buffer each block is built in
                yield sl, cols

        monkeypatch.setattr(T, "_column_blocks", tracked)
        return live

    def test_no_grad_keeps_no_columns(self, rng, monkeypatch):
        images = rng.random((4, 1, 12, 12))
        slots = Tensor(rng.uniform(-0.7, 0.7, (8, 3, 3, 3)), requires_grad=True)
        ops = RotationOperators(12, 8)
        live = self.live_columns(monkeypatch)
        with T.no_grad():
            out = image_terms(images, slots, ops, ALL_PAIRS, 3)
        assert not out.requires_grad
        assert len(live) > 64 and max(live) == 0

    def test_recorded_node_keeps_columns_within_budget(self, rng, monkeypatch):
        budget = 60000
        monkeypatch.setattr(T, "_COLUMN_BYTES", budget)
        images = rng.random((4, 1, 12, 12))
        slots = Tensor(rng.uniform(-0.7, 0.7, (8, 3, 3, 3)), requires_grad=True)
        live = self.live_columns(monkeypatch)
        T.l1_norm(image_terms(images, slots, RotationOperators(12, 8), ALL_PAIRS, 3)).backward()
        assert 0 < max(live) <= budget

    def test_rejects_no_draws_and_multichannel_images(self, rng):
        slots = Tensor(rng.uniform(-0.7, 0.7, (8, 3, 3, 3)))
        ops = RotationOperators(12, 8)
        with pytest.raises(ValueError, match="draw"):
            image_terms(rng.random((2, 1, 12, 12)), slots, ops, [], 3)
        with pytest.raises(ValueError, match=r"\[B, 1, H, W\]"):
            image_terms(rng.random((2, 3, 12, 12)), slots, ops, [(1, 1)], 3)


def test_single_draw_step_builds_few_graph_nodes(monkeypatch):
    """One partial single-draw step at batch 16, 28x28: the stacked basis keeps the graph small."""
    corpus = synthetic_image_corpus(16, 28, seed=0)
    original = Tensor.from_op
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(Tensor, "from_op", staticmethod(counting))

    def nodes(epochs):
        calls[0] = 0
        pretrain(corpus, PretrainConfig(partial=True, epochs=epochs, batch_size=16, seed=3))
        return calls[0]

    # The second run repeats the first and adds exactly one step.
    assert nodes(2) - nodes(1) <= 20


@pytest.mark.parametrize("field, value", [
    ("kernel_size", 0), ("kernel_size", 2), ("kernel_size", -3), ("kernel_size", 3.0),
    ("n_elements", 0), ("batch_size", 0), ("epochs", 0), ("epochs", -1),
    ("dtype", "int32"), ("dtype", "float16"),
    ("loss_weights", (1.0, 1.0)), ("loss_weights", (1.0, 1.0, 1.0, 1.0)),
    ("loss_weights", (1.0, float("nan"), 1.0)), ("loss_weights", (1.0, float("inf"), 1.0)),
    ("loss_weights", "1,1"),
    ("order", 0), ("order", -4), ("order", 6),
    ("learning_rate", -5.0), ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("weight_decay", -1e-6), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ("sigma", 0), ("sigma", -0.5), ("sigma", float("nan")),
    ("epochs", 1.5), ("epochs", True), ("batch_size", 2.5), ("batch_size", True),
    ("n_elements", 2.5), ("n_elements", True), ("order", 8.0)])
def test_config_range_checked(field, value):
    with pytest.raises(ValueError, match="group order" if field == "order" else field):
        PretrainConfig(**{field: value})


@pytest.mark.parametrize("fraction", [-0.1, 0.5])
def test_config_crop_fraction_uses_crop_rule(fraction):
    with pytest.raises(ValueError, match="crop fraction"):
        PretrainConfig(crop_fraction=fraction)
    assert PretrainConfig(crop_fraction=0.0).crop_fraction == 0.0


class TestPretrain:
    def test_zero_learning_rate_keeps_basis(self, small_corpus):
        cfg = PretrainConfig(n_elements=3, epochs=1, batch_size=8,
                             learning_rate=0.0, partial=True, seed=9)
        result = pretrain(small_corpus, cfg)
        expected_init = initialize_elements(3, 3, 2, np.random.default_rng(9))
        expected = populate_partial(expected_init.astype(np.float32).astype(np.float64))
        assert np.array_equal(result.basis.elements, expected.elements)

    def test_deterministic_given_seed(self, small_corpus):
        cfg = PretrainConfig(n_elements=2, epochs=2, batch_size=8, seed=4, partial=True)
        a = pretrain(small_corpus, cfg)
        b = pretrain(small_corpus, cfg)
        assert np.array_equal(a.basis.elements, b.basis.elements)
        assert a.epochs == b.epochs
        assert a.final_equiv_45 == b.final_equiv_45

    @pytest.mark.parametrize("partial", [True, False])
    def test_probe_bitwise_equal_with_and_without_graph(self, small_corpus, partial):
        """The probe runs in chunks of the training batch; in float32 and float64, and at
        a batch of 7, which leaves a short last chunk of the 24 images, its value is the
        full-batch graph's, bit for bit."""
        for dtype in ("float32", "float64"):
            for batch_size in (7, 100):
                cfg = PretrainConfig(n_elements=3, partial=partial, seed=6,
                                     batch_size=batch_size, dtype=dtype)
                rng = np.random.default_rng(cfg.seed)
                images = corpus_images(small_corpus, cfg.dtype, rng)
                n_slots = 2 if partial else 8
                param = Tensor(initialize_elements(3, 3, n_slots, rng).astype(cfg.dtype),
                               requires_grad=True)
                ops = _ops_for(images, cfg)
                margin = crop_margin(images.shape[-1], cfg.crop_fraction)
                slots = basis_slots(param, cfg.partial)
                with_graph = equivariance_term(
                    *pair_maps(Tensor(images[:200]), slots, ops, 1, 1), margin)
                assert with_graph.requires_grad
                probe = _probe_equiv(images, param, cfg, ops, margin)
                assert probe.hex() == with_graph.item().hex(), (dtype, batch_size)

    def test_probe_transient_at_most_one_training_step(self):
        """At batch 16 on 200 28x28 images the probe holds no more than one single-draw
        training step does: 3.7 MiB against the step's 7.7 MiB (unchunked, 22.8 MiB)."""
        cfg = PretrainConfig(partial=True, batch_size=16, seed=1)
        rng = np.random.default_rng(cfg.seed)
        images = corpus_images(synthetic_image_corpus(200, 28, seed=0), cfg.dtype, rng)
        param = Tensor(initialize_elements(9, 3, 2, rng).astype(cfg.dtype),
                       requires_grad=True)
        ops = _ops_for(images, cfg)
        margin = crop_margin(28, cfg.crop_fraction)

        def step():
            slots = basis_slots(param, True)
            terms = image_terms(images[:16], slots, ops, [(1, 1)], margin)
            loss = T.l1_norm(terms) + orthogonality_term(slots)
            loss.backward()

        def transient(fn):
            fn()  # warm the rotation operator caches
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        probe = transient(lambda: _probe_equiv(images, param, cfg, ops, margin))
        assert probe <= transient(step)

    def test_partial_tying_holds_after_training(self, small_corpus):
        cfg = PretrainConfig(n_elements=3, epochs=3, batch_size=8, seed=2, partial=True)
        result = pretrain(small_corpus, cfg)
        check_partial_tying(result.basis.elements)
        assert result.basis.kind == "partial"

    def test_full_kind_tag(self, small_corpus):
        cfg = PretrainConfig(n_elements=2, epochs=1, batch_size=8, seed=2)
        assert pretrain(small_corpus, cfg).basis.kind == "full"
        cfg = PretrainConfig(n_elements=12, epochs=1, batch_size=8, seed=2)
        assert pretrain(small_corpus, cfg).basis.kind == "overcomplete"

    def test_non_finite_corpus_aborts(self, small_corpus):
        bad = small_corpus.copy()
        bad[0, 0, 0] = np.nan
        cfg = PretrainConfig(n_elements=2, epochs=1, batch_size=8, seed=0)
        with pytest.raises(PretrainDivergence):
            pretrain(bad, cfg)

    def test_sum_all_pairs_runs(self, small_corpus):
        cfg = PretrainConfig(n_elements=2, epochs=1, batch_size=24,
                             sum_all_pairs=True, seed=0)
        result = pretrain(small_corpus, cfg)
        assert np.isfinite(result.epochs[0]["L_total"])

    def test_empty_corpus_rejected(self):
        cfg = PretrainConfig(n_elements=2, epochs=1)
        with pytest.raises(ValueError, match="empty"):
            pretrain(np.zeros((0, 8, 8)), cfg)

    def test_loss_csv_round_trip(self, tmp_path, small_corpus):
        cfg = PretrainConfig(n_elements=2, epochs=2, batch_size=8, seed=1)
        result = pretrain(small_corpus, cfg)
        path = tmp_path / "losses.csv"
        write_loss_csv(result.epochs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,L_equiv,L_orth,L_rec,L_total"
        assert len(lines) == 3


@pytest.mark.slow
def test_pretraining_halves_equivariance_loss():
    """Desk-scale run: the 45-degree probe drops well below half its start."""
    corpus = synthetic_image_corpus(256, 20, seed=0)
    cfg = PretrainConfig(n_elements=9, epochs=150, batch_size=32,
                         learning_rate=5e-3, loss_weights=(10.0, 1.0, 1.0),
                         partial=True, seed=0)
    result = pretrain(corpus, cfg)
    assert result.final_equiv_45 <= 0.5 * result.initial_equiv_45
    from rotoconv.basis import orthogonality_defect
    worst = max(orthogonality_defect(result.basis, r) for r in range(8))
    assert worst <= 0.15
