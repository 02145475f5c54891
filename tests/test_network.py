import collections
import hashlib
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from rotoconv import tensor as T
from rotoconv.basis import Basis, populate_partial
from rotoconv.groups import RotationOperators, act_on_group_feature_map, rotate_exact90
from rotoconv.network import (CheckpointFormatError, FingerprintMismatch, GConvInput,
                              GConvIntermediate, GlobalMaxPool, MaxPool2x2, Model,
                              _CONVOLUTIONS, _filter_bank, _filter_bank_adjoint,
                              _training_plan, build_model,
                              count_parameters, gconv_input, gconv_intermediate,
                              load_checkpoint, model_from_arch, read_checkpoint,
                              save_checkpoint)
from rotoconv.tensor import Tensor
from rotoconv.verify import small_group_model

from formats import read_checkpoint_file, write_checkpoint_file
from oracles import brute_correlate2d


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def dirac_basis(n=1, order=8):
    e = np.zeros((order, n, 3, 3))
    e[:, :, 1, 1] = 1.0
    return Basis(e, "full")


class TestGConvInput:
    def test_dirac_element_gives_channel_mix_on_every_slice(self, rng):
        basis = dirac_basis()
        x = rng.standard_normal((2, 3, 6, 6))
        coeff = rng.standard_normal((4, 3, 1))
        out = gconv_input(t64(x), t64(coeff), basis).data
        mix = np.einsum("oc,bchw->bohw", coeff[:, :, 0], x)
        for r in range(8):
            assert np.abs(out[:, :, r] - mix).max() <= 1e-12

    def test_corner_one_hot_quarter_turn_slice(self, rng):
        learned = np.zeros((2, 1, 3, 3))
        learned[0, 0, 0, 0] = 1.0
        learned[1, 0, 0, 0] = 1.0
        basis = populate_partial(learned)
        x = rng.standard_normal((1, 1, 6, 6))
        coeff = np.ones((1, 1, 1))
        out = gconv_input(t64(x), t64(coeff), basis).data
        expect = brute_correlate2d(x, basis.elements[2][:, None])
        assert np.abs(out[:, :, 2] - expect).max() <= 1e-10

    def test_order_one_reduces_to_plain_correlation(self, rng):
        elements = rng.standard_normal((1, 2, 3, 3))
        x = rng.standard_normal((1, 2, 5, 5))
        coeff = rng.standard_normal((3, 2, 2))
        out = gconv_input(t64(x), t64(coeff), elements).data
        kernel = np.einsum("ocn,nkl->ockl", coeff, elements[0])
        expect = T.correlate2d(t64(x), t64(kernel)).data
        assert np.abs(out[:, :, 0] - expect).max() <= 1e-12

    def test_coefficient_count_checked(self, rng, partial_basis):
        with pytest.raises(ValueError, match="elements"):
            gconv_input(t64(rng.random((1, 1, 4, 4))),
                        t64(rng.random((2, 1, partial_basis.n_elements + 2))),
                        partial_basis)

    @pytest.mark.parametrize("k", [(2, 2), (3, 5)])
    def test_even_or_oblong_elements_rejected(self, rng, k):
        with pytest.raises(ValueError, match="odd size"):
            gconv_input(t64(rng.random((1, 1, 5, 5))), t64(rng.random((1, 1, 2))),
                        rng.random((1, 2, *k)))


class TestGConvIntermediate:
    def test_order_one_reduces_to_plain_correlation(self, rng):
        elements = rng.standard_normal((1, 2, 3, 3))
        x = rng.standard_normal((1, 3, 1, 5, 5))
        coeff = rng.standard_normal((2, 3, 1, 2))
        out = gconv_intermediate(t64(x), t64(coeff), elements).data
        kernel = np.einsum("ocn,nkl->ockl", coeff[:, :, 0], elements[0])
        expect = T.correlate2d(t64(x[:, :, 0]), t64(kernel)).data
        assert np.abs(out[:, :, 0] - expect).max() <= 1e-12

    def test_dirac_slot_zero_is_roll_selection(self, rng):
        basis = dirac_basis()
        x = rng.standard_normal((1, 1, 8, 5, 5))
        coeff = np.zeros((1, 1, 8, 1))
        coeff[0, 0, 0, 0] = 1.0  # only filter-orientation slot 0
        out = gconv_intermediate(t64(x), t64(coeff), basis).data
        for r in range(8):
            assert np.abs(out[0, 0, r] - x[0, 0, r]).max() <= 1e-12

    def test_exact_quarter_turn_commutation(self, rng, partial_basis):
        ops = RotationOperators(6, 8)
        x = rng.standard_normal((1, 2, 8, 6, 6))
        coeff = rng.standard_normal((3, 2, 8, partial_basis.n_elements))
        base = gconv_intermediate(t64(x), t64(coeff), partial_basis).data
        for q in (1, 2, 3):
            acted = act_on_group_feature_map(x, 2 * q, ops)
            out = gconv_intermediate(t64(acted), t64(coeff), partial_basis).data
            expect = act_on_group_feature_map(base, 2 * q, ops)
            assert np.abs(out - expect).max() <= 1e-5

    def test_orientation_extent_checked(self, rng, partial_basis):
        n = partial_basis.n_elements
        with pytest.raises(ValueError, match="orientation"):
            gconv_intermediate(t64(rng.random((1, 1, 4, 5, 5))),
                               t64(rng.random((1, 1, 8, n))), partial_basis)


class TestGlobalGroupMaxPool:
    pool = GlobalMaxPool("g")

    def test_constant_map(self):
        x = np.full((2, 3, 8, 4, 4), 1.25)
        assert np.all(self.pool.forward(t64(x), False).data == 1.25)

    def test_invariant_under_induced_action(self, rng):
        ops = RotationOperators(6, 8)
        x = rng.standard_normal((1, 3, 8, 6, 6))
        base = self.pool.forward(t64(x), False).data
        for r in (1, 2, 5):
            acted = act_on_group_feature_map(x, 2 * (r % 4), ops)
            assert np.array_equal(self.pool.forward(t64(acted), False).data, base)

    def test_matches_exhaustive_scan(self, rng):
        x = rng.standard_normal((2, 3, 4, 5, 5))
        got = self.pool.forward(t64(x), False).data
        assert np.array_equal(got, x.reshape(2, 3, -1).max(axis=-1))


class TestRolledBank:
    @staticmethod
    def two_loop_forward(f):
        o, c, m, order, k, _ = f.shape
        out = np.empty((o, order, c, order, k, k))
        for r in range(order):
            out[:, r] = f[:, :, (np.arange(order) - r) % order, r]
        return out

    @staticmethod
    def two_loop_backward(g, shape):
        gf = np.empty(shape)
        for r in range(shape[3]):
            gf[:, :, :, r] = g[:, r][:, :, (np.arange(shape[3]) + r) % shape[3]]
        return gf

    @pytest.mark.parametrize("shape", [(3, 2, 8, 8, 3, 3), (2, 5, 4, 4, 1, 1)])
    def test_gather_matches_two_loop_version(self, rng, shape):
        """Synthesis in the identity basis is exact, which leaves the bank's gather bare."""
        o, c, m, order, k, _ = shape
        identity = np.eye(order * k * k).reshape(-1, order, k, k).transpose(1, 0, 2, 3)
        f = rng.standard_normal(shape)
        coefficient_shape = (o, c, m, order * k * k)
        out = _filter_bank(f.reshape(coefficient_shape), identity, np.float64)
        want = self.two_loop_forward(f)
        assert np.array_equal(out, want.reshape(out.shape))
        g = rng.standard_normal(want.shape)
        got = _filter_bank_adjoint(g.reshape(out.shape), identity, np.float64, coefficient_shape)
        assert np.array_equal(got.reshape(shape), self.two_loop_backward(g, shape))

    @pytest.mark.parametrize("slots", [(), (8,)], ids=["lift", "rolled"])
    def test_adjoint_is_the_transpose(self, rng, partial_basis, slots):
        """<bank(a), g> = <a, bank_adjoint(g)> in float64, in a real (non-identity) basis."""
        elements = partial_basis.elements
        a = rng.standard_normal((3, 2, *slots, elements.shape[1]))
        bank = _filter_bank(a, elements, np.float64)
        g = rng.standard_normal(bank.shape)
        lhs = float(np.vdot(bank, g))
        rhs = float(np.vdot(a, _filter_bank_adjoint(g, elements, np.float64, a.shape)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


class TestGConvGraph:
    def test_training_graph_holds_no_filter_bank(self, rng, partial_basis, monkeypatch):
        """Each gconv layer records one node, and no array reachable from the logits,
        as node data or in an adjoint closure, has a filter bank's shape."""
        model = small_group_model(partial_basis)
        order, k = partial_basis.order, partial_basis.kernel_size
        gconvs = [layer for layer in model.layers
                  if isinstance(layer, (GConvInput, GConvIntermediate))]
        bank_shapes = {(layer.out_channels * order,
                        layer.in_channels * (order if isinstance(layer, GConvIntermediate) else 1),
                        k, k) for layer in gconvs}
        recorded = {layer.name: [] for layer in gconvs}
        running = []
        from_op = Tensor.from_op

        def recording_from_op(data, parents, backward_fn, op="op"):
            if running:
                recorded[running[-1]].append(op)
            return from_op(data, parents, backward_fn, op)

        monkeypatch.setattr(Tensor, "from_op", staticmethod(recording_from_op))
        for layer in gconvs:
            def forward(x, training, name=layer.name, inner=layer.forward):
                running.append(name)
                try:
                    return inner(x, training)
                finally:
                    running.pop()
            monkeypatch.setattr(layer, "forward", forward)
        logits = model.forward(rng.standard_normal((2, 1, 8, 8)), training=True)
        assert recorded == {layer.name: ["gconv"] for layer in gconvs}

        shapes, seen, stack = set(), set(), [logits]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            shapes.add(node.data.shape)
            for cell in getattr(node._backward, "__closure__", None) or ():
                if isinstance(cell.cell_contents, np.ndarray):
                    shapes.add(cell.cell_contents.shape)
            stack.extend(node._parents)
        assert not shapes & bank_shapes


    def test_recorded_backward_holds_one_block_and_two_banks(self, rng):
        """Beyond its inputs and the gradients it hands back, a recorded gconv backward on
        block-path maps allocates one block of the output gradient's columns, one
        padded block, two bank-sized arrays and grad-w's row slab, at batch 2 as at
        batch 16. Over chunks of x, grad-w would hold every sample's columns."""
        channels, out_channels, order, hw, k = 2, 5, 8, 20, 3
        elements = rng.standard_normal((order, 4, k, k))
        bank_bytes = out_channels * order * channels * order * k * k * 8

        def transient(batch):
            x = Tensor(rng.standard_normal((batch, channels, order, hw, hw)), requires_grad=True)
            c = Tensor(rng.standard_normal((out_channels, channels, order, 4)),
                       requires_grad=True)
            x.grad, c.grad = np.zeros_like(x.data), np.zeros_like(c.data)
            out = gconv_intermediate(x, c, elements)
            g = rng.standard_normal(out.data.shape)
            tracemalloc.start()
            try:
                out._backward(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - x.data.nbytes  # grad-x, before it is added into x.grad

        block_columns = out_channels * order * k * k * hw * hw * 8  # one sample a block
        padded_block = out_channels * order * (hw + k - 1) ** 2 * 8
        assert block_columns >= T._SMALL_SAMPLE_BYTES and hw * hw >= T._BLOCK_COLUMNS
        assert channels * order >= T._MIN_BLOCK_ROWS
        small, large = transient(2), transient(16)
        slab = min(bank_bytes, T._SLAB_BYTES)
        small_arrays = 16 << 10  # index arrays, the synthesis matrix, array headers
        assert large <= block_columns + padded_block + 2 * bank_bytes + slab + small_arrays
        assert large <= small + 16384  # each block leaves under 200 bytes of view objects


def small_translational_model(seed=0, dtype="float64"):
    """Three plain conv blocks whose BatchNorm-ReLU maps go to each kind of reader: a pool,
    a convolution and the global pool."""
    layers = []
    for i, (c_in, c_out, k) in enumerate([(1, 4, 3), (4, 6, 3), (6, 6, 1)]):
        layers += [{"type": "conv", "name": f"conv{i}", "in": c_in, "out": c_out, "k": k},
                   {"type": "batchnorm", "name": f"bn{i}", "channels": c_out, "kind": "spatial"},
                   {"type": "relu", "name": f"relu{i}"}]
        if i == 0:
            layers.append({"type": "maxpool", "name": "pool"})
    layers += [{"type": "global_maxpool", "name": "global_pool"},
               {"type": "dense", "name": "classifier", "in": 6, "out": 3}]
    arch = {"kind": "translational", "variant": "none", "in_channels": 1, "classes": 3,
            "dtype": dtype, "group_order": 1, "layers": layers}
    return model_from_arch(arch, None, seed)


class TestRebuiltBatchNormReLU:
    """A training forward hands each BatchNorm-ReLU output that a convolution or a pool reads
    to that layer, whose node keeps the BatchNorm input and statistics in its place and
    rebuilds the map in backward."""

    @staticmethod
    def model(kind, partial_basis, dtype="float64"):
        if kind == "group":
            return small_group_model(partial_basis, seed=5, dtype=dtype)
        return small_translational_model(seed=5, dtype=dtype)

    @staticmethod
    def layer_path(model, x):
        """The logits of a training forward that runs every layer on its own: BatchNorm,
        ReLU and the reader as three nodes."""
        out = Tensor(x)
        for layer in model.layers:
            out = layer.forward(out, True)
        return out

    @pytest.mark.parametrize("kind, alive", [
        ("group", [[], [], [True], [False], [False, True], [False, False], [False, False]]),
        ("translational", [[], [], [True], [False], [False], [False, True], [False, False],
                           [False, False, True], [False, False, False]]),
    ])
    def test_each_map_dead_once_its_convolution_has_run(self, partial_basis, monkeypatch,
                                                        kind, alive):
        """At each layer call of a training forward, which of the maps handed on so far
        are alive: only the one whose reader (a convolution, the 2x2 pool or the global
        pool) is running."""
        model = self.model(kind, partial_basis)
        handed, seen = [], []
        handed_over = T.batchnorm_relu_train

        def spy_input(*args):
            out = handed_over(*args)
            handed.append(weakref.ref(out[0].data))
            return out

        monkeypatch.setattr(T, "batchnorm_relu_train", spy_input)
        for layer in model.layers:
            for name in [name for name in ("forward", "forward_relu") if hasattr(layer, name)]:
                def spy(*args, inner=getattr(layer, name)):
                    seen.append([ref() is not None for ref in handed])
                    return inner(*args)
                monkeypatch.setattr(layer, name, spy)
        logits = model.forward(np.random.default_rng(1).standard_normal((3, 1, 8, 8)),
                               training=True)
        assert seen == alive
        assert len(handed) == alive[-1].count(False) and logits.requires_grad

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind, fused_ops, separate_ops", [
        ("group", {"gconv": 2, "batchnorm_relu_maxpool2x2": 1},
         {"gconv": 2, "batchnorm_train": 2, "relu": 2, "maxpool2x2": 1}),
        ("translational", {"correlate2d": 2, "batchnorm_relu_correlate2d": 1,
                           "batchnorm_relu_maxpool2x2": 1, "batchnorm_relu_global_maxpool": 1},
         {"correlate2d": 3, "batchnorm_train": 3, "relu": 3, "maxpool2x2": 1,
          "global_maxpool": 1}),
    ])
    def test_bitwise_those_of_the_separate_ops(self, partial_basis, kind, dtype, fused_ops,
                                               separate_ops):
        """Logits, every parameter gradient and the running statistics equal those of the
        layer path (``batchnorm_train``, ``relu``, then the reader), and the graph keeps
        exactly the maps' bytes less: the BatchNorm and the ReLU output of each block."""
        x = np.random.default_rng(2).standard_normal((3, 1, 8, 8)).astype(dtype)
        runs = []
        for separate in (False, True):
            model = self.model(kind, partial_basis, dtype)
            logits = self.layer_path(model, x) if separate else model.forward(x, training=True)
            ops, kept, stack, seen = collections.Counter(), 0, [logits], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    ops[node._op] += 1
                    kept += node.data.nbytes
                    stack.extend(node._parents)
            T.softmax_cross_entropy(logits, np.array([0, 2, 1])).backward()
            runs.append((ops, kept, [logits.data] + [p.grad for p in model.parameters()]
                         + [b for _, b in model.named_buffers()]))
        (ops, kept, got), (separate_ops_seen, separate_kept, want) = runs
        assert {op: ops[op] for op in fused_ops} == fused_ops
        assert {op: separate_ops_seen[op] for op in separate_ops} == separate_ops
        maps = 3 * ((4 + 6) * 8 * 8 * 8 if kind == "group" else 4 * 8 * 8 + 2 * 6 * 4 * 4)
        assert separate_kept - kept == 2 * maps * x.itemsize
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


    @pytest.mark.parametrize("reader, frozen", [
        ("correlate2d", False), ("correlate2d", True), ("gconv", False), ("gconv", True),
    ], ids=["False", "True", "gconv-False", "gconv-True"])
    def test_op_level_bitwise_and_mask_without_grad_w(self, rng, partial_basis, reader, frozen):
        """``batchnorm_relu_train`` into ``correlate2d`` or ``gconv`` against
        ``batchnorm_train``, ``relu`` then the reader. With the kernel or coefficients
        frozen no grad-w reads the rebuilt map, so the ReLU mask comes from a rebuild of
        its own."""
        order, n = partial_basis.elements.shape[:2]
        group = reader == "gconv"
        x = rng.standard_normal((3, 4) + (order,) * group + (6, 6))
        gamma, beta = rng.random(4) + 0.5, 0.3 * rng.standard_normal(4)
        w = rng.standard_normal((5, 4, order, n) if group else (5, 4, 3, 3))
        conv = (lambda a, c: gconv_intermediate(a, c, partial_basis)) if group else T.correlate2d
        axes = (0, 2, 3, 4) if group else (0, 2, 3)
        runs = []
        for op in (lambda a, g, b, axes: T.batchnorm_relu_train(a, g, b, axes)[0],
                   lambda a, g, b, axes: T.relu(T.batchnorm_train(a, g, b, axes)[0])):
            xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
            wt = Tensor(w, requires_grad=not frozen)
            out = conv(op(xt, gt, bt, axes), wt)
            T.l1_norm(out).backward()
            runs.append([out.data, xt.grad, gt.grad, bt.grad] + ([] if frozen else [wt.grad]))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
        assert (runs[0][1] != 0).any()


def _model(kind, dtype):
    basis = populate_partial(np.random.default_rng(0).uniform(-1.0, 1.0, (2, 9, 3, 3)))
    group = kind == "group"
    return build_model(kind, "partial" if group else "none", basis if group else None,
                       in_channels=3, dtype=dtype)


def _model_conv_shapes():
    """pytest params (kind, dtype, layer index, map size, rebuilt input, block path) for
    each distinct conv layer shape of the two models at 3x32x32, with the path that layer's
    backward takes in the id: the number of grad-w row slabs on the block path, else
    "chunks"."""
    params, done = [], set()
    for kind in ("group", "translational"):
        for dtype in ("float32", "float64"):
            model, x_bytes = _model(kind, dtype), np.dtype(dtype).itemsize
            hw, rebuilt = 32, False
            for layer, fused in _training_plan(model.layers):
                if isinstance(layer, _CONVOLUTIONS):
                    order = model.group_order
                    c_in = layer.in_channels * (order if isinstance(layer, GConvIntermediate)
                                                else 1)
                    c_out = layer.out_channels * order
                    k = getattr(layer, "kernel_size", None) or layer.elements.shape[-1]
                    if (kind, dtype, c_in, c_out, k, hw, rebuilt) not in done:
                        done.add((kind, dtype, c_in, c_out, k, hw, rebuilt))
                        blocks = T._takes_blocks(np.empty((0, c_out, hw, hw), dtype), c_in, k)
                        rows, nbytes = c_out * k * k, c_out * k * k * c_in * x_bytes
                        slabs = -(-rows // T._slab_rows(rows, nbytes))
                        params.append(pytest.param(
                            kind, dtype, model.layers.index(layer), hw, rebuilt, blocks,
                            id=f"{kind}-{c_in}to{c_out}-k{k}-{hw}px-"
                               f"{'rebuilt' if rebuilt else 'kept'}-{dtype}-"
                               f"{f'{slabs}slab' if blocks else 'chunks'}"))
                hw //= 2 if isinstance(layer, MaxPool2x2) else 1
                rebuilt = fused
    return params


class TestModelLayerBackward:
    """The block path against the chunk path at the model's own conv layer shapes, where
    grad-w's accumulator takes up to 7 row slabs (``test_one_pass_backward_matches_the_
    chunk_path`` in test_tensor.py runs one)."""

    @pytest.mark.parametrize("kind, dtype, index, hw, rebuilt, blocks", _model_conv_shapes())
    def test_one_pass_backward_matches_the_chunk_path(self, monkeypatch, kind, dtype, index,
                                                      hw, rebuilt, blocks):
        """A batch of 2 through one conv layer of ``build_model`` (fed a rebuilt
        BatchNorm-ReLU map where the training forward feeds it one) and back: forward and
        the input's gradients bitwise, and grad-w equal to rounding (the tolerances of
        the one-pass test), whether the backward takes blocks or is forced onto chunks."""
        model = _model(kind, dtype)
        conv, batchnorm = model.layers[index], model.layers[index - 2]
        kernel = conv.params()[0][1]
        slots = (model.group_order,) if isinstance(conv, GConvIntermediate) else ()
        x = np.random.default_rng(index).standard_normal(
            (2, conv.in_channels) + slots + (hw, hw)).astype(dtype)
        one_pass = []
        grads = T._correlate_grads
        monkeypatch.setattr(T, "_correlate_grads", lambda g, a, *args: one_pass.append(
            isinstance(a, T._RebuiltMap)) or grads(g, a, *args))

        def step():
            params = [kernel] + ([batchnorm.gamma, batchnorm.beta] if rebuilt else [])
            for p in params:
                p.grad = None
            xt = Tensor(x, requires_grad=True)
            out = conv.forward(batchnorm.forward_relu(xt) if rebuilt else xt, True)
            g = np.random.default_rng(7).standard_normal(out.data.shape).astype(dtype)
            out._backward(g)
            return [out.data, xt.grad] + [p.grad for p in params[1:]], kernel.grad

        got, gw = step()
        assert one_pass == ([rebuilt] if blocks else [])
        monkeypatch.setattr(T, "_SMALL_SAMPLE_BYTES", 1 << 40)
        want, gw_chunks = step()
        assert len(one_pass) == blocks
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        rtol = 1e-5 if dtype == "float32" else 1e-12
        assert gw.dtype == gw_chunks.dtype
        assert np.abs(gw - gw_chunks).max() <= rtol * np.abs(gw_chunks).max()


class TestBuildModel:
    def test_parameter_counts_within_15_percent(self, rng):
        basis = populate_partial(rng.uniform(-1, 1, (2, 9, 3, 3)))
        group = build_model("group", "partial", basis, in_channels=3)
        plain = build_model("translational")
        pg, pt = count_parameters(group), count_parameters(plain)
        assert abs(pg - pt) / max(pg, pt) <= 0.15

    @pytest.mark.parametrize("dtype", ["int32", "float16", "bool", "no-such-type"])
    def test_non_float_dtype_rejected(self, dtype):
        with pytest.raises(ValueError, match="dtype"):
            build_model("translational", dtype=dtype)

    def test_group_forward_shape(self, rng):
        basis = populate_partial(rng.uniform(-1, 1, (2, 9, 3, 3)))
        model = build_model("group", "partial", basis, in_channels=3, seed=1)
        logits = model.forward(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        assert logits.data.shape == (2, 10)

    def test_translational_matches_independent_composition(self, rng):
        model = build_model("translational", seed=7, dtype="float64")
        x = rng.standard_normal((1, 3, 16, 16))
        got = model.forward(x, training=False).data
        h = Tensor(x)
        for layer in model.layers:
            name = type(layer).__name__
            if name == "Conv2d":
                h = T.correlate2d(h, layer.weight)
            elif name == "BatchNorm":
                h = T.batchnorm_eval(h, layer.gamma, layer.beta, (0, 2, 3),
                                     layer.running_mean, layer.running_var)
            elif name == "ReLU":
                h = T.relu(h)
            elif name == "MaxPool2x2":
                h = T.maxpool2x2(h)
            elif name == "GlobalMaxPool":
                h = T.global_maxpool(h)
            else:
                h = T.matmul(h, layer.weight) + layer.bias
        assert np.array_equal(got, h.data)

    def test_group_needs_basis(self):
        with pytest.raises(ValueError, match="basis"):
            build_model("group", "partial", None)

    def test_variant_must_match_basis_kind(self, rng, partial_basis):
        with pytest.raises(ValueError, match="variant"):
            build_model("group", "random", partial_basis, in_channels=1)

    def test_per_layer_exact_equivariance(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=2)
        ops = {8: RotationOperators(8, 8), 4: RotationOperators(4, 8)}
        x = rng.standard_normal((1, 1, 8, 8))
        base = model.forward_with_activations(x)
        rotated = model.forward_with_activations(rotate_exact90(x, 1))
        for (name, kind, a0), (_, _, ar) in zip(base, rotated):
            if kind == "group":
                expect = act_on_group_feature_map(a0, 2, ops[a0.shape[-1]])
            elif kind == "vector":
                expect = a0
            else:
                continue
            h = ar.shape[-1] if ar.ndim >= 2 else 0
            m = max(h // 4, 0)
            got = ar[..., m:h - m, m:h - m] if kind == "group" else ar
            want = expect[..., m:h - m, m:h - m] if kind == "group" else expect
            assert np.abs(got - want).max() <= 1e-5, name


class TestActivations:
    def test_iter_matches_graph_forward_layer_by_layer(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=2)
        x = rng.standard_normal((3, 1, 8, 8))
        records = model.forward_with_activations(x)
        assert isinstance(records, list) and len(records) == len(model.layers)
        out = Tensor(x)
        for layer, (name, _, act) in zip(model.layers, records):
            out = layer.forward(out, False)
            assert out.requires_grad and name == layer.name
            assert np.array_equal(act, out.data)

    def test_grad_enabled_while_generator_is_suspended(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=2)
        records = model.iter_activations(rng.standard_normal((1, 1, 8, 8)))
        next(records)
        w = Tensor(np.ones(2), requires_grad=True)
        assert (w * 2.0).requires_grad
        assert len(list(records)) == len(model.layers) - 1


class TestBatchNorm:
    def test_eval_mode_frozen_and_deterministic(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=0, dtype="float32")
        x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        a = model.forward(x, training=False).data
        b = model.forward(x, training=False).data
        assert np.array_equal(a, b)

    def test_train_mode_updates_running_stats(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=0, dtype="float32")
        bn = model.layers[1]
        before = bn.running_mean.copy()
        model.forward(rng.standard_normal((4, 1, 8, 8)).astype(np.float32) + 3.0,
                      training=True)
        assert not np.array_equal(bn.running_mean, before)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_training_forward_fuses_and_matches_per_layer(self, rng, partial_basis, dtype):
        """A training forward runs each BatchNorm -> ReLU as one node with the convolution or
        pool that reads it, with logits, gradients and running statistics bitwise those of
        the per-layer path."""
        x = rng.standard_normal((3, 1, 8, 8)).astype(dtype)
        labels = np.array([0, 3, 1])
        runs = []
        for fused in (True, False):
            model = small_group_model(partial_basis, seed=5, dtype=dtype)
            if fused:
                logits = model.forward(x, training=True)
            else:
                logits = Tensor(x)
                for layer in model.layers:
                    logits = layer.forward(logits, True)
            ops, stack = set(), [logits]
            while stack:
                ops.add(stack[-1]._op)
                stack.extend(stack.pop()._parents)
            T.softmax_cross_entropy(logits, labels).backward()
            runs.append((ops, [logits.data] + [p.grad for p in model.parameters()]
                         + [b for _, b in model.named_buffers()]))
        assert {"batchnorm_relu_maxpool2x2"} <= runs[0][0]
        assert not {"batchnorm_train", "relu", "maxpool2x2"} & runs[0][0]
        assert {"batchnorm_train", "relu", "maxpool2x2"} <= runs[1][0]
        for got, want in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(got, want)

    def test_group_normalization_covers_orientation_axis(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 8, 5, 5)))
        gamma = Tensor(np.ones(2, dtype=np.float64))
        beta = Tensor(np.zeros(2, dtype=np.float64))
        out, mean, var = T.batchnorm_train(x, gamma, beta, (0, 2, 3, 4))
        normalized = out.data
        assert np.abs(normalized.mean(axis=(0, 2, 3, 4))).max() <= 1e-10
        assert np.abs(normalized.std(axis=(0, 2, 3, 4)) - 1.0).max() <= 1e-3


class TestCheckpoints:
    def test_round_trip_bitwise(self, rng, tmp_path, partial_basis):
        model = small_group_model(partial_basis, seed=3)
        model.input_stats = (np.array([0.5]), np.array([0.25]))
        x = rng.standard_normal((2, 1, 8, 8))
        before = model.forward(x).data
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path, partial_basis)
        assert np.array_equal(back.forward(x).data, before)
        assert np.array_equal(back.input_stats[0], model.input_stats[0])

    def test_fingerprint_mismatch_rejected(self, rng, tmp_path, partial_basis):
        model = small_group_model(partial_basis, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        other = populate_partial(np.random.default_rng(99).uniform(-1, 1, (2, 4, 3, 3)))
        with pytest.raises(FingerprintMismatch):
            load_checkpoint(path, other)

    def test_corruption_rejected(self, tmp_path, partial_basis):
        model = small_group_model(partial_basis, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path, partial_basis)

    @pytest.mark.parametrize("header,declared", [
        (b'{"arch": {}}', 4096),    # length runs past the end of the file
        (b"\xff not json", None),  # bytes that are not a JSON document
        (b"[1, 2]", None),          # JSON, but not an object
    ])
    def test_malformed_header_rejected(self, tmp_path, header, declared):
        payload = b"RCKP" + struct.pack("<II", 1, declared or len(header)) + header
        path = tmp_path / "bad.ckpt"
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(path)

    @staticmethod
    def _rewrite_header(path, edit):
        """Apply ``edit`` to the parsed header and re-hash, so the trailer stays valid."""
        header, arrays = read_checkpoint_file(path)
        write_checkpoint_file(path, edit(header), arrays)

    def test_empty_header_rejected(self, tmp_path, partial_basis):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_group_model(partial_basis, seed=3), path)
        self._rewrite_header(path, lambda header: {})
        with pytest.raises(CheckpointFormatError, match=r"lacks \['arch', 'arch_hash'"):
            load_checkpoint(path, partial_basis)

    @pytest.mark.parametrize("key", ["arch", "arch_hash", "basis_fingerprint", "arrays"])
    def test_missing_header_key_rejected(self, tmp_path, partial_basis, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_group_model(partial_basis, seed=3), path)
        self._rewrite_header(path, lambda header: {k: v for k, v in header.items() if k != key})
        with pytest.raises(CheckpointFormatError, match=rf"lacks \['{key}'\]"):
            load_checkpoint(path, partial_basis)

    @pytest.mark.parametrize("key", ["name", "shape", "dtype"])
    def test_missing_array_key_rejected(self, tmp_path, partial_basis, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_group_model(partial_basis, seed=3), path)

        def drop(header):
            del header["arrays"][1][key]
            return header
        self._rewrite_header(path, drop)
        with pytest.raises(CheckpointFormatError, match=rf"lacks \['{key}'\]"):
            load_checkpoint(path, partial_basis)

    def test_array_shape_mismatch_rejected(self, tmp_path, partial_basis):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_group_model(partial_basis, seed=3), path)

        def reshape(header):
            shape = header["arrays"][0]["shape"]
            header["arrays"][0]["shape"] = [int(np.prod(shape))]
            return header
        self._rewrite_header(path, reshape)
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(path, partial_basis)

    def test_array_size_past_int64_rejected(self, tmp_path, partial_basis):
        """2**32 x 2**32 elements wrap to 0 in int64; the bounds check must still see them."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_group_model(partial_basis, seed=3), path)

        def enlarge(header):
            header["arrays"][0]["shape"] = [2**32, 2**32]
            return header
        self._rewrite_header(path, enlarge)
        with pytest.raises(CheckpointFormatError, match="runs past the end of the file"):
            load_checkpoint(path, partial_basis)

    def test_translational_round_trip(self, rng, tmp_path):
        model = build_model("translational", seed=5, dtype="float32")
        path = tmp_path / "plain.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(model.forward(x).data, back.forward(x).data)
