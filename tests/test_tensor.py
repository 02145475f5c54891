import tracemalloc
import weakref

import numpy as np
import pytest

from rotoconv import tensor as T
from rotoconv.basis import populate_partial
from rotoconv.network import build_model, gconv
from rotoconv.tensor import GraphError, Tensor

from oracles import brute_correlate2d, brute_maxpool2x2, conv_dense_matrix


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestCorrelate2d:
    def test_dirac_kernel_is_identity(self, rng):
        x = t64(rng.random((2, 1, 6, 6)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = T.correlate2d(x, t64(k))
        assert np.array_equal(out.data, x.data)

    def test_matches_brute_force(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        k = rng.standard_normal((1, 1, 3, 3))
        out = T.correlate2d(t64(x), t64(k)).data
        expect = brute_correlate2d(x, k)
        assert np.abs(out - expect).max() <= 1e-6

    @pytest.mark.parametrize("shape", [(2, 8, 8), (3, 7, 7)],
                             ids=["same-1-shape0", "same-1-shape1"])
    def test_matches_dense_matrix(self, rng, shape):
        c = shape[0]
        x = rng.standard_normal((1,) + shape)
        k = rng.standard_normal((2, c, 3, 3))
        out = T.correlate2d(t64(x), t64(k)).data
        m = conv_dense_matrix(shape, k)
        expect = (m @ x.reshape(-1)).reshape(out.shape)
        assert np.abs(out - expect).max() <= 1e-10

    def test_linear_in_input(self, rng):
        f = rng.standard_normal((1, 2, 6, 6))
        g = rng.standard_normal((1, 2, 6, 6))
        k = t64(rng.standard_normal((3, 2, 3, 3)))
        a, b = 0.7, -1.3
        combined = T.correlate2d(t64(a * f + b * g), k).data
        separate = a * T.correlate2d(t64(f), k).data + b * T.correlate2d(t64(g), k).data
        assert np.abs(combined - separate).max() <= 1e-6

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ValueError, match="odd"):
            T.correlate2d(t64(rng.random((1, 1, 4, 4))), t64(rng.random((1, 1, 2, 2))))

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="channel"):
            T.correlate2d(t64(rng.random((1, 2, 4, 4))), t64(rng.random((1, 3, 3, 3))))


def _conv_and_grads(x, w, g):
    """Forward output plus grad-x and grad-w for the upstream gradient ``g``."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = T.correlate2d(xt, wt)
    T.matmul(T.reshape(out, (1, -1)), Tensor(g.reshape(-1, 1))).backward()
    return out.data, xt.grad, wt.grad


def _oracle_conv_and_grads(x, w, g):
    """The same three arrays from the brute-force and dense-matrix oracles alone."""
    out = brute_correlate2d(x, w)
    m = conv_dense_matrix(x.shape[1:], w)
    dense_out = np.stack([m @ xi.reshape(-1) for xi in x]).reshape(out.shape)
    gx = np.stack([m.T @ gi.reshape(-1) for gi in g]).reshape(x.shape)
    # The output is linear in the kernel: grad-w[o, c, u, v] is <g[:, o], x * e_cuv>.
    gw = np.zeros(w.shape)
    for c, u, v in np.ndindex(w.shape[1:]):
        one_hot = np.zeros((1,) + w.shape[1:])
        one_hot[0, c, u, v] = 1.0
        resp = brute_correlate2d(x, one_hot)
        gw[:, c, u, v] = np.einsum("bohw,bhw->o", g, resp[:, 0])
    return out, dense_out, gx, gw


ORACLE_CASES = [
    (1, 2, 3, 2, 5),
    (3, 2, 2, 3, 6),
    (5, 2, 2, 2, 6),
    (3, 2, 2, 3, 7),  # odd extent
    (3, 2, 1, 9, 7),  # the pretrain shape: one channel in, nine out
]


class TestCorrelate2dAgainstOracles:
    """Forward, grad-x and grad-w of the im2col kernel against tests/oracles.py."""

    @pytest.mark.parametrize("k,batch,c,o,hw", ORACLE_CASES,
                             ids=["{}-same-1-{}-{}-{}-{}".format(*case) for case in ORACLE_CASES])
    def test_forward_and_gradients(self, rng, k, batch, c, o, hw):
        x = rng.standard_normal((batch, c, hw, hw))
        w = rng.standard_normal((o, c, k, k))
        g = rng.standard_normal((batch, o, hw, hw))
        got = _conv_and_grads(x, w, g)
        want_out, dense_out, want_gx, want_gw = _oracle_conv_and_grads(x, w, g)
        assert np.abs(got[0] - want_out).max() <= 1e-10
        assert np.abs(got[0] - dense_out).max() <= 1e-10
        assert np.abs(got[1] - want_gx).max() <= 1e-10
        assert np.abs(got[2] - want_gw).max() <= 1e-10

    def test_batch_split_across_column_chunks(self, rng, monkeypatch):
        x = rng.standard_normal((5, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        g = rng.standard_normal((5, 3, 6, 6))
        sample_bytes = 2 * 3 * 3 * 6 * 6 * x.itemsize
        monkeypatch.setattr(T, "_COLUMN_BYTES", 2 * sample_bytes)
        assert [sl.stop - sl.start for sl, _ in T._column_blocks(x, 3, len(x))] == [2, 2, 1]
        got = _conv_and_grads(x, w, g)
        want_out, _, want_gx, want_gw = _oracle_conv_and_grads(x, w, g)
        assert np.abs(got[0] - want_out).max() <= 1e-10
        assert np.abs(got[1] - want_gx).max() <= 1e-10
        assert np.abs(got[2] - want_gw).max() <= 1e-10

    def test_padding_transient_does_not_grow_with_batch(self, rng, monkeypatch):
        """With one sample per column chunk, a forward plus backward allocates, beyond the
        output and the two gradients it hands back, the same at B=2 and B=16: each chunk
        is padded on its own. Padding the whole batch up front grows by 15 padded
        samples of x and of g (about 0.7 MB here)."""
        c, o, hw, k = 2, 3, 32, 3
        monkeypatch.setattr(T, "_COLUMN_BYTES", c * k * k * hw * hw * 8)

        def transient(batch):
            x = Tensor(rng.standard_normal((batch, c, hw, hw)), requires_grad=True)
            w = Tensor(rng.standard_normal((o, c, k, k)), requires_grad=True)
            x.grad, w.grad = np.zeros_like(x.data), np.zeros_like(w.data)
            g = rng.standard_normal((batch, o, hw, hw))
            tracemalloc.start()
            try:
                out = T.correlate2d(x, w)
                out._backward(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.data.nbytes - x.data.nbytes - w.data.nbytes

        padded_sample = o * (hw + k - 1) ** 2 * 8
        assert transient(16) <= transient(2) + padded_sample

    def test_float32_against_float64_oracle(self, rng):
        # Each result sums at most 2*6*6 = 72 float32 products (eps 1.2e-7), so
        # its rounding error stays well under 1e-5 of the largest magnitude;
        # the worst relative error measured on this case is 1.1e-7.
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        g = rng.standard_normal((2, 3, 6, 6))
        got = _conv_and_grads(x.astype(np.float32), w.astype(np.float32), g.astype(np.float32))
        want_out, _, want_gx, want_gw = _oracle_conv_and_grads(x, w, g)
        for arr, want in zip(got, (want_out, want_gx, want_gw)):
            assert arr.dtype == np.float32
            assert np.abs(arr - want).max() <= 1e-5 * np.abs(want).max()


def _forward_and_grad_x(op, x, w, g):
    """op(x, w) and the gradient it sends back to x for the upstream gradient ``g``."""
    xt = Tensor(x, requires_grad=True)
    out = op(xt, Tensor(w))
    out._backward(g.reshape(out.data.shape))
    return out.data, xt.grad


class TestColumnBuffers:
    """Forwards, grad-x and grad-w take their columns from ``_column_blocks``: on the block
    path in blocks of whole samples, elsewhere in chunks of the whole batch."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_holds_one_block_and_one_padded_block(self, rng, monkeypatch, k):
        """Iterating over the blocks of a batch allocates one block of columns and, for
        k > 1, one padded block, however many blocks there are; at k = 1 no padded copy."""
        c, hw, block = 4, 16, 2
        monkeypatch.setattr(T, "_COLUMN_BYTES", block * c * k * k * hw * hw * 8)

        def peak(batch):
            x = rng.standard_normal((batch, c, hw, hw))
            tracemalloc.start()
            try:
                sizes = [sl.stop - sl.start for sl, _ in T._column_blocks(x, k, batch)]
                return sizes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sizes, small = peak(3)
        assert sizes == [2, 1]
        sizes, large = peak(9)
        assert sizes == [2, 2, 2, 2, 1]
        padded_block = block * c * (hw + k - 1) ** 2 * 8 if k > 1 else 0
        assert large <= block * c * k * k * hw * hw * 8 + padded_block + 8192
        assert large <= small + 2048  # slices and views: under 200 bytes a block

    @staticmethod
    def spy_blocks(monkeypatch):
        """Record the sample slices of every block ``_column_blocks`` yields."""
        slices = []
        blocks = T._column_blocks

        def spied(x, k, step):
            for sl, cols in blocks(x, k, step):
                slices.append(sl)
                yield sl, cols

        monkeypatch.setattr(T, "_column_blocks", spied)
        return slices

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("block_columns, blocks", [(256, [1] * 7), (512, [3, 3, 1]),
                                                       (768, [4, 3])], ids=["1", "3", "4"])
    @pytest.mark.parametrize("op", ["correlate2d", "gconv"])
    def test_bitwise_equal_at_any_block_size(self, rng, monkeypatch, op, block_columns, blocks,
                                             dtype):
        """A batch of 7 in blocks of 1, 3 or 4 samples (the last one short) gives the bytes
        of one chunk of all 7, forward and grad-x. Either way each sample's columns are
        1.2 MB and 256 wide, so the block path runs. The products map columns, so only
        the split of the GEMM's columns changes. Under OpenBLAS that moves bits for
        one-row products, for products of up to 100**3 multiply-adds and at some column
        counts; blocks of whole 16x16 samples with 64 or more output rows are none of these."""
        batch, hw = 7, 16
        channels = 64 if dtype == "float64" else 128  # in and out: 1.2 MB of columns a sample
        if op == "correlate2d":
            x = rng.standard_normal((batch, channels, hw, hw)).astype(dtype)
            w = rng.standard_normal((channels, channels, 3, 3)).astype(dtype)
            run = T.correlate2d
        else:
            x = rng.standard_normal((batch, channels // 8, 8, hw, hw)).astype(dtype)
            w = rng.standard_normal((channels // 8, channels // 8, 8, 4)).astype(dtype)
            elements = rng.standard_normal((8, 4, 3, 3))
            run = lambda xt, wt: gconv(xt, wt, elements)  # noqa: E731
        g = rng.standard_normal((batch, channels, hw, hw)).astype(dtype)

        monkeypatch.setattr(T, "_SMALL_SAMPLE_BYTES", 1 << 40)
        want = _forward_and_grad_x(run, x, w, g)
        monkeypatch.undo()
        monkeypatch.setattr(T, "_BLOCK_COLUMNS", block_columns)
        slices = self.spy_blocks(monkeypatch)
        got = _forward_and_grad_x(run, x, w, g)
        assert [sl.stop - sl.start for sl in slices] == blocks * 2  # forward, then grad-x
        for arr, ref in zip(got, want):
            assert arr.dtype == ref.dtype and np.array_equal(arr, ref)

    @pytest.mark.parametrize("dtype, grad_w_rtol", [("float32", 1e-5), ("float64", 1e-12)])
    @pytest.mark.parametrize("block_columns, blocks, backward_blocks",
                             [(256, [1] * 7, [1] * 7), (512, [3, 3, 1], [2, 2, 2, 1]),
                              (768, [4, 3], [3, 3, 1])], ids=["1", "3", "4"])
    @pytest.mark.parametrize("op", ["correlate2d", "gconv"])
    def test_one_pass_backward_matches_the_chunk_path(self, rng, monkeypatch, op, block_columns,
                                                       blocks, backward_blocks, dtype,
                                                       grad_w_rtol):
        """With both gradients asked for, the backward makes one pass over blocks of g's
        columns, of at most ``_BLOCK_COLUMNS`` columns, and builds no other. At the
        shapes of ``test_bitwise_equal_at_any_block_size``, forward and grad-x are
        bitwise those of the chunk path, and grad-w, whose sum the blocks group
        differently, is equal to rounding."""
        batch, hw = 7, 16
        channels = 64 if dtype == "float64" else 128
        if op == "correlate2d":
            x = rng.standard_normal((batch, channels, hw, hw)).astype(dtype)
            w = rng.standard_normal((channels, channels, 3, 3)).astype(dtype)
            run = T.correlate2d
        else:
            x = rng.standard_normal((batch, channels // 8, 8, hw, hw)).astype(dtype)
            w = rng.standard_normal((channels // 8, channels // 8, 8, 4)).astype(dtype)
            elements = rng.standard_normal((8, 4, 3, 3))
            run = lambda xt, wt: gconv(xt, wt, elements)  # noqa: E731
        g = rng.standard_normal((batch, channels, hw, hw)).astype(dtype)

        def forward_and_grads():
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            out = run(xt, wt)
            out._backward(g.reshape(out.data.shape))
            return out.data, xt.grad, wt.grad

        monkeypatch.setattr(T, "_SMALL_SAMPLE_BYTES", 1 << 40)
        want = forward_and_grads()
        monkeypatch.undo()
        monkeypatch.setattr(T, "_BLOCK_COLUMNS", block_columns)
        slices = self.spy_blocks(monkeypatch)
        got = forward_and_grads()
        assert [sl.stop - sl.start for sl in slices] == blocks + backward_blocks
        for arr, ref in zip(got[:2], want[:2]):
            assert arr.dtype == ref.dtype and np.array_equal(arr, ref)
        assert got[2].dtype == want[2].dtype
        assert np.abs(got[2] - want[2]).max() <= grad_w_rtol * np.abs(want[2]).max()

    def test_graph_free_group_forward_holds_one_block(self, rng):
        """Beyond its input, output and filter bank, a graph-free group forward on 28x28
        maps allocates one sample's columns and one padded sample, at batch 2 as at
        batch 16. One chunk of 16 samples would be 16 samples' columns (22 MB here)."""
        channels, order, hw, k = 3, 8, 28, 3
        elements = rng.standard_normal((order, 4, k, k))
        coefficients = Tensor(rng.standard_normal((2, channels, order, 4)))
        bank_bytes = 2 * order * channels * order * k * k * 8

        def transient(batch):
            x = Tensor(rng.standard_normal((batch, channels, order, hw, hw)))
            tracemalloc.start()
            try:
                with T.no_grad():
                    out = gconv(x, coefficients, elements)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - out.data.nbytes - bank_bytes

        sample_columns = channels * order * k * k * hw * hw * 8
        padded_sample = channels * order * (hw + k - 1) ** 2 * 8
        assert sample_columns >= T._SMALL_SAMPLE_BYTES and hw * hw >= T._BLOCK_COLUMNS
        small, large = transient(2), transient(16)
        assert large <= sample_columns + padded_sample + bank_bytes
        assert large <= small + 4096


class TestTransposeCorrelate2d:
    def test_dirac_kernel_is_identity(self, rng):
        x = t64(rng.random((1, 1, 5, 5)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        assert np.array_equal(T.transpose_correlate2d(x, t64(k)).data, x.data)

    def test_adjoint_inner_product(self, rng):
        f = rng.standard_normal((2, 2, 5, 5))
        g = rng.standard_normal((2, 3, 5, 5))
        k = t64(rng.standard_normal((3, 2, 3, 3)))
        lhs = float((T.correlate2d(t64(f), k).data * g).sum())
        rhs = float((f * T.transpose_correlate2d(t64(g), k).data).sum())
        assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), 1.0)

    def test_is_matrix_transpose(self, rng):
        k = rng.standard_normal((2, 3, 3, 3))
        fwd = conv_dense_matrix((3, 4, 4), k)
        basis_vectors = np.eye(2 * 4 * 4)
        cols = []
        for v in basis_vectors:
            out = T.transpose_correlate2d(t64(v.reshape(1, 2, 4, 4)), t64(k)).data
            cols.append(out.reshape(-1))
        adj = np.stack(cols, axis=1)
        assert np.abs(adj - fwd.T).max() <= 1e-10

    def test_impulse_shifts_opposite(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 0, 1] = 1.0  # one-hot above center
        fwd = T.correlate2d(t64(x), t64(k)).data
        bwd = T.transpose_correlate2d(t64(x), t64(k)).data
        assert fwd[0, 0, 3, 2] == 1.0  # correlation pulls the impulse down
        assert bwd[0, 0, 1, 2] == 1.0  # adjoint pushes it up
        assert fwd.sum() == 1.0 and bwd.sum() == 1.0


class TestPointwise:
    def test_relu(self):
        out = T.relu(t64([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_l1_norm(self):
        assert T.l1_norm(t64([[1.0, -1.0], [1.0, -1.0]])).item() == 4.0

    def test_softmax_cross_entropy_uniform(self):
        logits = t64(np.zeros((4, 10)))
        loss = T.softmax_cross_entropy(logits, np.array([0, 3, 7, 9]))
        assert abs(loss.item() - np.log(10.0)) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            T.softmax_cross_entropy(t64(np.zeros((2, 3))), np.array([0, 3]))

    def test_fractional_labels_rejected(self):
        with pytest.raises(ValueError, match="integer dtype"):
            T.softmax_cross_entropy(t64(np.zeros((2, 3))), np.array([0.5, 1.0]))

    def test_batchnorm_gamma_length_mismatch(self, rng):
        x = t64(rng.random((2, 3, 4, 4)))
        with pytest.raises(ValueError, match="gamma"):
            T.batchnorm_train(x, t64(np.ones(2)), t64(np.zeros(3)), (0, 2, 3))


class TestMaxPool:
    def test_single_block(self):
        out = T.maxpool2x2(t64([[1.0, 2.0], [3.0, 4.0]]))
        assert out.data.tolist() == [[4.0]]

    def test_constant_input(self):
        out = T.maxpool2x2(t64(np.full((2, 4, 4), 2.5)))
        assert np.all(out.data == 2.5)

    def test_matches_block_max_oracle(self, rng):
        x = rng.standard_normal((4, 4))
        out = T.maxpool2x2(t64(x)).data
        expect = np.array([[x[2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
                            for j in range(2)] for i in range(2)])
        assert np.array_equal(out, expect)

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ValueError, match="even"):
            T.maxpool2x2(t64(rng.random((3, 3))))

    def test_tie_gradient_goes_to_first(self):
        x = t64(np.ones((2, 2)), grad=True)
        loss = T.l1_norm(T.maxpool2x2(x))
        loss.backward()
        assert x.grad.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_keeps_uint8_index(self, rng):
        out = T.maxpool2x2(Tensor(rng.random((2, 3, 4, 4)), requires_grad=True))
        held = closure_arrays(out)
        assert [a.dtype for a in held] == [np.uint8] and held[0].size == out.data.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_matches_index_path_bitwise(self, rng, dtype):
        x = np.maximum(TestBatchNormReLU.tricky_input((2, 3, 6, 6), dtype, rng), 0)
        x[..., 2:4, 0:2] = [[-0.0, 0.0], [0.0, -0.0]]  # ReLU outputs of either sign
        x[..., 2:4, 2:4] = [[0.0, -0.0], [-0.0, -0.0]]
        x[..., 4:6, 0:2] = -0.0
        want = T.maxpool2x2(Tensor(x, requires_grad=True)).data
        with T.no_grad():
            out = T.maxpool2x2(Tensor(x, requires_grad=True))
        assert out._backward is None and out._parents == ()
        assert np.signbit(want[..., 1, 0]).all() and not np.signbit(want[..., 1, 1]).any()
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_max_matches_block_oracle(self, rng, dtype):
        x = rng.integers(-2, 3, (2, 3, 8, 8)).astype(dtype)
        x[rng.random(x.shape) < 0.4] *= -0.0  # +-0.0 ties wherever a zero was drawn
        x[rng.random(x.shape) < 0.05] = np.nan
        x[..., 0:2, 0:2] = [[np.nan, 1.0], [np.nan, 2.0]]
        x[..., 0:2, 2:4] = [[3.0, np.nan], [4.0, np.nan]]
        x[..., 2:4, 0:2] = 7.0
        x[..., 2:4, 2:4] = [[-0.0, 0.0], [0.0, -0.0]]
        x[..., 4:6, 0:2] = [[0.0, -0.0], [-0.0, 0.0]]
        g = rng.standard_normal((2, 3, 4, 4)).astype(dtype)
        want, want_grad = brute_maxpool2x2(x, g)
        xt = Tensor(x, requires_grad=True)
        out = T.maxpool2x2(xt)
        T.matmul(T.reshape(out, (1, -1)), Tensor(g.reshape(-1, 1))).backward()
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
        assert xt.grad.dtype == dtype and xt.grad.tobytes() == want_grad.tobytes()
        with T.no_grad():
            assert T.maxpool2x2(Tensor(x)).data.tobytes() == want.tobytes()


def closure_arrays(node):
    """The numpy arrays a node's adjoint closure keeps alive (its parents aside)."""
    return [c.cell_contents for c in node._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


def held_arrays(node):
    """The numpy arrays a node's adjoint keeps alive through its closure, the closures it
    calls and any ``_RebuiltMap`` they hold, apart from views of its parents' data."""
    parents = [p.data for p in node._parents]
    held, stack = {}, [node._backward]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            if not any(np.shares_memory(obj, p) for p in parents):
                held[id(obj)] = obj
        elif isinstance(obj, T._RebuiltMap):
            stack.extend(vars(obj).values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__)
    return list(held.values())


class TestBatchNormReLU:
    """A training BatchNorm-ReLU handed to a pool against batchnorm_train -> relu -> the
    pool, bit for bit."""

    @staticmethod
    def tricky_input(shape, dtype, rng):
        """Per channel, one 2x2 block far below the mean (all negative after the affine
        map, so ReLU ties it at zero) and one with a maximum tied three ways."""
        x = rng.standard_normal(shape)
        x[..., 0:2, 0:2] = -10.0
        x[..., 0:2, 2:4] = [[4.0, 4.0], [1.0, 4.0]]
        return x.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, axes", [((3, 2, 6, 6), (0, 2, 3)),
                                             ((2, 2, 8, 6, 6), (0, 2, 3, 4))])
    @pytest.mark.parametrize("pool", [T.global_maxpool, T.maxpool2x2],
                             ids=["global_pool", "pool"])
    def test_matches_unfused_chain_bitwise(self, rng, dtype, shape, axes, pool):
        x = self.tricky_input(shape, dtype, rng)
        x[0, 0] = -10.0  # a dead sample channel, whose global max is a ReLU zero
        gamma = (rng.random(shape[1]) + 0.5).astype(dtype)
        beta = (0.2 * rng.standard_normal(shape[1])).astype(dtype)
        results = []
        for fused in (True, False):
            xt, gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta))
            if fused:
                out, mean, var = T.batchnorm_relu_train(xt, gt, bt, axes)
            else:
                out, mean, var = T.batchnorm_train(xt, gt, bt, axes)
                out = T.relu(out)
            out = pool(out)
            upstream = np.random.default_rng(9).standard_normal(out.data.shape).astype(dtype)
            T.matmul(T.reshape(out, (1, -1)), Tensor(upstream.reshape(-1, 1))).backward()
            results.append((out.data, mean, var, xt.grad, gt.grad, bt.grad))
        assert (results[0][0] == 0).any() and (results[0][0] > 0).any()
        for got, want in zip(*results):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_node_keeps_output_index_and_stats_only(self, rng):
        """The pool node that took the map over keeps its pooled output as its data, and
        in its adjoint a uint8 index per pooled value and the mean and inverse std; its
        parents are the BatchNorm's input and parameters, and no map is kept."""
        x = Tensor(rng.standard_normal((2, 3, 8, 4, 4)).astype(np.float32), requires_grad=True)
        gamma, beta = Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32))
        out = T.maxpool2x2(T.batchnorm_relu_train(x, gamma, beta, (0, 2, 3, 4))[0])
        assert out._op == "batchnorm_relu_maxpool2x2" and out._parents == (x, gamma, beta)
        held = held_arrays(out)
        assert sorted(a.nbytes for a in held) == [12, 12, out.data.size]
        assert np.uint8 in [a.dtype for a in held]

    def test_batchnorm_train_keeps_stats_only(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 5, 5)), requires_grad=True)
        out, _, _ = T.batchnorm_train(x, t64(np.ones(3)), t64(np.zeros(3)), (0, 2, 3))
        assert sorted(a.nbytes for a in closure_arrays(out)) == [24, 24]


class TestGradientHandOver:
    """The BatchNorm adjoint builds its input's gradient inside the output gradient it
    owns and gives that array to the input. Gradients handed over and then added to, or
    added to and then handed over, must each stay an array of their own."""

    @pytest.mark.parametrize("direct_first", [False, True], ids=["handed_first", "added_first"])
    def test_conv_output_read_by_a_fused_reader_and_the_loss(self, rng, direct_first):
        """The conv output c takes the fused BatchNorm-ReLU -> conv reader's gradient as
        its own array, then the direct read's two gradients (of c * c) are added to it;
        or it stores a copy of the direct read's first and then adds the handed one."""
        def build(x, w1, w2, gamma, beta):
            c = T.correlate2d(x, w1)
            fused = T.l1_norm(T.correlate2d(T.batchnorm_relu_train(c, gamma, beta,
                                                                   (0, 2, 3))[0], w2))
            direct = T.l1_norm(T.mul(c, c))
            return direct + fused if direct_first else fused + direct

        T.check_gradient(build, [rng.standard_normal((2, 2, 4, 4)),
                                 rng.standard_normal((3, 2, 3, 3)),
                                 rng.standard_normal((2, 3, 3, 3)),
                                 rng.random(3) + 0.5, 0.2 * rng.standard_normal(3)])

    @pytest.mark.parametrize("relu_first", [False, True], ids=["add_first", "relu_first"])
    def test_batchnorm_output_read_by_two_ops(self, rng, relu_first):
        """The BatchNorm output's gradient is the sum of what a ReLU and an ``add`` with a
        leaf c give it, which the adjoint then works in; ``add`` gives c and the output
        one gradient, so each must take a copy. The BatchNorm input is a leaf that the loss
        reads directly too."""
        def build(x, gamma, beta, c, d):
            out, _, _ = T.batchnorm_train(x, gamma, beta, (0, 2, 3))
            added = T.l1_norm(T.mul(T.add(out, c), d))
            relu = T.l1_norm(T.relu(out))
            return (relu + added if relu_first else added + relu) + T.l1_norm(T.mul(x, x))

        T.check_gradient(build, [rng.standard_normal((3, 2, 3, 3)),
                                 rng.random(2) + 0.5, 0.2 * rng.standard_normal(2),
                                 rng.standard_normal((3, 2, 3, 3)),
                                 rng.standard_normal((3, 2, 3, 3))])


class TestBatchNormEval:
    @pytest.mark.parametrize("dtypes", [(np.float32,) * 3, (np.float64,) * 3,
                                        (np.float32, np.float64, np.float32),
                                        (np.float32, np.float32, np.float64)])
    def test_matches_expression_bitwise_with_its_promotion(self, rng, dtypes):
        x, gamma, beta = (rng.standard_normal(shape).astype(dtype)
                          for shape, dtype in zip([(2, 3, 4, 4), (3,), (3,)], dtypes))
        mean, var = rng.standard_normal(3), rng.random(3)
        x_before = x.copy()
        out = T.batchnorm_eval(Tensor(x), Tensor(gamma), Tensor(beta), (0, 2, 3), mean, var)
        inv = (1.0 / np.sqrt(var + 1e-5)).reshape(1, 3, 1, 1).astype(x.dtype)
        mu = mean.reshape(1, 3, 1, 1).astype(x.dtype)
        want = gamma.reshape(1, 3, 1, 1) * (x - mu) * inv + beta.reshape(1, 3, 1, 1)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        assert x.tobytes() == x_before.tobytes()


class TestGlobalMaxPool:
    def test_constant(self):
        out = T.global_maxpool(t64(np.full((1, 2, 3, 3), 7.0)))
        assert np.all(out.data == 7.0)

    def test_permutation_invariance_exact(self, rng):
        x = rng.standard_normal((1, 2, 4, 6, 6))
        rolled = np.roll(np.rot90(x, 1, axes=(-2, -1)), 2, axis=2)
        a = T.global_maxpool(t64(x)).data
        b = T.global_maxpool(t64(rolled)).data
        assert np.array_equal(a, b)

    def test_matches_scan(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        out = T.global_maxpool(t64(x)).data
        assert np.array_equal(out, x.reshape(2, 3, -1).max(axis=-1))


class TestBackward:
    def test_l1_gradient(self):
        x = t64([2.0, -3.0], grad=True)
        T.l1_norm(x).backward()
        assert x.grad.tolist() == [1.0, -1.0]

    def test_first_gradient_stored_as_copy(self):
        t = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        g = np.array([[-0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        T.accumulate_grad(t, g)
        g[0, 1] = 7.0
        assert t.grad.dtype == np.float32 and t.grad[0, 1] == 1.0
        assert np.signbit(t.grad[0, 0])  # stored, not added to a zero (+0.0)
        T.accumulate_grad(t, g)
        assert t.grad[0].tolist() == [0.0, 8.0, 4.0]

    @pytest.mark.parametrize("op, adjoint", [
        (lambda a: T.correlate2d(a, t64(np.ones((2, 3, 3, 3)))), "_correlate"),
        (T.maxpool2x2, "_unpool2x2"),
    ], ids=["correlate2d", "maxpool2x2"])
    def test_fresh_grad_x_is_handed_over_uncopied(self, rng, monkeypatch, op, adjoint):
        """A convolution's or pool's grad-x becomes its plain input's first gradient as the
        array its adjoint made, not as a copy (``_hand_over``)."""
        made, kernel = [], getattr(T, adjoint)
        monkeypatch.setattr(T, adjoint, lambda *args: made.append(kernel(*args)) or made[-1])
        x = t64(rng.standard_normal((2, 3, 4, 4)), grad=True)
        T.l1_norm(op(x)).backward()
        assert np.shares_memory(x.grad, made[-1])

    def test_non_scalar_loss_rejected(self, rng):
        x = t64(rng.random((2, 2)), grad=True)
        with pytest.raises(GraphError, match="scalar"):
            T.relu(x).backward()

    def test_detached_graph_rejected(self, rng):
        x = t64(rng.random((2, 2)))
        with pytest.raises(GraphError, match="detached"):
            T.l1_norm(x).backward()

    def test_shared_node_accumulates(self):
        x = t64([1.0, 2.0], grad=True)
        y = x + x
        T.l1_norm(y).backward()
        assert x.grad.tolist() == [2.0, 2.0]

    def test_interior_data_freed_while_loss_alive(self, rng):
        x = t64(rng.standard_normal((3, 4)), grad=True)
        w = t64(rng.standard_normal((4, 5)), grad=True)
        loss = T.l1_norm(T.relu(T.matmul(x, w)))
        interior = weakref.ref(loss._parents[0]._parents[0].data)
        assert interior() is not None
        loss.backward()
        assert interior() is None
        assert np.isfinite(loss.item()) and x.grad is not None

    def test_leaves_keep_grad_and_non_leaves_drop_it(self, rng):
        x = t64(rng.standard_normal((3, 4)), grad=True)
        w = t64(rng.standard_normal((4, 5)), grad=True)
        loss = T.l1_norm(T.relu(T.matmul(x, w)) * 2.0)
        nodes, stack = [], [loss]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1]._parents)
        loss.backward()
        interior = [n for n in nodes if n._op != "leaf"]
        assert len(interior) == 4
        assert all(n.grad is None and n._backward is None and n._parents == ()
                   for n in interior)
        assert x.grad.shape == (3, 4) and w.grad.shape == (4, 5)

    def test_second_backward_raises(self, rng):
        x = t64(rng.standard_normal(3), grad=True)
        loss = T.l1_norm(T.relu(x) * 3.0)
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(GraphError, match="released"):
            loss.backward()
        assert np.array_equal(x.grad, first)

    def test_second_loss_through_released_subexpression_raises(self):
        x = t64([1.0, -2.0, 3.0], grad=True)
        shared = T.relu(x) * 2.0
        first_loss = T.l1_norm(shared)
        second_loss = T.l1_norm(shared * 5.0)
        first_loss.backward()
        assert x.grad.tolist() == [2.0, 0.0, 2.0]
        with pytest.raises(GraphError, match="released"):
            second_loss.backward()
        assert x.grad.tolist() == [2.0, 0.0, 2.0]

    def test_backward_peak_below_forward_graph(self):
        """One float32 group-model training step at [4, 3, 16, 16], forward and backward,
        stays under 48 MiB of traced allocation from its start (it takes 37 MiB). The
        forward graph keeps one array per conv and one per fused BatchNorm-ReLU(-pool)
        block, the gconv nodes keep no filter bank, and backward frees the graph as it
        goes. Keeping each bank on the graph as a node of its own peaks at 109 MiB; with
        a node per BatchNorm, ReLU and pool too, at 159 MiB; kept whole through
        backward, at 305 MiB."""
        basis = populate_partial(np.random.default_rng(3).uniform(-1, 1, (2, 9, 3, 3)))
        model = build_model("group", "partial", basis, in_channels=3, seed=1)
        x = np.random.default_rng(4).standard_normal((4, 3, 16, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = T.softmax_cross_entropy(model.forward(Tensor(x), training=True),
                                           np.array([0, 1, 2, 3]))
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in model.parameters())
        assert peak - start <= 48 * 2 ** 20


class TestDebugFiniteCheck:
    def test_nan_silent_by_default(self):
        with np.errstate(over="ignore"):
            out = T.mul(t64([1e308]), t64([1e308]))
        assert np.isinf(out.data).any()


class TestShapeOps:
    def test_rot90_example(self):
        out = T.rot90_spatial(t64([[1.0, 2.0], [3.0, 4.0]]), 1)
        assert out.data.tolist() == [[2.0, 4.0], [1.0, 3.0]]

    def test_roll_semantics(self):
        x = np.arange(4.0)[:, None, None] * np.ones((4, 2, 2))
        out = T.roll_axis(t64(x), 1, axis=-3)
        assert out.data[:, 0, 0].tolist() == [3.0, 0.0, 1.0, 2.0]

    def test_crop_margins(self, rng):
        x = rng.random((2, 8, 8))
        out = T.crop2d(t64(x), 2)
        assert np.array_equal(out.data, x[:, 2:6, 2:6])

    def test_crop_too_deep_rejected(self, rng):
        with pytest.raises(ValueError, match="crop"):
            T.crop2d(t64(rng.random((4, 4))), 2)

    def test_take_slot(self, rng):
        x = rng.random((3, 2, 2))
        assert np.array_equal(T.take_slot(t64(x), 2).data, x[2])

    def test_take_slot_of_vector_is_scalar(self):
        a = t64([1.0, -2.0], grad=True)
        picked = T.take_slot(a, 1)
        assert picked.data.shape == () and picked.item() == -2.0
        T.l1_norm(picked).backward()
        assert np.array_equal(a.grad, [0.0, -1.0])

    def test_default_dtype_is_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64


class TestNoGrad:
    def test_result_records_no_graph(self, rng):
        w = t64(rng.random((2, 1, 3, 3)), grad=True)
        x = t64(rng.random((1, 1, 5, 5)))
        with T.no_grad():
            out = T.relu(T.correlate2d(x, w))
            assert out.requires_grad is False
            assert out._parents == () and out._backward is None
        assert np.array_equal(out.data, T.relu(T.correlate2d(x, w)).data)

    def test_backward_on_result_raises(self, rng):
        w = t64(rng.random(3), grad=True)
        with T.no_grad():
            loss = T.l1_norm(w * 2.0)
        with pytest.raises(GraphError, match="detached"):
            loss.backward()
        assert w.grad is None

    def test_nesting_restores_outer_state(self):
        w = t64([1.0], grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert (w * 2.0).requires_grad is False
        assert (w * 2.0).requires_grad is True

    def test_state_restored_after_exception(self):
        w = t64([1.0], grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside the block")
        loss = T.l1_norm(w * 3.0)
        loss.backward()
        assert w.grad.tolist() == [3.0]
