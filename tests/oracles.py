"""Independent reference implementations the tests check the library against.

Everything here is deliberately written the slow, obvious way (index loops,
dense matrices, explicit formulas) and never calls into the code paths it is
used to verify.
"""

import math

import numpy as np


def brute_correlate2d(x, w, padding="same", stride=1):
    """Quadruple-loop sliding inner products with zero padding."""
    b, c, h, wid = x.shape
    o, _, k, _ = w.shape
    pad = k // 2 if padding == "same" else 0
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wid + 2 * pad - k) // stride + 1
    out = np.zeros((b, o, ho, wo), dtype=np.float64)
    for bi in range(b):
        for oi in range(o):
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(k):
                            for v in range(k):
                                sy = y * stride + u - pad
                                sx = xx * stride + v - pad
                                if 0 <= sy < h and 0 <= sx < wid:
                                    acc += float(x[bi, ci, sy, sx]) * float(w[oi, ci, u, v])
                    out[bi, oi, y, xx] = acc
    return out


def conv_dense_matrix(in_shape, w, padding="same", stride=1):
    """The correlation as an explicit dense matrix on the flattened input."""
    c, h, wid = in_shape
    o, _, k, _ = w.shape
    pad = k // 2 if padding == "same" else 0
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wid + 2 * pad - k) // stride + 1
    m = np.zeros((o * ho * wo, c * h * wid), dtype=np.float64)
    for oi in range(o):
        for y in range(ho):
            for xx in range(wo):
                row = (oi * ho + y) * wo + xx
                for ci in range(c):
                    for u in range(k):
                        for v in range(k):
                            sy = y * stride + u - pad
                            sx = xx * stride + v - pad
                            if 0 <= sy < h and 0 <= sx < wid:
                                col = (ci * h + sy) * wid + sx
                                m[row, col] += float(w[oi, ci, u, v])
    return m


def rotation_dense_matrix(size, angle, method="gaussian", sigma=0.5, kernel_size=3):
    """Dense interpolated-rotation operator built from the definition."""
    c = (size - 1) / 2.0
    m = np.zeros((size * size, size * size), dtype=np.float64)
    quarter = angle / (math.pi / 2.0)
    if abs(quarter - round(quarter)) < 1e-12:
        q = int(round(quarter)) % 4
        for y in range(size):
            for x in range(size):
                sy, sx = y, x
                for _ in range(q):
                    sy, sx = sx, size - 1 - sy
                m[y * size + x, sy * size + sx] = 1.0
        return m
    cos, sin = math.cos(angle), math.sin(angle)
    half = kernel_size // 2
    for y in range(size):
        for x in range(size):
            dy, dx = y - c, x - c
            sy = c + cos * dy + sin * dx
            sx = c - sin * dy + cos * dx
            if method == "gaussian":
                cy, cx = round(sy), round(sx)
                cand = [(cy + a, cx + b) for a in range(-half, half + 1)
                        for b in range(-half, half + 1)]
                weights = [math.exp(-((gy - sy) ** 2 + (gx - sx) ** 2)
                                    / (2 * sigma * sigma)) for gy, gx in cand]
            else:
                fy, fx = math.floor(sy), math.floor(sx)
                ay, ax = sy - fy, sx - fx
                cand = [(fy, fx), (fy, fx + 1), (fy + 1, fx), (fy + 1, fx + 1)]
                weights = [(1 - ay) * (1 - ax), (1 - ay) * ax, ay * (1 - ax), ay * ax]
            pairs = [(wgt, gy, gx) for wgt, (gy, gx) in zip(weights, cand)
                     if 0 <= gy < size and 0 <= gx < size and wgt > 0]
            total = sum(p[0] for p in pairs)
            if total <= 0:
                continue
            for wgt, gy, gx in pairs:
                m[y * size + x, gy * size + gx] = wgt / total
    return m


def brute_maxpool2x2(x, g):
    """2x2/stride-2 max pool, block by block -> (pooled, gradient of sum(g * pooled)).

    Each block's cells are read in order (0,0), (0,1), (1,0), (1,1); the pick is
    the first NaN if the block has one, else the first of its maxima.
    """
    out = np.empty(g.shape, dtype=x.dtype)
    grad = np.zeros(x.shape, dtype=g.dtype)
    for lead in np.ndindex(*g.shape[:-2]):
        for i in range(g.shape[-2]):
            for j in range(g.shape[-1]):
                cells = [lead + (2 * i + u, 2 * j + v) for u in (0, 1) for v in (0, 1)]
                nans = [c for c in cells if math.isnan(x[c])]
                pick = nans[0] if nans else max(cells, key=lambda c: x[c])  # first on ties
                out[lead + (i, j)] = x[pick]
                grad[pick] = g[lead + (i, j)]
    return out, grad


# -- AMSGrad with float64 moments ---------------------------------------------------


class Float64AMSGrad:
    """AMSGrad with its moments rebuilt in float64 every step and each step cast to the
    parameter's dtype: the library's optimizer before its moments moved into each
    parameter's dtype, its step copied unchanged. ``params`` need only ``data`` and
    ``grad`` arrays; ``grad`` is read, never written."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, learning_rate=1e-3, weight_decay=0.0):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self.v = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]
        self.v_max = [np.zeros_like(p.data, dtype=np.float64) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            if self.weight_decay:
                g = g + self.weight_decay * p.data.astype(np.float64)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            np.maximum(self.v_max[i], self.v[i] / bc2, out=self.v_max[i])
            step = self.learning_rate * (self.m[i] / bc1) / (np.sqrt(self.v_max[i]) + self.eps)
            p.data -= step.astype(p.data.dtype)


# -- p4-style periodic group convolution, fully independent --------------------------


def p4_rotate_point(y, x, q, n):
    for _ in range(q % 4):
        y, x = (-x) % n, y
    return y, x


def p4_inverse(t, n):
    q, zy, zx = t
    qi = (-q) % 4
    ry, rx = p4_rotate_point((-zy) % n, (-zx) % n, qi, n)
    return qi, ry, rx


def p4_compose(a, b, n):
    qa, ya, xa = a
    qb, yb, xb = b
    ry, rx = p4_rotate_point(yb, xb, qa, n)
    return (qa + qb) % 4, (ry + ya) % n, (rx + xa) % n


def p4_signal_transform(f, t, n):
    """L_t[f](x) = f(t^-1 x) on the periodic n x n grid."""
    ti = p4_inverse(t, n)
    out = np.empty_like(f)
    for y in range(n):
        for x in range(n):
            ry, rx = p4_rotate_point(y, x, ti[0], n)
            out[y, x] = f[(ry + ti[1]) % n, (rx + ti[2]) % n]
    return out


def p4_elements(n):
    return [(q, zy, zx) for q in range(4) for zy in range(n) for zx in range(n)]


def p4_permutation_indices(n):
    """perm[g][i] = j with L_g[psi].flat[i] == psi.flat[j]."""
    grid = np.arange(n * n, dtype=np.int64).reshape(n, n)
    return np.stack([p4_signal_transform(grid, t, n).reshape(-1)
                     for t in p4_elements(n)])


def p4_group_correlate(f, psi, n, perms=None):
    """[f *_G psi](t) = sum_x f(x) L_t[psi](x) over quarter turns and shifts."""
    if perms is None:
        perms = p4_permutation_indices(n)
    transformed = psi.reshape(-1)[perms]
    return (transformed @ f.reshape(-1).astype(np.float64)).reshape(4, n, n)


def p4_response_transform(resp, t, n):
    """L_t[F](g) = F(t^-1 g) on the group-valued response."""
    out = np.empty_like(resp)
    ti = p4_inverse(t, n)
    for q in range(4):
        for zy in range(n):
            for zx in range(n):
                gq, gy, gx = p4_compose(ti, (q, zy, zx), n)
                out[q, zy, zx] = resp[gq, gy, gx]
    return out


def one_shot_filter_bank(coefficients, elements, dtype):
    """``network._filter_bank`` as one product and one gather: f = coefficients @ synthesis,
    as large as the bank, then out[o, r, c, s] = f[o, c, (s - r) % slots, r]."""
    order, n, k, _ = elements.shape
    out_ch, in_ch = coefficients.shape[:2]
    (slots,) = coefficients.shape[2:-1] or (1,)
    r = np.arange(order)[:, None, None]
    c = np.arange(in_ch)[None, :, None]
    s = np.arange(slots)[None, None, :]
    index = ((c * slots + (s - r) % slots) * order + r).ravel()
    synthesis = np.ascontiguousarray(
        elements.transpose(1, 0, 2, 3).reshape(n, order * k * k).astype(dtype))
    f = coefficients.reshape(-1, n) @ synthesis
    return np.take(f.reshape(out_ch, -1, k * k), index, axis=1).reshape(
        out_ch * order, in_ch * slots, k, k)


def filter_bank_op(coefficients, elements):
    """``network._filter_bank`` as a Tensor op whose adjoint is ``_filter_bank_adjoint``.

    The library applies the pair on arrays inside the gconv node; this wrapper
    puts them on the graph so the finite-difference catalog can check them.
    """
    from rotoconv import tensor as T
    from rotoconv.network import _filter_bank, _filter_bank_adjoint

    dtype = coefficients.data.dtype
    shape = coefficients.data.shape

    def backward(g):
        T.accumulate_grad(coefficients, _filter_bank_adjoint(g, elements, dtype, shape))

    return T.Tensor.from_op(_filter_bank(coefficients.data, elements, dtype), (coefficients,),
                            backward, "filter_bank")


# -- graph-level reference of pretrain.image_terms ------------------------------
# The two image terms of one (s, r) draw built from differentiable tensor ops;
# the library's array forward and its hand-written backward must equal them bitwise.

def _rotate(x, ops, r):
    from rotoconv import tensor as T

    r = r % ops.order
    if r == 0:
        return x
    if ops.is_exact(r):
        return T.rot90_spatial(x, (4 * r) // ops.order)
    size = ops.size
    return T.spatial_linear_map(x, lambda m: ops.apply_flat(m, r),
                                lambda m: ops.apply_flat_t(m, r), (size, size))


def pair_maps(images, slots, ops, s, r):
    """(rot_s(x), rot_s(correlate(x, E_{r-s})), slot-r kernel [n, 1, k, k]) for one draw,
    the three maps both image terms compare."""
    from rotoconv import tensor as T

    order, n, k, _ = slots.data.shape
    kernels = T.reshape(slots, (order, n, 1, k, k))
    rotated = _rotate(images, ops, s)
    response = T.correlate2d(images, T.take_slot(kernels, (r - s) % order))
    return rotated, _rotate(response, ops, s), T.take_slot(kernels, r % order)


def _mean_abs(diff, margin):
    """Sum of |diff| over the cropped interior, per image and retained pixel."""
    from rotoconv import tensor as T

    crop = T.crop2d(diff, margin)
    batch, _, h, w = crop.data.shape
    return T.scale(T.l1_norm(crop), 1.0 / (batch * h * w))


def equivariance_diff(rotated, response, kernel):
    """Rotate-then-convolve minus convolve-then-rotate, uncropped."""
    from rotoconv import tensor as T

    return T.correlate2d(rotated, kernel) - response


def reconstruction_diff(rotated, response, kernel):
    """The rotated image minus its filter/transposed-filter round trip, uncropped."""
    from rotoconv import tensor as T

    return rotated - T.transpose_correlate2d(response, kernel)


def equivariance_term(rotated, response, kernel, margin):
    """L1 gap between convolve-then-rotate and rotate-then-convolve, cropped."""
    return _mean_abs(equivariance_diff(rotated, response, kernel), margin)


def reconstruction_term(rotated, response, kernel, margin):
    """L1 gap between the rotated image and its filter/transposed-filter round trip."""
    return _mean_abs(reconstruction_diff(rotated, response, kernel), margin)


def image_terms_builder(images, ops, draws):
    """Both outputs of ``pretrain.image_terms`` on fixed images, as a function of the slots."""
    from rotoconv import tensor as T
    from rotoconv.pretrain import image_terms

    return lambda slots: T.l1_norm(image_terms(images, slots, ops, draws, 1))


def gradcheck_catalog(seed=0):
    """(name, scalar-builder, input arrays) for every differentiable operation: the
    cases ``rotoconv verify`` checks, then the ops that only the references use or
    that its gradient row leaves out."""
    from rotoconv import tensor as T
    from rotoconv.basis import populate_partial
    from rotoconv.groups import RotationOperators
    from rotoconv.network import gconv_intermediate
    from rotoconv.verify import gradient_cases

    rng = np.random.default_rng(seed)
    r = rng.standard_normal
    elements = populate_partial(rng.uniform(-1, 1, (2, 3, 3, 3))).elements
    ones_el = np.ones((8, 1, 1, 1))
    ops = RotationOperators(6, 8, "gaussian")

    def rot(x):
        return T.spatial_linear_map(x, lambda m: ops.apply_flat(m, 1),
                                    lambda m: ops.apply_flat_t(m, 1), (6, 6))

    def bn_relu(axes, reader, offset):
        """A training BatchNorm-ReLU handed to ``reader`` (a pool), under an L1 loss about
        a fixed offset, so that every output, active or not, has its own gradient."""
        offset = T.Tensor(offset)
        return lambda a, g, b: T.l1_norm(
            reader(T.batchnorm_relu_train(a, g, b, axes)[0]) - offset)

    return gradient_cases(seed) + [
        ("add_broadcast", lambda a, b: T.l1_norm(a + b), [r((3, 4)), r(4)]),
        ("sub", lambda a, b: T.l1_norm(a - b), [r((2, 3)), r((2, 3))]),
        ("mul_broadcast", lambda a, b: T.l1_norm(a * b), [r((2, 3)), r(3)]),
        ("scale", lambda a: T.l1_norm(T.scale(a, -2.5)), [r((2, 3))]),
        ("matmul", lambda a, b: T.l1_norm(T.matmul(a, b)), [r((3, 4)), r((4, 2))]),
        ("matmul_batched", lambda a, b: T.l1_norm(T.matmul(a, b)),
         [r((2, 3, 4)), r((4, 2))]),
        ("reshape", lambda a: T.l1_norm(T.reshape(a, (6,))), [r((2, 3))]),
        ("transpose", lambda a: T.l1_norm(T.transpose(a, (1, 2, 0))), [r((2, 3, 4))]),
        ("flip_spatial", lambda a: T.l1_norm(T.flip_spatial(a)), [r((2, 3, 3))]),
        ("rot90_spatial", lambda a: T.l1_norm(T.rot90_spatial(a, 3)), [r((2, 4, 4))]),
        ("roll_axis", lambda a: T.l1_norm(T.roll_axis(a, 2, -3)), [r((5, 3, 3))]),
        ("take_slot", lambda a: T.l1_norm(T.take_slot(a, 1)), [r((3, 2, 2))]),
        ("crop2d", lambda a: T.l1_norm(T.crop2d(a, 1)), [r((2, 5, 5))]),
        ("relu", lambda a: T.l1_norm(T.relu(a)), [r((3, 4)) + 0.2]),
        ("l1_norm", lambda a: T.l1_norm(a), [r((3, 3)) + 0.1]),
        ("transpose_correlate2d",
         lambda a, b: T.l1_norm(T.transpose_correlate2d(a, b)),
         [r((2, 3, 5, 5)), r((3, 2, 3, 3))]),
        ("batchnorm_eval",
         lambda a, g, b: T.l1_norm(T.batchnorm_eval(a, g, b, (0, 2, 3),
                                                    np.zeros(3), np.ones(3))),
         [r((4, 3, 3, 3)), r(3) + 1.5, r(3)]),
        ("spatial_linear_map", lambda a: T.l1_norm(rot(a)), [r((2, 6, 6))]),
        ("gconv_1x1", lambda a, b: T.l1_norm(gconv_intermediate(a, b, ones_el)),
         [r((1, 2, 8, 3, 3)), r((2, 2, 8, 1))]),
        ("composite_conv_relu_l1",
         lambda a, b: T.l1_norm(T.relu(T.correlate2d(a, b))),
         [r((1, 1, 5, 5)), r((2, 1, 3, 3))]),
        ("concat", lambda a, b: T.l1_norm(T.concat([a, b, T.rot90_spatial(a, 1)])),
         [r((1, 3, 3, 3)), r((2, 3, 3, 3))]),
        ("matmul_batched_both", lambda a, b: T.l1_norm(T.matmul(a, b)),
         [r((2, 1, 3, 4)), r((3, 4, 2))]),
        ("batchnorm_relu_pool_spatial", bn_relu((0, 2, 3), T.maxpool2x2, r((3, 3, 2, 2))),
         [r((3, 3, 4, 4)), r(3) + 1.5, r(3)]),
        # the offset is the max of a map-shaped draw, so it lies among the pooled values
        ("batchnorm_relu_group", bn_relu((0, 2, 3, 4), T.global_maxpool,
                                         r((2, 2, 8, 3, 3)).reshape(2, 2, -1).max(axis=-1)),
         [r((2, 2, 8, 3, 3)), r(2) + 1.5, r(2)]),
        ("filter_bank_lift", lambda a: T.l1_norm(filter_bank_op(a, elements)),
         [r((2, 2, 3))]),
        ("filter_bank_rolled", lambda a: T.l1_norm(filter_bank_op(a, elements)),
         [r((2, 2, 8, 3))]),
        ("take_slot_1d", lambda a: T.l1_norm(T.take_slot(a, 1)), [r(3)]),
        # an interpolated, an exact and an identity image rotation, on 6x6 images
        ("image_terms", image_terms_builder(r((2, 1, 6, 6)), ops, [(1, 3), (2, 2), (0, 5)]),
         [r((8, 2, 3, 3))]),
    ]
