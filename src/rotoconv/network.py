"""Group-convolution layers, the paired classifier architectures, checkpoints.

A group layer never owns filters, only rotation-invariant coefficients. Its
filter bank for all orientations (synthesis from the frozen basis, then the
orientation roll as an index gather) is applied as one standard correlation,
and the whole group convolution is one graph node that keeps no bank: the
backward builds the bank again rather than store it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import struct

import numpy as np

from . import tensor as T
from .basis import Basis
from .fileio import atomic_write
from .tensor import Tensor


class FingerprintMismatch(ValueError):
    """Checkpoint and basis do not belong together."""


class CheckpointFormatError(ValueError):
    """Raised for unreadable or corrupt checkpoint files."""


@functools.lru_cache(maxsize=None)
def _roll_index(channels: int, order: int, slots: int):
    """Gather index of ``_filter_bank`` over the flattened [C, slots, order] axes, and its inverse.

    Entry (r, c, s) is the position of f[., c, (s - r) % slots, r]; each
    position is hit exactly once, so the adjoint is the inverse gather.
    """
    r = np.arange(order)[:, None, None]
    c = np.arange(channels)[None, :, None]
    s = np.arange(slots)[None, None, :]
    index = ((c * slots + (s - r) % slots) * order + r).ravel()
    return index, np.argsort(index)


def _synthesis_matrix(elements: np.ndarray, dtype) -> np.ndarray:
    """[n, order*k*k]: every orientation's elements, so one product synthesizes them all."""
    order, n, k, _ = elements.shape
    return np.ascontiguousarray(
        elements.transpose(1, 0, 2, 3).reshape(n, order * k * k).astype(dtype))


def _filter_bank(coefficients: np.ndarray, elements: np.ndarray, dtype) -> np.ndarray:
    """Every orientation's filters: coefficients [O,C,(slots,)n] -> bank [O*order, C*slots, k, k].

    Synthesis gives f[o, c, j, r] = coefficients[o, c, j] @ elements[r] for
    each coefficient slot j and orientation r; the bank is the weight-tying
    gather out[o, r, c, s] = f[o, c, (s - r) % slots, r], where slot s - r is
    the coefficient block that lands on input orientation s when the filter
    sits at orientation r (no slot axis: one slot, plain lifting).
    """
    order, n, k, _ = elements.shape
    out_ch, in_ch = coefficients.shape[:2]
    (slots,) = coefficients.shape[2:-1] or (1,)
    index, _ = _roll_index(in_ch, order, slots)
    f = coefficients.reshape(-1, n) @ _synthesis_matrix(elements, dtype)
    f = f.reshape(out_ch, -1, k * k)
    return np.take(f, index, axis=1).reshape(out_ch * order, in_ch * slots, k, k)


def _filter_bank_adjoint(g: np.ndarray, elements: np.ndarray, dtype, shape) -> np.ndarray:
    """Adjoint of ``_filter_bank``: a bank gradient -> the gradient of coefficients of ``shape``.

    The inverse gather, then the transposed synthesis.
    """
    order, n, k, _ = elements.shape
    out_ch, in_ch = shape[:2]
    (slots,) = shape[2:-1] or (1,)
    _, inverse = _roll_index(in_ch, order, slots)
    gf = np.take(g.reshape(out_ch, -1, k * k), inverse, axis=1)
    return (gf.reshape(-1, order * k * k) @ _synthesis_matrix(elements, dtype).T).reshape(shape)


def gconv(x: Tensor, coefficients: Tensor, basis) -> Tensor:
    """Group correlation into orientation maps [B,O,order,H,W], as one graph node.

    Coefficients [O,C,n] lift an image stack [B,C,H,W]; coefficients
    [O,C,order,n] act on orientation maps [B,C,order,H,W]. Output slice r
    sums, over input slots s, correlations with the filter at coefficient
    slot (s - r) mod order synthesized in the orientation-r basis; lifting is
    the case of one input slot. The node keeps no filter bank: the forward
    drops it once it has correlated, and the backward builds it again.
    """
    elements = basis.elements if isinstance(basis, Basis) else np.asarray(basis)
    if elements.ndim != 4:
        raise ValueError("basis elements must have shape [order, n, k, k]")
    order, n, k = elements.shape[:3]
    if k != elements.shape[3] or k % 2 == 0:
        raise ValueError(f"basis elements must be square with odd size, got {elements.shape[2:]}")
    shape = coefficients.data.shape
    if len(shape) not in (3, 4):
        raise ValueError(f"coefficients must have shape [O, C, n] or [O, C, order, n], "
                         f"got {shape}")
    if shape[-1] != n:
        raise ValueError(f"coefficients carry {shape[-1]} weights per filter, "
                         f"basis has {n} elements")
    if shape[2:-1] not in ((), (order,)):
        raise ValueError(f"coefficients expect {shape[2]} orientations, basis has {order}")
    layout = shape[1:-1]  # the [C] or [C, order] axes the input must carry
    if x.data.ndim != len(layout) + 3 or x.data.shape[1:-2] != layout:
        raise ValueError(f"input of shape {x.data.shape} does not match the coefficients' "
                         f"input axes {layout} (channels, then orientations if any)")
    b, h, w = x.data.shape[0], *x.data.shape[-2:]
    dtype = x.data.dtype
    out_data = T._correlate(x.data.reshape(b, -1, h, w),
                            _filter_bank(coefficients.data, elements, dtype))

    def backward(g):
        g = g.reshape(b, -1, h, w)
        # The bank goes before grad-w, so no more than two bank-sized arrays are
        # alive at once: the bank and grad-x's flipped copy of it, then the bank
        # gradient and the adjoint's gathered copy.
        if x.requires_grad:
            bank = _filter_bank(coefficients.data, elements, dtype)
            T.accumulate_grad(x, T._correlate_grad_x(g, bank).reshape(x.data.shape))
            del bank
        if coefficients.requires_grad:
            gw = T._correlate_grad_w(g, x.data.reshape(b, -1, h, w), k)
            T.accumulate_grad(coefficients, _filter_bank_adjoint(gw, elements, dtype, shape))

    return Tensor.from_op(out_data.reshape(b, shape[0], order, h, w), (x, coefficients),
                          backward, "gconv")


gconv_input = gconv_intermediate = gconv


# -- layers --------------------------------------------------------------------


class Layer:
    """The protocol every layer follows; a subclass declares what sets it apart.

    ``spec_type`` tags the layer in an architecture description. ``fields``
    maps each further spec key to the attribute that holds its value; where
    that attribute is also a constructor argument, ``_layer_from_spec`` passes
    the spec value under its name. ``param_names`` and ``buffer_names`` list
    the trainable tensors and the saved running arrays. ``output_kind`` is the
    map kind the layer produces; None passes the input's kind through.
    """

    spec_type = ""
    fields: dict = {}
    param_names: tuple = ()
    buffer_names: tuple = ()
    output_kind = None

    def __init__(self, name):
        self.name = name

    def params(self):
        return [(pname, getattr(self, pname)) for pname in self.param_names]

    def buffers(self):
        return [(bname, getattr(self, bname)) for bname in self.buffer_names]

    def out_kind(self, kind):
        return self.output_kind or kind

    def spec(self):
        return {"type": self.spec_type, "name": self.name,
                **{key: getattr(self, attr) for key, attr in self.fields.items()}}


def _uniform_init(rng, shape, dtype, fan_in: int | None = None) -> Tensor:
    """Trainable U(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights; fan_in defaults to prod(shape[1:])."""
    bound = 1.0 / np.sqrt(math.prod(shape[1:]) if fan_in is None else fan_in)
    return Tensor(rng.uniform(-bound, bound, shape).astype(dtype), requires_grad=True)


class Conv2d(Layer):
    spec_type = "conv"
    fields = {"in": "in_channels", "out": "out_channels", "k": "kernel_size"}
    param_names = ("weight",)
    output_kind = "spatial"

    def __init__(self, in_channels, out_channels, kernel_size, rng, dtype, name):
        super().__init__(name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.weight = _uniform_init(rng, (out_channels, in_channels, kernel_size, kernel_size),
                                    dtype)

    def forward(self, x, training):
        return T.correlate2d(x, self.weight)


class GConvInput(Layer):
    spec_type = "gconv_input"
    fields = {"in": "in_channels", "out": "out_channels"}
    param_names = ("coefficients",)
    output_kind = "group"

    def __init__(self, in_channels, out_channels, elements, rng, dtype, name):
        super().__init__(name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.elements = elements.astype(dtype)
        n = elements.shape[1]
        self.coefficients = _uniform_init(rng, (out_channels, in_channels, n), dtype)

    def forward(self, x, training):
        return gconv(x, self.coefficients, self.elements)


class GConvIntermediate(Layer):
    spec_type = "gconv"
    fields = {"in": "in_channels", "out": "out_channels", "elements": "element_set"}
    param_names = ("coefficients",)
    output_kind = "group"

    def __init__(self, in_channels, out_channels, elements, rng, dtype, name):
        super().__init__(name)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.elements = elements.astype(dtype)
        self.element_set = "ones" if elements.shape[1:3] == (1, 1) else "basis"
        order, n = elements.shape[0], elements.shape[1]
        self.coefficients = _uniform_init(rng, (out_channels, in_channels, order, n), dtype)

    def forward(self, x, training):
        return gconv(x, self.coefficients, self.elements)


class BatchNorm(Layer):
    """Per-channel normalization; group maps reduce over orientation too."""

    spec_type = "batchnorm"
    fields = {"channels": "channels", "kind": "map_kind"}
    param_names = ("gamma", "beta")
    buffer_names = ("running_mean", "running_var")
    momentum = 0.1  # weight of each training batch in the running statistics

    def __init__(self, channels, map_kind, dtype, name):
        super().__init__(name)
        self.channels = channels
        self.map_kind = map_kind
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def _axes(self, x):
        return (0, 2, 3, 4) if x.data.ndim == 5 else (0, 2, 3)

    def _track(self, mean, var):
        self.running_mean += self.momentum * (mean.astype(np.float64) - self.running_mean)
        self.running_var += self.momentum * (var.astype(np.float64) - self.running_var)

    def forward(self, x, training):
        axes = self._axes(x)
        if training:
            out, mean, var = T.batchnorm_train(x, self.gamma, self.beta, axes)
            self._track(mean, var)
            return out
        return T.batchnorm_eval(x, self.gamma, self.beta, axes,
                                self.running_mean, self.running_var)

    def forward_relu(self, x, pool):
        """Training forward of this layer, a ReLU and, with ``pool``, a MaxPool2x2, as one op."""
        out, mean, var = T.batchnorm_relu_train(x, self.gamma, self.beta, self._axes(x), pool)
        self._track(mean, var)
        return out


class ReLU(Layer):
    spec_type = "relu"

    def forward(self, x, training):
        return T.relu(x)


class MaxPool2x2(Layer):
    spec_type = "maxpool"

    def forward(self, x, training):
        return T.maxpool2x2(x)


class GlobalMaxPool(Layer):
    """Collapses everything past (batch, channel); covers both map kinds."""

    spec_type = "global_maxpool"
    output_kind = "vector"

    def forward(self, x, training):
        return T.global_maxpool(x)


class Dense(Layer):
    spec_type = "dense"
    fields = {"in": "in_features", "out": "out_features"}
    param_names = ("weight", "bias")
    output_kind = "vector"

    def __init__(self, in_features, out_features, rng, dtype, name):
        super().__init__(name)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _uniform_init(rng, (in_features, out_features), dtype, in_features)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def forward(self, x, training):
        return T.matmul(x, self.weight) + self.bias


LAYER_TYPES = {cls.spec_type: cls for cls in (Conv2d, GConvInput, GConvIntermediate, BatchNorm,
                                              ReLU, MaxPool2x2, GlobalMaxPool, Dense)}


# -- the model ------------------------------------------------------------------


class Model:
    def __init__(self, layers, kind, variant, in_channels, classes, dtype,
                 group_order, basis_fingerprint=None):
        self.layers = layers
        self.kind = kind
        self.variant = variant
        self.in_channels = in_channels
        self.classes = classes
        self.dtype = np.dtype(dtype)
        self.group_order = group_order
        self.basis_fingerprint = basis_fingerprint
        self.input_stats = None  # optional (mean[C], std[C]) for normalization

    def parameters(self):
        return [p for layer in self.layers for _, p in layer.params()]

    def named_parameters(self):
        return [(f"{i:02d}.{layer.name}.{pname}", p)
                for i, layer in enumerate(self.layers) for pname, p in layer.params()]

    def named_buffers(self):
        return [(f"{i:02d}.{layer.name}.{bname}", b)
                for i, layer in enumerate(self.layers) for bname, b in layer.buffers()]

    def forward(self, x, training: bool = False) -> Tensor:
        """Logits; a training forward runs each BatchNorm -> ReLU (-> MaxPool2x2) as one op."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if not training:
            for layer in self.layers:
                x = layer.forward(x, False)
            return x
        for layer, pool in _training_plan(self.layers):
            x = layer.forward(x, True) if pool is None else layer.forward_relu(x, pool)
        return x

    def iter_activations(self, x):
        """Graph-free eval forward yielding (layer_name, map_kind, array) per layer.

        Only the current layer's output is held, so a caller that consumes
        each record before asking for the next keeps one layer in memory.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        kind = "spatial"
        for layer in self.layers:
            # Entered per layer, not around the loop: the flag must not stay
            # off in the caller while the generator is suspended.
            with T.no_grad():
                x = layer.forward(x, False)
            kind = layer.out_kind(kind)
            yield layer.name, kind, x.data

    def forward_with_activations(self, x):
        """Eval-mode forward returning [(layer_name, map_kind, array), ...]."""
        return list(self.iter_activations(x))

    def arch_description(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "in_channels": self.in_channels,
            "classes": self.classes,
            "dtype": self.dtype.name,
            "group_order": self.group_order,
            "layers": [layer.spec() for layer in self.layers],
        }

    def arch_hash(self) -> str:
        payload = json.dumps(self.arch_description(), sort_keys=True).encode("ascii")
        return hashlib.sha256(payload).hexdigest()


def _training_plan(layers):
    """(layer, pool) steps of a training forward: pool is None for a layer run on
    its own, else the BatchNorm of a fused BatchNorm -> ReLU (-> MaxPool2x2) run."""
    plan, i = [], 0
    while i < len(layers):
        fused = isinstance(layers[i], BatchNorm) and i + 1 < len(layers) \
            and isinstance(layers[i + 1], ReLU)
        pool = fused and i + 2 < len(layers) and isinstance(layers[i + 2], MaxPool2x2)
        plan.append((layers[i], pool if fused else None))
        i += 1 + fused + pool
    return plan


def count_parameters(model: Model) -> int:
    return sum(p.data.size for p in model.parameters())


GROUP_CHANNELS = (33, 33, 33, 67, 67, 67, 67, 67, 67)
TRANSLATIONAL_CHANNELS = (96, 96, 96, 192, 192, 192, 192, 192, 192)
_POOL_AFTER = (2, 5)  # max pooling after the third and sixth conv blocks
_ONE_BY_ONE = (7, 8)  # the last two conv blocks use 1x1 filters

GROUP_VARIANTS = ("full", "partial", "overcomplete", "random", "gaussian", "bilinear")


def _ones_elements(order: int, dtype) -> np.ndarray:
    return np.ones((order, 1, 1, 1), dtype=dtype)


def build_model(kind: str, variant: str = "none", basis: Basis | None = None,
                in_channels: int = 3, classes: int = 10, seed: int = 0,
                dtype: str = "float32") -> Model:
    """The paired architectures: nine conv blocks, two poolings, global pool, classifier.

    ``kind="translational"`` uses plain correlations at 96/192 channels;
    ``kind="group"`` uses group convolutions at 33/67 channels over the given
    basis, which makes the two parameter counts land within a few percent.
    """
    if kind not in ("translational", "group"):
        raise ValueError(f"unknown model kind {kind!r}")
    group = kind == "group"
    if group and basis is None:
        raise ValueError("group models need a basis")
    if group and variant in GROUP_VARIANTS and basis.kind != variant:
        raise ValueError(f"variant {variant!r} does not match basis kind {basis.kind!r}")
    layers = []
    prev = in_channels
    for i, ch in enumerate(GROUP_CHANNELS if group else TRANSLATIONAL_CHANNELS):
        k = 1 if i in _ONE_BY_ONE else basis.kernel_size if group else 3
        if not group:
            conv = {"type": "conv", "name": f"conv{k}_{ch}_{i}", "in": prev, "out": ch, "k": k}
        elif i == 0:
            conv = {"type": "gconv_input", "name": f"gconv{k}_{ch}_{i}", "in": prev, "out": ch}
        else:
            conv = {"type": "gconv", "name": f"gconv{k}_{ch}_{i}", "in": prev, "out": ch,
                    "elements": "ones" if i in _ONE_BY_ONE else "basis"}
        layers += [conv, {"type": "batchnorm", "name": f"bn_{i}", "channels": ch,
                          "kind": "group" if group else "spatial"},
                   {"type": "relu", "name": f"relu_{i}"}]
        if i in _POOL_AFTER:
            layers.append({"type": "maxpool", "name": f"pool_{i}"})
        prev = ch
    layers += [{"type": "global_maxpool", "name": "global_pool"},
               {"type": "dense", "name": "classifier", "in": prev, "out": classes}]
    arch = {"kind": kind, "variant": variant, "in_channels": in_channels, "classes": classes,
            "dtype": dtype, "group_order": basis.order if group else 1,
            "layers": layers}
    return model_from_arch(arch, basis, seed)


def _layer_from_spec(spec: dict, basis: Basis | None, order: int, dtype, rng):
    cls = LAYER_TYPES.get(spec["type"])
    if cls is None:
        raise CheckpointFormatError(f"unknown layer type {spec['type']!r}")
    sizes = [spec[key] for key in ("in", "out", "k", "channels") if key in spec]
    if not all(isinstance(size, int) and size > 0 for size in sizes):
        raise CheckpointFormatError(f"layer spec {spec!r} has a size that is not a positive int")
    accepted = inspect.signature(cls).parameters
    if "elements" in accepted and basis is None:
        raise CheckpointFormatError(f"layer type {spec['type']!r} in a model without a basis")
    given = {attr: spec[key] for key, attr in cls.fields.items()}
    given.update(name=spec["name"], rng=rng, dtype=dtype)
    if basis is not None:
        given["elements"] = _ones_elements(order, np.float64) if spec.get("elements") == "ones" \
            else basis.elements
    return cls(**{arg: value for arg, value in given.items() if arg in accepted})


def model_from_arch(arch: dict, basis: Basis | None, seed: int = 0) -> Model:
    """Build a model from its architecture description, drawing parameters from ``seed``."""
    dtype = T.check_float_dtype(arch["dtype"])
    rng = np.random.default_rng(seed)
    layers = [_layer_from_spec(s, basis, arch["group_order"], dtype, rng)
              for s in arch["layers"]]
    fingerprint = basis.fingerprint() if (basis is not None and arch["kind"] == "group") \
        else None
    return Model(layers, arch["kind"], arch["variant"], arch["in_channels"],
                 arch["classes"], dtype, arch["group_order"], fingerprint)



# -- checkpoints -----------------------------------------------------------------
# magic, version u32, header-length u32, header json, raw array blobs in header
# order, sha256 of everything above.

_CKPT_MAGIC = b"RCKP"
_CKPT_VERSION = 1


def save_checkpoint(model: Model, path) -> None:
    arrays = []
    blobs = []
    for name, p in model.named_parameters():
        arrays.append({"name": name, "shape": list(p.data.shape), "dtype": p.data.dtype.name})
        blobs.append(np.ascontiguousarray(p.data).tobytes())
    for name, b in model.named_buffers():
        arrays.append({"name": name, "shape": list(b.shape), "dtype": b.dtype.name})
        blobs.append(np.ascontiguousarray(b).tobytes())
    if model.input_stats is not None:
        for name, arr in zip(("input_mean", "input_std"), model.input_stats):
            arr = np.asarray(arr, dtype=np.float64)
            arrays.append({"name": name, "shape": list(arr.shape), "dtype": "float64"})
            blobs.append(arr.tobytes())
    header = {
        "arch": model.arch_description(),
        "arch_hash": model.arch_hash(),
        "basis_fingerprint": model.basis_fingerprint,
        "seed_note": "parameters are stored verbatim; seed not required to reload",
        "arrays": arrays,
    }
    hjson = json.dumps(header, sort_keys=True).encode("ascii")
    payload = _CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(hjson)) + hjson
    payload += b"".join(blobs)
    payload += hashlib.sha256(payload).digest()
    with atomic_write(path) as fh:
        fh.write(payload)


def read_checkpoint_header(path) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != _CKPT_MAGIC:
        raise CheckpointFormatError("not a checkpoint file")
    version, hlen = struct.unpack("<II", blob[4:12])
    if version != _CKPT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    if hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        raise CheckpointFormatError("checksum mismatch")
    if 12 + hlen > len(blob) - 32:
        raise CheckpointFormatError(f"header length {hlen} runs past the end of the file")
    try:
        header = json.loads(blob[12:12 + hlen])
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError
        raise CheckpointFormatError(f"unreadable checkpoint header: {err}") from None
    if not isinstance(header, dict):
        raise CheckpointFormatError("checkpoint header is not a JSON object")
    header["_blob"] = blob
    header["_offset"] = 12 + hlen
    return header


_HEADER_KEYS = ("arch", "arch_hash", "basis_fingerprint", "arrays")
_ARRAY_KEYS = ("name", "shape", "dtype")


def _check_header(header: dict) -> None:
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointFormatError(f"checkpoint header lacks {missing}")
    if not isinstance(header["arch"], dict) or not isinstance(header["arrays"], list):
        raise CheckpointFormatError("checkpoint header has a malformed arch or arrays entry")
    for meta in header["arrays"]:
        if not isinstance(meta, dict):
            raise CheckpointFormatError(f"array entry {meta!r} is not an object")
        missing = [key for key in _ARRAY_KEYS if key not in meta]
        if missing:
            raise CheckpointFormatError(f"array entry {meta!r} lacks {missing}")
        if not isinstance(meta["name"], str):
            raise CheckpointFormatError(f"array entry {meta!r} has a malformed name")


def _read_array(meta: dict, blob: bytes, offset: int) -> np.ndarray:
    """The array ``meta`` describes at ``offset``; the sha256 trailer is out of bounds."""
    shape = meta["shape"]
    if meta["dtype"] not in ("float32", "float64") or not isinstance(shape, list) \
            or not all(isinstance(d, int) and d >= 0 for d in shape):
        raise CheckpointFormatError(f"array entry {meta!r} has a malformed shape or dtype")
    dtype = np.dtype(meta["dtype"])
    count = int(np.prod(shape, dtype=np.int64))
    if offset + count * dtype.itemsize > len(blob) - 32:
        raise CheckpointFormatError(f"array {meta['name']!r} runs past the end of the file")
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(shape)


def load_checkpoint(path, basis: Basis | None = None) -> Model:
    """Rebuild a model from a checkpoint; group models re-check the basis fingerprint."""
    header = read_checkpoint_header(path)
    _check_header(header)
    arch = header["arch"]
    if arch.get("kind") == "group":
        if basis is None:
            raise ValueError("group checkpoints need the basis to rebuild")
        if not isinstance(header["basis_fingerprint"], str):
            raise CheckpointFormatError("group checkpoint carries no basis fingerprint")
        if basis.fingerprint() != header["basis_fingerprint"]:
            raise FingerprintMismatch(
                "checkpoint was trained against a different basis "
                f"({header['basis_fingerprint'][:12]}... vs {basis.fingerprint()[:12]}...)")
    try:
        model = model_from_arch(arch, basis)
    except CheckpointFormatError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointFormatError(f"unusable architecture in checkpoint: {err!r}") from None
    if model.arch_hash() != header["arch_hash"]:
        raise CheckpointFormatError("architecture hash mismatch")
    blob = header["_blob"]
    offset = header["_offset"]
    slots = {name: p for name, p in model.named_parameters()}
    buffers = {name: b for name, b in model.named_buffers()}
    stats = {}
    for meta in header["arrays"]:
        raw = _read_array(meta, blob, offset)
        offset += raw.nbytes
        name = meta["name"]
        target = slots[name].data if name in slots else buffers.get(name)
        if target is not None and raw.shape != target.shape:
            raise CheckpointFormatError(f"array {name!r} has shape {raw.shape}, "
                                        f"the model expects {target.shape}")
        if target is not None and raw.dtype != target.dtype:
            raise CheckpointFormatError(f"array {name!r} is {raw.dtype}, "
                                        f"the model expects {target.dtype}")
        if name in slots:
            slots[name].data = raw.copy()
        elif name in buffers:
            buffers[name][...] = raw
        elif name in ("input_mean", "input_std"):
            stats[name] = raw.copy()
        else:
            raise CheckpointFormatError(f"unexpected array {name!r}")
    if stats:
        if len(stats) != 2:
            raise CheckpointFormatError(f"checkpoint carries only {sorted(stats)}")
        model.input_stats = (stats["input_mean"], stats["input_std"])
    return model
