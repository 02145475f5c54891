"""Outside-in span tracer for the rotoconv benchmark.

The tracer wraps public functions of the ``rotoconv`` modules from outside:
each function is replaced under the name its caller looks it up by (a module
global such as ``audit.evaluate`` or ``training.rotation_matrix``, the
``T.*`` names that ``network`` and ``pretrain`` call through the tensor
module, or a class attribute such as ``Model.forward``), and every patched
attribute is put back by ``restore``. Nothing under ``src/`` is edited.
``AMSGrad.step`` is patched once, by the worker's step clock, which records
the ``optim.step`` span and calls ``step_boundary`` while the tracer is on.

Each call becomes a span ``[name, start, end, parent]``. Spans are kept in
memory and written out once, after the run. Backward closures are timed by
wrapping ``Tensor.from_op``: each closure is tagged, when it is created, with
the op that made it and the network layer that was running.
"""

from __future__ import annotations

import importlib
import json
import time

from rotoconv import audit, datasets, groups, network, training
from rotoconv import tensor as T

# The package re-exports the function ``pretrain`` under the module's name.
pretrain = importlib.import_module("rotoconv.pretrain")

# Tensor ops reported on their own; every other op is folded into "other".
NAMED_OPS = ("correlate2d", "batchnorm_train", "batchnorm_eval", "maxpool2x2", "relu",
             "spatial_linear_map")

# Public differentiable ops of rotoconv.tensor; ``accumulate_grad`` runs inside
# backward closures and is left alone.
TENSOR_OPS = ("add", "sub", "mul", "scale", "relu", "reshape", "transpose", "flip_spatial",
              "rot90_spatial", "roll_axis", "take_slot", "crop2d", "matmul", "l1_norm",
              "softmax_cross_entropy", "correlate2d", "transpose_correlate2d", "maxpool2x2",
              "global_maxpool", "batchnorm_train", "batchnorm_eval", "spatial_linear_map")

LAYER_TAGS = {
    network.GConvInput: "gconv", network.GConvIntermediate: "gconv",
    network.Conv2d: "conv", network.BatchNorm: "batchnorm", network.ReLU: "relu",
    network.MaxPool2x2: "maxpool", network.GlobalMaxPool: "global_maxpool",
    network.Dense: "dense",
}


def _op_class(op: str) -> str:
    return op if op in NAMED_OPS else "other"


def _graph_bytes(root) -> int:
    """Bytes of node data reachable from ``root`` through recorded parents."""
    seen = set()
    stack = [root]
    total = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        total += node.data.nbytes
        stack.extend(node._parents)
    return total


def _conv_flops(x_shape, w_shape, out_shape) -> int:
    b, o, ho, wo = out_shape
    _, c, k, _ = w_shape
    return 2 * b * o * ho * wo * c * k * k


class Tracer:
    """Records spans while ``on``; ``install`` patches, ``restore`` undoes."""

    def __init__(self):
        self.on = False
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # [name_id, start, end, parent_index]
        self.stack: list = [-1]
        self.layer = "none"
        self.counts: dict = {}
        self.graph_bytes = 0
        self._graph_keys: set = set()
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        self.spans.append([self._nid(name), time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def step_boundary(self) -> None:
        """Close the open step span and start the next one (after an optimizer step)."""
        top = self.stack[-1]
        if top >= 0 and self.names[self.spans[top][0]] == "step":
            self.close()
            self.open("step")

    def end_steps(self) -> None:
        """Close a trailing step span; it holds the work after the last optimizer step."""
        top = self.stack[-1]
        if top >= 0 and self.names[self.spans[top][0]] == "step":
            self.spans[top][0] = self._nid("step_tail")
            self.close()

    def _note_graph(self, root, key) -> None:
        if key not in self._graph_keys:
            self._graph_keys.add(key)
            self.graph_bytes = max(self.graph_bytes, _graph_bytes(root))

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, counted=False):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counted:
                tracer.count(name + ".calls")
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
        return wrapper

    def _layer_forward(self, tag, fn):
        tracer = self

        def wrapper(layer, x, training_mode):
            if not tracer.on:
                return fn(layer, x, training_mode)
            outer = tracer.layer
            tracer.layer = tag
            tracer.open("network.layer." + tag)
            try:
                out = fn(layer, x, training_mode)
            finally:
                tracer.close()
                tracer.layer = outer
            if tag == "dense":
                tracer._note_graph(out, ("logits", out.data.shape))
            return out
        return wrapper

    def _correlate2d(self, fn):
        tracer = self

        def wrapper(x, kernel, *args, **kwargs):
            if not tracer.on:
                return fn(x, kernel, *args, **kwargs)
            tracer.open("tensor.correlate2d")
            try:
                out = fn(x, kernel, *args, **kwargs)
            finally:
                tracer.close()
            tracer.count("correlate2d.calls")
            tracer.count("correlate2d.fwd_flops",
                         _conv_flops(x.data.shape, kernel.data.shape, out.data.shape))
            return out
        return wrapper

    def _from_op(self, fn):
        tracer = self

        def from_op(data, parents, backward_fn, op="op"):
            if not tracer.on:
                return fn(data, parents, backward_fn, op)
            tracer.count("nodes")
            name = f"bwd.{op}.{tracer.layer}"
            flops = 0
            if op == "correlate2d":
                x, kernel = parents
                per_grad = _conv_flops(x.data.shape, kernel.data.shape, data.shape)
                flops = per_grad * (int(x.requires_grad) + int(kernel.requires_grad))
            inner = backward_fn

            def timed_backward(g):
                tracer.open(name)
                try:
                    inner(g)
                finally:
                    tracer.close()
                if flops:
                    tracer.count("correlate2d.bwd_flops", flops)
            return fn(data, parents, timed_backward, op)
        return from_op

    def _backward(self, fn):
        tracer = self

        def backward(root):
            if not tracer.on:
                return fn(root)
            tracer._note_graph(root, ("loss", root._op))
            tracer.open("tensor.backward")
            try:
                return fn(root)
            finally:
                tracer.close()
        return backward

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr, make) -> None:
        """Replace ``owner.attr`` by ``make(current)``; ``restore`` puts it back."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        current = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        replacement = make(current)
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for fname in TENSOR_OPS:
            make = self._correlate2d if fname == "correlate2d" else \
                (lambda fn, n=fname: self._timed("tensor." + n, fn))
            self.patch(T, fname, make)
        self.patch(T.Tensor, "from_op", self._from_op)
        self.patch(T.Tensor, "backward", self._backward)
        for meth in ("forward", "forward_with_activations"):
            self.patch(network.Model, meth, lambda fn: self._timed("network.forward", fn))
        for cls, tag in LAYER_TAGS.items():
            self.patch(cls, "forward", lambda fn, t=tag: self._layer_forward(t, fn))
        self.patch(training, "augment", lambda fn: self._timed("training.augment", fn))
        for owner in (training, audit):
            self.patch(owner, "evaluate", lambda fn: self._timed("training.evaluate", fn))
        for owner in (groups, training):
            self.patch(owner, "rotation_matrix",
                       lambda fn: self._timed("groups.rotation_matrix", fn, counted=True))
        for meth in ("apply", "apply_flat", "apply_flat_t"):
            self.patch(groups.RotationOperators, meth,
                       lambda fn: self._timed("groups.apply", fn))
        for term in ("equivariance_term", "reconstruction_term", "orthogonality_term"):
            self.patch(pretrain, term, lambda fn, t=term: self._timed("pretrain." + t, fn))
        self.patch(audit, "activation_pair_error",
                   lambda fn: self._timed("audit.pair_error", fn, counted=True))
        for fname in ("synthetic_labeled_set", "synthetic_image_corpus"):
            self.patch(datasets, fname, lambda fn: self._timed("datasets.synthetic", fn))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        """Write all spans once: names table plus [name, start_s, end_s, parent] rows."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[nid, round(s - t0, 7), round(e - t0, 7), p] for nid, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names, "spans": rows}, fh,
                      separators=(",", ":"))


def layer_totals(tracer: Tracer, root_name: str) -> dict:
    """Sum span times (ms) by layer metric over the spans under ``root_name`` spans."""
    names = tracer.names
    spans = tracer.spans
    root_id = tracer._name_ids.get(root_name)
    inside = [False] * len(spans)
    child_ms: list = [dict() for _ in spans]  # per span: child name -> summed ms
    totals: dict = {}

    def add(key, ms):
        totals[key] = totals.get(key, 0.0) + ms

    for i, (nid, start, end, parent) in enumerate(spans):
        inside[i] = nid == root_id or (parent >= 0 and inside[parent])
        if parent >= 0:
            pname = names[nid]
            bucket = child_ms[parent]
            bucket[pname] = bucket.get(pname, 0.0) + (end - start) * 1e3
    for i, (nid, start, end, parent) in enumerate(spans):
        if not inside[i]:
            continue
        name = names[nid]
        ms = (end - start) * 1e3
        kids = child_ms[i]
        parent_name = names[spans[parent][0]] if parent >= 0 else ""
        if name.startswith("tensor.") and name != "tensor.backward":
            nested_ops = sum(v for k, v in kids.items()
                             if k.startswith("tensor.") and k != "tensor.backward")
            add(f"tensor.{_op_class(name[len('tensor.'):])}.fwd_ms", ms - nested_ops)
        elif name.startswith("bwd."):
            _, op, layer = name.split(".", 2)
            if op != "rolled_bank":
                add(f"tensor.{_op_class(op)}.bwd_ms", ms)
            if layer == "gconv":
                add("network.gconv.bwd_ms", ms)
                if op != "correlate2d":
                    add("network.synth.bwd_ms", ms)
        elif name == "tensor.backward":
            add("tensor.backward.self_ms", ms - sum(kids.values()))
        elif name == "network.layer.gconv":
            add("network.gconv.fwd_ms", ms)
            add("network.synth.fwd_ms", ms - kids.get("tensor.correlate2d", 0.0))
        elif name == "network.forward":
            add("network.forward_ms", ms)
        elif name == "optim.step":
            add("optim.step_ms", ms)
        elif name == parent_name:
            continue  # nested call of the same function family, e.g. apply -> apply_flat
        elif name in ("training.augment", "training.evaluate", "groups.rotation_matrix",
                      "groups.apply", "audit.pair_error", "datasets.synthetic") \
                or name.startswith("pretrain."):
            add(name + "_ms", ms)
    return totals
