"""Command-line entry points wiring the library together.

One executable, subcommand style. Every artifact-producing run drops a
``<output>.manifest.json`` beside its outputs with the full configuration,
content hashes and the platform it ran on, so a run can be reproduced from the
manifest alone. A simple
``key=value`` config file can seed any subcommand's flags; explicit flags win;
the manifest names and hashes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import emit_reports, robustness_suite, rotation_sweep
from .basis import load_basis, render_basis_pgm, save_basis
from .datasets import (DatasetError, LabeledImageSet, load_cifar10, load_mnist, subset,
                       synthetic_image_corpus, synthetic_labeled_set)
from .fileio import atomic_write
from .network import FingerprintMismatch, build_model, load_checkpoint, save_checkpoint
from .pretrain import PretrainConfig, PretrainDivergence, pretrain, write_loss_csv
from .tensor import FLOAT_DTYPES
from .training import TrainConfig, TrainingDivergence, train, write_training_csv
from .verify import format_table, run_all


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_hashes(args) -> dict:
    """sha256 of each config file and input file of a run, taken before the run can
    overwrite it (``train --init-from x --out x`` resumes in place)."""
    paths = [*(args.config or ()),
             *(getattr(args, name, None) for name in ("basis", "init_from", "checkpoint"))]
    return {str(p): _sha256_file(p) for p in paths if p and Path(p).exists()}


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _platform() -> dict:
    """The interpreter and library versions, the CPUs the process may run on, and each BLAS
    thread variable as set (None when unset). scipy's version comes from its installed
    metadata, so a run that needs no rotation matrix still never imports scipy."""
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
    }


def _write_manifest(out_path, command: str, options: dict, inputs: dict, outputs: list):
    manifest = {
        "tool": "rotoconv",
        "version": __version__,
        "command": command,
        "options": {k: v for k, v in sorted(options.items()) if not k.startswith("_")},
        "inputs": inputs,
        "outputs": {str(p): _sha256_file(p) for p in outputs if Path(p).exists()},
        "platform": _platform(),
    }
    path = Path(str(out_path) + ".manifest.json")
    with atomic_write(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True, default=str))


def _load_config_tokens(argv: list, parser: argparse.ArgumentParser) -> list:
    """Expand each ``--config FILE`` or ``--config=FILE`` into ``--key=value`` tokens
    ahead of explicit flags; a later file's values win over an earlier one's. Each
    file also stays as a ``--config=FILE`` token, so ``args.config`` lists them in order.

    Each line is one token, so a value that starts with ``-`` (``angles=-45,90``)
    is not read as a flag.

    A missing or unreadable FILE, an abbreviated ``--config`` (which argparse
    would otherwise bind) and a config line that names another config file
    exit through ``parser.error`` (status 2).
    """
    tokens, rest = [], []
    args = iter(argv)
    for token in args:
        flag, given, cfg_path = token.partition("=")
        # --config itself, or an abbreviation that argparse would bind to it
        if not (len(flag) > 2 and "--config".startswith(flag)):
            rest.append(token)
            continue
        if flag != "--config":
            parser.error(f"argument --config: write the flag in full, not {flag!r}")
        if not given:
            cfg_path = next(args, None)
            if cfg_path is None:
                parser.error("argument --config: expected one argument")
        try:
            text = Path(cfg_path).read_text()
        except OSError as err:
            parser.error(f"argument --config: cannot read {cfg_path!r}: {err.strerror}")
        tokens.append(f"--config={cfg_path}")
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if len(flag) > 2 and "--config".startswith(flag):
                parser.error(f"argument --config: {cfg_path!r} names another config file")
            value = value.strip()
            if value.lower() in ("true", "yes", "on"):
                tokens.append(flag)
            elif value.lower() not in ("false", "no", "off"):
                tokens.append(f"{flag}={value}")
    return rest[:1] + tokens + rest[1:]


def _load_dataset(name: str, data_dir, split: str, seed: int,
                  n_images: int | None) -> LabeledImageSet:
    if name == "mnist":
        ds = load_mnist(data_dir, split)
    elif name == "cifar10":
        ds = load_cifar10(data_dir, split)
    elif name == "synthetic":
        count = 500 if n_images is None else n_images
        return synthetic_labeled_set(count, size=16, seed=seed, split=split)
    else:
        raise ValueError(f"unknown dataset {name!r}")
    if n_images is not None and n_images < len(ds):
        ds = subset(ds, n_images, seed)
    return ds


def _count(text: str, least: int = 1) -> int:
    """argparse type of an image count: an int of at least ``least``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an int, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _count_or_zero(text: str) -> int:
    """argparse type of an image count where 0 means none."""
    return _count(text, least=0)


def _loss_weights(text: str) -> tuple:
    """argparse type of ``--loss-weights``: comma-separated numbers.

    ``PretrainConfig`` checks that there are three and that they are finite.
    """
    try:
        return tuple(float(w) for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated numbers (equivariance,orthogonality,reconstruction), "
            f"got {text!r}") from None


def _angles(text: str) -> list:
    """argparse type of ``--angles``: comma-separated finite numbers of degrees."""
    try:
        angles = [float(a) for a in text.split(",")]
        if all(math.isfinite(a) for a in angles):
            return angles
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated finite numbers of degrees, got {text!r}")


def _add_config(p):
    p.add_argument("--config", action="append", default=None,
                   help="key=value file applied before explicit flags")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-dir", default="data")
    _add_config(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rotoconv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain-basis", help="learn a rotated filter basis offline")
    _add_common(p)
    p.add_argument("--corpus", default="synthetic", choices=["mnist", "cifar10", "synthetic"])
    p.add_argument("--split", default="train")
    p.add_argument("--n-images", type=_count, default=None)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-6)
    p.add_argument("--n-elements", type=int, default=9)
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--partial", action="store_true")
    p.add_argument("--sum-all-pairs", action="store_true")
    p.add_argument("--loss-weights", type=_loss_weights, default="1,1,1")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--crop-fraction", type=float, default=0.25)
    p.add_argument("--dtype", default="float32", choices=FLOAT_DTYPES)
    p.add_argument("--out", required=True)
    p.add_argument("--log-csv", default=None)

    p = sub.add_parser("train", help="task training on a frozen basis")
    _add_common(p)
    p.add_argument("--dataset", default="synthetic", choices=["mnist", "cifar10", "synthetic"])
    p.add_argument("--model", default=None, choices=["group", "translational"],
                   help="default group")
    p.add_argument("--variant", default=None,
                   help="basis flavor tag; defaults to the basis kind")
    p.add_argument("--basis", default=None)
    p.add_argument("--init-from", default=None,
                   help="checkpoint to resume from; the run takes its model, variant, "
                        "classes and dtype, and a flag that names others exits 2")
    p.add_argument("--n-train", type=_count, default=None)
    p.add_argument("--n-val", type=_count_or_zero, default=None,
                   help="test-split images to validate on; 0 or omitted: no validation set")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-6)
    p.add_argument("--flip", action="store_true")
    p.add_argument("--color-normalize", action="store_true",
                   help="compute input stats from the train set if the model has none")
    p.add_argument("--max-translate", type=int, default=0)
    p.add_argument("--rotation-augment", default="none",
                   choices=["none", "quarter", "eighth", "full"])
    p.add_argument("--dtype", default=None, choices=FLOAT_DTYPES, help="default float32")
    p.add_argument("--classes", type=int, default=None, help="default 10")
    p.add_argument("--out", required=True)
    p.add_argument("--log-csv", default=None)

    p = sub.add_parser("eval-rotations", help="test error vs input rotation sweep")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--basis", default=None)
    p.add_argument("--dataset", default="synthetic", choices=["mnist", "cifar10", "synthetic"])
    p.add_argument("--split", default="test")
    p.add_argument("--n-images", type=_count, default=None)
    p.add_argument("--angles", type=_angles, default="0,45,90,135,180,225,270,315",
                   help="comma-separated degrees; a list that starts with a negative "
                        "angle needs the --angles=-45,90 form")
    p.add_argument("--variant", default="model")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval-activations", help="per-layer activation robustness")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--basis", default=None)
    p.add_argument("--dataset", default="synthetic", choices=["mnist", "cifar10", "synthetic"])
    p.add_argument("--split", default="test")
    p.add_argument("--n-images", type=_count, default=8)
    p.add_argument("--variant", default="model")
    p.add_argument("--out", required=True)

    p = sub.add_parser("inspect-basis", help="render a basis as a grayscale grid")
    _add_config(p)
    p.add_argument("--basis", required=True)
    p.add_argument("--cell-scale", type=_count, default=8)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the property-check suite")
    p.add_argument("--seed", type=int, default=0)
    _add_config(p)
    return parser


def _config_from(cls, args):
    """``cls`` with each field that a parsed flag of its name sets; the rest keep defaults."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in dataclasses.fields(cls) if f.name in flags})


def _cmd_pretrain(args) -> list:
    config = _config_from(PretrainConfig, args)
    if args.corpus == "synthetic":
        n_images = 256 if args.n_images is None else args.n_images
        corpus = synthetic_image_corpus(n_images, size=20, seed=args.seed)
    else:
        corpus = _load_dataset(args.corpus, args.data_dir, args.split, args.seed,
                               args.n_images).images
    result = pretrain(corpus, config)
    save_basis(result.basis, args.out)
    outputs = [args.out]
    if args.log_csv:
        write_loss_csv(result.epochs, args.log_csv)
        outputs.append(args.log_csv)
    print(f"basis {result.basis.kind} saved to {args.out} "
          f"(45deg equiv loss {result.initial_equiv_45:.4f} -> {result.final_equiv_45:.4f})")
    return outputs


def _cmd_train(args) -> list:
    config = _config_from(TrainConfig, args)
    basis = load_basis(args.basis) if args.basis else None
    train_set = _load_dataset(args.dataset, args.data_dir, "train", args.seed, args.n_train)
    val_set = None
    if args.n_val is not None and args.n_val > 0:
        val_set = _load_dataset(args.dataset, args.data_dir, "test", args.seed, args.n_val)
    if args.init_from:
        model = load_checkpoint(args.init_from, basis)
        _check_resumed_arch(args, model)
    else:
        model = build_model(args.model or "group",
                            args.variant or (basis.kind if basis else "none"), basis,
                            train_set.images.shape[1],
                            10 if args.classes is None else args.classes, args.seed,
                            args.dtype or "float32")
    # the manifest records the architecture the run used
    args.model, args.variant = model.kind, model.variant
    args.classes, args.dtype = model.classes, model.dtype.name
    rows = train(model, train_set, config, val_set)
    save_checkpoint(model, args.out)
    outputs = [args.out]
    if args.log_csv:
        write_training_csv(rows, args.log_csv)
        outputs.append(args.log_csv)
    last = rows[-1] if rows else {}
    print(f"checkpoint saved to {args.out} (final train_acc "
          f"{last.get('train_acc', float('nan')):.3f})")
    return outputs


def _check_resumed_arch(args, model) -> None:
    """ValueError naming the first architecture flag that disagrees with the checkpoint
    ``train --init-from`` resumes: the run trains the checkpoint's model."""
    for flag, used in (("model", model.kind), ("variant", model.variant),
                       ("classes", model.classes), ("dtype", model.dtype.name)):
        given = getattr(args, flag)
        if given is not None and given != used:
            raise ValueError(f"--{flag} {given} disagrees with --init-from {args.init_from}, "
                             f"whose model has {flag} {used}")


def _load_model(args):
    basis = load_basis(args.basis) if args.basis else None
    return load_checkpoint(args.checkpoint, basis)


def _cmd_eval_rotations(args) -> list:
    model = _load_model(args)
    testset = _load_dataset(args.dataset, args.data_dir, args.split, args.seed,
                            args.n_images)
    report = rotation_sweep(model, testset, args.angles, args.variant)
    emit_reports(report, args.out)
    for row in report.rows:
        print(f"{row['variant']:>12s}  {row['angle_deg']:7.1f} deg  "
              f"error {row['error']:.4f}")
    return [args.out]


def _cmd_eval_activations(args) -> list:
    model = _load_model(args)
    testset = _load_dataset(args.dataset, args.data_dir, args.split, args.seed,
                            args.n_images)
    report = robustness_suite(model, testset, args.n_images, variant=args.variant)
    emit_reports(report, args.out)
    for row in report.rows:
        print(f"layer {row['layer_index']:>2d} {row['layer_name']:<16s} "
              f"L_equivariance {row['L_equivariance']:.6f}")
    return [args.out]


def _cmd_inspect_basis(args) -> list:
    basis = load_basis(args.basis)
    render_basis_pgm(basis, args.out, args.cell_scale)
    print(f"{basis.kind} basis: {basis.order} orientations x {basis.n_elements} "
          f"elements ({basis.kernel_size}x{basis.kernel_size}) -> {args.out}")
    return [args.out]


def _cmd_verify(args) -> int:
    results = run_all(seed=args.seed)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    argv = _load_config_tokens(argv, parser)
    args = parser.parse_args(argv)
    # every command but verify writes artifacts and returns their paths
    handlers = {
        "pretrain-basis": _cmd_pretrain,
        "train": _cmd_train,
        "eval-rotations": _cmd_eval_rotations,
        "eval-activations": _cmd_eval_activations,
        "inspect-basis": _cmd_inspect_basis,
    }
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        inputs = _input_hashes(args)
        outputs = handlers[args.command](args)
        _write_manifest(args.out, args.command, vars(args), inputs, outputs)
        return 0
    except (DatasetError, FingerprintMismatch, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TrainingDivergence, PretrainDivergence) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
