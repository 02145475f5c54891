"""The rotoconv benchmark: one workload per invocation, on generated data.

    python3 perfbench/run.py --workload train_group --seed 1 --seconds 30 --trace 0

Workloads (see README.md for shapes, configs and why each was chosen):

* ``train_group``    -- ``training.train`` on the channel-matched group model;
* ``pretrain_basis`` -- ``pretrain.pretrain`` of a quarter-turn-tied basis;
* ``audit_group``    -- ``audit.rotation_sweep`` and ``audit.robustness_suite``.

Every workload runs as a closed loop in a child process of its own (so its
peak RSS is its own), with BLAS threads set to the CPU count. Set-up time is
the median over several children that only set up. With ``--trace 0`` the
last line of output is the JSON result with every end-to-end metric; with
``--trace 1`` one untraced and one traced child each run for half the time,
and the JSON carries the per-layer metrics, including the tracing overhead
(traced minus untraced). Human-readable lines, with units and sample counts,
and the machine record come first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("train_group", "pretrain_basis", "audit_group")
# Set-up-only children, half before and half after the measured child (whose
# own set-up is one more sample), so that the median spans the whole run.
SETUP_ONLY_CHILDREN = 8
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "img_per_s": "img/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
}

# Per-layer metrics are per step (train_group, pretrain_basis) or per audited
# image (audit_group: each rotated sweep image and each robustness image).
PER_LAYER_TIMES = (
    "tensor.correlate2d.fwd_ms", "tensor.correlate2d.bwd_ms",
    "tensor.batchnorm_train.fwd_ms", "tensor.batchnorm_train.bwd_ms",
    "tensor.maxpool2x2.fwd_ms", "tensor.maxpool2x2.bwd_ms",
    "tensor.relu.fwd_ms", "tensor.relu.bwd_ms",
    "tensor.batchnorm_eval.fwd_ms",
    "tensor.spatial_linear_map.fwd_ms", "tensor.spatial_linear_map.bwd_ms",
    "tensor.other.fwd_ms", "tensor.other.bwd_ms", "tensor.backward.self_ms",
    "network.forward_ms", "network.gconv.fwd_ms", "network.gconv.bwd_ms",
    "network.synth.fwd_ms", "network.synth.bwd_ms",
    "optim.step_ms", "training.augment_ms", "training.evaluate_ms",
    "groups.rotation_matrix_ms", "groups.apply_ms",
    "pretrain.equivariance_term_ms", "pretrain.reconstruction_term_ms",
    "pretrain.orthogonality_term_ms", "audit.pair_error_ms",
)
PER_LAYER = {
    **{name: "ms" for name in PER_LAYER_TIMES},
    "tensor.correlate2d.calls": "count",
    "tensor.correlate2d.gflops": "GF/s",
    "tensor.correlate2d.peak_frac": "ratio",
    "tensor.nodes": "count",
    "tensor.graph_mb": "MB",
    "groups.rotation_matrix.calls": "count",
    "audit.pair_error.calls": "count",
    "datasets.synthetic_ms": "ms",
    "trace.overhead.img_per_s": "img/s",
    "trace.overhead.step_ms_p50": "ms",
}


class ChildFailed(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def blas_environment() -> tuple:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(nproc) for var in BLAS_THREAD_VARS})
    return env, nproc


def machine_record(nproc: int) -> dict:
    """Versions, CPU count, BLAS threads and GEMM rates, measured in this invocation."""
    import numpy as np
    import scipy

    def gemm_gflops(dtype, n=1024, reps=7):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n)).astype(dtype)
        b = rng.standard_normal((n, n)).astype(dtype)
        a @ b
        best = float("inf")
        for _ in range(reps):
            t = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - t)
        return 2.0 * n ** 3 / best / 1e9

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "sgemm_gflops": gemm_gflops(np.float32),
        "dgemm_gflops": gemm_gflops(np.float64),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "machine": platform.machine(),
    }


def run_child(env, timeout: float, *args) -> dict:
    """Run one worker to completion; return its JSON result."""
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker exceeded {timeout:.0f} s: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def _quantile(values, q: int) -> float:
    """Inclusive q-th percentile (10 = p10, 90 = p90); a single value is its own."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, res: dict, setup_samples: list) -> tuple:
    """The end-to-end metrics of one measured child, with their sample counts."""
    ops = res["ops"]
    if workload == "audit_group":
        main = ops["sweep"]
        robust = ops["robust"]
        per_image = robust["images"] / max(robust["calls"], 1)
        step_ms = [s * 1e3 / per_image for s in robust["call_s"]] or [float("nan")]
    else:
        main = ops["train" if workload == "train_group" else "pretrain"]
        step_ms = [s * 1e3 for s in res["step_s"]] or [float("nan")]
    # Images over the time of every call of the kind, so a run's slow and
    # fast spells (the host's speed wanders by tens of percent) both count.
    img_per_s = main["images"] / main["seconds"]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
        "img_per_s": img_per_s,
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": _quantile(step_ms, 90),
    }
    counts = {"setup_s": len(setup_samples), "peak_rss_mb": 1,
              "img_per_s": main["images"], "step_ms_p50": len(step_ms),
              "step_ms_p90": len(step_ms)}
    return metrics, counts


def per_layer(workload: str, traced: dict, traced_e2e: dict, untraced_e2e: dict,
              sgemm_gflops: float) -> dict:
    ops = traced["ops"]
    if workload == "audit_group":
        units = ops["sweep"]["images"] + ops["robust"]["images"]
    else:
        units = sum(op["steps"] for op in ops.values())
    units = max(units, 1)
    layers = traced["layers_run"]
    counts = traced["counts"]
    metrics = {name: layers.get(name, 0.0) / units for name in PER_LAYER_TIMES}
    conv_s = (layers.get("tensor.correlate2d.fwd_ms", 0.0)
              + layers.get("tensor.correlate2d.bwd_ms", 0.0)) / 1e3
    conv_flops = counts.get("correlate2d.fwd_flops", 0) + counts.get("correlate2d.bwd_flops", 0)
    gflops = conv_flops / conv_s / 1e9 if conv_s else 0.0
    metrics.update({
        "tensor.correlate2d.calls": counts.get("correlate2d.calls", 0) / units,
        "tensor.correlate2d.gflops": gflops,
        "tensor.correlate2d.peak_frac": gflops / sgemm_gflops,
        "tensor.nodes": counts.get("nodes", 0) / units,
        "tensor.graph_mb": traced["graph_mb"],
        "groups.rotation_matrix.calls": counts.get("groups.rotation_matrix.calls", 0) / units,
        "audit.pair_error.calls": counts.get("audit.pair_error.calls", 0) / units,
        "datasets.synthetic_ms": traced["layers_setup"].get("datasets.synthetic_ms", 0.0),
        "trace.overhead.img_per_s": traced_e2e["img_per_s"] - untraced_e2e["img_per_s"],
        "trace.overhead.step_ms_p50": traced_e2e["step_ms_p50"] - untraced_e2e["step_ms_p50"],
    })
    return metrics


def _print_metrics(title: str, metrics: dict, units: dict, counts: dict | None = None) -> None:
    print(title)
    for name, value in metrics.items():
        n = f"  (n={counts[name]})" if counts and name in counts else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{n}")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure and print one workload; returns the JSON result and the untraced metrics."""
    env, nproc = blas_environment()
    os.environ.update({var: env[var] for var in BLAS_THREAD_VARS})
    machine = machine_record(nproc)
    print("machine " + json.dumps(machine))
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    timeout = 2 * seconds + 60

    if not trace:
        def setup_only():
            return run_child(env, 60, *common, "--seconds", "0", "--setup-only")["setup_s"]
        setup = [setup_only() for _ in range(SETUP_ONLY_CHILDREN // 2)]
        res = run_child(env, timeout, *common, "--seconds", repr(seconds))
        setup.append(res["setup_s"])
        setup += [setup_only() for _ in range(SETUP_ONLY_CHILDREN - SETUP_ONLY_CHILDREN // 2)]
        metrics, counts = end_to_end(workload, res, setup)
        units = END_TO_END
        _print_metrics(f"{workload} seed {seed}: end-to-end, tracing off", metrics, units, counts)
        e2e = metrics
    else:
        half = repr(seconds / 2.0)
        plain = run_child(env, timeout, *common, "--seconds", half)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{workload}_seed{seed}.json"
        traced = run_child(env, timeout, *common, "--seconds", half, "--trace", "1",
                           "--trace-out", str(trace_path))
        trace_doc = json.loads(trace_path.read_text())
        trace_doc["meta"]["machine"] = machine
        trace_path.write_text(json.dumps(trace_doc, separators=(",", ":")))
        plain_e2e, counts = end_to_end(workload, plain, [plain["setup_s"]])
        traced_e2e, _ = end_to_end(workload, traced, [traced["setup_s"]])
        _print_metrics(f"{workload} seed {seed}: end-to-end, tracing off", plain_e2e,
                       END_TO_END, counts)
        _print_metrics(f"{workload} seed {seed}: end-to-end, tracing on", traced_e2e,
                       END_TO_END)
        metrics = per_layer(workload, traced, traced_e2e, plain_e2e, machine["sgemm_gflops"])
        units = PER_LAYER
        _print_metrics(f"{workload} seed {seed}: per layer ({traced['n_spans']} spans "
                       f"in {trace_path.relative_to(ROOT)})", metrics, units)
        e2e = plain_e2e
        res = traced
        res["attempted"] += plain["attempted"]
        res["failed"] += plain["failed"]
        res["failures"] = plain["failures"] + traced["failures"]
    print(f"  fail_frac {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for detail in res["failures"]:
        print("  failure: " + detail.strip().splitlines()[-1])
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {"end_to_end": e2e, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "rotoconv" / "__init__.py").is_file():
        print(f"rotoconv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
