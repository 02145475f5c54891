import hashlib
import json

import numpy as np
import pytest

from rotoconv import network
from rotoconv import tensor as T
from rotoconv.basis import load_basis, populate_partial, save_basis
from rotoconv.cli import _config_from, _load_config_tokens, _load_dataset, build_parser, main
from rotoconv.groups import RotationOperators
from rotoconv.pretrain import PretrainConfig
from rotoconv.tensor import check_gradient
from rotoconv.training import TrainConfig
from rotoconv.verify import (check_gradients, check_partial_model_equivariance, format_table,
                             gradient_cases, run_all)

from formats import read_pgm, write_idx_images, write_idx_labels


def run(*argv):
    return main(list(argv))


@pytest.fixture
def pretrained(tmp_path):
    out = tmp_path / "basis.rcbs"
    code = run("pretrain-basis", "--corpus", "synthetic", "--n-images", "24",
               "--epochs", "2", "--batch-size", "8", "--n-elements", "3",
               "--partial", "--seed", "3", "--out", str(out),
               "--log-csv", str(tmp_path / "loss.csv"))
    assert code == 0
    return out


class TestVerify:
    def test_fresh_checkout_passes(self, capsys):
        assert run("verify") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_every_check_passes_with_one_table_row_each(self):
        results = run_all(seed=0)
        assert len(results) == 5 and all(r.passed for r in results)
        lines = format_table(results).splitlines()
        assert len(lines) == len(results)
        for line, r in zip(lines, results):
            assert line.startswith(r.name) and line.endswith(f"  PASS  {r.detail}")

    def test_gradient_row_fails_on_a_wrong_gconv_adjoint(self, monkeypatch, capsys):
        """The bank adjoint gathers with the forward index instead of its inverse."""
        roll_index = network._roll_index
        monkeypatch.setattr(network, "_roll_index", lambda *a: (roll_index(*a)[0],) * 2)
        row = check_gradients(seed=0)
        assert not row.passed and row.detail.startswith("gconv_input: ")
        assert run("verify") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gradient_row_fails_on_a_wrong_image_terms_adjoint(self, monkeypatch, capsys):
        """The image terms' backward applies rot_s where it needs rot_s's transpose."""
        apply = RotationOperators.apply
        monkeypatch.setattr(RotationOperators, "apply",
                            lambda self, x, r, transpose=False: apply(self, x, r))
        row = check_gradients(seed=0)
        assert not row.passed and row.detail.startswith("image_terms_one_draw: ")
        assert run("verify") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gradient_row_fails_on_an_unflipped_one_pass_grad_w(self, monkeypatch, capsys):
        """The one-pass backward leaves grad-w in the spatially flipped order it sums in.
        Only the two ``_blocks`` cases reach that kernel."""
        grads = T._correlate_grads

        def unflipped(g, x, adjoint, k):
            gx, gw = grads(g, x, adjoint, k)
            return gx, gw.reshape(len(gw), -1, k, k)[..., ::-1, ::-1].reshape(gw.shape)

        monkeypatch.setattr(T, "_correlate_grads", unflipped)
        row = check_gradients(seed=0)
        assert not row.passed and row.detail.startswith("correlate2d_blocks: ")
        builder, arrays = {name: case for name, *case in gradient_cases(seed=0)}["gconv_blocks"]
        with pytest.raises(AssertionError, match="on input 1"):  # the coefficients
            check_gradient(builder, arrays)
        assert run("verify") == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("zeroed", [
        lambda rows, slab: slice(slab, None),
        lambda rows, slab: slice((rows - 1) // slab * slab if rows > slab else rows, None),
    ], ids=["first_slab_only", "last_of_several_slabs_skipped"])
    def test_gradient_row_fails_on_a_one_pass_grad_w_that_drops_row_slabs(
            self, monkeypatch, capsys, zeroed):
        """The one-pass backward sums grad-w's flipped [O*k*k, C] accumulator in row slabs
        of at most ``_SLAB_BYTES``; a loop that adds only the first slab, or skips the
        last of several, leaves the other rows zero and every one-slab grad-w right.
        Only layers of over 3 MB of grad-w take more than one slab: of the checked ops,
        the 33- and 67-channel layers of the group model."""
        grads = T._correlate_grads

        def dropped(g, x, adjoint, k):
            gx, gw = grads(g, x, adjoint, k)
            o, c = len(gw), gw.shape[1] // (k * k)
            flipped = gw.reshape(o, c, k, k)[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(
                o * k * k, c)
            flipped[zeroed(len(flipped), T._slab_rows(len(flipped), flipped.nbytes))] = 0
            return gx, flipped.reshape(o, k, k, c)[:, ::-1, ::-1].transpose(0, 3, 1, 2).reshape(
                o, -1)

        monkeypatch.setattr(T, "_correlate_grads", dropped)
        row = check_gradients(seed=0)
        assert not row.passed and row.detail.startswith("group_model: ")
        assert run("verify") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gradient_row_fails_on_a_relu_mask_that_clips_nothing(self, monkeypatch, capsys):
        """A rebuilt BatchNorm-ReLU map whose ReLU mask lets every gradient through. Each
        reader of a handed-over map (the 2x2 pool, the global pool, gconv, correlate2d)
        takes its mask from there, and each of their cases fails on its own."""
        monkeypatch.setattr(T._RebuiltMap, "relu_mask",
                            lambda self: np.ones(self.shape, dtype=bool))
        row = check_gradients(seed=0)
        assert not row.passed and row.detail.startswith("batchnorm_relu_pool_group: ")
        cases = {name: case for name, *case in gradient_cases(seed=0)}
        for name in ("batchnorm_relu_pool_group", "batchnorm_relu_spatial",
                     "batchnorm_relu_gconv", "batchnorm_relu_correlate2d_blocks"):
            with pytest.raises(AssertionError, match="on input 0"):  # the BatchNorm input
                check_gradient(*cases[name])
        assert run("verify") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_equivariance_row_reads_maps_and_logits(self):
        row = check_partial_model_equivariance(seed=0)
        assert row.detail.startswith("worst relative change: maps ")
        maps, logits = (float(word.rstrip(",")) for word in row.detail.split()[4::2])
        assert maps <= 1e-12 and logits <= 1e-12


class TestPretrainBasis:
    def test_writes_basis_log_and_manifest(self, tmp_path, pretrained):
        basis = load_basis(pretrained)
        assert basis.kind == "partial"
        assert (tmp_path / "loss.csv").read_text().startswith("epoch,")
        manifest = json.loads((tmp_path / "basis.rcbs.manifest.json").read_text())
        assert manifest["command"] == "pretrain-basis"
        assert manifest["options"]["epochs"] == 2
        assert str(pretrained) in manifest["outputs"]

    def test_reproducible_artifact_hash(self, tmp_path):
        args = ["pretrain-basis", "--corpus", "synthetic", "--n-images", "16",
                "--epochs", "1", "--batch-size", "8", "--n-elements", "2",
                "--seed", "5"]
        a, b = tmp_path / "a.rcbs", tmp_path / "b.rcbs"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_seeds_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_images=16\nepochs=1\nbatch_size=8\nn_elements=2\nseed=5\n")
        out = tmp_path / "c.rcbs"
        assert run("pretrain-basis", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "c.rcbs.manifest.json").read_text())
        assert manifest["options"]["n_elements"] == 2

    def test_manifest_names_and_hashes_every_config_file(self, tmp_path):
        first, second = tmp_path / "run.cfg", tmp_path / "seed.cfg"
        first.write_text("n_images=16\nepochs=1\nbatch_size=8\nn_elements=2\n")
        second.write_text("seed=5\n")
        out = tmp_path / "c.rcbs"
        assert run("pretrain-basis", f"--config={second}", "--config", str(first),
                   "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "c.rcbs.manifest.json").read_text())
        assert manifest["options"]["config"] == [str(second), str(first)]
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (first, second)}

    @pytest.mark.parametrize("sigma", ["0", "-0.5"])
    def test_non_positive_sigma_is_clean_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "basis.rcbs"
        code = run("pretrain-basis", "--corpus", "synthetic", "--n-images", "8",
                   "--epochs", "1", "--batch-size", "8", "--n-elements", "2",
                   "--sigma", sigma, "--out", str(out))
        assert code == 2
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--kernel-size", "0", "kernel_size"), ("--kernel-size", "2", "kernel_size"),
        ("--n-elements", "0", "n_elements"), ("--batch-size", "0", "batch_size"),
        ("--epochs", "-1", "epochs"), ("--learning-rate", "-5", "learning_rate"),
        ("--learning-rate", "nan", "learning_rate"), ("--weight-decay", "-1", "weight_decay"),
        ("--weight-decay", "inf", "weight_decay")])
    def test_out_of_range_option_is_clean_error(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "basis.rcbs"
        log = tmp_path / "loss.csv"
        code = run("pretrain-basis", "--corpus", "synthetic", "--n-images", "8",
                   "--epochs", "1", "--batch-size", "8", "--n-elements", "2",
                   flag, value, "--out", str(out), "--log-csv", str(log))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and field in err
        assert not out.exists() and not log.exists()

    @pytest.mark.parametrize("weights", ["1,1", "1,1,1,1", "1,nan,1"])
    def test_malformed_loss_weights_is_clean_error(self, tmp_path, capsys, weights):
        out = tmp_path / "basis.rcbs"
        code = run("pretrain-basis", "--corpus", "synthetic", "--n-images", "8",
                   "--epochs", "1", "--batch-size", "8", "--n-elements", "2",
                   "--loss-weights", weights, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "loss_weights" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
    def test_diverged_run_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "basis.rcbs"
        code = run("pretrain-basis", "--corpus", "synthetic", "--n-images", "8",
                   "--epochs", "2", "--batch-size", "4", "--n-elements", "2",
                   "--learning-rate", "1e30", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss at epoch ") and err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "basis.rcbs.manifest.json").exists()

    @pytest.mark.parametrize("weights", ["1,a,1", "1,,1"])
    def test_non_numeric_loss_weights_is_usage_error(self, tmp_path, capsys, weights):
        out = tmp_path / "basis.rcbs"
        with pytest.raises(SystemExit) as exit_info:
            run("pretrain-basis", "--corpus", "synthetic", "--n-images", "8",
                "--loss-weights", weights, "--out", str(out))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --loss-weights: expected comma-separated numbers" in err
        assert repr(weights) in err
        assert not out.exists()

    def test_zero_images_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "basis.rcbs"
        with pytest.raises(SystemExit) as exit_info:
            run("pretrain-basis", "--corpus", "synthetic", "--n-images", "0",
                "--epochs", "1", "--out", str(out))
        assert exit_info.value.code == 2
        assert "--n-images: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--config"], "expected one argument"),
        (["verify", "--config", "no-such.cfg"], "cannot read"),
        (["verify", "--config=no-such.cfg"], "cannot read"),
    ])
    def test_bad_config_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            run(*argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--config" in err and message in err


@pytest.mark.parametrize("command, flag", [
    ("pretrain-basis", "--n-images"), ("train", "--n-train"), ("train", "--n-val"),
    ("eval-rotations", "--n-images"), ("eval-activations", "--n-images"),
    ("inspect-basis", "--cell-scale"),
])
def test_non_int_count_is_usage_error_that_names_the_flag(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_info:
        run(command, flag, "abc")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an int, got 'abc'" in err
    assert "_count" not in err


@pytest.mark.parametrize("argv, config", [
    (["pretrain-basis", "--out", "b"], PretrainConfig), (["train", "--out", "m"], TrainConfig)])
def test_default_flags_build_the_default_config(argv, config):
    assert _config_from(config, build_parser().parse_args(argv)) == config()


@pytest.mark.parametrize("argv", [
    ["inspect-basis", "--basis", "b", "--out", "g", "--seed", "1"],
    ["inspect-basis", "--basis", "b", "--out", "g", "--data-dir", "d"],
    ["verify", "--data-dir", "d"]])
def test_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain-basis", "train"])
@pytest.mark.parametrize("dtype", ["int32", "float16"])
def test_non_float_dtype_is_usage_error(tmp_path, capsys, command, dtype):
    out = tmp_path / "artifact"
    with pytest.raises(SystemExit) as exit_info:
        run(command, "--epochs", "1", "--dtype", dtype, "--out", str(out))
    assert exit_info.value.code == 2
    assert "--dtype: invalid choice" in capsys.readouterr().err
    assert not out.exists()


class TestInspectBasis:
    def test_renders_grid_with_exact_quarter_turn_rows(self, tmp_path, pretrained):
        out = tmp_path / "grid.pgm"
        assert run("inspect-basis", "--basis", str(pretrained),
                   "--cell-scale", "2", "--out", str(out)) == 0
        img = read_pgm(out)
        basis = load_basis(pretrained)
        cell = basis.kernel_size * 2
        assert img.shape == (8 * (cell + 1) + 1, basis.n_elements * (cell + 1) + 1)
        def tile(r, i):
            y, x = 1 + r * (cell + 1), 1 + i * (cell + 1)
            return img[y:y + cell, x:x + cell]
        for i in range(basis.n_elements):
            assert np.array_equal(tile(2, i), np.rot90(tile(0, i)))
            assert np.array_equal(tile(6, i), np.rot90(tile(0, i), 3))

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_cell_scale_below_one_is_usage_error(self, tmp_path, capsys, pretrained, scale):
        out = tmp_path / "grid.pgm"
        with pytest.raises(SystemExit) as exit_info:
            run("inspect-basis", "--basis", str(pretrained), "--cell-scale", scale,
                "--out", str(out))
        assert exit_info.value.code == 2
        assert f"--cell-scale: must be >= 1, got {scale}" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_train_writes_checkpoint(self, tmp_path, pretrained):
        out = tmp_path / "model.ckpt"
        code = run("train", "--dataset", "synthetic", "--n-train", "20",
                   "--classes", "10", "--model", "group", "--basis", str(pretrained),
                   "--epochs", "1", "--batch-size", "10", "--seed", "0",
                   "--out", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "model.ckpt.manifest.json").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--epochs", "-1", "epochs"), ("--batch-size", "0", "batch_size"),
        ("--learning-rate", "-5", "learning_rate"), ("--learning-rate", "nan", "learning_rate"),
        ("--weight-decay", "-1", "weight_decay"), ("--weight-decay", "inf", "weight_decay")])
    def test_out_of_range_option_is_clean_error(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "model.ckpt"
        code = run("train", "--dataset", "synthetic", "--n-train", "10",
                   "--model", "translational", "--epochs", "1", "--batch-size", "10",
                   flag, value, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and field in err
        assert not out.exists()
        assert not (tmp_path / "model.ckpt.manifest.json").exists()

    def test_class_count_other_than_the_dataset_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        assert run("train", "--dataset", "synthetic", "--model", "translational",
                   "--classes", "4", "--n-train", "8", "--epochs", "1", "--batch-size", "8",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "error: the model has classes=4, but the train set has 10 classes\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
    def test_diverged_run_is_clean_error(self, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        code = run("train", "--dataset", "synthetic", "--n-train", "8",
                   "--model", "translational", "--epochs", "2", "--batch-size", "4",
                   "--learning-rate", "1e30", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss at epoch ") and err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "model.ckpt.manifest.json").exists()

    def test_zero_train_images_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        with pytest.raises(SystemExit) as exit_info:
            run("train", "--dataset", "synthetic", "--n-train", "0",
                "--model", "translational", "--epochs", "1", "--out", str(out))
        assert exit_info.value.code == 2
        assert "--n-train: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_val_images_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        with pytest.raises(SystemExit) as exit_info:
            run("train", "--dataset", "synthetic", "--n-train", "8", "--n-val", "-1",
                "--model", "translational", "--epochs", "1", "--out", str(out))
        assert exit_info.value.code == 2
        assert "--n-val: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_val, header", [("0", "epoch,train_loss,train_acc"),
                                               ("4", "epoch,train_loss,train_acc,val_acc")])
    def test_zero_val_images_means_no_validation(self, tmp_path, n_val, header):
        log = tmp_path / "log.csv"
        assert run("train", "--dataset", "synthetic", "--n-train", "8", "--n-val", n_val,
                   "--model", "translational", "--epochs", "1", "--batch-size", "8",
                   "--out", str(tmp_path / "model.ckpt"), "--log-csv", str(log)) == 0
        assert log.read_text().splitlines()[0] == header

    def test_resume_manifest_hashes_the_starting_checkpoint(self, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        common = ["train", "--dataset", "synthetic", "--n-train", "8",
                  "--model", "translational", "--epochs", "1", "--batch-size", "8",
                  "--out", str(ckpt)]
        assert run(*common) == 0
        start = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert run(*common, "--init-from", str(ckpt)) == 0  # resumes in place
        manifest = json.loads((tmp_path / "model.ckpt.manifest.json").read_text())
        assert manifest["inputs"] == {str(ckpt): start}
        assert manifest["outputs"][str(ckpt)] != start

    @pytest.mark.parametrize("flag, value", [
        ("--model", "group"), ("--variant", "partial"), ("--classes", "5"),
        ("--dtype", "float64")])
    def test_resume_rejects_an_architecture_flag_the_checkpoint_disagrees_with(
            self, tmp_path, capsys, flag, value):
        start, out = tmp_path / "start.ckpt", tmp_path / "resumed.ckpt"
        common = ["train", "--dataset", "synthetic", "--n-train", "8", "--epochs", "1",
                  "--batch-size", "8"]
        assert run(*common, "--model", "translational", "--out", str(start)) == 0
        capsys.readouterr()
        assert run(*common, "--init-from", str(start), flag, value, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {value} disagrees with --init-from")
        assert not out.exists()
        assert not (tmp_path / "resumed.ckpt.manifest.json").exists()

    def test_resume_manifest_records_the_checkpoint_architecture(self, tmp_path):
        start, out = tmp_path / "start.ckpt", tmp_path / "resumed.ckpt"
        common = ["train", "--dataset", "synthetic", "--n-train", "8", "--epochs", "1",
                  "--batch-size", "8"]
        assert run(*common, "--model", "translational", "--dtype", "float64",
                   "--out", str(start)) == 0
        assert run(*common, "--init-from", str(start), "--classes", "10",
                   "--out", str(out)) == 0
        options = json.loads((tmp_path / "resumed.ckpt.manifest.json").read_text())["options"]
        assert {k: options[k] for k in ("model", "variant", "classes", "dtype")} == {
            "model": "translational", "variant": "none", "classes": 10, "dtype": "float64"}

    def test_fingerprint_mismatch_fails_without_checkpoint(self, tmp_path, pretrained):
        first = tmp_path / "first.ckpt"
        assert run("train", "--dataset", "synthetic", "--n-train", "20",
                   "--model", "group", "--basis", str(pretrained),
                   "--epochs", "1", "--batch-size", "10", "--out", str(first)) == 0
        other_out = tmp_path / "other.rcbs"
        assert run("pretrain-basis", "--corpus", "synthetic", "--n-images", "16",
                   "--epochs", "1", "--batch-size", "8", "--n-elements", "3",
                   "--partial", "--seed", "77", "--out", str(other_out)) == 0
        final = tmp_path / "resumed.ckpt"
        code = run("train", "--dataset", "synthetic", "--n-train", "20",
                   "--model", "group", "--basis", str(other_out),
                   "--init-from", str(first), "--epochs", "1",
                   "--batch-size", "10", "--out", str(final))
        assert code != 0
        assert not final.exists()


class TestEvaluationCommands:
    def test_eval_rotations_and_activations(self, tmp_path, pretrained):
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--dataset", "synthetic", "--n-train", "20",
                   "--model", "group", "--basis", str(pretrained),
                   "--epochs", "1", "--batch-size", "10", "--out", str(ckpt)) == 0
        sweep = tmp_path / "sweep.csv"
        code = run("eval-rotations", "--checkpoint", str(ckpt), "--basis",
                   str(pretrained), "--dataset", "synthetic", "--n-images", "15",
                   "--angles", "0,90", "--out", str(sweep))
        assert code == 0
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "variant,angle_deg,error"
        assert len(lines) == 3
        robust = tmp_path / "robust.csv"
        code = run("eval-activations", "--checkpoint", str(ckpt), "--basis",
                   str(pretrained), "--dataset", "synthetic", "--n-images", "2",
                   "--out", str(robust))
        assert code == 0
        assert robust.read_text().startswith("variant,layer_index,layer_name")

    def test_negative_first_angle_on_command_line_and_in_config(self, tmp_path, pretrained):
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--dataset", "synthetic", "--n-train", "10",
                   "--model", "group", "--basis", str(pretrained),
                   "--epochs", "1", "--batch-size", "10", "--out", str(ckpt)) == 0
        common = ["--checkpoint", str(ckpt), "--basis", str(pretrained),
                  "--dataset", "synthetic", "--n-images", "4"]
        flag_out, config_out = tmp_path / "flag.csv", tmp_path / "config.csv"
        assert run("eval-rotations", *common, "--angles=-45,90", "--out", str(flag_out)) == 0
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("angles=-45,90\n")
        assert run("eval-rotations", "--config", str(cfg), *common,
                   "--out", str(config_out)) == 0
        for out in (flag_out, config_out):
            rows = out.read_text().strip().splitlines()[1:]
            assert [row.split(",")[1] for row in rows] == ["-45.0", "90.0"]

    def test_config_equals_form_parses_as_separate_form(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("angles=0,90\n")
        parser = build_parser()
        rest = ["--checkpoint", "m.ckpt", "--out", "s.csv"]
        separate, joined = (
            parser.parse_args(_load_config_tokens(["eval-rotations", *form, *rest], parser))
            for form in (["--config", str(cfg)], [f"--config={cfg}"]))
        assert vars(joined) == vars(separate)
        assert joined.angles == [0.0, 90.0]

    @pytest.mark.parametrize("form, want", [
        (["--conf", "{c}"], None),  # an abbreviation argparse would bind: usage error
        (["--config", "{c}", "--config", "{d}"], [45.0]),  # every file, the later one wins
    ])
    def test_every_config_flag_takes_effect_or_is_usage_error(self, tmp_path, capsys,
                                                               form, want):
        (tmp_path / "c.txt").write_text("angles=0,90\n")
        (tmp_path / "d.txt").write_text("angles=45\n")
        form = [t.format(c=tmp_path / "c.txt", d=tmp_path / "d.txt") for t in form]
        parser = build_parser()
        argv = ["eval-rotations", *form, "--checkpoint", "m.ckpt", "--out", "s.csv"]
        if want is None:
            with pytest.raises(SystemExit) as exit_info:
                _load_config_tokens(argv, parser)
            assert exit_info.value.code == 2
            assert "--config" in capsys.readouterr().err
        else:
            assert parser.parse_args(_load_config_tokens(argv, parser)).angles == want

    def test_config_file_naming_another_is_usage_error(self, tmp_path, capsys):
        inner, outer = tmp_path / "inner.txt", tmp_path / "outer.txt"
        inner.write_text("angles=45\n")
        outer.write_text(f"config={inner}\n")
        with pytest.raises(SystemExit) as exit_info:
            run("eval-rotations", "--config", str(outer), "--checkpoint", "m.ckpt",
                "--out", str(tmp_path / "s.csv"))
        assert exit_info.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_angles_help_names_the_equals_form(self, capsys):
        with pytest.raises(SystemExit):
            run("eval-rotations", "--help")
        assert "--angles=-45,90" in capsys.readouterr().out

    @pytest.mark.parametrize("angles", ["inf", "nan", "0,x", "0,,90", "45,inf"])
    def test_malformed_angles_is_usage_error(self, tmp_path, capsys, angles):
        # The checkpoint does not exist: the flag is rejected before anything loads.
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exit_info:
            run("eval-rotations", "--checkpoint", str(tmp_path / "nope.ckpt"),
                "--dataset", "synthetic", "--angles", angles, "--out", str(out))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --angles: expected comma-separated finite numbers" in err
        assert repr(angles) in err
        assert not out.exists()

    def test_eval_activations_on_order_4_group_model(self, tmp_path, capsys):
        basis_path = tmp_path / "order4.rcbs"
        learned = np.random.default_rng(2).uniform(-1.0, 1.0, (1, 3, 3, 3))
        save_basis(populate_partial(learned, order=4), basis_path)
        ckpt = tmp_path / "model.ckpt"
        assert run("train", "--dataset", "synthetic", "--n-train", "10",
                   "--model", "group", "--basis", str(basis_path),
                   "--epochs", "1", "--batch-size", "10", "--out", str(ckpt)) == 0
        robust = tmp_path / "robust.csv"
        assert run("eval-activations", "--checkpoint", str(ckpt), "--basis",
                   str(basis_path), "--dataset", "synthetic", "--n-images", "2",
                   "--out", str(robust)) == 0
        assert capsys.readouterr().err == ""
        rows = robust.read_text().strip().splitlines()
        assert rows[0].startswith("variant,layer_index,layer_name") and len(rows) > 1

    def test_class_count_other_than_the_dataset_is_clean_error(self, tmp_path, capsys):
        ckpt, out = tmp_path / "model.ckpt", tmp_path / "sweep.csv"
        network.save_checkpoint(network.build_model("translational", in_channels=1,
                                                    classes=40, seed=2), ckpt)
        assert run("eval-rotations", "--checkpoint", str(ckpt), "--dataset", "synthetic",
                   "--n-images", "50", "--angles", "0", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "error: the model has classes=40, but the test set has 10 classes\n"
        assert not out.exists()

    def test_missing_checkpoint_is_clean_error(self, tmp_path, capsys):
        code = run("eval-rotations", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--dataset", "synthetic", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDatasetWiring:
    def test_synthetic_test_split_shares_the_train_classes(self):
        """A nearest-class-mean classifier fit on the train split scores well above
        chance (0.1) on the test split that ``train --n-val`` and ``eval-*`` read."""
        train = _load_dataset("synthetic", None, "train", 0, 500)
        test = _load_dataset("synthetic", None, "test", 0, 500)
        train_x, test_x = train.images.reshape(500, -1), test.images.reshape(500, -1)
        means = np.stack([train_x[train.labels == c].mean(axis=0) for c in range(10)])
        dist = ((test_x[:, None] - means[None]) ** 2).sum(axis=-1)
        assert (dist.argmin(axis=1) == test.labels).mean() >= 0.5  # 0.786 measured
        assert not np.array_equal(test_x, train_x)

    def test_mnist_via_cli_paths(self, tmp_path, rng):
        data = tmp_path / "data"
        data.mkdir()
        images = rng.integers(0, 256, (30, 28, 28)).astype(np.uint8)
        labels = (np.arange(30) % 10).astype(np.uint8)
        write_idx_images(images, data / "train-images-idx3-ubyte")
        write_idx_labels(labels, data / "train-labels-idx1-ubyte")
        out = tmp_path / "b.rcbs"
        code = run("pretrain-basis", "--corpus", "mnist", "--data-dir", str(data),
                   "--n-images", "20", "--epochs", "1", "--batch-size", "10",
                   "--n-elements", "2", "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_missing_dataset_file_is_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "model.ckpt"
        code = run("train", "--dataset", "mnist", "--data-dir", str(empty),
                   "--model", "translational", "--epochs", "1", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expected dataset file ") and err.count("\n") == 1
        assert not out.exists()

    def test_corrupt_idx_file_is_clean_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_idx_images(np.zeros((4, 28, 28), dtype=np.uint8), data / "train-images-idx3-ubyte")
        write_idx_labels(np.arange(4, dtype=np.uint8), data / "train-labels-idx1-ubyte")
        with open(data / "train-images-idx3-ubyte", "r+b") as fh:
            fh.write(b"\x00\x00\x09\x99")  # not the IDX image magic
        out = tmp_path / "model.ckpt"
        code = run("train", "--dataset", "mnist", "--data-dir", str(data),
                   "--model", "translational", "--epochs", "1", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "magic 0x00000999" in err
        assert err.count("\n") == 1
        assert not out.exists()
