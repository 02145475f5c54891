import gzip
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rotoconv.datasets import (BadMagicError, LabeledImageSet, MissingFileError,
                               TruncatedRecordError, load_cifar10, load_mnist,
                               read_cifar_batch, subset, synthetic_image_corpus,
                               synthetic_labeled_set)

from formats import write_cifar_batch, write_idx_images, write_idx_labels


@pytest.fixture
def mnist_dir(tmp_path, rng):
    images = rng.integers(0, 256, (12, 28, 28)).astype(np.uint8)
    labels = (np.arange(12) % 10).astype(np.uint8)
    write_idx_images(images, tmp_path / "train-images-idx3-ubyte")
    write_idx_labels(labels, tmp_path / "train-labels-idx1-ubyte")
    return tmp_path, images, labels


@pytest.fixture
def cifar_dir(tmp_path, rng):
    images = rng.integers(0, 256, (50, 3, 32, 32)).astype(np.uint8)
    labels = (np.arange(50) % 10).astype(np.uint8)
    for i in range(5):
        write_cifar_batch(images[i * 10:(i + 1) * 10], labels[i * 10:(i + 1) * 10],
                          tmp_path / f"data_batch_{i + 1}.bin")
    write_cifar_batch(images[:10], labels[:10], tmp_path / "test_batch.bin")
    return tmp_path, images, labels


class TestMnist:
    def test_round_trips_pixel_values(self, mnist_dir):
        d, images, labels = mnist_dir
        ds = load_mnist(d, "train")
        assert ds.images.shape == (12, 1, 28, 28)
        assert np.array_equal((ds.images[:, 0] * 255).round().astype(np.uint8), images)
        assert np.array_equal(ds.labels, labels)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_two_loads_identical(self, mnist_dir):
        d, _, _ = mnist_dir
        a = load_mnist(d, "train")
        b = load_mnist(d, "train")
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_mnist(tmp_path, "train")

    def test_bad_magic_error(self, mnist_dir):
        d, _, _ = mnist_dir
        path = d / "train-images-idx3-ubyte"
        blob = bytearray(path.read_bytes())
        blob[3] = 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_mnist(d, "train")

    def test_truncated_error(self, mnist_dir):
        d, _, _ = mnist_dir
        path = d / "train-images-idx3-ubyte"
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TruncatedRecordError):
            load_mnist(d, "train")

    def test_gzip_transparent(self, mnist_dir):
        d, images, _ = mnist_dir
        raw = (d / "train-images-idx3-ubyte").read_bytes()
        (d / "train-images-idx3-ubyte").unlink()
        with gzip.open(d / "train-images-idx3-ubyte.gz", "wb") as fh:
            fh.write(raw)
        ds = load_mnist(d, "train")
        assert np.array_equal((ds.images[:, 0] * 255).round().astype(np.uint8), images)


class TestCifar:
    def test_record_layout(self, tmp_path, rng):
        images = rng.integers(0, 256, (2, 3, 32, 32)).astype(np.uint8)
        labels = np.array([3, 9], dtype=np.uint8)
        path = tmp_path / "data_batch_1.bin"
        write_cifar_batch(images, labels, path)
        blob = path.read_bytes()
        assert len(blob) == 2 * 3073
        assert blob[0] == 3
        assert blob[1:3073] == images[0].tobytes()
        got_images, got_labels = read_cifar_batch(path)
        assert np.array_equal(got_images, images)
        assert np.array_equal(got_labels, labels)

    def test_loads_all_batches(self, cifar_dir):
        d, images, labels = cifar_dir
        ds = load_cifar10(d, "train")
        assert ds.images.shape == (50, 3, 32, 32)
        assert np.array_equal((ds.images * 255).round().astype(np.uint8), images)
        test = load_cifar10(d, "test")
        assert len(test) == 10

    def test_truncated_batch_error(self, cifar_dir):
        d, _, _ = cifar_dir
        path = d / "data_batch_2.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedRecordError):
            load_cifar10(d, "train")

    def test_label_range_guard(self, tmp_path, rng):
        images = rng.integers(0, 256, (2, 3, 32, 32)).astype(np.uint8)
        write_cifar_batch(images, np.array([1, 77], dtype=np.uint8),
                          tmp_path / "data_batch_1.bin")
        with pytest.raises(BadMagicError):
            read_cifar_batch(tmp_path / "data_batch_1.bin")

    def test_nested_directory_layout(self, tmp_path, rng):
        nested = tmp_path / "cifar-10-batches-bin"
        nested.mkdir()
        images = rng.integers(0, 256, (10, 3, 32, 32)).astype(np.uint8)
        labels = (np.arange(10) % 10).astype(np.uint8)
        for i in range(5):
            write_cifar_batch(images[i * 2:(i + 1) * 2], labels[i * 2:(i + 1) * 2],
                              nested / f"data_batch_{i + 1}.bin")
        ds = load_cifar10(tmp_path, "train")
        assert len(ds) == 10


class TestSubset:
    def test_full_size_is_identity(self):
        ds = synthetic_labeled_set(40, 8, 10, seed=0)
        sub = subset(ds, 40, seed=5)
        assert np.array_equal(sub.images, ds.images)
        assert np.array_equal(sub.labels, ds.labels)

    def test_deterministic(self):
        ds = synthetic_labeled_set(60, 8, 10, seed=0)
        a = subset(ds, 25, seed=3)
        b = subset(ds, 25, seed=3)
        assert np.array_equal(a.images, b.images)

    def test_stratified_counts(self):
        ds = synthetic_labeled_set(100, 8, 10, seed=1)
        sub = subset(ds, 37, seed=2)
        counts = np.bincount(sub.labels, minlength=10)
        assert counts.sum() == 37
        assert counts.max() - counts.min() <= 1

    def test_too_large_rejected(self):
        ds = synthetic_labeled_set(10, 8, 10, seed=0)
        with pytest.raises(ValueError, match="requested"):
            subset(ds, 11)


class TestSynthetic:
    def test_corpus_range_and_determinism(self):
        a = synthetic_image_corpus(6, 12, seed=3)
        b = synthetic_image_corpus(6, 12, seed=3)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert a.shape == (6, 12, 12)

    def test_labeled_set_balanced(self):
        ds = synthetic_labeled_set(50, 10, 10, seed=0)
        assert np.bincount(ds.labels, minlength=10).tolist() == [5] * 10

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            LabeledImageSet(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=np.int64), "train")

    def test_fractional_labels_rejected(self):
        with pytest.raises(ValueError, match="integer dtype"):
            LabeledImageSet(np.zeros((2, 1, 4, 4)), np.array([0.5, 1.0]), "train", 3)


class TestCacheReads:
    """A load reads each source file exactly once: nothing is hashed or cached."""

    @pytest.fixture
    def reads(self, monkeypatch):
        counts = Counter()
        original = Path.read_bytes

        def counting(path):
            counts[path.name] += 1
            return original(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        return counts

    @pytest.mark.parametrize("loader, fixture", [(load_mnist, "mnist_dir"),
                                                 (load_cifar10, "cifar_dir")])
    def test_reads_per_file(self, request, reads, loader, fixture):
        d = request.getfixturevalue(fixture)[0]
        loader(d, "train")
        train_files = sorted(p.name for p in d.iterdir() if not p.name.startswith("test"))
        assert sorted(reads) == train_files
        assert set(reads.values()) == {1}


def _gzip_in_place(directory: Path) -> None:
    for path in list(directory.iterdir()):
        with gzip.open(path.with_name(path.name + ".gz"), "wb") as fh:
            fh.write(path.read_bytes())
        path.unlink()


class TestOneAllocationLoad:
    """Pixels are scaled straight into the float32 array the load returns."""

    @pytest.fixture(params=["mnist", "cifar10"])
    def source(self, request, tmp_path, rng):
        labels = (np.arange(200) % 10).astype(np.uint8)
        if request.param == "mnist":
            images = rng.integers(0, 256, (200, 28, 28)).astype(np.uint8)
            write_idx_images(images, tmp_path / "train-images-idx3-ubyte")
            write_idx_labels(labels, tmp_path / "train-labels-idx1-ubyte")
            return load_mnist, tmp_path, images[:, None]
        images = rng.integers(0, 256, (200, 3, 32, 32)).astype(np.uint8)
        for i in range(5):
            write_cifar_batch(images[i * 40:(i + 1) * 40], labels[i * 40:(i + 1) * 40],
                              tmp_path / f"data_batch_{i + 1}.bin")
        return load_cifar10, tmp_path, images

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_bitwise_the_two_step_scaling(self, source, gzipped):
        loader, d, images = source
        if gzipped:
            _gzip_in_place(d)
        got = loader(d, "train").images
        want = images.astype(np.float32) / 255.0
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_peak_traced_memory_below_175_percent_of_images(self, source):
        loader, d, _ = source
        tracemalloc.start()
        try:
            ds = loader(d, "train")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * ds.images.nbytes, peak / ds.images.nbytes
