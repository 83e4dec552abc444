"""Dataset loaders, writers, splitters, and the synthetic generator.

Golden fixtures are built inline: tiny byte-exact IDX and CIFAR-10 files
whose decoded values are known by construction, plus malformed variants
that must each raise their own distinct error type.
"""

import struct

import numpy as np
import pytest

from gibbsnn.data import (
    Dataset,
    load_cifar10,
    load_csv,
    load_idx,
    split,
    synth_blobs,
    write_csv,
    write_idx,
)
from gibbsnn.errors import (
    BadMagicError,
    CountMismatchError,
    FormatError,
    TruncatedError,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _idx_images(n, h, w, payload: bytes) -> bytes:
    return struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + payload

def _idx_labels(n, payload: bytes) -> bytes:
    return struct.pack(">II", IDX_LABELS_MAGIC, n) + payload


class TestIdx:
    def test_golden_pair(self, tmp_path):
        """2 images of 2x3 pixels with known byte values decode exactly."""
        pix = bytes(range(12))  # 0..11
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(_idx_images(2, 2, 3, pix))
        lab.write_bytes(_idx_labels(2, bytes([7, 1])))
        ds = load_idx(img, lab)
        assert ds.inputs.shape == (2, 2, 3, 1)
        np.testing.assert_allclose(
            ds.inputs.ravel(), np.arange(12) / 255.0, rtol=1e-15)
        np.testing.assert_array_equal(ds.labels, [7, 1])
        assert ds.class_count == 8
        assert 0.0 <= ds.inputs.min() and ds.inputs.max() <= 1.0

    def test_gzip_transparent(self, tmp_path):
        import gzip
        img = tmp_path / "img.idx.gz"
        lab = tmp_path / "lab.idx.gz"
        with gzip.open(img, "wb") as fh:
            fh.write(_idx_images(1, 2, 2, bytes([0, 128, 255, 64])))
        with gzip.open(lab, "wb") as fh:
            fh.write(_idx_labels(1, bytes([3])))
        ds = load_idx(img, lab)
        np.testing.assert_allclose(ds.inputs.ravel() * 255.0, [0, 128, 255, 64])

    def test_bad_magic(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
        lab.write_bytes(_idx_labels(1, b"\x00"))
        with pytest.raises(BadMagicError):
            load_idx(img, lab)

    def test_swapped_files_detected(self, tmp_path):
        """Labels file in the images slot has the wrong dimensionality."""
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(_idx_images(1, 1, 1, b"\x00"))
        lab.write_bytes(_idx_labels(1, b"\x00"))
        with pytest.raises(BadMagicError):
            load_idx(lab, img)

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(_idx_images(2, 2, 3, bytes(5)))  # needs 12
        lab.write_bytes(_idx_labels(2, bytes(2)))
        with pytest.raises(TruncatedError):
            load_idx(img, lab)

    def test_truncated_header(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">I", IDX_IMAGES_MAGIC) + b"\x00\x00")
        lab.write_bytes(_idx_labels(1, b"\x00"))
        with pytest.raises(TruncatedError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(_idx_images(2, 1, 1, bytes(2)))
        lab.write_bytes(_idx_labels(3, bytes(3)))
        with pytest.raises(CountMismatchError):
            load_idx(img, lab)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pix = rng.integers(0, 256, size=(4, 3, 3, 1)).astype(np.float64) / 255.0
        ds = Dataset(pix, np.array([0, 1, 2, 1]), class_count=3)
        img, lab = tmp_path / "o.idx", tmp_path / "l.idx"
        write_idx(ds, img, lab)
        back = load_idx(img, lab)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestCifar10:
    def _record(self, label, value):
        return bytes([label]) + bytes([value]) * 3072

    def test_golden_batch(self, tmp_path):
        """Two records with constant channel values decode exactly."""
        p = tmp_path / "batch.bin"
        red = bytes([5]) + bytes([255]) * 1024 + bytes([0]) * 1024 + bytes([0]) * 1024
        gray = self._record(2, 128)
        p.write_bytes(red + gray)
        ds = load_cifar10(p)
        assert ds.inputs.shape == (2, 32, 32, 3)
        assert ds.class_count == 10
        np.testing.assert_array_equal(ds.labels, [5, 2])
        # record 0: pure red in channel-planar order
        np.testing.assert_allclose(ds.inputs[0, :, :, 0], 1.0)
        np.testing.assert_allclose(ds.inputs[0, :, :, 1], 0.0)
        np.testing.assert_allclose(ds.inputs[0, :, :, 2], 0.0)
        np.testing.assert_allclose(ds.inputs[1], 128 / 255.0)

    def test_multiple_batches_concatenate(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(self._record(1, 10))
        b.write_bytes(self._record(2, 20) + self._record(3, 30))
        ds = load_cifar10([a, b])
        assert ds.n == 3
        np.testing.assert_array_equal(ds.labels, [1, 2, 3])

    def test_partial_record_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(self._record(0, 1)[:-10])
        with pytest.raises(TruncatedError):
            load_cifar10(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        with pytest.raises(TruncatedError):
            load_cifar10(p)


class TestCsv:
    def test_numeric_round_trip(self, tmp_path):
        ds = synth_blobs(30, 4, classes=3, seed=5)
        p = tmp_path / "d.csv"
        write_csv(ds, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_string_labels_mapped_sorted(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("f0,label\n1.0,dog\n2.0,cat\n3.0,dog\n")
        ds = load_csv(p)
        # sorted names: cat=0, dog=1
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        assert ds.metadata["classes"] == ["cat", "dog"]
        assert ds.class_count == 2

    def test_integer_labels_are_class_ids(self, tmp_path):
        p = tmp_path / "i.csv"
        p.write_text("f0,label\n1.0,2\n2.0,1\n3.0,2\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.labels, [2, 1, 2])
        assert ds.class_count == 3

    def test_negative_integer_label_rejected(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("f0,label\n1.0,-1\n2.0,1\n")
        with pytest.raises(FormatError, match="negative class label -1"):
            load_csv(p)

    def test_label_column_selectable(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("y,x\n0,1.5\n1,2.5\n")
        ds = load_csv(p, label_column="y")
        np.testing.assert_array_equal(ds.labels, [0, 1])
        np.testing.assert_allclose(ds.inputs.ravel(), [1.5, 2.5])

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            load_csv(p)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,label\n1.0,0\nnot-a-number,1\n")
        with pytest.raises(FormatError, match=":3:"):
            load_csv(p)

    def test_ragged_row_reports_line_number(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(FormatError, match=":3:"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("f0,label\n")
        with pytest.raises(FormatError):
            load_csv(p)


class TestSynthBlobs:
    def test_noise_dims_recorded(self):
        ds = synth_blobs(100, 10, classes=2, irrelevant_fraction=0.5, seed=0)
        assert ds.metadata["noise_dims"] == [5, 6, 7, 8, 9]
        assert ds.metadata["signal_dims"] == [0, 1, 2, 3, 4]

    def test_seed_determinism(self):
        a = synth_blobs(50, 6, classes=3, seed=11)
        b = synth_blobs(50, 6, classes=3, seed=11)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        c = synth_blobs(50, 6, classes=3, seed=12)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_noise_dims_uninformative(self):
        """Class-conditional means of noise dimensions stay near zero."""
        ds = synth_blobs(4000, 8, classes=2, irrelevant_fraction=0.5, seed=1,
                         separation=6.0)
        for dim in ds.metadata["noise_dims"]:
            for cls in (0, 1):
                m = ds.inputs[ds.labels == cls, dim].mean()
                assert abs(m) < 0.1
        # signal dimensions separate the classes
        gap = np.linalg.norm(
            ds.inputs[ds.labels == 0][:, :4].mean(axis=0)
            - ds.inputs[ds.labels == 1][:, :4].mean(axis=0))
        assert gap > 3.0

    def test_label_balance(self):
        ds = synth_blobs(90, 4, classes=3, seed=2)
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [30, 30, 30])

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            synth_blobs(10, 4, irrelevant_fraction=1.5)


class TestSplit:
    def test_paper_scale_counts(self):
        """60000 samples at 0.8/0.2 split into 48000/12000."""
        labels = np.arange(60000) % 10
        ds = Dataset(np.zeros((60000, 1)), labels, class_count=10)
        train, test = split(ds, (0.8, 0.2), seed=0)
        assert train.n == 48000
        assert test.n == 12000

    def test_stratified_exact_on_balanced_data(self):
        """50 per class at 0.75 rounds to 38 train / 12 test in every class
        (within the documented 2% proportion tolerance)."""
        ds = synth_blobs(200, 4, classes=4, seed=3)
        train, test = split(ds, (0.75, 0.25), seed=1)
        np.testing.assert_array_equal(np.bincount(train.labels), [38, 38, 38, 38])
        np.testing.assert_array_equal(np.bincount(test.labels), [12, 12, 12, 12])
        assert abs(train.n / ds.n - 0.75) <= 0.02

    def test_empty_side_rejected(self):
        ds = synth_blobs(20, 4, classes=2, seed=0)
        with pytest.raises(ValueError):
            split(ds, (1.0, 0.0), seed=0)

    def test_fractions_must_sum_to_one(self):
        ds = synth_blobs(20, 4, classes=2, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.7, 0.2), seed=0)

    def test_same_seed_same_assignment(self):
        ds = synth_blobs(100, 4, classes=2, seed=4)
        a_train, a_test = split(ds, (0.6, 0.4), seed=9)
        b_train, b_test = split(ds, (0.6, 0.4), seed=9)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.inputs, b_test.inputs)

    def test_split_tags(self):
        ds = synth_blobs(40, 4, classes=2, seed=5)
        train, test = split(ds, (0.5, 0.5), seed=0)
        assert train.split_tag == "train"
        assert test.split_tag == "test"
        assert train.n + test.n == ds.n


class TestDatasetInvariants:
    def test_count_mismatch_rejected(self):
        with pytest.raises(CountMismatchError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_subset_preserves_metadata(self):
        ds = synth_blobs(30, 4, classes=2, seed=6)
        sub = ds.subset(np.arange(10))
        assert sub.metadata["noise_dims"] == ds.metadata["noise_dims"]
        assert sub.n == 10
