"""Dataset ingestion and generation.

Supported containers: big-endian IDX (magic-tagged), CIFAR-10 binary
(3073-byte records, channel-planar), and headered CSV with a named label
column.  Pixel formats are scaled to [0, 1]; nothing else is normalized.
The synthetic blob generator plants a known set of pure-noise input
dimensions so sparsity recovery can be scored against ground truth.
"""

import csv
import gzip
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BadMagicError, CountMismatchError, FormatError, TruncatedError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 channel-planar pixels


@dataclass
class Dataset:
    """Input batch plus aligned labels.

    inputs: (n, H, W, C) pixels in [0,1] or (n, d) feature rows, float64.
    labels: (n,) integer class ids, or (n, k) real targets.
    metadata carries provenance (noise dimensions, class names, source).
    """

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int | None = None
    split_tag: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise CountMismatchError(
                f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels")

    @property
    def n(self) -> int:
        return int(self.inputs.shape[0])

    def subset(self, idx, split_tag=None) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], self.class_count,
                       split_tag if split_tag is not None else self.split_tag,
                       dict(self.metadata))


def _read_bytes(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


def _parse_idx(raw: bytes, path) -> np.ndarray:
    if len(raw) < 4:
        raise TruncatedError(f"{path}: too short for an IDX header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise BadMagicError(f"{path}: bad magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise TruncatedError(f"{path}: header truncated")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) - header < count:
        raise TruncatedError(
            f"{path}: payload holds {len(raw) - header} bytes, header promises {count}")
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header)
    return data.reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into (n, H, W, 1) pixels in [0,1].

    Distinct failure modes raise distinct errors: BadMagicError,
    TruncatedError, CountMismatchError.
    """
    images = _parse_idx(_read_bytes(images_path), images_path)
    labels = _parse_idx(_read_bytes(labels_path), labels_path)
    if images.ndim != 3:
        raise BadMagicError(f"{images_path}: expected an images file")
    if labels.ndim != 1:
        raise BadMagicError(f"{labels_path}: expected a labels file")
    if images.shape[0] != labels.shape[0]:
        raise CountMismatchError(
            f"{images.shape[0]} images vs {labels.shape[0]} labels")
    inputs = images.astype(np.float64)[..., None] / 255.0
    return Dataset(inputs, labels.astype(np.int64),
                   class_count=int(labels.max()) + 1 if labels.size else None,
                   metadata={"source": str(images_path), "format": "idx"})


def load_cifar10(batch_paths) -> Dataset:
    """Parse CIFAR-10 binary batches into (n, 32, 32, 3) pixels in [0,1]."""
    if isinstance(batch_paths, (str, bytes, os.PathLike)):
        batch_paths = [batch_paths]
    images, labels = [], []
    for path in batch_paths:
        raw = _read_bytes(path)
        if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
            raise TruncatedError(
                f"{path}: {len(raw)} bytes is not a whole number of "
                f"{CIFAR_RECORD}-byte records")
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels.append(rec[:, 0].astype(np.int64))
        planes = rec[:, 1:].reshape(-1, 3, 32, 32)
        images.append(planes.transpose(0, 2, 3, 1).astype(np.float64) / 255.0)
    return Dataset(np.concatenate(images), np.concatenate(labels), class_count=10,
                   metadata={"source": [str(p) for p in batch_paths],
                             "format": "cifar10"})


def load_csv(path, label_column: str = "label") -> Dataset:
    """Headered CSV with one named label column, all other columns numeric
    features.  Non-numeric labels become class ids in sorted-name order;
    integer labels are class ids as they stand, so they must be >= 0 and
    the class count is the largest plus one."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if label_column not in header:
            raise FormatError(
                f"{path}: no column {label_column!r} in header {header}")
        li = header.index(label_column)
        feats, labels = [], []
        for lineno, row in enumerate(rd, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{path}:{lineno}: {len(row)} fields, header has {len(header)}")
            try:
                feats.append([float(v) for i, v in enumerate(row) if i != li])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
            labels.append(row[li])
    if not feats:
        raise FormatError(f"{path}: no data rows")

    try:
        y = np.array([float(v) for v in labels])
        classes = None
        if np.all(y == np.round(y)):
            y = y.astype(np.int64)
            classes = sorted(set(int(v) for v in y))
    except ValueError:
        names = sorted(set(labels))
        lut = {nm: i for i, nm in enumerate(names)}
        y = np.array([lut[v] for v in labels], dtype=np.int64)
        classes = names
    meta = {"source": str(path), "format": "csv",
            "feature_names": [h for h in header if h != label_column]}
    if classes is not None:
        if y.min() < 0:
            raise FormatError(f"{path}: negative class label {int(y.min())}")
        meta["classes"] = classes
    return Dataset(np.asarray(feats), y,
                   class_count=int(y.max()) + 1 if classes is not None else None,
                   metadata=meta)


def write_csv(dataset: Dataset, path, label_column: str = "label"):
    """Inverse of load_csv for flat feature datasets: float64 repr values
    round-trip exactly."""
    x = dataset.inputs.reshape(dataset.n, -1)
    names = dataset.metadata.get("feature_names") or [f"f{i}" for i in range(x.shape[1])]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(list(names) + [label_column])
        for row, lab in zip(x, dataset.labels):
            lab_out = int(lab) if np.issubdtype(dataset.labels.dtype, np.integer) else repr(float(lab))
            wr.writerow([repr(float(v)) for v in row] + [lab_out])


def write_idx(dataset: Dataset, images_path, labels_path):
    """Inverse of load_idx for image datasets; pixels are quantized back
    to uint8 (lossy unless they came from uint8 in the first place)."""
    x = dataset.inputs
    if x.ndim != 4 or x.shape[3] != 1:
        raise FormatError(f"IDX output needs (n, H, W, 1) inputs, got {x.shape}")
    n, h, w, _ = x.shape
    pix = np.clip(np.round(x[..., 0] * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(pix.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(np.asarray(dataset.labels, dtype=np.uint8).tobytes())


def synth_blobs(n: int, d: int, classes: int = 2, irrelevant_fraction: float = 0.5,
                seed: int = 0, separation: float = 3.0) -> Dataset:
    """Gaussian class blobs with planted pure-noise dimensions.

    The first ceil(d * (1 - irrelevant_fraction)) dimensions carry class
    structure (unit-variance blobs around per-class centers of pairwise
    distance about `separation`); the rest are N(0,1) noise for every
    class.  metadata["noise_dims"] lists the noise dimensions.
    """
    if not 0.0 <= irrelevant_fraction <= 1.0:
        raise ValueError("irrelevant_fraction must lie in [0, 1]")
    if n < classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    d_noise = int(round(d * irrelevant_fraction))
    d_sig = d - d_noise
    # fixed simplex-ish centers scaled to the requested separation
    centers = np.zeros((classes, d_sig))
    if d_sig > 0:
        raw = np.random.default_rng(seed + 1).standard_normal((classes, d_sig))
        raw -= raw.mean(axis=0, keepdims=True)
        norm = np.linalg.norm(raw, axis=1, keepdims=True)
        centers = raw / np.maximum(norm, 1e-12) * (separation / np.sqrt(2.0))

    labels = np.arange(n) % classes
    rng.shuffle(labels)
    x = rng.standard_normal((n, d))
    if d_sig > 0:
        x[:, :d_sig] += centers[labels]
    return Dataset(x, labels.astype(np.int64), class_count=classes,
                   metadata={"format": "synth-blobs", "seed": int(seed),
                             "noise_dims": list(range(d_sig, d)),
                             "signal_dims": list(range(d_sig)),
                             "separation": float(separation)})


def split(dataset: Dataset, fractions, seed: int = 0):
    """Deterministic stratified split into (train, test).

    fractions must sum to 1; per-class proportions are preserved (counts
    rounded per class).  A side with zero samples is rejected.
    """
    if len(fractions) != 2:
        raise ValueError("fractions must be a (train, test) pair")
    f_train, f_test = float(fractions[0]), float(fractions[1])
    if abs(f_train + f_test - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {f_train + f_test}")
    rng = np.random.default_rng(seed)

    labels = dataset.labels
    if labels.ndim != 1:
        # real-valued targets: plain shuffled split
        perm = rng.permutation(dataset.n)
        k = int(round(dataset.n * f_train))
        train_idx, test_idx = perm[:k], perm[k:]
    else:
        train_parts, test_parts = [], []
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            k = int(round(idx.size * f_train))
            train_parts.append(idx[:k])
            test_parts.append(idx[k:])
        train_idx = np.sort(np.concatenate(train_parts))
        test_idx = np.sort(np.concatenate(test_parts))
    if train_idx.size == 0 or test_idx.size == 0:
        raise ValueError(
            f"split {f_train}/{f_test} leaves an empty side "
            f"({train_idx.size}/{test_idx.size} of {dataset.n})")
    return dataset.subset(train_idx, "train"), dataset.subset(test_idx, "test")
