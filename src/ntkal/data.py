"""Dataset ingestion and synthesis.

Provides the MNIST-style IDX binary loader, seeded 2-D synthetic
generators for desk-scale experiments, and one-hot encoding. Datasets
are immutable value objects; every generator is a pure function of its
arguments.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, FormatError

__all__ = [
    "Dataset",
    "one_hot_encode",
    "load_mnist_idx",
    "gen_two_gaussians",
    "gen_spirals",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _index_array(values, what="indices"):
    """A 1-D intp copy of integer values; ContractError unless their dtype is integer.

    Empty input passes whatever its dtype, as ``np.array(())`` is float64.
    """
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise ContractError(f"{what} must be integers, got dtype {values.dtype}")
    return values.astype(np.intp).reshape(-1)


@dataclass(frozen=True)
class Dataset:
    """Labeled classification data: inputs, integer labels and the one-hot
    targets derived from them, so the two cannot disagree."""

    inputs: np.ndarray  # (N, n_0) float64
    labels: np.ndarray  # (N,) intp in [0, class_count)
    class_count: int
    name: str = ""
    one_hot: np.ndarray = field(init=False)  # (N, class_count) float64

    def __post_init__(self):
        if self.inputs.ndim != 2 or len(self.inputs) < 1:
            raise ContractError("dataset needs a nonempty 2-D input matrix")
        labels = _index_array(self.labels, "labels")
        if np.ndim(self.labels) != 1 or len(labels) != len(self.inputs):
            raise ContractError("labels must be a 1-D array with one label per input row")
        if not np.all(np.isfinite(self.inputs)):
            raise ContractError("dataset inputs contain non-finite values")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "one_hot", one_hot_encode(labels, self.class_count))

    def __len__(self):
        return len(self.inputs)

    @property
    def input_dim(self):
        return self.inputs.shape[1]

    def subset(self, indices):
        """New Dataset restricted to ``indices`` (order preserved)."""
        idx = _index_array(indices)
        return Dataset(self.inputs[idx], self.labels[idx], self.class_count, self.name)


def one_hot_encode(labels, class_count):
    """One-hot rows in {0,1} for integer labels; ContractError for another dtype."""
    labels = _index_array(labels, "labels")
    if labels.size == 0:
        raise ContractError("no labels to encode")
    if labels.min() < 0 or labels.max() >= class_count:
        raise ContractError("labels outside [0, class_count)")
    out = np.zeros((len(labels), class_count), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def make_dataset(inputs, labels, class_count, name=""):
    """Assemble a Dataset from raw inputs and integer labels."""
    return Dataset(np.asarray(inputs, dtype=np.float64), labels, class_count, name)


# --- IDX binary format -------------------------------------------------
#
# Big-endian: 4-byte magic (0x00000803 images / 0x00000801 labels),
# 4-byte count, for images 4-byte rows and cols, then raw unsigned bytes.


def _read_be32(f, what):
    raw = f.read(4)
    if len(raw) != 4:
        raise FormatError(f"truncated IDX header while reading {what}")
    return struct.unpack(">I", raw)[0]


def _read_idx(path, kind, want_magic, fields):
    """Header counts and uint8 payload of one IDX file of the given kind."""
    with open(path, "rb") as f:
        magic = _read_be32(f, f"{kind} magic")
        if magic != want_magic:
            raise FormatError(f"bad {kind} magic: got 0x{magic:08x}, want 0x{want_magic:08x}")
        counts = [_read_be32(f, field) for field in fields]
        payload = f.read()
    need = math.prod(counts)
    if len(payload) < need:
        raise FormatError(f"truncated {kind} payload: have {len(payload)} bytes, need {need}")
    return counts, np.frombuffer(payload[:need], dtype=np.uint8)


def load_mnist_idx(images_path, labels_path):
    """Parse an IDX image/label file pair into a Dataset.

    Pixels are scaled to [0, 1] and images flattened row-major, so 28x28
    digits become 784-dimensional inputs.
    """
    (n, rows, cols), pixels = _read_idx(
        images_path, "image", IDX_IMAGE_MAGIC, ("image count", "row count", "col count")
    )
    images = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    (n_labels,), labels = _read_idx(labels_path, "label", IDX_LABEL_MAGIC, ("label count",))
    if n_labels != n:
        raise FormatError(f"image/label count mismatch: {n} images, {n_labels} labels")
    if n == 0:
        raise FormatError("IDX files hold no examples")
    return make_dataset(images, labels, class_count=10, name="mnist")


# --- synthetic 2-D generators ------------------------------------------


def _two_classes(rng, x0, x1, name):
    """Dataset of class-0 rows x0 and class-1 rows x1, shuffled with rng."""
    inputs = np.vstack([x0, x1])
    labels = np.repeat([0, 1], [len(x0), len(x1)])
    perm = rng.permutation(len(inputs))
    return make_dataset(inputs[perm], labels[perm], 2, name=name)


def gen_two_gaussians(n_per_class, separation, seed):
    """Two unit-variance Gaussian blobs centered at (+-separation/2, 0)."""
    if n_per_class < 1:
        raise ContractError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    x0 = rng.standard_normal((n_per_class, 2)) + np.array([-half, 0.0])
    x1 = rng.standard_normal((n_per_class, 2)) + np.array([half, 0.0])
    return _two_classes(rng, x0, x1, "two_gaussians")


def gen_spirals(n_per_class, noise, seed):
    """Two interleaved spiral arms with Gaussian perturbation ``noise``."""
    if n_per_class < 1:
        raise ContractError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.25, 1.0, size=n_per_class)) * 3.0 * np.pi
    arms = []
    for cls in range(2):
        phase = cls * np.pi
        x = t * np.cos(t + phase) + rng.standard_normal(n_per_class) * noise
        y = t * np.sin(t + phase) + rng.standard_normal(n_per_class) * noise
        arms.append(np.column_stack([x, y]) / np.pi)
    return _two_classes(rng, *arms, "spirals")
