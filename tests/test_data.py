import numpy as np
import pytest

from ntkal import data
from ntkal.errors import ContractError, FormatError

import oracles


def _linear_probe_accuracy(train, test):
    """Least-squares linear classifier as an independent separability oracle."""
    x = np.column_stack([train.inputs, np.ones(len(train))])
    coef, *_ = np.linalg.lstsq(x, train.one_hot, rcond=None)
    xt = np.column_stack([test.inputs, np.ones(len(test))])
    pred = np.argmax(xt @ coef, axis=1)
    return float(np.mean(pred == test.labels))


class TestIdx:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        oracles.write_idx_images(ip, images)
        oracles.write_idx_labels(lp, labels)
        ds = data.load_mnist_idx(ip, lp)
        assert len(ds) == 7
        assert ds.input_dim == 20
        back = (ds.inputs * 255.0).round().astype(np.uint8)
        assert np.array_equal(back, images.reshape(7, 20))
        assert np.array_equal(ds.labels, labels.astype(np.int64))
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_bad_image_magic(self, tmp_path):
        ip = tmp_path / "img"
        ip.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
        lp = tmp_path / "lab"
        oracles.write_idx_labels(lp, np.zeros(1, dtype=np.uint8))
        with pytest.raises(FormatError, match="0x00000899"):
            data.load_mnist_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip = tmp_path / "img"
        oracles.write_idx_images(ip, np.zeros((1, 2, 2), dtype=np.uint8))
        lp = tmp_path / "lab"
        lp.write_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x01\x00")
        with pytest.raises(FormatError, match="label magic"):
            data.load_mnist_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        import struct

        ip = tmp_path / "img"
        ip.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 3, 2, 2) + b"\x00" * 5)
        lp = tmp_path / "lab"
        oracles.write_idx_labels(lp, np.zeros(3, dtype=np.uint8))
        with pytest.raises(FormatError, match="truncated"):
            data.load_mnist_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        oracles.write_idx_images(ip, np.zeros((3, 2, 2), dtype=np.uint8))
        oracles.write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
        with pytest.raises(FormatError, match="mismatch"):
            data.load_mnist_idx(ip, lp)

    def test_zero_count_pair(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        oracles.write_idx_images(ip, np.zeros((0, 2, 2), dtype=np.uint8))
        oracles.write_idx_labels(lp, np.zeros(0, dtype=np.uint8))
        with pytest.raises(FormatError, match="no examples"):
            data.load_mnist_idx(ip, lp)


class TestGenerators:
    def test_two_gaussians_overlapping_classes(self):
        # Zero separation means chance-level accuracy for any classifier.
        accs = []
        for seed in range(5):
            train = data.gen_two_gaussians(400, 0.0, seed)
            test = data.gen_two_gaussians(400, 0.0, seed + 100)
            accs.append(_linear_probe_accuracy(train, test))
        assert 0.4 <= np.mean(accs) <= 0.6

    def test_two_gaussians_separated(self):
        train = data.gen_two_gaussians(500, 10.0, 1)
        test = data.gen_two_gaussians(500, 10.0, 2)
        assert _linear_probe_accuracy(train, test) > 0.99

    def test_determinism(self):
        a = data.gen_two_gaussians(50, 2.0, 9)
        b = data.gen_two_gaussians(50, 2.0, 9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        s1 = data.gen_spirals(50, 0.1, 9)
        s2 = data.gen_spirals(50, 0.1, 9)
        assert np.array_equal(s1.inputs, s2.inputs)
        assert np.array_equal(s1.labels, s2.labels)

    def test_spirals_not_linearly_separable(self):
        train = data.gen_spirals(400, 0.05, 3)
        test = data.gen_spirals(400, 0.05, 4)
        # Interleaved arms defeat a linear probe but are still structured.
        assert _linear_probe_accuracy(train, test) < 0.75
        assert train.class_count == 2
        assert np.all(np.isfinite(train.inputs))

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            data.gen_spirals(0, 0.1, 0)


class TestSplitAndEncode:
    def test_one_hot(self):
        row = data.one_hot_encode([3], 10)[0]
        assert row[3] == 1.0 and row.sum() == 1.0

    def test_one_hot_argmax_identity(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 6, size=40)
        oh = data.one_hot_encode(labels, 6)
        assert np.array_equal(np.argmax(oh, axis=1), labels)
        assert np.array_equal(data.one_hot_encode(np.argmax(oh, axis=1), 6), oh)

    def test_one_hot_of_no_labels_rejected(self):
        with pytest.raises(ContractError, match="no labels"):
            data.one_hot_encode([], 3)

    def test_make_dataset_of_no_rows_rejected(self):
        with pytest.raises(ContractError):
            data.make_dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: data.make_dataset(np.zeros((2, 2)), [0.7, 1.2], 2),
            lambda: data.one_hot_encode([1.9, 0.2], 2),
            lambda: data.make_dataset(np.zeros((2, 2)), [True, False], 2),
            lambda: data.gen_two_gaussians(2, 1.0, 0).subset([0.5, 1.7]),
        ],
        ids=["fractional_labels", "fractional_one_hot", "bool_labels", "fractional_subset"],
    )
    def test_non_integer_labels_and_indices_rejected(self, build):
        # Each used to be truncated: to labels [0, 1], to one-hot rows
        # [[0, 1], [1, 0]], to labels [1, 0] and to rows 0 and 1.
        with pytest.raises(ContractError, match="must be integers"):
            build()

    @pytest.mark.parametrize("labels", [[0, 1, 1], [[0, 1], [1, 0]]], ids=["count", "2-D"])
    def test_labels_must_be_one_per_row(self, labels):
        with pytest.raises(ContractError, match="one label per input row"):
            data.make_dataset(np.zeros((4, 2)), labels, 2)
