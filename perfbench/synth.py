"""Synthetic MNIST-shaped classification problem for the benchmark.

A Gaussian mixture in 784 dimensions with 10 classes. The class centres
come from a fixed random stream, so every draw (pool, test, any seed)
shares them; only the samples around the centres depend on the workload
seed. Reseeding the centres per draw would make the test set a different
problem from the pool, and a trained network would score at chance on it.

The centre scale and the noise were chosen so that the benchmark's MLP,
after its short SGD fits, classifies well above chance but below
saturation (about 0.8 on 1050 labels, about 0.35 on 210), which keeps
acquisition scores informative.
"""

import numpy as np

from ntkal import data

INPUT_DIM = 784
CLASS_COUNT = 10
CENTRE_SEED = 20220625
CENTRE_SCALE = 0.4
NOISE = 0.5

POOL_STREAM = 0
TEST_STREAM = 1


def class_centres():
    """The fixed (CLASS_COUNT, INPUT_DIM) class centres."""
    rng = np.random.default_rng(CENTRE_SEED)
    return CENTRE_SCALE * rng.standard_normal((CLASS_COUNT, INPUT_DIM))


def draw(size, seed, stream, centres=None):
    """``size`` labeled samples around the fixed centres, from (seed, stream)."""
    if centres is None:
        centres = class_centres()
    rng = np.random.default_rng([seed, stream])
    labels = rng.integers(0, CLASS_COUNT, size=size)
    inputs = rng.standard_normal((size, INPUT_DIM))
    inputs *= NOISE
    inputs += centres[labels]
    return data.make_dataset(inputs, labels, CLASS_COUNT, name="synthetic-mnist")


def pool_and_test(pool_size, test_size, seed):
    """Independent pool and test draws around the same class centres."""
    centres = class_centres()
    return (
        draw(pool_size, seed, POOL_STREAM, centres),
        draw(test_size, seed, TEST_STREAM, centres),
    )
