"""Look-ahead active learning with empirical neural tangent kernels.

A small feed-forward network is trained on the labeled pool; the Gram
matrix of its per-example first-logit gradients turns the network into a
kernel-regression predictor whose response to one more labeled point has
a closed form. That makes retraining-based acquisition scores (model
output change, expected error reduction) affordable for every candidate
in an unlabeled pool, and lets true labels stream into the model without
touching SGD.

Modules: ``linalg`` (jittered Cholesky and triangular solves), ``net``
(the network and its gradients), ``kernel`` (Gram matrices and the
cached labeled-set state), ``lookahead`` (the batched block look-ahead
engine and state augmentation), ``acquire`` (acquisition functions),
``pool`` (query loops), ``data`` (datasets), ``cli`` (experiment runner).
"""

from . import acquire, data, errors, kernel, linalg, lookahead, net, pool

__version__ = "0.1.0"

__all__ = [
    "acquire",
    "data",
    "errors",
    "kernel",
    "linalg",
    "lookahead",
    "net",
    "pool",
]
