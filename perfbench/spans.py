"""Span tracing of ntkal's public functions, from outside the package.

``Tracer.install()`` replaces the public functions of the traced modules
(and a few public methods) with wrappers. Module functions call each
other through module attributes or module globals, so a patched
attribute also catches calls made inside the package. Each wrapper
records one span (name, start, end, parent span) plus sizes computed
from the call's array shapes, and returns exactly what the wrapped call
returned (or re-raises what it raised). ``uninstall()`` restores the
originals, so untraced runs execute the unmodified package.

Spans stay in memory; ``write_jsonl`` dumps them when the benchmark ends.
``layer_metrics`` turns spans into the per-layer metrics: call counts,
computed sizes, and self time (a span's duration minus its wrapped
children's durations; calls nest on one thread, so children never
overlap).
"""

import functools
import inspect
import json
import time

import numpy as np

from ntkal import acquire, kernel, linalg, lookahead, net, pool
from ntkal.errors import DegenerateCandidateError

TRACED_MODULES = {
    "net": net,
    "kernel": kernel,
    "linalg": linalg,
    "lookahead": lookahead,
    "acquire": acquire,
    "pool": pool,
}
TRACED_METHODS = {
    "kernel": {"KernelState": ("kernel_rows", "kernel_diag", "kernel_block")},
    "pool": {"Pool": ("initial", "acquire", "labeled_dataset")},
}
# build_state delegates all of its work to build_state_xy; leaving the
# latter unwrapped keeps that work in build_state's self time.
UNTRACED = {"kernel.build_state_xy"}

LOOKAHEAD_SCORERS = ("acquire.mlmoc", "acquire.emoc", "acquire.eer_lin")
RUN_LOOPS = ("pool.run_batch_al", "pool.run_sequential_al")

_NO_RESULT = object()


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _rows(x):
    if x is None:
        return 0
    shape = np.shape(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _size_rows(pos, name, key="rows"):
    return lambda args, kwargs, result, exc: {key: _rows(_arg(args, kwargs, pos, name))}


def _size_empirical_ntk(args, kwargs, result, exc):
    params = _arg(args, kwargs, 0, "params")
    m = _rows(_arg(args, kwargs, 1, "a"))
    b = _arg(args, kwargs, 2, "b")
    n = m if b is None else _rows(b)
    widths = params.config.widths
    # Layerwise contraction: activation and delta Gram products plus the
    # elementwise scale, bias, product and accumulate over each (m, n) cell.
    flops = sum(
        m * n * (2 * widths[l] + 2 * widths[l + 1] + 4) for l in range(len(widths) - 1)
    )
    return {"cells": m * n, "flops_computed": flops}


def _size_kernel_block(args, kwargs, result, exc):
    a = _rows(_arg(args, kwargs, 1, "a"))
    b = _rows(_arg(args, kwargs, 2, "b"))
    return {"bytes_computed": 8 * a * b}


def _size_cholesky(args, kwargs, result, exc):
    jittered = result is not _NO_RESULT and result.jitter_applied > 0.0
    return {"jittered": int(jittered)}


def _size_chol_solve(args, kwargs, result, exc):
    shape = np.shape(_arg(args, kwargs, 1, "b"))
    return {"rhs_cols": 1 if len(shape) < 2 else int(shape[1])}


def _size_augment(args, kwargs, result, exc):
    return {"degenerate": int(isinstance(exc, DegenerateCandidateError))}


def _size_scorer(args, kwargs, result, exc):
    state = _arg(args, kwargs, 0, "state")
    sizes = {
        "candidates": _rows(_arg(args, kwargs, 1, "candidates")),
        "empirical": int(getattr(state, "kernel_fn", None) is None),
    }
    if result is not _NO_RESULT:
        sizes["degenerate"] = int(np.sum(result.degenerate_flags))
    return sizes


def _size_train(args, kwargs, result, exc):
    return {"epochs": int(_arg(args, kwargs, 2, "cfg").epochs)}


SIZERS = {
    "net.grad_factors": _size_rows(1, "x"),
    "net.forward": _size_rows(1, "x"),
    "net.train_sgd": _size_train,
    "kernel.empirical_ntk": _size_empirical_ntk,
    "kernel.KernelState.kernel_block": _size_kernel_block,
    "linalg.cholesky": _size_cholesky,
    "linalg.chol_solve": _size_chol_solve,
    "lookahead.augment_state": _size_augment,
    "acquire.mlmoc": _size_scorer,
    "acquire.emoc": _size_scorer,
    "acquire.eer_lin": _size_scorer,
    "acquire.entropy_score": _size_rows(0, "outputs", "candidates"),
    "acquire.naive_change_scores": _size_rows(2, "candidates", "candidates"),
}


class Tracer:
    """Records spans of wrapped ntkal calls while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, sizes]
        self._stack = []
        self._originals = []  # (owner, attribute, original value)

    def _wrap(self, name, fn):
        spans, stack, sizer = self.spans, self._stack, SIZERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result, exc = _NO_RESULT, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span[1], span[2] = start, end
                if sizer is not None:
                    span[4] = sizer(args, kwargs, result, exc)

        return wrapper

    def _patch(self, owner, attr, value):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for prefix, module in TRACED_MODULES.items():
            for attr in getattr(module, "__all__", ()):
                name = f"{prefix}.{attr}"
                fn = module.__dict__.get(attr)
                if inspect.isfunction(fn) and name not in UNTRACED:
                    self._patch(module, attr, self._wrap(name, fn))
            for cls_name, methods in TRACED_METHODS.get(prefix, {}).items():
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                for attr in methods:
                    raw = cls.__dict__.get(attr)
                    name = f"{prefix}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)



def write_jsonl(f, spans, rep):
    """Write spans as JSON lines, tagged with their repetition."""
    for name, start, end, parent, sizes in spans:
        record = {"rep": rep, "name": name, "start": start, "end": end,
                  "parent": parent, "sizes": sizes or {}}
        f.write(json.dumps(record) + "\n")


# Per-layer metrics: (name, unit). ``layer_metrics`` fills every one; a
# function no workload calls reads 0. Sizes (rows, cells, candidates,
# rhs_cols, *_computed) are computed from argument shapes, not measured.
PER_LAYER = (
    [("net.grad_factors.rows", "rows"), ("net.grad_factors.self_s", "s"),
     ("net.grad_factors.rows_per_candidate", "rows/candidate"),
     ("net.forward.rows", "rows"), ("net.forward.self_s", "s"),
     ("kernel.empirical_ntk.calls", "count"), ("kernel.empirical_ntk.cells", "count"),
     ("kernel.empirical_ntk.flops_computed", "flop"), ("kernel.empirical_ntk.self_s", "s"),
     ("kernel.KernelState.kernel_rows.self_s", "s"),
     ("kernel.KernelState.kernel_diag.self_s", "s"),
     ("kernel.KernelState.kernel_block.self_s", "s"),
     ("kernel.KernelState.kernel_block.bytes_computed", "B"),
     ("kernel.build_state.self_s", "s"),
     ("linalg.cholesky.calls", "count"), ("linalg.cholesky.jittered", "count"),
     ("linalg.cholesky.self_s", "s"),
     ("linalg.chol_solve.calls", "count"), ("linalg.chol_solve.rhs_cols", "count"),
     ("linalg.chol_solve.self_s", "s"),
     ("lookahead.augment_state.calls", "count"),
     ("lookahead.augment_state.degenerate", "count"),
     ("lookahead.augment_state.self_s", "s"), ("lookahead.predict_lin.self_s", "s")]
    + [
        (f"acquire.{fn}.{what}", unit)
        for fn in ("mlmoc", "emoc", "eer_lin", "entropy_score", "naive_change_scores")
        for what, unit in (("calls", "count"), ("candidates", "count"), ("self_s", "s"))
    ]
    + [("acquire.degenerate_flagged", "count"),
       ("acquire.retrain_over_closed_form", "ratio"),
       ("net.train_sgd.calls", "count"), ("net.train_sgd.epochs", "count"),
       ("net.train_sgd.self_s", "s"),
       ("pool.Pool.acquire.self_s", "s"), ("pool.sample_subset.self_s", "s"),
       ("pool.query_batch_topk.self_s", "s"), ("pool.Pool.labeled_dataset.self_s", "s"),
       ("pool.unattributed_s", "s"),
       ("trace.overhead_s", "s")]
)


def _aggregate(spans):
    """Per span name: calls, summed inclusive and self seconds, summed sizes."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, sizes) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_s[i]
        for key, value in (sizes or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def _under_scorer(spans, i, memo):
    """Whether span i runs inside a look-ahead scorer on an empirical kernel."""
    chain = []
    verdict = False
    while i >= 0:
        if i in memo:
            verdict = memo[i]
            break
        chain.append(i)
        name, _, _, parent, sizes = spans[i]
        if name in LOOKAHEAD_SCORERS:
            verdict = bool(sizes and sizes.get("empirical"))
            break
        i = parent
    for j in chain:
        memo[j] = verdict
    return verdict


def layer_metrics(spans):
    """Per-layer metric values from one traced repetition's spans.

    ``trace.overhead_s`` needs an untraced run to compare with, so the
    caller fills it in.
    """
    totals = _aggregate(spans)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    values = {}
    for metric, _ in PER_LAYER:
        fn, _, key = metric.rpartition(".")
        values[metric] = get(fn, key)

    memo = {}
    factor_rows = sum(
        s[4]["rows"]
        for s in spans
        if s[0] == "net.grad_factors" and s[4] and _under_scorer(spans, s[3], memo)
    )
    scored = sum(
        s[4]["candidates"]
        for s in spans
        if s[0] in LOOKAHEAD_SCORERS and s[4] and s[4].get("empirical")
    )
    values["net.grad_factors.rows_per_candidate"] = factor_rows / scored if scored else 0.0
    values["acquire.degenerate_flagged"] = sum(get(name, "degenerate") for name in LOOKAHEAD_SCORERS)

    oracle_n = get("acquire.naive_change_scores", "candidates")
    closed = [
        s for s in spans if s[0] == "acquire.mlmoc" and s[4] and s[4].get("empirical")
    ]
    closed_n = sum(s[4]["candidates"] for s in closed)
    closed_s = sum(s[2] - s[1] for s in closed)
    if oracle_n and closed_n and closed_s > 0:
        oracle_per = get("acquire.naive_change_scores", "total_s") / oracle_n
        values["acquire.retrain_over_closed_form"] = oracle_per / (closed_s / closed_n)
    else:
        values["acquire.retrain_over_closed_form"] = 0.0

    values["pool.unattributed_s"] = sum(get(name, "self_s") for name in RUN_LOOPS)
    del values["trace.overhead_s"]
    return values
