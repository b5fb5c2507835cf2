"""Tests of the benchmark itself: its spec, generator, tracer, gate, and runs."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ntkal import kernel, lookahead, net, pool  # noqa: E402
from ntkal.errors import DegenerateCandidateError  # noqa: E402

import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
END_TO_END = {
    "setup_s", "run_s", "query_s", "train_s", "peak_rss_mb", "final_accuracy", "ok_ops_frac",
}


class TestSpec:
    def test_keys_and_limits(self):
        assert set(SPEC) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert 1 <= len(SPEC["command"]) <= 32
        assert all(len(part) <= 200 for part in SPEC["command"])
        assert 1 <= len(SPEC["paths"]) <= 16
        for path in SPEC["paths"]:
            assert PATH.match(path) and not path.startswith("/") and ".." not in path
            assert (ROOT / path).is_dir()
        assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
        assert len(json.dumps(SPEC)) <= 64 * 1024

    def test_command_stays_inside_paths(self):
        for part in SPEC["command"][1:]:
            assert any(part == p or part.startswith(p + "/") for p in SPEC["paths"])

    def test_workloads_match_code(self):
        assert 2 <= len(SPEC["workloads"]) <= 8
        for w in SPEC["workloads"]:
            assert set(w) == {"name", "why"}
            assert "\n" not in w["why"] and len(w["why"]) <= 200
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    def test_metric_names_units_and_bounds(self):
        names = []
        for m in SPEC["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"}
            assert 0 < m["bound"] <= 0.25
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            assert set(m) == {"name", "unit", "better"}
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert NAME.match(m["name"]) and UNIT.match(m["unit"])
            assert m["better"] in ("lower", "higher")
        names += [w["name"] for w in SPEC["workloads"]]
        assert len(names) == len(set(names))

        assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
        assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)

    def test_run_budget(self):
        # Every run measures run_seconds plus at most one repetition and its
        # setups; 10 s covers that on the sizes here.
        runs = 4 + 22 * len(SPEC["workloads"])
        assert runs * (SPEC["run_seconds"] + 10) <= 3420


class TestSynth:
    def test_centres_are_shared_and_samples_follow_the_seed(self):
        a_pool, a_test = synth.pool_and_test(50, 20, seed=3)
        b_pool, _ = synth.pool_and_test(50, 20, seed=3)
        c_pool, _ = synth.pool_and_test(50, 20, seed=4)
        np.testing.assert_array_equal(a_pool.inputs, b_pool.inputs)
        assert not np.array_equal(a_pool.inputs, c_pool.inputs)
        assert not np.array_equal(a_pool.inputs[:20], a_test.inputs)
        np.testing.assert_array_equal(synth.class_centres(), synth.class_centres())
        assert a_pool.inputs.shape == (50, synth.INPUT_DIM)

    def test_initial_fit_is_above_chance_and_below_saturation(self):
        sizes = workloads.WORKLOADS["batch-large"]["full"]
        train, test = synth.pool_and_test(sizes["runs"][0]["initial_labeled"], 1000, seed=5)
        params = net.init(net.MlpConfig(workloads.WIDTHS, seed=workloads.RUN_SEED))
        cfg = net.TrainConfig(
            learning_rate=workloads.LEARNING_RATE, epochs=sizes["epochs"], minibatch_size=32
        )
        params = net.train_sgd(params, train, cfg)
        accuracy = np.mean(np.argmax(net.forward(params, test.inputs), axis=1) == test.labels)
        assert 0.3 < accuracy < 0.95


def _small_state():
    data = synth.draw(40, seed=1, stream=0)
    cfg = net.MlpConfig((synth.INPUT_DIM, 16, synth.CLASS_COUNT), seed=2)
    params = net.init(cfg)
    return kernel.build_state(params, data.subset(np.arange(30))), data


class TestTracer:
    def test_wrappers_return_the_same_values_and_restore_originals(self):
        state, data = _small_state()
        original = kernel.empirical_ntk
        expected = kernel.empirical_ntk(state.params, data.inputs[:5], data.inputs[5:9])
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert kernel.empirical_ntk is not original
            got = kernel.empirical_ntk(state.params, data.inputs[:5], data.inputs[5:9])
            rows = state.kernel_rows(data.inputs[:3])
        finally:
            tracer.uninstall()
        assert kernel.empirical_ntk is original
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(rows, state.kernel_rows(data.inputs[:3]))
        names = [s[0] for s in tracer.spans]
        assert names[0] == "kernel.empirical_ntk"
        assert "kernel.KernelState.kernel_rows" in names and "net.grad_factors" in names
        assert tracer.spans[0][4]["cells"] == 20

    def test_exceptions_propagate_and_are_recorded(self):
        state, data = _small_state()
        tracer = spans.Tracer()
        tracer.install()
        try:
            with pytest.raises(DegenerateCandidateError):
                lookahead.augment_state(state, state.inputs[0], state.targets[0])
        finally:
            tracer.uninstall()
        top = next(s for s in tracer.spans if s[0] == "lookahead.augment_state")
        assert top[4] == {"degenerate": 1}

    def test_self_time_subtracts_children(self):
        fake = [
            ["pool.run_batch_al", 0.0, 10.0, -1, None],
            ["acquire.mlmoc", 1.0, 5.0, 0, {"candidates": 8, "empirical": 1, "degenerate": 1}],
            ["net.grad_factors", 2.0, 3.0, 1, {"rows": 32}],
            ["acquire.naive_change_scores", 6.0, 9.0, 0, {"candidates": 2}],
        ]
        m = spans.layer_metrics(fake)
        assert m["pool.unattributed_s"] == pytest.approx(3.0)
        assert m["acquire.mlmoc.self_s"] == pytest.approx(3.0)
        assert m["acquire.mlmoc.calls"] == 1
        assert m["net.grad_factors.rows_per_candidate"] == pytest.approx(4.0)
        assert m["acquire.degenerate_flagged"] == 1
        # oracle 3 s / 2 candidates over closed form 4 s / 8 candidates
        assert m["acquire.retrain_over_closed_form"] == pytest.approx(3.0)
        assert set(m) == {name for name, _ in spans.PER_LAYER} - {"trace.overhead_s"}


class TestGate:
    def _pool(self, data, labeled):
        unlabeled = tuple(i for i in range(len(data)) if i not in labeled)
        return pool.Pool(data, tuple(labeled), unlabeled)

    def test_consistent_state_passes(self):
        state, data = _small_state()
        assert workloads.gate(state, self._pool(data, range(30)), 6, seed=0) == (6, 0)

    def test_inconsistent_state_is_caught(self):
        state, data = _small_state()
        broken = replace(state, residual=2.0 * state.residual)
        checked, mismatches = workloads.gate(broken, self._pool(data, range(30)), 6, seed=0)
        assert checked == 6 and mismatches == 6


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        procs = [
            subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
            for workload in ("batch-large", "all")
        ]
    finally:
        shutil.rmtree(bare)
    for proc in procs:
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
