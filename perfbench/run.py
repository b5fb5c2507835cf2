"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
of that checkout, never from an installed copy. The workload repeats
its active-learning runs until ``--seconds`` have passed and reports
medians over the repetitions. ``--workload all`` runs every workload of
BENCHMARK.json in turn, each in a fresh process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, with
``trace.overhead_s`` the difference of their median run seconds.
Human-readable lines come first; the last line of stdout is the JSON
result. The environment and the raw repetitions go to
``.perfbench_out/`` in the checkout, with the spans of a traced run.
"""

import os

# BLAS pools size themselves when numpy loads, and threadpoolctl is not
# available to cap them later, so the cap must be set before any import.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _import_package():
    """Import ntkal from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ntkal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ntkal sources under {src}")
    sys.path.insert(0, str(src))
    import ntkal

    if Path(ntkal.__file__).resolve().parent != (src / "ntkal").resolve():
        sys.exit(f"perfbench: imported ntkal from {ntkal.__file__}, not {src}")


def _git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads(package):
    """Live thread count of the OpenBLAS that ``package`` bundles, or None."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)  # already loaded: dlopen returns the same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
    }


def _units(section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measure(workload, seed, seconds, trace, scale):
    """Repeat the workload for ``seconds``; returns (result, details)."""
    import spans
    import workloads

    setup_s, problem = workloads.timed_setup(workload, scale, seed)
    gate_size = workloads.WORKLOADS[workload][scale]["gate"]
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(workloads.run_repetition(problem, seed, gate_size))
        if trace:
            tracer = spans.Tracer()
            traced.append(workloads.run_repetition(problem, seed, gate_size, tracer))
            tracers.append(tracer)
        if time.perf_counter() - start >= seconds:
            break
    reps = untraced + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    if trace:
        per_rep = [spans.layer_metrics(t.spans) for t in tracers]
        # Counts and sizes repeat exactly; median_low keeps them whole.
        metrics = {
            name: (statistics.median if unit == "s" else statistics.median_low)(
                [m[name] for m in per_rep]
            )
            for name, unit in spans.PER_LAYER
            if name in per_rep[0]
        }
        metrics["trace.overhead_s"] = statistics.median(
            [r.run_s for r in traced]
        ) - statistics.median([r.run_s for r in untraced])
        units = _units("per_layer")
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl", "w") as f:
            for i, tracer in enumerate(tracers):
                spans.write_jsonl(f, tracer.spans, rep=i)
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median([r.run_s for r in untraced]),
            "query_s": statistics.median([r.query_s for r in untraced]),
            "train_s": statistics.median([r.train_s for r in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_accuracy": statistics.median([r.final_accuracy for r in untraced]),
            "ok_ops_frac": 1.0 - failed / attempted,
        }
        units = _units("end_to_end")
    result = {
        "correct": failed == 0 and all(r.accuracy_ok for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "failed_ops_frac": failed / attempted,
        "gate_mismatches": sum(r.gate_mismatches for r in reps),
        "max_jitter_applied": max((j for r in reps for j in r.jitters), default=0.0),
        "repetitions": [
            {"traced": i >= len(untraced), "run_s": r.run_s, "query_s": r.query_s,
             "train_s": r.train_s, "final_accuracy": r.final_accuracy}
            for i, r in enumerate(reps)
        ],
    }
    return result, details


def run_all(args):
    """Run every workload in its own process; nonzero if any run failed."""
    status = 0
    for spec in json.loads(BENCHMARK_JSON.read_text())["workloads"]:
        cmd = [sys.executable, __file__, "--workload", spec["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        status = status or subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="problem size; tiny is for the benchmark's smoke tests",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    env = environment()
    result, details = measure(args.workload, args.seed, args.seconds, args.trace, args.scale)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "details": details, "result": result}, indent=1))

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"repetitions {len(details['repetitions'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']!r:>24} {metric['unit']}")
    print(f"  {'failed_ops_frac':48s} {details['failed_ops_frac']!r:>24} frac")
    print(f"  {'gate_mismatches':48s} {details['gate_mismatches']!r:>24} count")
    print(f"  {'max_jitter_applied':48s} {details['max_jitter_applied']!r:>24}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
