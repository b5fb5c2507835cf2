"""Experiment runner and report rendering.

Subcommands:

    run    --config PATH [--seed N] [--out DIR] [--threads N]
    report --in CSV [CSV ...] --out SVG

Configs are flat key=value text with [section] headers (see README.md for
the grammar). Each run writes one records CSV (one row per cycle per
seed) and a JSON summary whose config echo is enough to reproduce the
accuracy columns exactly; timing columns are machine-dependent.

numpy and the model modules are imported lazily so that ``run --threads``
can cap the BLAS thread pools before they initialize.
"""

import argparse
import configparser
import json
import math
import os
import sys
from pathlib import Path

__all__ = ["main", "cmd_run", "cmd_report", "load_run_spec"]


def _apply_thread_cap(threads):
    if threads is None:
        return
    threads = str(int(threads))
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = threads
    try:  # also cap pools that were already started
        import threadpoolctl

        threadpoolctl.threadpool_limits(int(threads))
    except ImportError:
        pass


# --- config parsing -------------------------------------------------------


class ConfigError(ValueError):
    pass


def _get(parser, section, key, conv, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _as_bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _as_int_list(raw):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def load_run_spec(config_path):
    """Parse and validate a run config file into a plain dict."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    path = Path(config_path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in ("run", "mlp", "train", "data"):
            raise ConfigError(f"unknown section [{section}]")

    spec = {
        "run": {
            "strategy": _get(parser, "run", "strategy", str, required=True),
            "initial_labeled": _get(parser, "run", "initial_labeled", int, required=True),
            "query_batch_size": _get(parser, "run", "query_batch_size", int, required=True),
            "subset_size": _get(parser, "run", "subset_size", int, required=True),
            "cycles": _get(parser, "run", "cycles", int, required=True),
            "sequential": _get(parser, "run", "sequential", _as_bool, default=False),
            "retrain_every": _get(parser, "run", "retrain_every", int, default=1),
            "seeds": _get(parser, "run", "seeds", _as_int_list, default=[0]),
            "naive_epochs": _get(parser, "run", "naive_epochs", int, default=15),
            "score_baseline": _get(
                parser, "run", "score_baseline", str, default="linearized"
            ),
        },
        "mlp": {
            "hidden": _get(parser, "mlp", "hidden", _as_int_list, default=[256]),
            "nonlinearity": _get(parser, "mlp", "nonlinearity", str, default="relu"),
            "beta": _get(parser, "mlp", "beta", float, default=1.0),
            "seed": _get(parser, "mlp", "seed", int, default=0),
        },
        "train": {
            "learning_rate": _get(parser, "train", "learning_rate", float, required=True),
            "epochs": _get(parser, "train", "epochs", int, required=True),
            "minibatch_size": _get(parser, "train", "minibatch_size", int, default=32),
            "shuffle_seed": _get(parser, "train", "shuffle_seed", int, default=0),
            "warm_start": _get(parser, "train", "warm_start", _as_bool, default=True),
            "lr_decay": _get(parser, "train", "lr_decay", float, default=1.0),
        },
        "data": {
            "kind": _get(parser, "data", "kind", str, required=True),
            "n_per_class": _get(parser, "data", "n_per_class", int, default=500),
            "noise": _get(parser, "data", "noise", float, default=0.2),
            "separation": _get(parser, "data", "separation", float, default=4.0),
            "seed": _get(parser, "data", "seed", int, default=0),
            "test_n_per_class": _get(parser, "data", "test_n_per_class", int, default=0),
            "mnist_dir": _get(parser, "data", "mnist_dir", str, default=""),
            "pool_size": _get(parser, "data", "pool_size", int, default=10000),
            "test_size": _get(parser, "data", "test_size", int, default=10000),
        },
    }
    if not spec["run"]["seeds"]:
        raise ConfigError("[run] seeds is empty: list at least one seed")
    if spec["data"]["kind"] not in ("spirals", "two_gaussians", "mnist"):
        raise ConfigError(
            f"[data] kind = {spec['data']['kind']!r}: expected spirals, "
            f"two_gaussians, or mnist"
        )
    return spec


def _load_datasets(dspec):
    """Pool and test datasets; synthetic kinds use two independent draws."""
    import numpy as np

    from . import data as data_mod

    kind = dspec["kind"]
    test_n = dspec["test_n_per_class"] or dspec["n_per_class"]
    test_seed = int(np.random.SeedSequence([dspec["seed"], 0x7E57]).generate_state(1)[0])
    if kind == "spirals":
        pool = data_mod.gen_spirals(dspec["n_per_class"], dspec["noise"], dspec["seed"])
        test = data_mod.gen_spirals(test_n, dspec["noise"], test_seed)
        return pool, test
    if kind == "two_gaussians":
        pool = data_mod.gen_two_gaussians(
            dspec["n_per_class"], dspec["separation"], dspec["seed"]
        )
        test = data_mod.gen_two_gaussians(test_n, dspec["separation"], test_seed)
        return pool, test
    mnist_dir = Path(dspec["mnist_dir"] or os.environ.get("NTKAL_MNIST_DIR", ""))
    train = data_mod.load_mnist_idx(
        mnist_dir / "train-images-idx3-ubyte", mnist_dir / "train-labels-idx1-ubyte"
    )
    test = data_mod.load_mnist_idx(
        mnist_dir / "t10k-images-idx3-ubyte", mnist_dir / "t10k-labels-idx1-ubyte"
    )
    rng = np.random.default_rng(dspec["seed"])
    if dspec["pool_size"] < len(train):
        train = train.subset(
            np.sort(rng.choice(len(train), dspec["pool_size"], replace=False))
        )
    if dspec["test_size"] < len(test):
        test = test.subset(
            np.sort(rng.choice(len(test), dspec["test_size"], replace=False))
        )
    return train, test


def _build_run_config(spec, seed, train_data):
    from . import net, pool

    widths = [train_data.input_dim] + spec["mlp"]["hidden"] + [train_data.class_count]
    mlp_cfg = net.MlpConfig(
        widths=tuple(widths),
        nonlinearity=spec["mlp"]["nonlinearity"],
        beta=spec["mlp"]["beta"],
        seed=spec["mlp"]["seed"],
    )
    train_cfg = net.TrainConfig(
        learning_rate=spec["train"]["learning_rate"],
        epochs=spec["train"]["epochs"],
        minibatch_size=spec["train"]["minibatch_size"],
        shuffle_seed=spec["train"]["shuffle_seed"],
        warm_start=spec["train"]["warm_start"],
        lr_decay=spec["train"]["lr_decay"],
    )
    return pool.RunConfig(
        strategy=spec["run"]["strategy"],
        initial_labeled=spec["run"]["initial_labeled"],
        query_batch_size=spec["run"]["query_batch_size"],
        subset_size=spec["run"]["subset_size"],
        cycles=spec["run"]["cycles"],
        mlp=mlp_cfg,
        train=train_cfg,
        sequential=spec["run"]["sequential"],
        retrain_every=spec["run"]["retrain_every"],
        seed=seed,
        naive_epochs=spec["run"]["naive_epochs"],
        score_baseline=spec["run"]["score_baseline"],
    )


def cmd_run(config_path, seed=None, out_dir=".", threads=None):
    """Execute the configured run for every seed; returns the exit code."""
    _apply_thread_cap(threads)
    from . import pool
    from .errors import ContractError, FormatError

    try:
        spec = load_run_spec(config_path)
        seeds = [seed] if seed is not None else spec["run"]["seeds"]
        train_data, test_data = _load_datasets(spec["data"])
        configs = [_build_run_config(spec, s, train_data) for s in seeds]
    except (ConfigError, ContractError, FormatError, OSError) as exc:
        # Bad configs, invalid strategy names, and unreadable data files
        # all surface as exit code 2 before any cycle runs.
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_records = []
    run_summaries = []
    for cfg in configs:
        try:
            records = pool.run_al(cfg, train_data, test_data)
        except Exception as exc:
            done = len(all_records)
            print(
                f"run failed (strategy={cfg.strategy}, seed={cfg.seed}, "
                f"after {done} recorded cycles): {exc}",
                file=sys.stderr,
            )
            return 1
        all_records.extend(records)
        run_summaries.append(
            {
                "seed": cfg.seed,
                "strategy": cfg.strategy,
                "final_accuracy": records[-1].test_accuracy,
                "final_labeled_size": records[-1].labeled_size,
                "mean_query_seconds": sum(r.query_seconds for r in records)
                / len(records),
                "mean_train_seconds": sum(r.train_seconds for r in records)
                / len(records),
            }
        )
        print(
            f"seed {cfg.seed}: final accuracy "
            f"{records[-1].test_accuracy:.4f} at {records[-1].labeled_size} labels"
        )

    csv_path = out / "records.csv"
    write_records_csv(all_records, csv_path)
    summary = {
        "schema": "ntkal-summary-v1",
        "config_echo": spec,
        "seeds": seeds,
        "runs": run_summaries,
        "records_csv": str(csv_path),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {csv_path} and {out / 'summary.json'}")
    return 0


def write_records_csv(records, path):
    from .pool import CycleRecord

    with open(path, "w") as f:
        f.write(CycleRecord.CSV_HEADER + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")


# --- report rendering -----------------------------------------------------


def read_records_csv(path):
    from .errors import FormatError
    from .pool import CycleRecord

    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty CSV")
    header = lines[0].strip()
    if header != CycleRecord.CSV_HEADER:
        want = CycleRecord.CSV_HEADER.split(",")
        got = header.split(",")
        for i, col in enumerate(want):
            if i >= len(got) or got[i] != col:
                offending = got[i] if i < len(got) else "<missing>"
                raise FormatError(
                    f"{path}: bad CSV schema at column {i + 1}: got "
                    f"{offending!r}, want {col!r}"
                )
        raise FormatError(f"{path}: bad CSV schema: extra columns {got[len(want):]}")
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise FormatError(f"{path}:{ln}: expected 8 fields, got {len(parts)}")
        try:
            record = CycleRecord(
                cycle=int(parts[0]),
                labeled_size=int(parts[1]),
                test_accuracy=float(parts[2]),
                query_seconds=float(parts[3]),
                train_seconds=float(parts[4]),
                strategy=parts[5],
                seed=int(parts[6]),
                degenerate_skipped=int(parts[7]),
            )
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: {exc}") from None
        for name in ("test_accuracy", "query_seconds", "train_seconds"):
            if not math.isfinite(getattr(record, name)):
                raise FormatError(f"{path}:{ln}: {name} is {getattr(record, name)!r}, not finite")
        records.append(record)
    if not records:
        raise FormatError(f"{path}: no data rows")
    return records


_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
)


_SVG_TITLE = "accuracy per cycle"


def render_accuracy_svg(records, out_path):
    """Standalone SVG: mean accuracy per cycle per strategy, with a
    shaded 95%-confidence band across seeds where there are >= 2 seeds.
    Strategy names come from CSV text and are escaped for XML."""
    from xml.sax.saxutils import escape

    import numpy as np

    groups = {}
    for rec in records:
        groups.setdefault(rec.strategy, {}).setdefault(rec.cycle, []).append(
            rec.test_accuracy
        )

    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 36, 46
    plot_w, plot_h = width - ml - mr, height - mt - mb
    cycles = sorted({rec.cycle for rec in records})
    x_lo, x_hi = min(cycles), max(cycles)
    accs = [rec.test_accuracy for rec in records]
    y_lo, y_hi = min(accs), max(accs)
    span = max(y_hi - y_lo, 1e-3)
    y_lo, y_hi = y_lo - 0.08 * span, y_hi + 0.08 * span

    def sx(c):
        if x_hi == x_lo:
            return ml + plot_w / 2
        return ml + (c - x_lo) / (x_hi - x_lo) * plot_w

    def sy(a):
        return mt + (y_hi - a) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">{_SVG_TITLE}</text>',
        f'<line x1="{ml}" y1="{mt + plot_h}" x2="{ml + plot_w}" y2="{mt + plot_h}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + plot_h}" stroke="black"/>',
    ]
    for c in cycles:
        parts.append(
            f'<text x="{sx(c):.1f}" y="{mt + plot_h + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{c}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        a = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{ml - 8}" y="{sy(a):.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end" dominant-baseline="middle">{a:.3f}</text>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{sy(a):.1f}" x2="{ml + plot_w}" y2="{sy(a):.1f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{(ml + plot_w / 2):.1f}" y="{height - 10}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">cycle</text>'
    )

    for gi, (strategy, by_cycle) in enumerate(sorted(groups.items())):
        color = _PALETTE[gi % len(_PALETTE)]
        cyc = sorted(by_cycle)
        means, halfwidths = [], []
        for c in cyc:
            vals = np.asarray(by_cycle[c], dtype=float)
            means.append(float(vals.mean()))
            if len(vals) > 1:
                stderr = float(vals.std(ddof=1)) / np.sqrt(len(vals))
                halfwidths.append(1.96 * stderr)
            else:
                halfwidths.append(0.0)
        if any(h > 0 for h in halfwidths):
            upper = [
                f"{sx(c):.2f},{sy(m + h):.2f}"
                for c, m, h in zip(cyc, means, halfwidths)
            ]
            lower = [
                f"{sx(c):.2f},{sy(m - h):.2f}"
                for c, m, h in zip(reversed(cyc), reversed(means), reversed(halfwidths))
            ]
            parts.append(
                f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
                f'opacity="0.18" stroke="none"/>'
            )
        pts = " ".join(f"{sx(c):.2f},{sy(m):.2f}" for c, m in zip(cyc, means))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = mt + 16 + 16 * gi
        parts.append(
            f'<line x1="{ml + plot_w - 150}" y1="{ly}" x2="{ml + plot_w - 124}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{ml + plot_w - 118}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{escape(strategy)}</text>'
        )
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n")


def cmd_report(csv_paths, out_path):
    from .errors import FormatError

    try:
        records = []
        for path in csv_paths:
            records.extend(read_records_csv(path))
    except (FormatError, OSError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    render_accuracy_svg(records, out_path)
    print(f"wrote {out_path}")
    return 0


# --- argument parsing -----------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ntkal",
        description="Look-ahead active learning with empirical tangent kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--threads", type=int, default=None)

    p_report = sub.add_parser("report", help="render accuracy curves as SVG")
    p_report.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_report.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, seed=args.seed, out_dir=args.out, threads=args.threads)
    return cmd_report(args.inputs, args.out)


if __name__ == "__main__":
    sys.exit(main())
