"""Experiment runner and report rendering.

Subcommands:

    run    --config PATH [--seed N] [--out DIR]
    report --in CSV [CSV ...] --out SVG

Configs are flat key=value text with [section] headers (see README.md for
the grammar). Each run writes one records CSV (one row per cycle per
seed) and a JSON summary whose config echo is enough to reproduce the
accuracy columns exactly; timing columns are machine-dependent.

BLAS pools start when numpy is imported: cap their threads in the
environment (``OMP_NUM_THREADS=1``, ``OPENBLAS_NUM_THREADS=1``, ...).
"""

import argparse
import configparser
import copy
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import data as data_mod
from . import net, pool
from .errors import ContractError, FormatError
from .pool import CycleRecord

__all__ = ["main", "cmd_run", "cmd_report", "load_run_spec"]


# --- config parsing -------------------------------------------------------


def _as_bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _at_least(minimum):
    def convert(raw):
        value = int(raw)
        if value < minimum:
            raise ValueError(f"expected an integer >= {minimum}")
        return value

    return convert


def _int_list_at_least(minimum):
    def convert(raw):
        values = [int(tok) for tok in raw.replace(",", " ").split()]
        if any(value < minimum for value in values):
            raise ValueError(f"expected integers >= {minimum}")
        return values

    return convert


_CONVERTERS = {str: str, int: int, float: float, bool: _as_bool}


def _keys(config, **lists):
    """{key: (converter, default)} for the scalar fields of a config dataclass,
    in field order; ``dataclasses.MISSING`` marks a required key. ``lists``
    maps a field to (key, default, minimum) of an integer list that sets it."""
    keys = {}
    for f in dataclasses.fields(config):
        if f.name in lists:
            key, default, minimum = lists[f.name]
            keys[key] = (_int_list_at_least(minimum), default)
        elif f.type in _CONVERTERS:
            keys[f.name] = (_CONVERTERS[f.type], f.default)
    return keys


# Every key of every section, in config-echo order: (converter, default).
# [run], [mlp] and [train] are the fields of the config each one builds;
# README.md documents the same tables.
_GRAMMAR = {
    "run": _keys(pool.RunConfig, seed=("seeds", [pool.RunConfig.seed], 0)),
    "mlp": _keys(net.MlpConfig, widths=("hidden", [256], 1)),
    "train": _keys(net.TrainConfig),
    "data": {
        "kind": (str, dataclasses.MISSING),
        "n_per_class": (_at_least(1), 500),
        "noise": (float, 0.2),
        "separation": (float, 4.0),
        "seed": (_at_least(0), 0),
        "test_n_per_class": (_at_least(0), 0),
        "mnist_dir": (str, ""),
        "pool_size": (_at_least(1), 10000),
        "test_size": (_at_least(1), 10000),
    },
}


def _get(parser, section, key, conv, default):
    raw = parser.get(section, key, fallback=None)
    if raw is None and default is dataclasses.MISSING:
        raise FormatError(f"[{section}] is missing required key {key!r}")
    try:
        return copy.copy(default) if raw is None else conv(raw)  # a spec shares no list default
    except ValueError as exc:
        raise FormatError(f"[{section}] {key} = {raw!r}: {exc}") from None


def load_run_spec(config_path):
    """Parse and validate a run config file into a plain dict."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    path = Path(config_path)
    if not path.exists():
        raise FormatError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise FormatError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in _GRAMMAR:
            raise FormatError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _GRAMMAR[section]:
                raise FormatError(f"[{section}] has unknown key {key!r}")

    spec = {
        section: {
            key: _get(parser, section, key, conv, default)
            for key, (conv, default) in keys.items()
        }
        for section, keys in _GRAMMAR.items()
    }
    if not spec["run"]["seeds"]:
        raise FormatError("[run] seeds is empty: list at least one seed")
    if spec["data"]["kind"] not in ("spirals", "two_gaussians", "mnist"):
        raise FormatError(
            f"[data] kind = {spec['data']['kind']!r}: expected spirals, "
            f"two_gaussians, or mnist"
        )
    return spec


def _load_datasets(dspec):
    """Pool and test datasets; synthetic kinds use two independent draws."""
    synthetic = {
        "spirals": (data_mod.gen_spirals, "noise"),
        "two_gaussians": (data_mod.gen_two_gaussians, "separation"),
    }
    if dspec["kind"] in synthetic:
        gen, shape = synthetic[dspec["kind"]]
        test_n = dspec["test_n_per_class"] or dspec["n_per_class"]
        train = gen(dspec["n_per_class"], dspec[shape], dspec["seed"])
        return train, gen(test_n, dspec[shape], pool._mix(dspec["seed"], 0x7E57))
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
    mlp = dict(spec["mlp"])
    widths = (train_data.input_dim, *mlp.pop("hidden"), train_data.class_count)
    run = {key: value for key, value in spec["run"].items() if key != "seeds"}
    return pool.RunConfig(
        **run,
        mlp=net.MlpConfig(widths=widths, **mlp),
        train=net.TrainConfig(**spec["train"]),
        seed=seed,
    )


def cmd_run(config_path, seed=None, out_dir="."):
    """Execute the configured run for every seed; returns the exit code."""
    try:
        spec = load_run_spec(config_path)
        seeds = [seed] if seed is not None else spec["run"]["seeds"]
        train_data, test_data = _load_datasets(spec["data"])
        configs = [_build_run_config(spec, s, train_data) for s in seeds]
        configs[0].check_pool(len(train_data))  # the seed does not change the budget
    except (ContractError, FormatError, OSError) as exc:
        # Bad configs, invalid strategy names, budgets beyond the pool and
        # unreadable data files all surface as exit code 2 before any output.
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a parent that cannot hold a directory
        print(f"output error: {exc}", file=sys.stderr)
        return 2
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


# The records CSV has one column per CycleRecord field, in field order:
# written with str(), read back with the field's type.
_RECORD_FIELDS = dataclasses.fields(CycleRecord)
CSV_HEADER = ",".join(field.name for field in _RECORD_FIELDS)


def write_records_csv(records, path):
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for rec in records:
            f.write(",".join(str(getattr(rec, field.name)) for field in _RECORD_FIELDS) + "\n")


# --- report rendering -----------------------------------------------------


def read_records_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty CSV")
    header = lines[0].strip()
    if header != CSV_HEADER:
        want, got = CSV_HEADER.split(","), header.split(",")
        for i, col in enumerate(want):
            offending = got[i] if i < len(got) else "<missing>"
            if offending != col:
                raise FormatError(
                    f"{path}: bad CSV schema at column {i + 1}: got "
                    f"{offending!r}, want {col!r}"
                )
        raise FormatError(f"{path}: bad CSV schema: extra columns {got[len(want):]}")
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_RECORD_FIELDS):
            raise FormatError(
                f"{path}:{ln}: expected {len(_RECORD_FIELDS)} fields, got {len(parts)}"
            )
        try:
            values = {field.name: field.type(text) for field, text in zip(_RECORD_FIELDS, parts)}
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: {exc}") from None
        for name, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise FormatError(f"{path}:{ln}: {name} is {value!r}, not finite")
        records.append(CycleRecord(**values))
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
    try:
        records = []
        for path in csv_paths:
            records.extend(read_records_csv(path))
        render_accuracy_svg(records, out_path)
    except (FormatError, OSError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
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

    p_report = sub.add_parser("report", help="render accuracy curves as SVG")
    p_report.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_report.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, seed=args.seed, out_dir=args.out)
    return cmd_report(args.inputs, args.out)


if __name__ == "__main__":
    sys.exit(main())
