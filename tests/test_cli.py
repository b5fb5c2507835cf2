import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ntkal import cli, pool
from ntkal.errors import FormatError

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL_CONFIG = """
[run]
strategy = {strategy}
initial_labeled = 6
query_batch_size = 2
subset_size = 10
cycles = 3
seeds = {seeds}

[mlp]
hidden = 16
nonlinearity = relu

[train]
learning_rate = 0.05
epochs = 10
minibatch_size = 8

[data]
kind = two_gaussians
n_per_class = 30
separation = 3.0
seed = 0
"""


def _write_config(tmp_path, strategy="random", seeds="0"):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL_CONFIG.format(strategy=strategy, seeds=seeds))
    return path


def _non_timing_columns(csv_text):
    rows = []
    for line in csv_text.strip().splitlines()[1:]:
        parts = line.split(",")
        rows.append((parts[0], parts[1], parts[2], parts[5], parts[6], parts[7]))
    return rows


class TestConfigParsing:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            cli.load_run_spec(tmp_path / "nope.cfg")

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[wat]\nx = 1\n")
        with pytest.raises(FormatError, match=r"\[wat\]"):
            cli.load_run_spec(path)

    def test_bad_int_names_key(self, tmp_path):
        path = _write_config(tmp_path)
        text = path.read_text().replace("cycles = 3", "cycles = three")
        path.write_text(text)
        with pytest.raises(FormatError, match="cycles"):
            cli.load_run_spec(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nstrategy = random\n")
        with pytest.raises(FormatError, match="initial_labeled"):
            cli.load_run_spec(path)

    def test_empty_seed_list(self, tmp_path):
        path = _write_config(tmp_path, seeds="")
        with pytest.raises(FormatError, match="seeds"):
            cli.load_run_spec(path)
        assert cli.cmd_run(path, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, old, new",
        [
            ("train", "minibatch_size = 8", "minibatch = 8"),
            ("run", "cycles = 3", "cycles = 3\ncycle = 3"),
            ("mlp", "hidden = 16", "hidden = 16\nwidth = 16"),
            ("data", "seed = 0", "seed = 0\nsepration = 3.0"),
            # SGD always warm-starts at one learning rate: no key sets either.
            ("train", "minibatch_size = 8", "minibatch_size = 8\nwarm_start = false"),
            ("train", "minibatch_size = 8", "minibatch_size = 8\nlr_decay = 0.9"),
        ],
        ids=["train", "run", "mlp", "data", "train-warm-start", "train-lr-decay"],
    )
    def test_unknown_key_names_section_and_key(self, tmp_path, capsys, section, old, new):
        path = _write_config(tmp_path)
        path.write_text(path.read_text().replace(old, new))
        key = new.split("\n")[-1].split(" = ")[0]
        with pytest.raises(FormatError, match=rf"\[{section}\] has unknown key '{key}'"):
            cli.load_run_spec(path)
        assert cli.cmd_run(path, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()
        assert key in capsys.readouterr().err

    def test_percent_in_a_value_is_literal(self, tmp_path):
        path = _write_config(tmp_path)
        path.write_text(
            path.read_text().replace("kind = two_gaussians", "kind = mnist\nmnist_dir = /data/100%/mnist")
        )
        assert cli.load_run_spec(path)["data"]["mnist_dir"] == "/data/100%/mnist"

    def test_bad_data_kind(self, tmp_path):
        path = _write_config(tmp_path)
        path.write_text(path.read_text().replace("two_gaussians", "imagenet"))
        with pytest.raises(FormatError, match="imagenet"):
            cli.load_run_spec(path)


def _readme_tables():
    """{section: {key: default}} from the README's config key tables: the
    default column's text without backticks, "" where it says empty."""
    text = README.read_text()
    tables = {}
    for section, body in re.findall(r"^### `\[(\w+)\]`\n(.*?)(?=^#|\Z)", text, re.M | re.S):
        rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \|", body, re.M)
        tables[section] = {
            key: "" if default.strip() == "empty" else default.strip().strip("`")
            for key, default in rows
        }
    return tables


def _readme_row(key):
    """The meaning column of the README's one config-table row of ``key``."""
    (meaning,) = re.findall(rf"^\| `{key}` \|.*\| ([^|]+) \|$", README.read_text(), re.M)
    return meaning


class TestReadmeGrammar:
    def test_strategy_rows_list_the_strategies(self):
        named = lambda key: re.findall(r"`([\w-]+)`", _readme_row(key))
        assert named("strategy") == list(pool.STRATEGIES)
        assert named("sequential") == list(pool._LOOKAHEAD_SCORERS)

    def test_tables_list_the_keys_the_loader_reads(self, tmp_path):
        tables = _readme_tables()
        assert sorted(tables) == ["data", "mlp", "run", "train"]
        required = {s: [k for k, d in keys.items() if d == "*required*"] for s, keys in tables.items()}
        values = {"strategy": "mlmoc", "kind": "spirals"}

        def write(skip=None):
            lines = []
            for section, keys in required.items():
                lines.append(f"[{section}]")
                lines += [f"{key} = {values.get(key, 1)}" for key in keys if (section, key) != skip]
            path = tmp_path / "required.cfg"
            path.write_text("\n".join(lines) + "\n")
            return path

        spec = cli.load_run_spec(write())  # optional keys may all be left out
        assert {s: sorted(spec[s]) for s in spec} == {s: sorted(k) for s, k in tables.items()}
        for section, keys in required.items():
            for key in keys:
                with pytest.raises(FormatError, match=f"missing required key '{key}'"):
                    cli.load_run_spec(write(skip=(section, key)))
        # Each README default, read by the key's converter, is the loader's.
        for section, keys in tables.items():
            for key in set(keys) - set(required[section]):
                convert, default = cli._GRAMMAR[section][key]
                assert convert(keys[key]) == default == spec[section][key], (section, key)


class TestCmdRun:
    def test_minimal_run_row_count(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.cmd_run(cfg, out_dir=out) == 0
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "cycle,labeled_size,test_accuracy,query_seconds,train_seconds,"
            "strategy,seed,degenerate_skipped"
        )
        assert len(lines) == 4  # header + one row per cycle
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == "ntkal-summary-v1"
        assert summary["config_echo"]["run"]["strategy"] == "random"
        assert len(summary["runs"]) == 1
        assert 0.0 <= summary["runs"][0]["final_accuracy"] <= 1.0

    def test_unknown_strategy_exit_2_names_valid(self, tmp_path, capsys):
        for strategy in ("definitely-not", "mlmoc-inf"):  # mlmoc-inf: a deleted strategy
            cfg = _write_config(tmp_path, strategy=strategy)
            assert cli.cmd_run(cfg, out_dir=tmp_path / "o") == 2
            assert not (tmp_path / "o").exists()
            err = capsys.readouterr().err
            assert "config error" in err and all(s in err for s in pool.STRATEGIES)

    @pytest.mark.parametrize(
        "strategy, old, new",
        [
            ("mlmoc", "seeds = 0", "seeds = 0\nscore_baseline = rwa"),
            ("eer", "seeds = 0", "seeds = 0\nscore_baseline = rwa"),
            ("mlmoc-naive", "seeds = 0", "seeds = 0\nnaive_epochs = -1"),
            # mlmoc-inf is a deleted strategy: refused whatever the network.
            ("mlmoc-inf", "nonlinearity = relu", "nonlinearity = identity"),
            ("random", "learning_rate = 0.05", "learning_rate = nan"),
            ("random", "minibatch_size = 8", "minibatch_size = 8\nlr_decay = inf"),
            ("random", "seeds = 0", "seeds = 0\nsequential = true"),
            # 6 + 3 * 2 = 12 labels from a pool of 10 points.
            ("mlmoc", "n_per_class = 30", "n_per_class = 5"),
            ("random", "nonlinearity = relu", "nonlinearity = relu\nbeta = nan"),
            ("random", "nonlinearity = relu", "nonlinearity = relu\nbeta = inf"),
            ("random", "seeds = 0", "seeds = 0 -2"),
            ("random", "nonlinearity = relu", "nonlinearity = relu\nseed = -1"),
            ("random", "minibatch_size = 8", "minibatch_size = 8\nshuffle_seed = -1"),
            ("random", "separation = 3.0\nseed = 0", "separation = 3.0\nseed = -1"),
            ("random", "epochs = 10", "epochs = 0"),
            ("random", "epochs = 10", "epochs = -2"),
        ],
        ids=[
            "unknown-baseline", "eer-unknown-baseline", "negative-naive-epochs",
            "inf-identity", "nan-learning-rate", "inf-lr-decay", "sequential-random",
            "budget-beyond-pool", "nan-beta", "inf-beta", "negative-run-seed",
            "negative-mlp-seed", "negative-shuffle-seed", "negative-data-seed",
            "zero-epochs", "negative-epochs",
        ],
    )
    def test_invalid_run_values_exit_2_and_write_nothing(self, tmp_path, capsys, strategy, old, new):
        cfg = _write_config(tmp_path, strategy=strategy)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert cli.cmd_run(cfg, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seeds = 0", "seeds = 0, -1", "[run] seeds = '0, -1': expected integers >= 0"),
            ("hidden = 16", "hidden = 0", "[mlp] hidden = '0': expected integers >= 1"),
            ("hidden = 16", "hidden = 16, -3", "[mlp] hidden = '16, -3': expected integers >= 1"),
        ],
        ids=["negative-seed", "zero-hidden", "negative-hidden"],
    )
    def test_int_list_below_minimum_names_its_key(self, tmp_path, capsys, old, new, message):
        # These used to name the dataclass fields seed and widths, which a config cannot set.
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert cli.cmd_run(cfg, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()
        assert f"config error: {message}" in capsys.readouterr().err

    def test_zero_count_mnist_exit_2(self, tmp_path, capsys):
        for split in ("train", "t10k"):
            oracles.write_idx_images(
                tmp_path / f"{split}-images-idx3-ubyte", np.zeros((0, 28, 28), dtype=np.uint8)
            )
            oracles.write_idx_labels(
                tmp_path / f"{split}-labels-idx1-ubyte", np.zeros(0, dtype=np.uint8)
            )
        cfg = _write_config(tmp_path)
        cfg.write_text(
            cfg.read_text().replace("kind = two_gaussians", f"kind = mnist\nmnist_dir = {tmp_path}")
        )
        assert cli.cmd_run(cfg, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["pool_size", "test_size"])
    def test_negative_count_mnist_exit_2(self, tmp_path, capsys, key):
        # Counts below 1 are config errors naming the key, not numpy's
        # "negative dimensions" from sampling the split.
        for split in ("train", "t10k"):
            oracles.write_idx_images(
                tmp_path / f"{split}-images-idx3-ubyte", np.zeros((4, 28, 28), dtype=np.uint8)
            )
            oracles.write_idx_labels(
                tmp_path / f"{split}-labels-idx1-ubyte", np.arange(4, dtype=np.uint8)
            )
        cfg = _write_config(tmp_path)
        cfg.write_text(
            cfg.read_text().replace(
                "kind = two_gaussians", f"kind = mnist\nmnist_dir = {tmp_path}\n{key} = -3"
            )
        )
        assert cli.cmd_run(cfg, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "config error" in err and f"[data] {key} = '-3'" in err

    @pytest.mark.parametrize(
        "key, value, line",
        [
            ("n_per_class", "0", "n_per_class = 0"),
            ("n_per_class", "-3", "n_per_class = -3"),
            ("test_n_per_class", "-3", "n_per_class = 30\ntest_n_per_class = -3"),
        ],
        ids=["zero-n", "negative-n", "negative-test-n"],
    )
    def test_bad_class_count_exit_2_names_its_key(self, tmp_path, capsys, key, value, line):
        # test_n_per_class = 0 means "same as n_per_class"; below that, each
        # key is refused under its own name, not the generator's argument's.
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("n_per_class = 30", line))
        assert cli.cmd_run(cfg, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "config error" in err and f"[data] {key} = '{value}'" in err

    def test_rerun_is_identical_modulo_timing(self, tmp_path):
        cfg = _write_config(tmp_path, strategy="mlmoc", seeds="0 1")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.cmd_run(cfg, out_dir=out_a) == 0
        assert cli.cmd_run(cfg, out_dir=out_b) == 0
        rows_a = _non_timing_columns((out_a / "records.csv").read_text())
        rows_b = _non_timing_columns((out_b / "records.csv").read_text())
        assert rows_a == rows_b

    def test_seed_override(self, tmp_path):
        cfg = _write_config(tmp_path, seeds="0 1 2")
        out = tmp_path / "o"
        assert cli.cmd_run(cfg, seed=7, out_dir=out) == 0
        rows = (out / "records.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[6] == "7" for row in rows)

    def test_negative_seed_override_exit_2_and_write_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code = cli.main(["run", "--config", str(cfg), "--seed", "-3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/o"])
    def test_unwritable_out_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch, out):
        # --out names an existing file, or a directory under one.
        cfg = _write_config(tmp_path)
        (tmp_path / "taken").write_text("kept\n")
        runs = []
        monkeypatch.setattr(cli.pool, "run_al", lambda *args: runs.append(args))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        assert "output error" in capsys.readouterr().err
        assert runs == [] and (tmp_path / "taken").read_text() == "kept\n"

    def test_main_entry(self, tmp_path):
        cfg = _write_config(tmp_path)
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 0


class TestRemovedCommands:
    def test_bench_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "block-vs-direct", "--l", "30", "--u", "10"])
        assert exc.value.code == 2
        assert "bench" in capsys.readouterr().err

    def test_threads_option_is_rejected(self, tmp_path, capsys):
        # BLAS threads are capped through the environment before numpy loads.
        cfg = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Two strategies over three seeds (bands), one single-seed strategy with
# markup in its name, cycles in file order 1, 0, 2.
REPORT_CSV = """\
cycle,labeled_size,test_accuracy,query_seconds,train_seconds,strategy,seed,degenerate_skipped
0,10,0.5,0.01,0.02,mlmoc,0,0
1,15,0.625,0.01,0.02,mlmoc,0,1
2,20,0.75,0.01,0.02,mlmoc,0,0
0,10,0.55,0.01,0.02,mlmoc,1,0
1,15,0.6,0.01,0.02,mlmoc,1,0
2,20,0.8,0.01,0.02,mlmoc,1,0
0,10,0.45,0.01,0.02,mlmoc,2,0
1,15,0.7,0.01,0.02,mlmoc,2,0
2,20,0.7,0.01,0.02,mlmoc,2,0
1,15,0.6,0.01,0.02,random,0,0
0,10,0.5,0.01,0.02,random,0,0
2,20,0.65,0.01,0.02,random,0,0
1,15,0.5,0.01,0.02,random,1,0
0,10,0.52,0.01,0.02,random,1,0
2,20,0.66,0.01,0.02,random,1,0
0,10,0.3333333333333333,2.5e-07,0.5,a<b&c>,7,0
2,20,0.9,1.25,2.5e-07,a<b&c>,7,2
"""
SVG_SHA256 = "5b2cf46103777be05fbf242ca3b9ae7523c09f54f3d64433965cf3bdd7ed2a35"


class TestRecordsCsv:
    def test_round_trip_exact_bytes(self, tmp_path):
        from ntkal.pool import CycleRecord

        records = [
            CycleRecord(0, 10, 1 / 3, 2.5e-07, 0.5, "a<b&c>", 7, 0),
            CycleRecord(1, 12, 0.75, 1.25, 2.5e-07, "mlmoc", 7, 2),
        ]
        csv = tmp_path / "r.csv"
        cli.write_records_csv(records, csv)
        assert csv.read_bytes() == (
            b"cycle,labeled_size,test_accuracy,query_seconds,train_seconds,"
            b"strategy,seed,degenerate_skipped\n"
            b"0,10,0.3333333333333333,2.5e-07,0.5,a<b&c>,7,0\n"
            b"1,12,0.75,1.25,2.5e-07,mlmoc,7,2\n"
        )
        assert cli.read_records_csv(csv) == records

    def test_report_svg_bytes_are_pinned(self, tmp_path):
        # Digest of the SVG this renderer has always written for REPORT_CSV.
        csv = tmp_path / "r.csv"
        csv.write_text(REPORT_CSV)
        out = tmp_path / "plot.svg"
        assert cli.main(["report", "--in", str(csv), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == SVG_SHA256


class TestReport:
    def _fake_records(self, strategies, seeds, cycles=4):
        from ntkal.pool import CycleRecord

        rng = np.random.default_rng(0)
        records = []
        for strat in strategies:
            for seed in seeds:
                for cyc in range(cycles):
                    records.append(
                        CycleRecord(
                            cycle=cyc,
                            labeled_size=10 + 5 * cyc,
                            test_accuracy=0.5 + 0.1 * cyc + 0.01 * rng.uniform(),
                            query_seconds=0.01,
                            train_seconds=0.02,
                            strategy=strat,
                            seed=seed,
                            degenerate_skipped=0,
                        )
                    )
        return records

    def test_single_run_one_polyline_no_band(self, tmp_path):
        csv = tmp_path / "r.csv"
        cli.write_records_csv(self._fake_records(["mlmoc"], [0]), csv)
        out = tmp_path / "plot.svg"
        assert cli.cmd_report([str(csv)], out) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        assert svg.count("<polygon") == 0

    def test_two_strategies_six_seeds_bands(self, tmp_path):
        csv = tmp_path / "r.csv"
        cli.write_records_csv(
            self._fake_records(["mlmoc", "random"], list(range(6))), csv
        )
        out = tmp_path / "plot.svg"
        assert cli.cmd_report([str(csv)], out) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert svg.count("<polygon") == 2

    def test_svg_is_self_contained(self, tmp_path):
        csv = tmp_path / "r.csv"
        cli.write_records_csv(self._fake_records(["mlmoc"], [0, 1]), csv)
        out = tmp_path / "plot.svg"
        cli.cmd_report([str(csv)], out)
        svg = out.read_text()
        assert "href" not in svg
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert svg.startswith("<svg")

    def test_out_in_missing_dir_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        cli.write_records_csv(self._fake_records(["mlmoc"], [0]), csv_path)
        out = tmp_path / "missing" / "x.svg"
        assert cli.main(["report", "--in", str(csv_path), "--out", str(out)]) == 2
        assert "report error" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_empty_csv_rejected(self, tmp_path):
        csv = tmp_path / "e.csv"
        csv.write_text("")
        assert cli.cmd_report([str(csv)], tmp_path / "x.svg") == 2

    def test_header_only_rejected(self, tmp_path):
        csv = tmp_path / "h.csv"
        csv.write_text(cli.CSV_HEADER + "\n")
        assert cli.cmd_report([str(csv)], tmp_path / "x.svg") == 2

    def test_schema_mismatch_names_column(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("cycle,labeled_size,accuracy\n0,5,0.5\n")
        assert cli.cmd_report([str(csv)], tmp_path / "x.svg") == 2
        assert "accuracy" in capsys.readouterr().err

    def test_non_numeric_field_is_a_format_error(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        cli.write_records_csv(self._fake_records(["mlmoc"], [0]), csv)
        lines = csv.read_text().splitlines()
        parts = lines[2].split(",")
        parts[2] = "abc"
        lines[2] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        assert cli.cmd_report([str(csv)], tmp_path / "x.svg") == 2
        err = capsys.readouterr().err
        assert err.startswith("report error:")
        assert f"{csv}:3:" in err

    @pytest.mark.parametrize("column", [2, 3, 4])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_is_a_format_error(self, tmp_path, capsys, column, value):
        csv = tmp_path / "r.csv"
        cli.write_records_csv(self._fake_records(["mlmoc"], [0]), csv)
        lines = csv.read_text().splitlines()
        parts = lines[3].split(",")
        parts[column] = value
        lines[3] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.svg"
        assert cli.cmd_report([str(csv)], out) == 2
        assert f"{csv}:4:" in capsys.readouterr().err
        assert not out.exists()

    def test_markup_in_strategy_names_is_escaped(self, tmp_path):
        from xml.dom import minidom

        csv = tmp_path / "r.csv"
        cli.write_records_csv(self._fake_records(["a<b", "c&d"], [0]), csv)
        out = tmp_path / "plot.svg"
        assert cli.cmd_report([str(csv)], out) == 0
        texts = minidom.parse(str(out)).getElementsByTagName("text")
        labels = {t.firstChild.data for t in texts}
        assert {"a<b", "c&d"} <= labels
