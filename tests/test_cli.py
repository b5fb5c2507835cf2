import json

import numpy as np
import pytest

from ntkal import cli

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
        with pytest.raises(cli.ConfigError, match="not found"):
            cli.load_run_spec(tmp_path / "nope.cfg")

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[wat]\nx = 1\n")
        with pytest.raises(cli.ConfigError, match=r"\[wat\]"):
            cli.load_run_spec(path)

    def test_bad_int_names_key(self, tmp_path):
        path = _write_config(tmp_path)
        text = path.read_text().replace("cycles = 3", "cycles = three")
        path.write_text(text)
        with pytest.raises(cli.ConfigError, match="cycles"):
            cli.load_run_spec(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nstrategy = random\n")
        with pytest.raises(cli.ConfigError, match="initial_labeled"):
            cli.load_run_spec(path)

    def test_empty_seed_list(self, tmp_path):
        path = _write_config(tmp_path, seeds="")
        with pytest.raises(cli.ConfigError, match="seeds"):
            cli.load_run_spec(path)
        assert cli.cmd_run(path, out_dir=tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_bad_data_kind(self, tmp_path):
        path = _write_config(tmp_path)
        path.write_text(path.read_text().replace("two_gaussians", "imagenet"))
        with pytest.raises(cli.ConfigError, match="imagenet"):
            cli.load_run_spec(path)


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
        cfg = _write_config(tmp_path, strategy="definitely-not")
        assert cli.cmd_run(cfg, out_dir=tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "mlmoc" in err and "entropy" in err and "random" in err

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

    def test_empty_csv_rejected(self, tmp_path):
        csv = tmp_path / "e.csv"
        csv.write_text("")
        assert cli.cmd_report([str(csv)], tmp_path / "x.svg") == 2

    def test_header_only_rejected(self, tmp_path):
        from ntkal.pool import CycleRecord

        csv = tmp_path / "h.csv"
        csv.write_text(CycleRecord.CSV_HEADER + "\n")
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
