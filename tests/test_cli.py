import csv
import json

import numpy as np
import pytest

from dynastop.bayes_stop import StoppingModel
from dynastop.cli import main
from dynastop.codes import read_codebook, write_codebook
from dynastop.decoding import Trial
from dynastop.store import write_store


def run(args, capsys=None):
    code = main(args)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


@pytest.fixture
def tiny_store(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(
        json.dumps(
            {"n_classes": 6, "n_channels": 2, "trials_per_class": 4,
             "sigma": 1.5, "seed": 5}
        )
    )
    store = tmp_path / "store"
    assert main(["simulate", "--config", str(config), "--out", str(store)]) == 0
    return store


class TestCodes:
    def test_degree6_full_family(self, tmp_path, capsys):
        out = tmp_path / "codes.txt"
        code, captured = run(["codes", "--out", str(out)], capsys)
        assert code == 0
        assert "config[codes]" in captured.out
        book = read_codebook(out)
        assert book.codes.shape == (65, 126)
        assert book.rate_hz == 120.0

    def test_subset_selection(self, tmp_path):
        out = tmp_path / "codes.txt"
        assert main(["codes", "--subset-k", "36", "--out", str(out)]) == 0
        assert read_codebook(out).codes.shape == (36, 126)

    def test_bad_polynomial_exits_2(self, tmp_path, capsys):
        out = tmp_path / "codes.txt"
        code, captured = run(
            ["codes", "--poly-a", "0b1001", "--poly-b", "0b1011", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "error" in captured.err

    def test_unsupported_degree_without_polys(self, tmp_path, capsys):
        code, captured = run(["codes", "--degree", "9", "--out", str(tmp_path / "c.txt")], capsys)
        assert code == 2
        assert "preferred pair" in captured.err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["codes", "--frobnicate", "--out", str(tmp_path / "c.txt")])
        assert err.value.code == 2


class TestSimulate:
    def test_default_trial_count(self, tiny_store):
        manifest = json.loads((tiny_store / "manifest.json").read_text())
        assert manifest["n_trials"] == 24  # 6 classes x 4 repetitions
        assert manifest["codebook"] == "codebook.txt"
        assert (tiny_store / "codebook.txt").exists()

    def test_seed_reproducibility(self, tmp_path):
        stores = []
        for name in ("a", "b"):
            store = tmp_path / name
            assert main(
                ["simulate", "--out", str(store), "--seed", "9",
                 "--trials-per-class", "1"]
            ) == 0
            stores.append(store)
        blob_a = (stores[0] / "eeg.f32").read_bytes()
        blob_b = (stores[1] / "eeg.f32").read_bytes()
        assert blob_a == blob_b

    def test_sigma_changes_blob(self, tmp_path):
        blobs = []
        for name, sigma in (("a", "1.0"), ("b", "2.0")):
            store = tmp_path / name
            assert main(
                ["simulate", "--out", str(store), "--trials-per-class", "1",
                 "--sigma", sigma]
            ) == 0
            blobs.append((store / "eeg.f32").read_bytes())
        assert blobs[0] != blobs[1]

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"wobble": 3}))
        code, captured = run(
            ["simulate", "--config", str(config), "--out", str(tmp_path / "s")], capsys
        )
        assert code == 2
        assert "wobble" in captured.err


class TestCalibrate:
    def test_writes_model_json(self, tiny_store, tmp_path):
        out = tmp_path / "model.json"
        assert main(
            ["calibrate", "--store", str(tiny_store), "--zeta", "2.0",
             "--out-model", str(out)]
        ) == 0
        envelope = json.loads(out.read_text())
        assert envelope["kind"] == "bds"
        model = StoppingModel.from_json(json.dumps(envelope))
        assert model.zeta == 2.0
        assert model.n_classes == 6
        assert model.grid[-1] == model.t_star

    def test_missing_store_exits_2(self, tmp_path, capsys):
        code, captured = run(
            ["calibrate", "--store", str(tmp_path / "none"),
             "--out-model", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2

    def test_missing_codebook_exits_2(self, tiny_store, tmp_path, capsys):
        codebook = tiny_store / "codebook.txt"
        codebook.unlink()
        code, captured = run(
            ["calibrate", "--store", str(tiny_store), "--out-model", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2
        assert f"cannot read codebook {codebook}" in captured.err
        assert "Traceback" not in captured.err

    def test_trials_shorter_than_response_exit_2(self, tmp_path, capsys):
        store = tmp_path / "store"
        trials = [Trial(np.zeros((1, 20)), label, 120.0) for label in (0, 1, 0, 1)]
        write_store(store, trials, 2, codebook="codebook.txt")
        write_codebook(store / "codebook.txt", [[0, 1] * 10, [1, 0] * 10], rate_hz=120)
        code, captured = run(
            ["calibrate", "--store", str(store), "--out-model", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2
        assert "trials of 20 samples cannot hold the 36-sample flash response" in captured.err

    def test_codebook_with_long_run_exits_2(self, tiny_store, tmp_path, capsys):
        codebook = tiny_store / "codebook.txt"
        header, first, *rest = codebook.read_text().splitlines()
        codebook.write_text("\n".join([header, "1110" + first[4:], *rest]) + "\n")
        code, captured = run(
            ["calibrate", "--store", str(tiny_store), "--out-model", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2
        assert f"{codebook}: run of 3 ones at bit 0" in captured.err

    @pytest.mark.parametrize("text, reason", [
        ("0102\n1010\n", "invalid characters"),
        ("0101\n", "at least two codes"),
        ("# rate_hz=0\n0101\n1010\n", "rate_hz must be a positive number"),
    ])
    def test_malformed_codebook_exits_2(self, tiny_store, tmp_path, capsys, text, reason):
        codebook = tiny_store / "codebook.txt"
        codebook.write_text(text)
        code, captured = run(
            ["evaluate", "--store", str(tiny_store), "--method", "bds", "--hyperparam", "1",
             "--out-csv", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 2
        assert str(codebook) in captured.err
        assert reason in captured.err


class TestGridFlags:
    """A decision grid the store cannot serve is a usage error that names the
    flag; each command runs under a deadline because a non-positive step used
    to loop forever."""

    COMMANDS = {
        "calibrate": ["--out-model", "m.json"],
        "evaluate": ["--method", "fixed", "--hyperparam", "0.5", "--out-csv", "r.csv"],
        "sweep": ["--method", "fixed", "--hyperparam-list", "0.5", "--out-csv", "r.csv"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("flags, named", [
        (["--grid-ms", "0"], "--grid-ms"),
        (["--grid-ms", "-5"], "--grid-ms"),
        (["--grid-ms", "nan"], "--grid-ms"),
        (["--t-star-s", "2.0"], "--t-star-s"),
        (["--t-star-s", "nan"], "--t-star-s"),
    ])
    def test_bad_grid_exits_2(self, tiny_store, tmp_path, capsys, deadline, command,
                              flags, named):
        extra = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a
                 for a in self.COMMANDS[command]]
        with deadline(60):
            code, captured = run([command, "--store", str(tiny_store), *flags, *extra], capsys)
        assert code == 2, captured.err
        assert named in captured.err

    def test_sub_sample_step_scores_every_sample(self, tiny_store, tmp_path, deadline):
        out = tmp_path / "model.json"
        with deadline(60):
            assert main(["calibrate", "--store", str(tiny_store), "--grid-ms", "1e-9",
                         "--out-model", str(out)]) == 0
        model = StoppingModel.from_json(out.read_text())
        np.testing.assert_array_equal(model.grid, np.arange(1, 127))


class TestEvaluate:
    def test_bds_row_appended(self, tiny_store, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code, captured = run(
            ["evaluate", "--store", str(tiny_store), "--method", "bds",
             "--hyperparam", "1.0", "--folds", "2", "--out-csv", str(out)],
            capsys,
        )
        assert code == 0
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        assert records[0]["method"] == "bds"
        assert records[0]["subject"] == "store"
        assert 0.0 <= float(records[0]["accuracy"]) <= 1.0

    def test_invalid_method_exits_2(self, tiny_store, tmp_path, capsys):
        code, captured = run(
            ["evaluate", "--store", str(tiny_store), "--method", "psychic",
             "--out-csv", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 2
        assert "unknown method" in captured.err

    def test_beta_with_inner_exits_2(self, tiny_store, tmp_path, capsys):
        code, captured = run(
            ["evaluate", "--store", str(tiny_store), "--method", "beta",
             "--hyperparam", "0.9", "--similarity", "inner",
             "--out-csv", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 2
        assert "inner product" in captured.err

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # Two trials with two folds leaves a single-trial training split; the
        # decoder cannot fit and the failure is a runtime error, not usage.
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps({"n_classes": 2, "n_channels": 1, "trials_per_class": 1,
                        "sigma": 1.0, "seed": 3})
        )
        store = tmp_path / "store"
        assert main(["simulate", "--config", str(config), "--out", str(store)]) == 0
        code, captured = run(
            ["evaluate", "--store", str(store), "--method", "bds",
             "--hyperparam", "1.0", "--folds", "2",
             "--out-csv", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 1
        assert "error" in captured.err


class TestSweep:
    def test_one_row_per_value_deduplicated(self, tiny_store, tmp_path):
        out = tmp_path / "results.csv"
        assert main(
            ["sweep", "--store", str(tiny_store), "--method", "margin",
             "--hyperparam-list", "0.3,0.6,0.3,0.9", "--similarity", "correlation",
             "--folds", "2", "--out-csv", str(out)]
        ) == 0
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [float(r["hyperparam"]) for r in records] == [0.3, 0.6, 0.9]

    def test_bad_list_exits_2(self, tiny_store, tmp_path, capsys):
        code, captured = run(
            ["sweep", "--store", str(tiny_store), "--method", "margin",
             "--hyperparam-list", "a,b", "--similarity", "correlation",
             "--out-csv", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 2


class TestReport:
    @pytest.fixture
    def results_csv(self, tiny_store, tmp_path):
        out = tmp_path / "results.csv"
        assert main(
            ["sweep", "--store", str(tiny_store), "--method", "bds",
             "--hyperparam-list", "0.01,1.0,100.0", "--folds", "2",
             "--out-csv", str(out)]
        ) == 0
        return out

    def test_writes_svg(self, results_csv, tmp_path):
        out = tmp_path / "plot.svg"
        assert main(
            ["report", "--csv", str(results_csv), "--x", "mean_stop_s",
             "--y", "accuracy", "--out-svg", str(out)]
        ) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "mean_stop_s" in svg and "accuracy" in svg

    def test_deterministic_bytes(self, results_csv, tmp_path):
        outs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            assert main(
                ["report", "--csv", str(results_csv), "--x", "mean_stop_s",
                 "--y", "accuracy", "--out-svg", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_ci_band_rendered(self, tmp_path):
        csv_path = tmp_path / "agg.csv"
        header = "subject,method,hyperparam,similarity,accuracy,mean_stop_s,ci_accuracy\r\n"
        rows = [
            "mean,bds,0.1,inner,0.5,0.4,0.05\r\n",
            "mean,bds,1.0,inner,0.8,0.9,0.04\r\n",
            "mean,bds,10.0,inner,0.9,1.3,0.02\r\n",
        ]
        csv_path.write_text(header + "".join(rows))
        out = tmp_path / "plot.svg"
        assert main(
            ["report", "--csv", str(csv_path), "--x", "mean_stop_s",
             "--y", "accuracy", "--out-svg", str(out)]
        ) == 0
        assert "polygon" in out.read_text()

    def test_unknown_column_exits_2(self, results_csv, tmp_path, capsys):
        code, captured = run(
            ["report", "--csv", str(results_csv), "--x", "mean_stop_s",
             "--y", "sparkle", "--out-svg", str(tmp_path / "p.svg")],
            capsys,
        )
        assert code == 2
        assert "sparkle" in captured.err

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("subject,method,accuracy\r\n")
        code, captured = run(
            ["report", "--csv", str(empty), "--x", "accuracy", "--y", "accuracy",
             "--out-svg", str(tmp_path / "p.svg")],
            capsys,
        )
        assert code == 2
        assert "no data rows" in captured.err


def test_every_command_prints_resolved_config(tiny_store, tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    main(
        ["evaluate", "--store", str(tiny_store), "--method", "fixed",
         "--hyperparam", "0.5", "--folds", "2", "--out-csv", str(out_csv)]
    )
    captured = capsys.readouterr()
    assert captured.out.startswith("config[evaluate]: {")
    parsed = json.loads(captured.out.splitlines()[0].split(": ", 1)[1])
    assert parsed["method"] == "fixed"
