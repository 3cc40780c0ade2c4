import csv
import json
import warnings
import xml.dom.minidom

import numpy as np
import pytest

from dynastop.baselines import deserialize_policy
from dynastop.cli import main
from dynastop.codes import read_codebook, write_codebook
from dynastop.decoding import Trial
from dynastop.simulate import SimConfig, make_dataset
from dynastop.store import load_store, write_store


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

    @pytest.mark.parametrize("rate", ["0", "-5", "nan", "inf", "1e-300", "1e300"])
    def test_bad_rate_exits_2(self, tmp_path, capsys, rate):
        out = tmp_path / "codes.txt"
        code, captured = run(["codes", "--rate-hz", rate, "--subset-k", "8", "--out", str(out)],
                             capsys)
        assert code == 2
        assert "--rate-hz" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("rate, header", [("120", "120"), ("60.5", "60.5"),
                                              ("59.94", "59.94")])
    def test_rate_written_exactly(self, tmp_path, rate, header):
        out = tmp_path / "codes.txt"
        assert main(["codes", "--rate-hz", rate, "--out", str(out)]) == 0
        assert out.read_text().startswith(f"# rate_hz={header}\n")
        assert read_codebook(out).rate_hz == float(rate)


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

    @pytest.mark.parametrize("field, value, kind", [
        ("n_classes", "x", "str"),
        ("n_classes", True, "bool"),
        ("seed", 1.7, "float"),
        ("sigma", True, "bool"),
        ("fs", "120", "str"),
    ])
    def test_mistyped_config_field_exits_2(self, tmp_path, capsys, field, value, kind):
        # An int field needs a JSON integer and a float field a JSON number.
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({field: value}))
        out = tmp_path / "s"
        code, captured = run(["simulate", "--config", str(config), "--out", str(out)], capsys)
        assert code == 2, captured.err
        assert f"simulate config field {field!r} has type {kind}" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("document", [5, "abc", None, [["seed", 2]]])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, document):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "s"
        code, captured = run(["simulate", "--config", str(config), "--out", str(out)], capsys)
        assert code == 2, captured.err
        assert "simulate config is not a JSON object" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (b'{"seed": 2 "sigma": 1}', "is not a JSON file: Expecting ',' delimiter"),
        (b"", "is not a JSON file: Expecting value"),
        (b'{"seed": 2}\n}', "is not a JSON file: Extra data"),
        (b'{"sigma": "\xff"}', "is not a JSON file: 'utf-8' codec can't decode"),
        (None, "cannot read"),
    ])
    def test_config_not_json_exits_2(self, tmp_path, capsys, content, message):
        config = tmp_path / "sim.json"
        if content is not None:
            config.write_bytes(content)
        out = tmp_path / "s"
        code, captured = run(["simulate", "--config", str(config), "--out", str(out)], capsys)
        assert code == 2, captured.err
        assert f"--config: {'cannot read ' if content is None else ''}{config}" in captured.err
        assert message in captured.err
        assert not out.exists()

    def test_streamed_store_is_the_listed_dataset(self, tmp_path):
        # simulate draws each trial as the store writes it; the bytes are those
        # of the list make_dataset returns.
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"n_classes": 5, "n_channels": 3, "seed": 11}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "cli"),
                     "--trials-per-class", "2", "--sigma", "2.5", "--alpha", "0.7"]) == 0
        cfg = SimConfig(n_classes=5, n_channels=3, seed=11, sigma=2.5, alpha=0.7)
        write_store(tmp_path / "lib", make_dataset(cfg, 2), 5, codebook="codebook.txt")
        for name in ("eeg.f32", "manifest.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

    def test_no_trials_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "none"
        code, captured = run(["simulate", "--out", str(out), "--trials-per-class", "0"], capsys)
        assert code == 2, captured.err
        assert "trials_per_class must be >= 1" in captured.err
        assert not out.exists()

    def test_alpha_past_float32_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # The samples are finite in float64 but not in the store's float32: once
        # a store calibrate rejected with exit 1.
        out = tmp_path / "big"
        code, captured = run(["simulate", "--out", str(out), "--alpha", "1e39",
                              "--trials-per-class", "1"], capsys)
        assert code == 2, captured.err
        assert ("error: trial 0 (label 0) has a finite sample beyond float32's range"
                in captured.err)
        assert not out.exists()

    def test_alpha_past_float64_exits_2_without_a_warning(self, tmp_path, capsys):
        # alpha * template * pattern overflows float64: the config check names
        # alpha before numpy's overflow warning or the store writer can.
        out = tmp_path / "huge"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, captured = run(["simulate", "--out", str(out), "--alpha", "1e308",
                                  "--trials-per-class", "1"], capsys)
        assert code == 2, captured.err
        assert "error: alpha must be" in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_paper_length_store_is_streamed(self, tmp_path, capsys, traced_peak):
        # 576 trials of 8 x 504 samples: 18.6 MB as float64, 9.3 MB as the
        # stored float32. Drawn and written one trial at a time, the command
        # holds neither; loading keeps the blob's float32, byte for byte.
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"n_classes": 36, "n_channels": 8, "trial_seconds": 4.2}))
        out = tmp_path / "session"
        code, peak = traced_peak(lambda: main(["simulate", "--config", str(config), "--out",
                                               str(out), "--trials-per-class", "16"]))
        assert code == 0, capsys.readouterr().err
        assert peak < 4e6
        meta, trials = load_store(out)
        assert (meta.n_trials, meta.n_channels, meta.n_samples) == (576, 8, 504)
        assert {trial.data.dtype for trial in trials} == {np.dtype(np.float32)}
        assert sum(trial.data.nbytes for trial in trials) == (out / "eeg.f32").stat().st_size


class TestCalibrate:
    def test_writes_model_json(self, tiny_store, tmp_path):
        out = tmp_path / "model.json"
        assert main(
            ["calibrate", "--store", str(tiny_store), "--zeta", "2.0",
             "--out-model", str(out)]
        ) == 0
        envelope = json.loads(out.read_text())
        assert envelope["kind"] == "bds"
        model = deserialize_policy(envelope)
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

    @pytest.mark.parametrize("command, extra", [
        ("calibrate", ["--out-model", "m.json"]),
        ("evaluate", ["--method", "bds", "--hyperparam", "1", "--out-csv", "r.csv"]),
    ])
    def test_store_without_trials_exits_2(self, tiny_store, tmp_path, capsys, command, extra):
        manifest = json.loads((tiny_store / "manifest.json").read_text())
        manifest.update(n_trials=0, labels=[])
        (tiny_store / "manifest.json").write_text(json.dumps(manifest))
        (tiny_store / "eeg.f32").write_bytes(b"")
        code, captured = run([command, "--store", str(tiny_store), *extra], capsys)
        assert code == 2
        assert f"{tiny_store}: store holds no trials" in captured.err

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

    @pytest.mark.parametrize("grid_ms, t_star_s, named", [
        ("100", "0.05", None),  # t* below one grid step: one window at t*
        ("5000", None, None),  # a step beyond the trial: one window at t*
        ("100", "1.05", None),
        ("1e-9", "0.1", None),
        ("inf", "0.5", "--grid-ms"),
        ("1e307", None, None),  # grid_ms * fs overflows: still the one window t*
        ("100", "0", "--t-star-s"),
        ("100", "0.001", "--t-star-s"),  # under one sample at 120 Hz
        ("100", "1.1", "--t-star-s"),  # beyond the 1.05 s trials
        ("100", "inf", "--t-star-s"),
        ("100", "1e307", "--t-star-s"),  # t_star_s * fs overflows
    ])
    def test_commands_share_one_grid_rule(self, tiny_store, tmp_path, capsys, deadline,
                                          grid_ms, t_star_s, named):
        flags = ["--grid-ms", grid_ms] + (["--t-star-s", t_star_s] if t_star_s else [])
        codes = {}
        for command in sorted(self.COMMANDS):
            extra = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a
                     for a in self.COMMANDS[command]]
            with deadline(60):
                codes[command], captured = run(
                    [command, "--store", str(tiny_store), *flags, *extra], capsys)
            if named:
                assert named in captured.err, (command, captured.err)
        assert codes == dict.fromkeys(self.COMMANDS, 2 if named else 0)

    def test_sub_sample_step_scores_every_sample(self, tiny_store, tmp_path, deadline):
        out = tmp_path / "model.json"
        with deadline(60):
            assert main(["calibrate", "--store", str(tiny_store), "--grid-ms", "1e-9",
                         "--out-model", str(out)]) == 0
        model = deserialize_policy(json.loads(out.read_text()))
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

    def test_folds_past_the_trial_count_are_leave_one_out(self, tiny_store, tmp_path, deadline):
        rows = []
        for folds in ("24", "1000000"):  # the store holds 6 x 4 trials
            out = tmp_path / f"folds{folds}.csv"
            with deadline(10):
                assert main(["evaluate", "--store", str(tiny_store), "--method", "bds",
                             "--hyperparam", "1.0", "--folds", folds,
                             "--out-csv", str(out)]) == 0
            rows.append(out.read_bytes())
        assert rows[0] == rows[1]

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


    @pytest.mark.parametrize("command", [
        ["evaluate", "--method", "margin", "--hyperparam", "0.9"],
        ["evaluate", "--method", "beta", "--similarity", "correlation", "--hyperparam", "0.9"],
        ["calibrate"],
    ])
    def test_non_finite_trial_exits_1_naming_it(self, tiny_store, tmp_path, capsys, command):
        meta, trials = load_store(tiny_store)
        trials[9].data[1, 40] = np.nan
        write_store(tiny_store, trials, meta.n_classes, codebook=meta.codebook)
        out = (["--out-model", str(tmp_path / "m.json")] if command == ["calibrate"]
               else ["--out-csv", str(tmp_path / "r.csv")])
        code, captured = run([command[0], "--store", str(tiny_store), *command[1:], *out],
                             capsys)
        assert code == 1
        assert f"trial 9 (label {trials[9].label}) contains non-finite values" in captured.err


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


class TestResultsFileHeader:
    @pytest.mark.parametrize("command", [
        ["evaluate", "--method", "fixed", "--hyperparam", "0.5"],
        ["sweep", "--method", "fixed", "--hyperparam-list", "0.5,1.0"],
    ])
    def test_other_header_exits_2_and_appends_nothing(self, tiny_store, tmp_path, capsys,
                                                      command):
        out = tmp_path / "other.csv"
        out.write_bytes(b"subject,method,accuracy\r\ns01,bds,0.5\r\n")
        code, captured = run(
            command + ["--store", str(tiny_store), "--folds", "2", "--out-csv", str(out)],
            capsys,
        )
        assert code == 2
        assert f"error: {out}: header 'subject,method,accuracy'" in captured.err
        assert "appended" not in captured.out
        assert out.read_bytes() == b"subject,method,accuracy\r\ns01,bds,0.5\r\n"

    def test_empty_file_gets_the_header(self, tiny_store, tmp_path):
        out = tmp_path / "empty.csv"
        out.write_bytes(b"")
        for _ in range(2):
            assert main(["evaluate", "--store", str(tiny_store), "--method", "fixed",
                         "--hyperparam", "0.5", "--folds", "2", "--out-csv", str(out)]) == 0
        with open(out, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert [r["method"] for r in records] == ["fixed", "fixed"]


class TestHyperparamDomains:
    """A hyperparameter outside its method's domain, or not finite, is a
    usage error that names the flag and the value before any fold is fitted."""

    @pytest.mark.parametrize("command, method, similarity, value", [
        ("sweep", "bds", "inner", "0"),
        ("sweep", "beta", "correlation", "1.5"),
        ("evaluate", "bds", "inner", "nan"),
        ("sweep", "margin", "inner", "nan"),
        ("evaluate", "fixed", "inner", "nan"),
        ("evaluate", "fixed", "inner", "-1"),
    ])
    def test_exits_2_and_fits_nothing(self, tiny_store, tmp_path, capsys, monkeypatch,
                                      command, method, similarity, value):
        def no_fit(*args, **kwargs):
            raise AssertionError("evaluated an out-of-domain hyperparameter")

        monkeypatch.setattr("dynastop.cli.evaluate_store", no_fit)
        flag = "--hyperparam" if command == "evaluate" else "--hyperparam-list"
        out = tmp_path / "r.csv"
        code, captured = run(
            [command, "--store", str(tiny_store), "--method", method,
             "--similarity", similarity, flag, value, "--out-csv", str(out)],
            capsys,
        )
        assert code == 2, captured.err
        assert f"{flag}: " in captured.err
        assert f"got {value}" in captured.err
        assert not out.exists()


class TestOutOfDomainFlags:
    """A numeric flag outside its domain, or not finite, is a usage error that
    names the flag or field and fits or writes nothing."""

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_zeta(self, tiny_store, tmp_path, capsys, monkeypatch, value):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted a decoder for an out-of-domain --zeta")

        monkeypatch.setattr("dynastop.cli.fit_cca", no_fit)
        out = tmp_path / "m.json"
        code, captured = run(["calibrate", "--store", str(tiny_store), "--zeta", value,
                              "--out-model", str(out)], capsys)
        assert code == 2, captured.err
        assert "--zeta: " in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_overhead(self, tiny_store, tmp_path, capsys, monkeypatch, command, value):
        def no_fit(*args, **kwargs):
            raise AssertionError("evaluated with an out-of-domain --overhead-s")

        monkeypatch.setattr("dynastop.cli.evaluate_store", no_fit)
        flag = "--hyperparam" if command == "evaluate" else "--hyperparam-list"
        out = tmp_path / "r.csv"
        code, captured = run([command, "--store", str(tiny_store), "--method", "bds", flag,
                              "1", "--overhead-s", value, "--out-csv", str(out)], capsys)
        assert code == 2, captured.err
        assert "overhead_s" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--sigma", "nan", "sigma"),
        ("--sigma", "inf", "sigma"),
        ("--sigma", "0", "sigma"),
        ("--alpha", "nan", "alpha"),
        ("--alpha", "-inf", "alpha"),
        ("--trials-per-class", "0", "trials_per_class"),
        ("--config", '{"trial_seconds": Infinity}', "trial_seconds"),
        ("--config", '{"trial_seconds": -1.05}', "trial_seconds"),
        ("--config", '{"fs": NaN}', "fs"),
        ("--config", '{"fs": 0}', "fs"),
        ("--config", '{"n_classes": 0}', "n_classes"),
        ("--config", '{"n_classes": 1}', "n_classes"),
        ("--config", '{"n_channels": 0}', "n_channels"),
        ("--seed", "-1", "seed"),
        ("--config", '{"seed": -1}', "seed"),
        ("--config", '{"fs": 1}', "fs"),
        # Sizes past the addressable: an infinite sample count, and a trial
        # of more bytes than an array may hold.
        ("--config", '{"fs": 1e300, "trial_seconds": 1e300}', "trial_seconds"),
        ("--config", '{"fs": 1e300}', "trial_seconds"),
        ("--config", '{"trial_seconds": 1e300}', "trial_seconds"),
    ])
    def test_simulate(self, tmp_path, capsys, flag, value, named):
        if flag == "--config":
            config = tmp_path / "sim.json"
            config.write_text(value)
            value = str(config)
        out = tmp_path / "store"
        code, captured = run(["simulate", "--out", str(out), f"{flag}={value}"], capsys)
        assert code == 2, captured.err
        assert f"{named} must be" in captured.err
        assert not out.exists()


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

    @pytest.mark.parametrize("column, cell", [
        ("mean_stop_s", "nan"), ("accuracy", "inf"), ("accuracy", "-inf"),
        ("mean_stop_s", "x"),
    ])
    def test_non_finite_cell_exits_2_naming_column(self, tmp_path, capsys, column, cell):
        header = ["subject", "method", "hyperparam", "similarity", "accuracy", "mean_stop_s"]
        good = ["mean", "bds", "1.0", "inner", "0.8", "0.9"]
        bad = dict(zip(header, good), hyperparam="10.0", **{column: cell})
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("".join(",".join(row) + "\r\n"
                                    for row in (header, good, [bad[h] for h in header])))
        code, captured = run(
            ["report", "--csv", str(csv_path), "--x", "mean_stop_s",
             "--y", "accuracy", "--out-svg", str(tmp_path / "p.svg")],
            capsys,
        )
        assert code == 2
        assert f"column '{column}'" in captured.err
        assert not (tmp_path / "p.svg").exists()

    def test_markup_in_labels_is_escaped(self, tmp_path, capsys):
        csv_path = tmp_path / "markup.csv"
        csv_path.write_text("method,similarity,mean_stop_s,accuracy\r\n"
                            "a<b&c,inner,0.5,0.8\r\na<b&c,inner,0.9,0.9\r\n")
        out = tmp_path / "p.svg"
        code, captured = run(["report", "--csv", str(csv_path), "--x", "mean_stop_s",
                              "--y", "accuracy", "--out-svg", str(out)], capsys)
        assert code == 0, captured.err
        texts = [node.firstChild.data
                 for node in xml.dom.minidom.parse(str(out)).getElementsByTagName("text")]
        assert texts[-1] == "a<b&c/inner"
        assert "mean_stop_s" in texts and "accuracy" in texts

    @pytest.mark.parametrize("content, message", [
        (b"method,mean_stop_s,accuracy\r\n\xff,0.5,0.8\r\n", "--csv: {} is not UTF-8 text"),
        (b"method,mean_stop_s,accuracy\r\na,0.5," + b"9" * 200_000 + b"\r\n",
         "--csv: {} is not a CSV file: field larger than field limit"),
        ("directory", "--csv: cannot read {}: Is a directory"),
        (None, "--csv: cannot read {}: No such file or directory"),
    ], ids=["not-utf8", "huge-field", "directory", "missing"])
    def test_unreadable_csv_exits_2_naming_it(self, tmp_path, capsys, content, message):
        csv_path = tmp_path / "results.csv"
        if content == "directory":
            csv_path.mkdir()
        elif content is not None:
            csv_path.write_bytes(content)
        out = tmp_path / "p.svg"
        code, captured = run(["report", "--csv", str(csv_path), "--x", "mean_stop_s",
                              "--y", "accuracy", "--out-svg", str(out)], capsys)
        assert code == 2, captured.err
        assert message.format(csv_path) in captured.err
        assert not out.exists()

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
