import dataclasses

import numpy as np
import pytest

from dynastop import baselines, evaluation, metrics
from dynastop.baselines import (
    decoding_curve,
    fit_margin,
    static_max_accuracy,
    static_max_itr,
    static_targeted_accuracy,
    stratified_folds,
)
from dynastop.bayes_stop import calibrate
from dynastop.decoding import (
    TrialStatistics,
    _inverse_sqrt,
    fit_cca,
    score_trace,
    score_traces,
)
from dynastop.evaluation import (
    ConfigError,
    ExperimentConfig,
    check_method,
    evaluate_store,
    window_grid,
)
from dynastop.metrics import count_decisions
from oracles import apply_policy_loop, pooled


def fold_rules_loop(config, hyperparams, stats, trials, train_idx, model, grid):
    """Reference rules of one fold: each hyperparameter's rule kind and
    levels for apply_policy_loop, from the fold's training split alone: the
    boundaries of a calibration at each cost ratio, fit_margin's thresholds,
    the window nearest a fixed length, or a static selector's window."""
    train = [trials[i] for i in train_idx]
    if config.method == "beta":
        return {h: ("beta", h) for h in hyperparams}
    if config.method == "bds":
        return {h: ("bds", calibrate(model, train, grid, zeta=h).eta) for h in hyperparams}
    if config.method == "margin":
        traces = score_traces(model, train, grid, config.similarity)
        return {h: ("margin", fit_margin(traces, [t.label for t in train], h))
                for h in hyperparams}
    if config.method == "fixed":
        seconds = grid / train[0].fs
        return {h: ("fixed", int(np.argmin(np.abs(seconds - h)))) for h in hyperparams}
    curve = decoding_curve(lambda sets: stats.fit_many([train_idx[s] for s in sets]),
                           train, grid, model.templates.shape[0], config.similarity)
    select = {"static_targeted_accuracy": static_targeted_accuracy,
              "static_max_accuracy": lambda c, _: static_max_accuracy(c),
              "static_max_itr": lambda c, _: static_max_itr(c)}[config.method]
    return {h: ("fixed", select(curve, h)) for h in hyperparams}


def evaluate_store_loop(trials, structures, config, subject="s01"):
    """Reference evaluate_store: every held-out trial run window by window
    through each hyperparameter's rule, its decisions counted one at a time."""
    hyperparams = list(dict.fromkeys(config.hyperparams)) or [None]
    fs = trials[0].fs
    t_star_s = config.t_star_s
    if t_star_s is None:
        t_star_s = trials[0].data.shape[1] / fs
    grid = window_grid(config.grid_ms, t_star_s, fs)
    labels = np.array([t.label for t in trials])
    hits = {h: [] for h in hyperparams}
    stop_seconds = {h: [] for h in hyperparams}
    counts = {h: [] for h in hyperparams}
    stats = TrialStatistics(trials, structures)
    for fold in stratified_folds(labels, config.folds):
        if fold.size == 0:
            continue
        mask = np.ones(len(trials), dtype=bool)
        mask[fold] = False
        train_idx = np.flatnonzero(mask)
        model = stats.fit(train_idx)
        # The oracle's beta rule computes every window afresh, sharing no table.
        rules = fold_rules_loop(config, hyperparams, stats, trials, train_idx, model, grid)
        traces = score_traces(model, [trials[i] for i in fold], grid, config.similarity)
        argmax_correct = np.argmax(traces, axis=2) == labels[fold, None]
        for trace, label, correct in zip(traces, labels[fold], argmax_correct):
            for h in hyperparams:
                outcome = apply_policy_loop(*rules[h], trace)
                hits[h].append(outcome.label == label)
                stop_seconds[h].append(grid[outcome.stopped_at] / fs)
                counts[h].append(count_decisions(outcome, correct))

    rows = []
    for h in hyperparams:
        accuracy = float(np.mean(hits[h]))
        mean_stop = float(np.mean(stop_seconds[h]))
        c = pooled(counts[h])
        rows.append(metrics.MetricsRow(
            subject=subject, method=config.method, hyperparam=h,
            similarity=config.similarity, accuracy=accuracy, mean_stop_s=mean_stop,
            itr=metrics.itr(accuracy, len(structures), mean_stop + config.overhead_s),
            spm=metrics.spm(mean_stop, config.overhead_s),
            precision=metrics.precision(c), recall=metrics.recall(c),
            specificity=metrics.specificity(c), f_score=metrics.f_score(c),
        ))
    return rows


class TestWindowGrid:
    def test_default_protocol_grid(self):
        grid = window_grid(100, 1.05, 120.0)
        assert grid.tolist() == [12, 24, 36, 48, 60, 72, 84, 96, 108, 120, 126]

    def test_t_star_on_step_boundary(self):
        grid = window_grid(100, 1.0, 120.0)
        assert grid.tolist() == [12, 24, 36, 48, 60, 72, 84, 96, 108, 120]

    def test_strictly_increasing_and_ends_at_t_star(self):
        for step, t_star, fs in [(50, 0.8, 128.0), (130, 2.0, 100.0), (100, 0.1, 120.0)]:
            grid = window_grid(step, t_star, fs)
            assert np.all(np.diff(grid) > 0)
            assert grid[-1] == int(round(t_star * fs))

    def test_rejects_sub_sample_t_star(self):
        with pytest.raises(ValueError):
            window_grid(100, 0.001, 120.0)

    def test_sub_sample_step_gives_every_sample(self, deadline):
        with deadline(10):
            np.testing.assert_array_equal(window_grid(1e-9, 1.05, 120), np.arange(1, 127))
            np.testing.assert_array_equal(window_grid(5, 1.05, 120), np.arange(1, 127))
            np.testing.assert_array_equal(window_grid(1000 / 120, 0.1, 120), np.arange(1, 13))

    @pytest.mark.parametrize("grid_ms, t_star_s, match", [
        (0.0, 1.05, "grid step"),
        (-5.0, 1.05, "grid step"),
        (float("nan"), 1.05, "grid step"),
        (float("inf"), 1.05, "grid step"),
        (100.0, float("nan"), "t_star"),
        (100.0, -1.0, "t_star"),
        (100.0, 1e307, "t_star"),
    ])
    def test_rejects_bad_step_or_length(self, deadline, grid_ms, t_star_s, match):
        with deadline(10), pytest.raises(ValueError, match=match):
            window_grid(grid_ms, t_star_s, 120.0)


class TestExperimentConfig:
    def test_validation(self):
        # Each rejected setting raises ConfigError naming its field.
        for settings, field in [
            ({"folds": 1}, "folds"),
            # Not a bare TypeError from the fold split, naming no field.
            ({"folds": 3.0}, "folds"),
            ({"folds": 2.5}, "folds"),
            ({"folds": "5"}, "folds"),
            ({"folds": True}, "folds"),
            ({"grid_ms": 0}, "grid_ms"),
            ({"grid_ms": float("nan")}, "grid_ms"),
            ({"t_star_s": 0.0}, "t_star_s"),
            ({"t_star_s": float("inf")}, "t_star_s"),
            ({"similarity": "cosine"}, "similarity"),
            ({"similarity": "correlation"}, "similarity"),
            ({"method": "telepathy"}, "method"),
            ({"hyperparams": [0.0]}, "hyperparams"),
            ({"hyperparams": []}, "hyperparams"),
            ({"overhead_s": -1.0}, "overhead_s"),
            ({"overhead_s": float("nan")}, "overhead_s"),
            # Not a bare TypeError naming no field, and a bool is not a number.
            ({"hyperparams": ["1"]}, "hyperparams"),
            ({"hyperparams": [True]}, "hyperparams"),
            ({"hyperparams": [1.0, np.bool_(True)]}, "hyperparams"),
            ({"hyperparams": [None]}, "hyperparams"),
            ({"grid_ms": "100"}, "grid_ms"),
            ({"grid_ms": True}, "grid_ms"),
            ({"t_star_s": "1"}, "t_star_s"),
            ({"t_star_s": True}, "t_star_s"),
            ({"overhead_s": "0"}, "overhead_s"),
            ({"overhead_s": False}, "overhead_s"),
            ({"overhead_s": None}, "overhead_s"),
        ]:
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(**{"method": "bds", "hyperparams": [1.0], **settings})
            assert err.value.field == field, settings

    def test_accepts_numpy_integer_folds(self):
        assert ExperimentConfig(method="fixed", hyperparams=[0.3], folds=np.int64(3)).folds == 3

    def test_accepts_numpy_and_int_reals(self):
        config = ExperimentConfig(method="fixed", hyperparams=[np.float32(0.5), 1],
                                  grid_ms=np.int64(50), t_star_s=np.float64(0.5), overhead_s=0)
        assert config.hyperparams == (0.5, 1)

    def test_frozen_with_hyperparams_as_tuple(self):
        config = ExperimentConfig(method="fixed", hyperparams=[0.5, 0.2])
        assert config.hyperparams == (0.5, 0.2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.folds = 3

    @pytest.mark.parametrize("grid_ms, t_star_s, windows", [
        (100, 0.05, [6]),  # t* below one grid step: the one window t*
        (5000, None, [126]),  # a step beyond the trial: the one window t*
        (100, None, [12, 24, 36, 48, 60, 72, 84, 96, 108, 120, 126]),
        (1e307, 0.5, [60]),  # a step whose product with fs overflows to inf
    ])
    def test_decision_grid(self, grid_ms, t_star_s, windows):
        config = ExperimentConfig(method="fixed", hyperparams=[0.5], grid_ms=grid_ms,
                                  t_star_s=t_star_s)
        assert config.decision_grid(120.0, 126).tolist() == windows

    @pytest.mark.parametrize("t_star_s", [1.06, 1e7, 1e307])
    def test_t_star_past_the_trials_rejected_before_any_window(self, sim_setup, deadline,
                                                                t_star_s):
        # At 1e7 s the grid would hold 1.2e8 windows; 1e307 s overflows to inf.
        _, sim, trials = sim_setup
        config = ExperimentConfig(method="fixed", hyperparams=[0.5], t_star_s=t_star_s)
        with deadline(1), pytest.raises(ConfigError) as err:
            evaluate_store(trials, sim.structures, config)
        assert err.value.field == "t_star_s"


class TestCheckMethod:
    def test_beta_requires_correlation(self):
        with pytest.raises(ValueError, match="inner product"):
            check_method("beta", "inner", [0.5])
        check_method("beta", "correlation", [0.5])

    def test_bds_requires_inner(self):
        with pytest.raises(ValueError, match="correlation"):
            check_method("bds", "correlation", [1.0])
        check_method("bds", "inner", [1.0])

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            check_method("telepathy", "inner", [1.0])

    def test_hyperparameter_presence(self):
        with pytest.raises(ValueError, match="needs a hyperparameter"):
            check_method("margin", "inner", [])
        with pytest.raises(ValueError, match="takes no hyperparameter"):
            check_method("static_max_accuracy", "inner", [0.5])
        check_method("static_max_itr", "correlation", [])

    @pytest.mark.parametrize("method, similarity, inside, outside", [
        ("bds", "inner", [1e-8, 1.0, 1e8], [0.0, -1.0]),
        ("fixed", "inner", [0.1, 5.0], [0.0, -1.0]),
        ("margin", "inner", [0.0, 0.5, 1.0], [-0.1, 1.5]),
        ("beta", "correlation", [0.1, 0.99], [0.0, 1.0, 1.5]),
        ("static_targeted_accuracy", "inner", [0.5], [0.0, 1.0]),
    ])
    def test_hyperparameter_domain(self, method, similarity, inside, outside):
        check_method(method, similarity, inside)
        for value in outside + [float("nan"), float("inf"), -float("inf")]:
            with pytest.raises(ConfigError, match=method) as err:
                check_method(method, similarity, [*inside, value])
            assert err.value.field == "hyperparams"


@pytest.fixture(scope="module")
def sim_setup():
    from dynastop.simulate import SimConfig, make_dataset, resolve_config

    cfg = SimConfig(n_classes=6, n_channels=2, sigma=1.5, seed=21)
    sim = resolve_config(cfg)
    trials = make_dataset(cfg, 5, resolved=sim)
    return cfg, sim, trials


class TestEvaluateStore:
    def test_one_positive_decision_per_trial(self, sim_setup):
        # Each trial makes one positive decision, the argmax label at its stop,
        # so tp + fp is the trial count and tp the correct trials: precision
        # is the accuracy exactly.
        cfg, sim, trials = sim_setup
        for method, similarity, hyperparams in [
            ("bds", "inner", [1e-4, 1.0, 1e4]),
            ("margin", "inner", [0.5, 0.9]),
            ("margin", "correlation", [0.7]),
            ("beta", "correlation", [0.5, 0.9]),
            ("fixed", "inner", [0.3, 1.05]),
        ]:
            config = ExperimentConfig(method=method, similarity=similarity,
                                      hyperparams=hyperparams, folds=5)
            for row in evaluate_store(trials, sim.structures, config):
                assert row.subject == "s01"
                assert 0.0 <= row.accuracy <= 1.0
                # A mean of stops at t* = 126 / 120 s may round just above it.
                assert row.mean_stop_s <= 1.05 + 1e-12
                assert row.precision == row.accuracy, (method, row.hyperparam)

    def test_fixed_policy_matches_window_accuracy(self, sim_setup):
        cfg, sim, trials = sim_setup
        config = ExperimentConfig(method="fixed", hyperparams=[1.05], folds=5)
        row = evaluate_store(trials, sim.structures, config)[0]
        assert row.mean_stop_s == pytest.approx(1.05)
        # Full-window fixed stopping reproduces plain classification: every
        # decision is the positive one at the last window.
        labels = np.array([t.label for t in trials])
        folds = stratified_folds(labels, 5)
        grid = window_grid(100, 1.05, cfg.fs)
        hits = []
        for fold in folds:
            mask = np.ones(len(trials), dtype=bool)
            mask[fold] = False
            model = fit_cca([trials[i] for i in np.flatnonzero(mask)], sim.structures)
            for idx in fold:
                trace = score_trace(model, trials[idx], grid, "inner")
                hits.append(np.argmax(trace[-1]) == trials[idx].label)
        assert row.accuracy == pytest.approx(np.mean(hits))

    def test_margin_theta_zero_stops_first_window(self, sim_setup):
        cfg, sim, trials = sim_setup
        config = ExperimentConfig(
            method="margin", hyperparams=[1e-9], folds=5, similarity="inner"
        )
        row = evaluate_store(trials, sim.structures, config)[0]
        assert row.mean_stop_s <= 0.2

    def test_sweep_deduplicates_and_orders(self, sim_setup):
        cfg, sim, trials = sim_setup
        config = ExperimentConfig(method="bds", hyperparams=[1.0, 10.0, 1.0], folds=5)
        rows = evaluate_store(trials, sim.structures, config)
        assert [r.hyperparam for r in rows] == [1.0, 10.0]

    def test_deterministic(self, sim_setup):
        cfg, sim, trials = sim_setup
        config = ExperimentConfig(method="beta", similarity="correlation",
                                  hyperparams=[0.9], folds=5)
        a = evaluate_store(trials, sim.structures, config)[0]
        b = evaluate_store(trials, sim.structures, config)[0]
        assert a == b

    def test_decision_sum_consistency(self, sim_setup):
        # tp + fn across the set equals the number of argmax-correct windows
        # at or before each trial's stop.
        cfg, sim, trials = sim_setup
        labels = np.array([t.label for t in trials])
        folds = stratified_folds(labels, 5)
        grid = window_grid(100, 1.05, cfg.fs)
        thresholds = np.full(grid.size, 2.0)
        counts = []
        expected_positive_windows = 0
        for fold in folds:
            mask = np.ones(len(trials), dtype=bool)
            mask[fold] = False
            model = fit_cca([trials[i] for i in np.flatnonzero(mask)], sim.structures)
            for idx in fold:
                trace = score_trace(model, trials[idx], grid, "inner")
                correct = np.argmax(trace, axis=1) == trials[idx].label
                outcome = apply_policy_loop("margin", thresholds, trace)
                counts.append(count_decisions(outcome, correct))
                expected_positive_windows += int(
                    correct[: outcome.stopped_at + 1].sum()
                )
        total = pooled(counts)
        assert total.tp + total.fn == expected_positive_windows
        assert total.tp + total.fp == len(trials)

    @pytest.mark.parametrize("method, similarity, hyperparams", [
        ("bds", "inner", [1e-8, 1.0, 1e4, 1.0, 1e8]),
        ("margin", "inner", [0.0, 0.5, 0.9, 0.5, 1.0]),
        ("margin", "correlation", [0.3, 0.7]),
        ("beta", "correlation", [0.5, 0.9, 0.5, 0.999]),
        ("fixed", "inner", [0.05, 0.3, 1.05, 0.3, 9.0]),
        ("static_targeted_accuracy", "inner", [0.1, 0.5, 0.98, 0.1]),
        ("static_max_accuracy", "inner", []),
        ("static_max_itr", "correlation", []),
        ("beta", "correlation", [0.98, 0.9, 0.5, 0.1, 0.9]),
    ])
    @pytest.mark.parametrize("t_star_s", [None, 0.55])
    def test_rows_match_trial_loop(self, small_sim, method, similarity, hyperparams, t_star_s):
        cfg, sim, trials = small_sim
        config = ExperimentConfig(method=method, similarity=similarity,
                                  hyperparams=hyperparams, folds=5, t_star_s=t_star_s,
                                  overhead_s=0.5)
        assert (evaluate_store(trials, sim.structures, config)
                == evaluate_store_loop(trials, sim.structures, config))

    def test_beta_rows_match_trial_loop_at_paper_length(self):
        # The bench's θ list on the paper's 4.2 s trials (42 windows).
        from dynastop.simulate import SimConfig, make_dataset, resolve_config

        cfg = SimConfig(n_classes=36, n_channels=8, trial_seconds=4.2, sigma=3.0, seed=3)
        sim = resolve_config(cfg)
        trials = make_dataset(cfg, 3, resolved=sim)
        config = ExperimentConfig(method="beta", similarity="correlation",
                                  hyperparams=[0.1, 0.3, 0.5, 0.7, 0.9, 0.98], folds=5)
        assert (evaluate_store(trials, sim.structures, config)
                == evaluate_store_loop(trials, sim.structures, config))

    @pytest.mark.parametrize("method, hyperparams, shared", [
        ("bds", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3], "calibrate"),
        # The training traces: the held-out ones are scored in baselines.
        ("margin", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], "score_traces"),
    ])
    def test_sweep_builds_shared_product_once_per_fold(self, small_sim, monkeypatch, method,
                                                       hyperparams, shared):
        cfg, sim, trials = small_sim
        original = getattr(evaluation, shared)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, shared, counting)
        config = ExperimentConfig(method=method, hyperparams=hyperparams, folds=5)
        assert len(evaluate_store(trials, sim.structures, config)) == len(hyperparams)
        assert len(calls) == 5

    def test_margin_sweep_takes_each_gap_once_per_fold(self, small_sim, monkeypatch):
        # Per fold, one top-two gap of the training traces (the candidate
        # thresholds) and one of the held-out traces, which every θ reads.
        cfg, sim, trials = small_sim
        original = baselines._top_two_gap
        calls = []

        def counting(traces):
            calls.append(traces.shape[0])
            return original(traces)

        monkeypatch.setattr(baselines, "_top_two_gap", counting)
        monkeypatch.setattr(evaluation, "_top_two_gap", counting)
        for hyperparams in ([0.9], [0.1, 0.3, 0.5, 0.7, 0.9, 0.98]):
            calls.clear()
            config = ExperimentConfig(method="margin", hyperparams=hyperparams, folds=5)
            assert len(evaluate_store(trials, sim.structures, config)) == len(hyperparams)
            # 30 trials: five folds of 6, five training splits of 24.
            assert sorted(calls) == [6] * 5 + [24] * 5

    def test_beta_sweep_computes_each_window_once_per_fold(self, small_sim, monkeypatch):
        # Every θ stops at or before the largest θ's stop, so the sweep meets
        # no window that the largest θ alone does not.
        cfg, sim, trials = small_sim
        original = baselines.beta_cdf
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(baselines, "beta_cdf", counting)
        counts = []
        for hyperparams in ([0.1, 0.3, 0.5, 0.7, 0.9, 0.98], [0.98]):
            calls.clear()
            config = ExperimentConfig(method="beta", similarity="correlation",
                                      hyperparams=hyperparams, folds=5)
            evaluate_store(trials, sim.structures, config)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_beta_sweep_runs_each_trace_through_apply_policy(self, small_sim, monkeypatch):
        # One run of the strictest θ over the whole grid per held-out trace,
        # whatever the θ list: what a traced pass counts.
        cfg, sim, trials = small_sim
        original = evaluation.apply_policy
        runs = []

        def counting(policy, trace):
            runs.append((policy.target_accuracy, len(trace)))
            return original(policy, trace)

        monkeypatch.setattr(evaluation, "apply_policy", counting)
        config = ExperimentConfig(method="beta", similarity="correlation",
                                  hyperparams=[0.5, 0.99, 0.5, 0.9], folds=5, t_star_s=0.55)
        evaluate_store(trials, sim.structures, config)
        grid = config.decision_grid(cfg.fs, trials[0].data.shape[1])
        assert runs == [(0.99, grid.size)] * len(trials)

    def test_static_sweep_builds_one_curve_per_fold(self, small_sim, monkeypatch):
        # Five outer fits, and five inner fits for each fold's decoding curve,
        # each fit's channel covariance whitened as one matrix of a stack.
        cfg, sim, trials = small_sim
        names = []

        def counting(covs, name):
            names.extend([name] * len(covs))
            return _inverse_sqrt(covs, name)

        monkeypatch.setattr("dynastop.decoding._inverse_sqrt", counting)
        config = ExperimentConfig(method="static_targeted_accuracy",
                                  hyperparams=[0.2, 0.4, 0.6, 0.8], folds=5)
        assert len(evaluate_store(trials, sim.structures, config)) == 4
        assert names.count("channel") == 30

    @pytest.mark.parametrize("method, similarity, hyperparams", [
        ("bds", "inner", [0.1, 1.0]),
        ("margin", "inner", [0.5, 0.9]),
        ("beta", "correlation", [0.5, 0.9]),
        ("fixed", "inner", [0.3, 0.6]),
        ("static_targeted_accuracy", "inner", [0.5, 0.9]),
        ("static_max_accuracy", "inner", []),
        ("static_max_itr", "correlation", []),
    ])
    def test_one_fit_call_per_evaluation(self, small_sim, monkeypatch, method, similarity,
                                         hyperparams):
        # A static method's outer and inner decoders are fitted together too.
        cfg, sim, trials = small_sim
        original = TrialStatistics.fit_many
        sizes = []

        def counting(self, index_sets):
            sizes.append(len(index_sets))
            return original(self, index_sets)

        monkeypatch.setattr(TrialStatistics, "fit_many", counting)
        config = ExperimentConfig(method=method, similarity=similarity,
                                  hyperparams=hyperparams, folds=5)
        evaluate_store(trials, sim.structures, config)
        assert sizes == [30 if method.startswith("static") else 5]

    def test_rejects_empty(self, sim_setup):
        cfg, sim, trials = sim_setup
        config = ExperimentConfig(method="bds", hyperparams=[1.0])
        with pytest.raises(ValueError, match="no trials"):
            evaluate_store([], sim.structures, config)
