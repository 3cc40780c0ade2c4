import types

import dynastop

# What the CLI, the demos and the benchmark call; the surface changes only
# when this list does.
PUBLIC_API = {
    # baselines
    "DecodingCurve", "FixedLengthPolicy", "MarginPolicy", "apply_policy", "beta_cdf",
    "decoding_curve", "deserialize_policy", "fit_margin", "serialize_policy",
    "static_max_accuracy", "static_max_itr",
    # bayes_stop
    "StopOutcome", "StoppingModel", "WindowParams", "calibrate", "decision_boundary",
    "estimate_scaling_and_noise", "run_trial", "window_params",
    # codes
    "Codebook", "make_gold_codes", "make_m_sequence", "modulate",
    "periodic_crosscorrelation", "read_codebook", "select_subset", "structure_matrices",
    "write_codebook",
    # decoding
    "DecoderModel", "ScoreVector", "Trial", "TrialStatistics", "correlation_score",
    "fit_cca", "predict_templates", "score", "score_trace",
    # evaluation
    "ConfigError", "ExperimentConfig", "check_method", "evaluate_store", "window_grid",
    # metrics
    "DecisionCounts", "MetricsRow", "count_decisions", "f_score", "itr", "precision",
    "recall", "specificity",
    # simulate
    "SimConfig", "default_response", "make_dataset", "resolve_config",
    # store
    "StoreError", "StoreMeta", "load_store", "read_store", "write_results_csv", "write_store",
}


def test_public_names_are_the_pinned_api():
    names = {name for name, value in vars(dynastop).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_API
