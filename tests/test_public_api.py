import ast
import importlib
import pathlib
import types

import pytest

import dynastop

# What the CLI, the demos and the benchmark call; the surface changes only
# when this list does.
PUBLIC_API = {
    # baselines
    "DecodingCurve", "apply_policy", "beta_cdf", "decoding_curve", "deserialize_policy",
    "serialize_policy", "static_max_accuracy", "static_max_itr",
    # bayes_stop
    "StopOutcome", "StoppingModel", "WindowParams", "calibrate", "decision_boundary",
    "estimate_scaling_and_noise", "run_trial",
    # codes
    "Codebook", "make_gold_codes", "make_m_sequence", "modulate",
    "periodic_crosscorrelation", "read_codebook", "select_subset", "structure_matrices",
    "write_codebook",
    # decoding
    "DecoderModel", "Trial", "TrialStatistics", "fit_cca", "predict_templates",
    # evaluation
    "ConfigError", "ExperimentConfig", "check_method", "evaluate_store", "window_grid",
    # metrics
    "DecisionCounts", "MetricsRow", "f_score", "itr", "precision", "recall",
    "specificity",
    # simulate
    "SimConfig", "default_response", "make_dataset", "resolve_config",
    # store
    "StoreError", "StoreMeta", "load_store", "read_store", "write_results_csv", "write_store",
}


def test_public_names_are_the_pinned_api():
    names = {name for name, value in vars(dynastop).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC_API


def traced_layers():
    """SETUP_LAYERS + PASS_LAYERS of the bench script, read from its source."""
    source = pathlib.Path(__file__).parents[1] / "perfbench" / "run.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    layers = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id.endswith("_LAYERS")}
    return layers["SETUP_LAYERS"] + layers["PASS_LAYERS"]


@pytest.mark.parametrize("layer", traced_layers())
def test_bench_traced_layers_resolve(layer):
    # The bench wraps each layer by name; a name the package no longer has
    # would crash its traced pass.
    module_name, _, qualname = layer.partition(".")
    owner = importlib.import_module(f"dynastop.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
