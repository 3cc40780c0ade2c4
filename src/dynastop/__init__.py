"""dynastop: risk-controlled dynamic stopping for evoked-response BCI decoding.

Stimulus code generation, reconvolution-CCA template decoding, a Bayesian
stopping controller with a tunable false-positive/false-negative cost ratio,
baseline stopping policies, a forward-model simulator, and a cross-validated
evaluation harness.
"""

__version__ = "0.1.0"

from .baselines import (
    DecodingCurve,
    apply_policy,
    beta_cdf,
    decoding_curve,
    deserialize_policy,
    serialize_policy,
    static_max_accuracy,
    static_max_itr,
)
from .bayes_stop import (
    StopOutcome,
    StoppingModel,
    WindowParams,
    calibrate,
    decision_boundary,
    estimate_scaling_and_noise,
    run_trial,
)
from .codes import (
    Codebook,
    make_gold_codes,
    make_m_sequence,
    modulate,
    periodic_crosscorrelation,
    read_codebook,
    select_subset,
    structure_matrices,
    write_codebook,
)
from .decoding import (
    DecoderModel,
    Trial,
    TrialStatistics,
    fit_cca,
    predict_templates,
)
from .evaluation import ConfigError, ExperimentConfig, check_method, evaluate_store, window_grid
from .metrics import (
    DecisionCounts,
    MetricsRow,
    f_score,
    itr,
    precision,
    recall,
    specificity,
)
from .simulate import SimConfig, default_response, make_dataset, resolve_config
from .store import (
    StoreError,
    StoreMeta,
    load_store,
    read_store,
    write_results_csv,
    write_store,
)
