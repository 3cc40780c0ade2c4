"""dynastop: risk-controlled dynamic stopping for evoked-response BCI decoding.

Stimulus code generation, reconvolution-CCA template decoding, a Bayesian
stopping controller with a tunable false-positive/false-negative cost ratio,
baseline stopping policies, a forward-model simulator, and a cross-validated
evaluation harness.
"""

__version__ = "0.1.0"

from .baselines import (
    BetaPolicy,
    BoundaryPolicy,
    DecodingCurve,
    FixedLengthPolicy,
    MarginPolicy,
    MarginTable,
    StoppingPolicy,
    apply_policy,
    beta_cdf,
    decoding_curve,
    deserialize_policy,
    fit_margin,
    serialize_policy,
    static_max_accuracy,
    static_max_itr,
    static_targeted_accuracy,
    stratified_folds,
)
from .bayes_stop import (
    StopOutcome,
    StoppingModel,
    WindowParams,
    calibrate,
    decision_boundary,
    estimate_scaling_and_noise,
    log_likelihood_ratio,
    run_trial,
    window_params,
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
    ScoreVector,
    Trial,
    TrialStatistics,
    classify,
    correlation_score,
    fit_cca,
    predict_templates,
    score,
    score_trace,
)
from .evaluation import check_method, evaluate_store, window_grid
from .metrics import (
    DecisionCounts,
    MetricsRow,
    count_decisions,
    f_score,
    itr,
    metric_flags,
    precision,
    recall,
    specificity,
    spm,
)
from .simulate import (
    SimConfig,
    default_response,
    effective_noise_std,
    make_dataset,
    oracle_scores,
    resolve_config,
)
from .store import (
    ExperimentConfig,
    StoreError,
    StoreMeta,
    load_store,
    read_store,
    write_results_csv,
    write_store,
)
