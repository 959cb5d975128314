"""Optimal timing of k insurance claims over a T-year loss horizon.

The package splits into distribution kernels, a policy-agnostic stopping
engine, closed-form (or Monte Carlo) gain models for the three policy
structures, a Gamma-Laguerre density-expansion fallback, and a simulation
harness for rule-comparison studies.
"""

# set before the submodules load: run reports record it
__version__ = "0.1.0"

from .distributions import (
    ConfigError,
    FrequencyModel,
    IGParams,
    NumericalError,
    ig_cdf,
    ig_partial_expectation,
    ig_pdf,
    ig_sf,
    ig_sum_params,
    poisson_m_max,
    poisson_pmf,
    sample_ig,
)
from .expansion import (
    ExpansionFit,
    MomentSet,
    PositivityCurve,
    approx_expected_min,
    approx_pdf,
    constrained_refit,
    expansion_local_gain_model,
    fit_expansion,
    gamma_local_model,
    laguerre,
    positivity_boundary,
    positivity_check,
)
from .experiments import EXPERIMENT_PRESETS, preset_config, run_experiment
from .policies import (
    ALPWeights,
    EmpiricalGainSample,
    ILPAuxModel,
    LDAModel,
    PolicySpec,
    alp_global_model,
    alp_local_model,
    gain_model_from_config,
    ilp_global_model,
    ilp_global_sample,
    ilp_local_model,
    lda_from_config,
    mstar_pmf,
    pap_global_model,
    pap_local_model,
    policy_from_config,
)
from .simulation import (
    ComparisonRule,
    RuleReport,
    ScenarioBatch,
    compare_rules,
    exceedance_probability,
    price_proxy,
    reference_lines,
    simulate_aux_local_batch,
    simulate_batch,
    stopping_time_distribution,
)
from .stopping import (
    GLOBAL,
    LOCAL,
    Decision,
    GainModel,
    Horizon,
    StoppingResult,
    StoppingState,
    StopLossGain,
    ValueTable,
    compute_value_table,
    decide,
    lognormal_local_model,
    run_rule,
    thresholds,
)
