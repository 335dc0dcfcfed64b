"""Spatially filtered functional regression.

Estimators for scalar responses with spatial dependence and functional
predictors: a maximum-likelihood linear model on functional principal
component scores, a functional network on spline features, and the
two-stage combination that first estimates the spatial dependence
parameter and then trains the network on filtered pre-activations; the
filter is linear and fixed, so it is applied once to the network inputs.
"""

from .basis import (
    BSplineBasis,
    Grid,
    evaluate_basis,
    functional_inner_products,
    make_bspline_basis,
    trapezoid_weights,
)
from .evaluation import (
    CandidateConfig,
    MetricReport,
    Metrics,
    StudyTable,
    TaylorStats,
    TuneGrid,
    compute_metrics,
    kfold_tune,
    monte_carlo_study,
    taylor_stats,
)
from .fdnn import (
    NetworkArchitecture,
    NetworkParameters,
    SpatialContext,
    TrainConfig,
    TrainingTrace,
    forward,
    gradients,
    init_parameters,
    load_parameters,
    loss,
    predict,
    save_parameters,
    train,
)
from .fpca import FpcaModel, fit_fpca, project_scores, reconstruct
from .pipeline import (
    FittedModel,
    RegressionDataset,
    Standardization,
    fit_fdnn_model,
    fit_ml_baseline,
    fit_sfdnn,
    load_model,
    predict_model,
    save_model,
)
from .simgen import (
    ScenarioConfig,
    TrueModel,
    generate_scenario_dataset,
    kl_basis_matrix,
    kl_score_variances,
    true_coefficient_curves,
)
from .spatial import (
    RhoEstimate,
    SpatialWeightMatrix,
    apply_spatial_filter,
    build_inverse_distance_weights,
    build_knn_bisquare_weights,
    estimate_rho_ml,
    great_circle_km,
    load_weights,
    local_morans_i,
    log_det_filter,
    save_weights,
)

__version__ = "0.1.0"
