"""Time-varying covariate effects in stratified Cox models.

Coefficient curves beta_p(t) are expanded in a B-spline basis and the
resulting spline coefficients maximized against the stratified partial
likelihood, by default with a block-selected ascent that touches one
covariate's coefficient block per iteration.  Wald tests of effect
constancy, pointwise confidence bands, cross-validated selection of the
basis dimension, and a simulation harness round out the package.
"""

# numpy loads these two on first use: np.unique reaches numpy.ma, and
# simulation, folds and subsamples draw from numpy.random.  Loading them with
# the package keeps one-time module objects out of a command's allocations,
# so the first fit in a process allocates what later ones do.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401
from ._version import __version__
from .data import (
    PreparedData,
    RiskIndex,
    StandardizationTransform,
    SurvivalDataset,
    build_risk_index,
    csv_shape,
    load_csv,
    prepare,
    standardize,
    write_csv,
)
from .errors import (
    AscentViolationError,
    CapacityError,
    ConditioningError,
    DegenerateCovariateError,
    DomainError,
    FoldConstructionError,
    InvalidSpecError,
    KnotCollisionError,
    NumericOverflowError,
    ParseError,
    RankDeficiencyError,
    SchemaError,
    TvcoxError,
    UsageError,
)
from .inference import (
    CrossValidationReport,
    CurveEstimate,
    WaldTest,
    chi_square_upper_tail,
    contrast_matrix,
    covariance_from_hessian,
    covariance_from_residuals,
    cross_validate_K,
    curve_with_bands,
    test_all_covariates,
    wald_test_empirical,
    wald_test_observed,
)
from .likelihood import (
    LikelihoodReport,
    ScoreResiduals,
    evaluate_report,
    full_hessian,
    loglik,
    score_residuals,
)
from .optimizers import (
    FitResult,
    MmsaConfig,
    coordinate_ascent_fit,
    mmsa_block_quantities,
    mmsa_fit,
    newton_fit,
    verify_ascent_condition,
)
from .simulate import (
    METRIC_GRID,
    MetricsReport,
    ScenarioSpec,
    draw_covariates,
    draw_survival_times,
    generate,
    metrics,
    true_beta,
    true_beta_matrix,
)
from .splines import (
    BasisMatrix,
    SplineSpec,
    evaluate,
    evaluate_batch,
    make_spec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
