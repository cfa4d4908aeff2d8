"""Linear-Gaussian daily price forecasting on principal subspaces.

The pipeline cuts a price series into overlapping windows, normalizes and
centers them, and fits three linear forecasters for the unseen tail of each
window: the unconditional mean, the full conditional mean, and a
reduced-dimension conditional mean filtered through the leading principal
subspace of the sample covariance (selected under a condition-number cap).
"""

from .backtest import (
    OBJECTIVE_THEORETICAL,
    OBJECTIVE_VALIDATION,
    BacktestReport,
    CellReport,
    LCurvePoint,
    MethodResult,
    SweepConfig,
    build_l_curve,
    emit_report,
    run_backtest,
    select_L,
    validation_scores,
)
from .covariance_model import CovarianceModel, dump_covariance_csv, empirical_covariance
from .data_pipeline import DataMatrix, PriceSeries, centered_windows, denormalize_forecast, load_csv
from .errors import (
    DataError,
    DomainError,
    ForecastError,
    IllConditionedError,
    InsufficientDataError,
    NoFeasibleSubspaceError,
    NumericalError,
    ParseError,
)
from .estimators import (
    METHOD_GB,
    METHOD_RD,
    METHOD_UNC,
    METHODS,
    Estimator,
    SubspaceLadder,
    fit_gauss_bayes,
    fit_unconditional,
    predict,
)
from .metrics import (
    directional_statistic,
    empirical_mse,
    squared_bias,
    theoretical_mse,
    volatility,
)
from .synthetic_oracle import (
    GaussianSpec,
    McEstimate,
    gbm_prices,
    geometric_spectrum,
    load_gaussian_spec,
    mc_bias,
    mc_mse,
    mc_squared_errors,
    mc_squared_errors_and_bias,
    random_covariance,
    sample,
    smooth_prices,
)

__version__ = "0.1.0"
