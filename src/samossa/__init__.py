"""Two-stage decomposition and forecasting for multivariate time series.

Stage 1 estimates the deterministic (trend/seasonal) component of a panel
by hard singular value thresholding of its stacked Page matrix; stage 2
fits a per-series autoregressive model to the residuals. Forecasts combine
a lag regression for the smooth component with the AR one-step conditional
mean.
"""

from .ar import (
    ArDiagnostics,
    ArModel,
    characteristic_roots,
    companion_matrix,
    diagnostics,
    fit_ar,
    fit_ar_rows,
    forecast_ar,
)
from .errors import (
    ConfigError,
    DegenerateRootsError,
    FitError,
    IngestError,
    MetricError,
    NonStationaryError,
    ParseError,
    PersistError,
    RankError,
    SamossaError,
    SearchError,
    ShapeError,
    SpecError,
    SplitError,
    StateError,
)
from .evaluation import (
    GeneratorTruth,
    MetricReport,
    ar_identification_experiment,
    default_grid,
    figure2_experiment,
    for_err,
    forecast_benchmark_run,
    grid_search,
    r_squared,
    rolling_eval,
)
from .linear_forecaster import BetaModel, fit_beta, forecast_f
from .lowrank import RankRule, SvdResult, hsvt, select_rank, svd
from .pagemat import StackedPage, default_L, stack, unstack
from .panel import SplitSpec, TimePanel, load_csv, save_csv, split
from .pipeline import (
    SamossaConfig,
    SamossaModel,
    fit,
    forecast_recursive,
    forecast_step,
    load_model,
    observe,
    roll,
    save_model,
)
from .ssa_estimator import Decomposition, decompose, est_err
from .synth import (
    GeneratorSpec,
    SynthResult,
    ar_from_lambda_star,
    estimation_spec,
    forecasting_spec,
    generate,
)

__version__ = "0.1.0"
