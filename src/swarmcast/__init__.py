"""Daily time-series forecasting with a from-scratch conv-LSTM network,
swarm-based hyperparameter search, and rank-based method comparison."""

__version__ = "0.1.0"

from .benchmarks import BENCHMARKS, ackley, rastrigin, rosenbrock, sphere
from .evaluation import (
    ComparisonResult,
    MetricReport,
    RankMatrix,
    compare_methods,
    friedman_statistic,
    mae,
    mse,
    nemenyi_cd,
    r_squared,
    rank_methods,
)
from .layers import conv_output_size
from .metaheuristics import (
    Agent,
    OptimizationTrace,
    OptimizerParams,
    SearchBounds,
    clamp_to_bounds,
    ga_optimize,
    gwo_optimize,
    gwo_step,
    rs_gwo_woa,
    woa_optimize,
    woa_step,
)
from .network import (
    NetworkConfig,
    TrainedNetwork,
    TrainingConfig,
    compute_gradients,
    initialize_network,
    iterative_forecast,
    load_model,
    network_forward,
    persistence_predictions,
    predict_windows,
    save_model,
    train,
)
from .timeseries import (
    ScalingParams,
    WindowedSamples,
    impute_missing,
    inverse_scale,
    load_csv,
    make_windows,
    minmax_scale,
    split_index,
    split_windows,
)
from .tuning import (
    DEFAULT_SPACE,
    EXTENDED_SPACE,
    HyperparamSpace,
    TuningResult,
    cell_configs,
    decode_position,
    enumerate_assignments,
    fitness,
    tune,
    tune_series,
)
