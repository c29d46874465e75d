"""Daily time-series forecasting with a from-scratch conv-LSTM network,
swarm-based hyperparameter search, and rank-based method comparison."""

__version__ = "0.1.0"
