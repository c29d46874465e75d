import hashlib
import json
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fused import with_params
from oracles import adam_exact, adam_loop, conv1d_loop, lstm_step_scalar, maxpool1d_loop
from swarmcast.errors import ConfigError, DataError, NumericalError
from swarmcast.layers import GATES
from swarmcast.network import (
    PREDICT_BLOCK,
    NetworkConfig,
    _Adam,
    _FlatParams,
    _gradients,
    _StepBuffers,
    _window_cols,
    TrainingConfig,
    initialize_network,
    iterative_forecast,
    load_model,
    model_from_dict,
    model_to_dict,
    network_forward,
    persistence_predictions,
    pooled_length,
    predict_windows,
    save_model,
    train,
)
from swarmcast.timeseries import ScalingParams, WindowedSamples, inverse_scale, make_windows


def tiny_config(**overrides):
    base = dict(n_filters=2, kernel_size=3, pool_size=2, lstm_units=4,
                repeat_steps=3, n_features=1, horizon=1, seed=0)
    base.update(overrides)
    return NetworkConfig(**base)


def constant_samples(value_in=0.3, value_out=0.5, lookback=6, n=1):
    return WindowedSamples(
        inputs=np.full((n, lookback, 1), value_in),
        targets=np.full((n, 1, 1), value_out),
    )


class TestConfigs:
    def test_kernel_exceeding_lookback_rejected(self):
        with pytest.raises(ConfigError):
            initialize_network(tiny_config(kernel_size=8), lookback=7)

    def test_pool_emptying_output_rejected(self):
        # conv length 2 with pool 4 leaves nothing
        with pytest.raises(ConfigError):
            initialize_network(tiny_config(kernel_size=5, pool_size=4), lookback=6)

    @pytest.mark.parametrize("name", ["n_filters", "kernel_size", "pool_size", "lstm_units"])
    def test_nonpositive_size_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            tiny_config(**{name: 0})

    @pytest.mark.parametrize("name, value", [
        ("epochs", 0), ("seed", -1), ("seed", 2.5), ("seed", True),
        ("optimizer", "rmsprop"), ("optimizer", ["adam"]),
    ])
    def test_bad_training_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"training config: '{name}' must be"):
            TrainingConfig(**{name: value})

    @settings(max_examples=100)
    @given(
        st.integers(1, 4),      # n_filters
        st.integers(1, 6),      # kernel
        st.integers(1, 4),      # pool
        st.integers(6, 16),     # lookback
    )
    def test_flat_length_shape_algebra(self, n_filters, kernel, pool, lookback):
        config = tiny_config(n_filters=n_filters, kernel_size=kernel, pool_size=pool)
        pooled = pooled_length(lookback, kernel, pool)
        expected = pooled * n_filters
        if pooled < 1:
            with pytest.raises(ConfigError):
                initialize_network(config, lookback)
            return
        net = initialize_network(config, lookback)
        assert config.flat_length(lookback) == expected
        assert net.params()["forget_w"].shape == (config.lstm_units, config.lstm_units + expected)


class TestForward:
    def test_zero_weights_output_equals_dense_bias(self):
        net = initialize_network(tiny_config(horizon=2), lookback=6)
        zeroed = with_params(net, {k: np.zeros_like(v) for k, v in net.params().items()})
        bias = np.array([0.25, -1.5])
        zeroed = with_params(zeroed, {**zeroed.params(), "dense_b": bias})
        out = network_forward(np.random.default_rng(0).normal(size=(6, 1)), zeroed)
        assert np.array_equal(out, bias)

    def test_deterministic_across_fresh_builds(self):
        x = np.linspace(0, 1, 6)[:, None]
        outs = [
            network_forward(x, initialize_network(tiny_config(seed=42), 6))
            for _ in range(2)
        ]
        assert np.array_equal(outs[0], outs[1])

    def test_different_seeds_differ(self):
        a = initialize_network(tiny_config(seed=1), 6)
        b = initialize_network(tiny_config(seed=2), 6)
        assert not np.array_equal(a.params()["conv_w"], b.params()["conv_w"])

    def test_matches_layer_composition_oracle(self):
        rng = np.random.default_rng(77)
        for seed in (5, 6, 7):
            config = tiny_config(seed=seed, n_filters=3, kernel_size=2, pool_size=2,
                                 lstm_units=3, repeat_steps=4, n_features=2, horizon=2)
            lookback = 7
            net = initialize_network(config, lookback)
            x = rng.normal(size=(lookback, 2))

            p = {key: value.tolist() for key, value in net.params().items()}
            conv = [[max(v, 0.0) for v in row]  # relu
                    for row in conv1d_loop(x.tolist(), p["conv_w"], p["conv_b"])]
            flat = [v for row in maxpool1d_loop(conv, config.pool_size) for v in row]
            gates = {g: (p[f"{g}_w"], p[f"{g}_b"]) for g in GATES}
            hidden = cell = [0.0] * config.lstm_units
            for _ in range(config.repeat_steps):
                hidden, cell = lstm_step_scalar(flat, cell, hidden, gates)
            expected = np.array(p["dense_w"]) @ hidden + p["dense_b"]

            assert np.allclose(network_forward(x, net), expected, atol=1e-12, rtol=0)

    def test_wrong_shape_rejected(self):
        net = initialize_network(tiny_config(), 6)
        with pytest.raises(DataError):
            network_forward(np.zeros((5, 1)), net)

    def test_wrong_feature_count_rejected(self):
        net = initialize_network(tiny_config(), 6)
        with pytest.raises(DataError, match="shape"):
            network_forward(np.zeros((6, 2)), net)


class TestTrain:
    def test_learnable_constant(self):
        net = initialize_network(tiny_config(seed=3), 6)
        cfg = TrainingConfig(epochs=200, learning_rate=1e-2, seed=3)
        trained = train(net, constant_samples(), cfg)
        assert trained.loss_history[-1] < 1e-4
        assert trained.loss_history[-1] <= trained.loss_history[0]
        assert len(trained.loss_history) == 200

    def test_same_seed_identical_histories(self):
        samples = constant_samples(n=3)
        cfg = TrainingConfig(epochs=20, seed=9)
        runs = [
            train(initialize_network(tiny_config(seed=4), 6), samples, cfg)
            for _ in range(2)
        ]
        assert runs[0].loss_history == runs[1].loss_history
        for key, value in runs[0].params().items():
            assert np.array_equal(value, runs[1].params()[key])

    def test_original_network_untouched(self):
        net = initialize_network(tiny_config(seed=5), 6)
        before = {k: v.copy() for k, v in net.params().items()}
        buf = net.weights.buf.copy()
        trained = train(net, constant_samples(), TrainingConfig(epochs=5, seed=0))
        for key, value in net.params().items():
            assert np.array_equal(value, before[key])
        assert net.weights.buf.tobytes() == buf.tobytes()
        assert not np.shares_memory(trained.weights.buf, net.weights.buf)

    def test_two_runs_from_one_network_bitwise_equal(self):
        net = initialize_network(tiny_config(seed=23), 6)
        cfg = TrainingConfig(epochs=4, seed=23)
        first, second = (train(net, constant_samples(n=3), cfg) for _ in range(2))
        assert first.weights.buf.tobytes() == second.weights.buf.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_guard(self):
        rng = np.random.default_rng(6)
        samples = WindowedSamples(
            inputs=rng.normal(size=(4, 6, 1)) * 10,
            targets=rng.normal(size=(4, 1, 1)) * 10,
        )
        net = initialize_network(tiny_config(seed=6), 6)
        cfg = TrainingConfig(epochs=5, learning_rate=1e12, optimizer="sgd", seed=6)
        with pytest.raises(NumericalError, match="epoch loss became"):
            train(net, samples, cfg)

    def test_multivariate_targets_rejected(self):
        samples = WindowedSamples(
            inputs=np.zeros((2, 6, 1)),
            targets=np.zeros((2, 1, 2)),
        )
        net = initialize_network(tiny_config(), 6)
        with pytest.raises(ConfigError):
            train(net, samples, TrainingConfig(epochs=1))

    def test_horizon_mismatch_rejected(self):
        samples = constant_samples()
        net = initialize_network(tiny_config(horizon=2), 6)
        with pytest.raises(ConfigError):
            train(net, samples, TrainingConfig(epochs=1))

    def test_targets_shorter_than_network_horizon_rejected(self):
        # the window set's horizon is its targets' step count, so it cannot
        # claim the network's horizon while holding fewer steps
        samples = WindowedSamples(np.zeros((2, 6, 1)), np.zeros((2, 1, 1)))
        net = initialize_network(tiny_config(horizon=2), 6)
        with pytest.raises(ConfigError, match="window horizon 1 != network horizon 2"):
            train(net, samples, TrainingConfig(epochs=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_saturated_gates_train_without_runtime_warnings(self):
        # gate pre-activations near +-1000 would overflow a naive exp(-x)
        net = initialize_network(tiny_config(seed=21), 6)
        biases = {f"{gate}_b": np.full(4, sign * 1e3) for gate, sign in zip(GATES, (1, -1, 1, -1))}
        net = with_params(net, {**net.params(), **biases})
        trained = train(net, constant_samples(n=3), TrainingConfig(epochs=3, seed=21))
        assert np.all(np.isfinite(trained.loss_history))

    def test_sgd_also_learns_constant(self):
        net = initialize_network(tiny_config(seed=8), 6)
        cfg = TrainingConfig(epochs=300, learning_rate=5e-2, optimizer="sgd", seed=8)
        trained = train(net, constant_samples(), cfg)
        assert trained.loss_history[-1] < 1e-3


class TestAdam:
    def test_folded_update_matches_the_papers_algorithm(self):
        rng = np.random.default_rng(41)
        size, steps, lr = 24, 300, 1e-3
        grads = rng.normal(size=(steps, size))
        grads[:, 0] = 0.0  # a parameter that never sees a gradient
        grads[rng.random((steps, size)) < 0.1] = 0.0
        grads[150, 5] = 1e6
        optimizer = _Adam(size, lr)
        for grad, expected in zip(grads, adam_loop(grads, lr)):
            params = np.zeros(size)  # so the update leaves exactly -step
            optimizer.update(params, grad)
            assert np.all(np.abs(params + expected) <= 1e-12 * np.abs(expected))

    def test_no_less_accurate_than_the_papers_algorithm_in_floats(self):
        # against exact arithmetic, each step may err by what the textbook
        # float recursion errs where m cancels, plus the roundings in which
        # the folded form differs from it (measured: at most 9 ulps over
        # 120-300 steps of seeds 1, 7 and 41-46)
        rng = np.random.default_rng(43)
        size, steps, lr = 24, 120, 1e-3
        grads = rng.normal(size=(steps, size))
        grads[:, 0] = 0.0
        grads[rng.random((steps, size)) < 0.1] = 0.0
        grads[60, 5] = 1e6
        optimizer = _Adam(size, lr)
        for grad, floats, exact in zip(grads, adam_loop(grads, lr), adam_exact(grads, lr)):
            params = np.zeros(size)
            optimizer.update(params, grad)
            for folded, textbook, step in zip(-params, floats, exact):
                slack = 16 * Decimal(math.ulp(float(step)))
                assert abs(Decimal(folded) - step) <= abs(Decimal(textbook) - step) + slack


class TestTrainingTrajectory:
    """sha256 of (weights buffer, loss history) after 3 epochs, per config
    and optimizer. Bit-exact rewrites of the training step leave every
    digest as it is; a change that rounds differently must re-record the
    digests it moves and say so."""

    CONFIGS = {
        "default": {},
        "one-step": {"repeat_steps": 1},
        "horizon-2": {"horizon": 2},
        "tanh": {"conv_activation": "tanh"},
        "identity-pool-3": {"conv_activation": "identity", "pool_size": 3},
        "two-features-kernel-4": {"n_features": 2, "kernel_size": 4},
    }
    DIGESTS = {
        "default/adam": "5a750efa6daf45cce720e1a0e375f5238b6b260f5fc9d6a94f7c3d72a8a6eddc",
        "horizon-2/adam": "ec147f6dbe36d428f53e09d748ce7254e5d7fabf1e59830077964afff7ef2538",
        "identity-pool-3/adam": "b03f2a2f8edffa4d582a712fdd4d00075e11cb4bb7ccd890ae64e8df0eafcef7",
        "one-step/adam": "324ce2d1bbaf9ab765efd8a60de5c2295b170aa649655b0036759441cf85e963",
        "tanh/adam": "ccd29978d17c853314824d1d797f14daff76484332f8105e9528ffdaa588ab43",
        "two-features-kernel-4/adam": "800a697c517870aa75b8dc74130b2c777eb7c6084efa09a2c8d037b83dac2b86",
        "default/sgd": "0265b31dd256def4eb05177d43014981c53a6db7329eafbd637437fe7f0fb1eb",
        "horizon-2/sgd": "324143f853efac71221f382fc883ff0ce175c3c62f5fcb1e588e2937dca97bc5",
        "identity-pool-3/sgd": "cbc6db931084843637a23f37d1ec533e8279a5780b95e4f0a5c6c3e9742ab141",
        "one-step/sgd": "c8328f52aee236610be7ff7ec2bb26472f6af79b369c2c8a46e2f5851da456c3",
        "tanh/sgd": "969bcfb64631ef29c7e07858ac90c8c42e7e984feeba89fc31e3d4c5a454589a",
        "two-features-kernel-4/sgd": "fdb08a620201415eefc18b0a5671bdd820b9ff2560577135100cb536abc19356",
    }

    @classmethod
    def run(cls, name):
        """The config and six samples of lookback 8 the digest of ``name`` trains on."""
        config = tiny_config(seed=31, **cls.CONFIGS[name])
        lookback, n = 8, 6
        rng = np.random.default_rng(31)
        samples = WindowedSamples(
            inputs=rng.uniform(0.0, 1.0, size=(n, lookback, config.n_features)),
            targets=rng.uniform(0.0, 1.0, size=(n, config.horizon, 1)),
        )
        return config, samples

    @classmethod
    def digest(cls, name, optimizer):
        config, samples = cls.run(name)
        cfg = TrainingConfig(epochs=3, learning_rate=1e-2, optimizer=optimizer, seed=31)
        trained = train(initialize_network(config, samples.lookback), samples, cfg)
        digest = hashlib.sha256(trained.weights.buf.tobytes())
        digest.update(np.array(trained.loss_history).tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_trajectory_matches_recorded_digest(self, name, optimizer):
        assert self.digest(name, optimizer) == self.DIGESTS[f"{name}/{optimizer}"]


class TestStepBuffers:
    """One ``_StepBuffers`` set serves every sample of a training run: nothing
    a sample writes may reach the next sample or another run."""

    @pytest.mark.parametrize("name", sorted(TestTrainingTrajectory.CONFIGS))
    def test_shared_buffers_give_the_fresh_gradients_bitwise(self, name):
        config, samples = TestTrainingTrajectory.run(name)
        lookback = samples.lookback
        net = initialize_network(config, lookback)
        buffers = _StepBuffers(config, lookback)
        shared, fresh = _FlatParams(config, lookback), _FlatParams(config, lookback)
        targets = samples.targets[:, :, 0]
        for window, target in zip(_window_cols(net, samples.inputs), targets):
            error = _gradients(net.weights, shared, window, target, config, buffers)
            expected = _gradients(net.weights, fresh, window, target, config,
                                  _StepBuffers(config, lookback))
            assert error.tobytes() == expected.tobytes()
            assert shared.buf.tobytes() == fresh.buf.tobytes()

    def test_runs_in_one_process_repeat_their_recorded_bytes(self):
        # A, B, A: the second A must not see anything the first A or B left
        for name, optimizer in (("default", "adam"), ("tanh", "sgd"), ("default", "adam")):
            key = f"{name}/{optimizer}"
            assert TestTrainingTrajectory.digest(name, optimizer) == \
                TestTrainingTrajectory.DIGESTS[key], key

    def test_pool_gradient_keeps_no_entry_of_the_previous_sample(self):
        # kernel 1 and an identity conv of weight 1 pass the window to the pool
        # unchanged, so each window picks the row of every pool pair that wins
        config = tiny_config(seed=5, n_filters=1, kernel_size=1, conv_activation="identity")
        lookback = 6
        net = initialize_network(config, lookback)
        net.params()["conv_w"][...] = 1.0
        first, second = (np.tile(pair, 3)[:, None] for pair in ([1.0, 0.0], [0.0, 1.0]))
        buffers = _StepBuffers(config, lookback)
        grads = _FlatParams(config, lookback)
        for window, winners in ((first, 0), (second, 1)):
            cols = _window_cols(net, window)
            _gradients(net.weights, grads, cols, np.zeros(1), config, buffers)
            assert np.all(buffers.dx[winners::2] != 0.0)
            assert np.all(buffers.dx[1 - winners::2] == 0.0)


class TestInferenceBytes:
    """sha256 of ``predict_windows`` on two full blocks and a tail, and of a
    137-step ``iterative_forecast``, per single-feature config of
    ``TestTrainingTrajectory``. A rewrite of the forward that rounds the
    same keeps every digest."""

    NAMES = sorted(name for name, extra in TestTrainingTrajectory.CONFIGS.items()
                   if extra.get("n_features", 1) == 1)
    DIGESTS = {
        "default/predict": "711cf707c243453e4239e2b2c2653bfb4f7d8dc28c5d2390bfbf452cf3b30182",
        "default/forecast": "c4ee0cfd1ab9d7b1de06548ebc313cc1d2eb521437a6a5cc3026ad26cb40257a",
        "horizon-2/predict": "482f68f174353831061cf81bd121b2005d52ccaceaf8e40e51ec64242524ca8b",
        "horizon-2/forecast": "47a79e4e7f462c45e57d284af8753473509f4759464ded3da74a0078a5705e09",
        "identity-pool-3/predict": "760c3b931fa835f85769589892659d68c2f7e1607bb0b414370a2a250fdd840c",
        "identity-pool-3/forecast": "41536698276e5b881b168508fbdc20c40ebe70c7022cac7178240c12f11b7e61",
        "one-step/predict": "7338d2aba922823be36fbf5385ecdf4ee3ae061a3ff05b94851c51bd25725d76",
        "one-step/forecast": "6ea55fca199f9e8e09d7a77f1bf1d3d2bbc990e6a426fa8d1476f904fc97445f",
        "tanh/predict": "c8c627f65de6a7805d8075b669a432d4fa7fdd6b4df8841c05129fb13cb9e04b",
        "tanh/forecast": "24a18157f431f8e55943a1d950819379a5cc4f88cfcb1cf7f83be6b54f77bb2e",
    }

    @staticmethod
    def digest(name, kind):
        config, samples = TestTrainingTrajectory.run(name)
        net = initialize_network(config, samples.lookback)
        n = 2 * PREDICT_BLOCK + 5
        series = np.random.default_rng(37).uniform(
            0.0, 1.0, size=n + samples.lookback + config.horizon - 1)
        if kind == "predict":
            windows = make_windows(series, samples.lookback, config.horizon)
            assert len(windows) == n
            values = predict_windows(net, windows)
        else:
            values = iterative_forecast(net, series, 137, ScalingParams(2.0, 12.0))
        return hashlib.sha256(values.tobytes()).hexdigest()

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("kind", ["predict", "forecast"])
    def test_inference_matches_recorded_digest(self, name, kind):
        assert self.digest(name, kind) == self.DIGESTS[f"{name}/{kind}"]

    def test_inference_in_one_process_repeats_its_recorded_bytes(self):
        # A, B, A: the second A must not see anything the first A or B left
        for kind in ("forecast", "predict"):
            for name in ("default", "tanh", "default"):
                key = f"{name}/{kind}"
                assert self.digest(name, kind) == self.DIGESTS[key], key


class TestPrediction:
    def test_multi_feature_windows_are_predicted(self):
        # prediction reads only the inputs, so two-column targets are no error
        config = tiny_config(seed=18, n_features=2)
        net = initialize_network(config, 6)
        matrix = np.random.default_rng(18).normal(size=(12, 2))
        windows = make_windows(matrix, 6, 1)
        preds = predict_windows(net, windows)
        assert preds.shape == (len(windows), 1)
        for i in range(len(windows)):
            assert np.allclose(preds[i], network_forward(windows.inputs[i], net),
                               atol=1e-12, rtol=0)

    def test_predict_windows_shape(self):
        series = np.linspace(0, 1, 20)
        windows = make_windows(series, 6, 1)
        net = initialize_network(tiny_config(seed=10), 6)
        preds = predict_windows(net, windows)
        assert preds.shape == (len(windows), 1)

    def test_blocked_batch_matches_per_window_forward(self):
        config = tiny_config(seed=20, n_filters=3, kernel_size=2, lstm_units=3, repeat_steps=4,
                             n_features=2, horizon=2, conv_activation="tanh")
        lookback = 7
        net = initialize_network(config, lookback)
        rng = np.random.default_rng(20)
        n = 2 * PREDICT_BLOCK + 3
        windows = WindowedSamples(
            inputs=rng.normal(size=(n, lookback, 2)),
            targets=np.zeros((n, 2, 1)),
        )
        preds = predict_windows(net, windows)
        assert preds.shape == (n, 2)
        for i in range(n):
            assert np.allclose(preds[i], network_forward(windows.inputs[i], net),
                               atol=1e-12, rtol=0)

    def test_persistence_repeats_last_value(self):
        series = np.arange(10, dtype=float)
        windows = make_windows(series, 4, 2)
        naive = persistence_predictions(windows)
        assert naive.shape == (len(windows), 2)
        for i in range(len(windows)):
            assert np.all(naive[i] == windows.inputs[i][-1, 0])


class TestIterativeForecast:
    def test_single_step_equals_forward(self):
        net = initialize_network(tiny_config(seed=11), 6)
        history = np.linspace(0.1, 0.9, 10)
        params = ScalingParams(0.0, 100.0)
        forecast = iterative_forecast(net, history, 1, params)
        direct = network_forward(history[-6:][:, None], net)[0]
        assert forecast[0] == pytest.approx(direct * 100.0, abs=1e-12)

    def test_fixed_point_network_forecasts_constant(self, monkeypatch):
        # a forecaster that always answers the window's last value must
        # continue the series flat under recursion
        import swarmcast.network as network_module

        net = initialize_network(tiny_config(seed=12), 6)
        monkeypatch.setattr(
            network_module, "network_forward", lambda x, _, buffers: np.array([x[-1, 0]])
        )
        history = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        forecast = network_module.iterative_forecast(
            net, history, 5, ScalingParams(0.0, 1.0)
        )
        assert np.allclose(forecast, 0.6)

    def test_three_steps_match_manual_unroll(self):
        net = initialize_network(tiny_config(seed=13), 6)
        params = ScalingParams(2.0, 12.0)
        history = np.linspace(0.0, 1.0, 9)

        window = list(history[-6:])
        manual = []
        for _ in range(3):
            pred = float(network_forward(np.array(window)[:, None], net)[0])
            manual.append(pred)
            window = window[1:] + [pred]
        expected = 2.0 + np.array(manual) * 10.0

        forecast = iterative_forecast(net, history, 3, params)
        assert np.allclose(forecast, expected, atol=1e-12, rtol=0)

    def test_horizon_blocks_append_in_order(self):
        net = initialize_network(tiny_config(seed=14, horizon=2), 6)
        params = ScalingParams(0.0, 1.0)
        history = np.linspace(0.0, 1.0, 8)
        forecast = iterative_forecast(net, history, 4, params)
        window = list(history[-6:])
        manual = []
        while len(manual) < 4:
            block = network_forward(np.array(window)[:, None], net)
            for value in block:
                window = window[1:] + [float(value)]
                manual.append(float(value))
        assert np.allclose(forecast, manual[:4], atol=1e-12, rtol=0)

    @pytest.mark.parametrize("horizon, steps", [(1, 5), (2, 5)])
    def test_bit_identical_to_a_manual_unroll(self, horizon, steps):
        # each step runs one network_forward on the window's last lookback values
        net = initialize_network(tiny_config(seed=19, horizon=horizon), 6)
        params = ScalingParams(2.0, 12.0)
        history = np.linspace(0.0, 1.0, 9)
        window = list(history[-6:])
        manual = []
        while len(manual) < steps:
            block = network_forward(np.array(window)[:, None], net).tolist()
            window = window[horizon:] + block
            manual += block
        expected = inverse_scale(np.array(manual[:steps]), params)
        forecast = iterative_forecast(net, history, steps, params)
        assert forecast.tobytes() == expected.tobytes()

    def test_errors(self):
        net = initialize_network(tiny_config(seed=15), 6)
        params = ScalingParams(0.0, 1.0)
        with pytest.raises(ConfigError):
            iterative_forecast(net, np.zeros(6), 0, params)
        with pytest.raises(DataError):
            iterative_forecast(net, np.zeros(3), 1, params)
        multi = initialize_network(tiny_config(seed=16, n_features=2), 6)
        with pytest.raises(ConfigError):
            iterative_forecast(multi, np.zeros((6, 2)), 1, params)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = initialize_network(tiny_config(seed=17), 6)
        trained = train(net, constant_samples(), TrainingConfig(epochs=3, seed=17))
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.config == trained.config
        assert loaded.lookback == trained.lookback
        assert loaded.loss_history == trained.loss_history
        for key, value in trained.params().items():
            assert np.array_equal(value, loaded.params()[key])
        assert loaded.weights.buf.tobytes() == trained.weights.buf.tobytes()

    def test_save_load_forecast_equals_in_memory(self, tmp_path):
        net = initialize_network(tiny_config(seed=18), 6)
        trained = train(net, constant_samples(n=2), TrainingConfig(epochs=5, seed=18))
        params = ScalingParams(1.0, 3.0)
        history = np.linspace(0.2, 0.8, 7)
        direct = iterative_forecast(trained, history, 4, params)
        path = tmp_path / "model.json"
        save_model(trained, path)
        from_disk = iterative_forecast(load_model(path), history, 4, params)
        assert direct.tobytes() == from_disk.tobytes()

    def test_committed_model_file_rewrites_byte_identically(self, tmp_path):
        golden = Path(__file__).parent / "golden" / "demo" / "train" / "model.json"
        path = tmp_path / "model.json"
        save_model(load_model(golden), path)
        assert path.read_bytes() == golden.read_bytes()

    def test_params_are_views_of_the_buffer(self):
        net = initialize_network(tiny_config(seed=25), 6)
        views = net.params()
        assert all(np.shares_memory(v, net.weights.buf) for v in views.values())
        assert sum(v.size for v in views.values()) == net.weights.buf.size
        changed = with_params(net, {"dense_b": np.array([2.0])})
        assert changed.params()["dense_b"][0] == 2.0
        assert net.params()["dense_b"][0] == 0.0

    def test_dict_form_is_plain_json(self):
        net = initialize_network(tiny_config(seed=19), 6)
        doc = json.loads(json.dumps(model_to_dict(net)))
        rebuilt = model_from_dict(doc)
        for key, value in net.params().items():
            assert np.array_equal(value, rebuilt.params()[key])
