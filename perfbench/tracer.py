"""In-memory span recorder that wraps swarmcast's layer entry points.

Tracing rebinds module attributes from outside the program: each entry
point is replaced, where its caller looks it up, by a wrapper that
records one span (name, start, end, parent). ``uninstall`` puts every
original back, so untraced passes run the unmodified code. Span names
are ``<layer>.<operation>``; a layer is a module of ``swarmcast``.

Self time of a span is its duration minus the durations of its direct
children. Every span nests under one ``cli.command`` span per CLI call,
so the layers' self times add up to the commands' wall time exactly.
"""

from __future__ import annotations

import functools
import math
import time
from array import array

import numpy as np

from workloads import Metric

LAYERS = (
    "cli", "timeseries", "layers", "network",
    "metaheuristics", "benchmarks", "tuning", "evaluation",
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.iterations: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, on_return)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, on_return))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the entry points of every layer, as bound where they are called."""
        from swarmcast import benchmarks, cli
        from swarmcast import evaluation as ev
        from swarmcast import metaheuristics as meta
        from swarmcast import network as net
        from swarmcast import tuning as tun

        for fn in ("load_csv", "impute_missing", "apply_scale", "inverse_scale", "make_windows"):
            self.patch(cli, fn, f"timeseries.{fn}")
        self.patch(tun, "make_windows", "timeseries.make_windows")
        self.patch(net, "inverse_scale", "timeseries.inverse_scale")

        for fn in ("initialize_network", "train", "predict_windows", "iterative_forecast",
                   "load_model", "save_model"):
            self.patch(cli, fn, f"network.{fn}")
        for fn in ("initialize_network", "train", "predict_windows"):
            self.patch(tun, fn, f"network.{fn}")
        self.patch(net, "_gradients", "network.grad")
        self.patch(net, "network_forward", "network.predict_window")
        self.patch(net._Adam, "update", "network.optimizer")

        for fn, op in (("_conv1d_cache", "conv_fwd"), ("_conv1d_backward", "conv_bwd"),
                       ("_maxpool1d_cache", "pool_fwd"), ("_maxpool1d_backward", "pool_bwd"),
                       ("_lstm_cell_cache", "lstm_fwd"), ("_lstm_cell_backward", "lstm_bwd")):
            self.patch(net, fn, f"layers.{op}")

        self.patch(cli, "tune_series", "tuning.tune_series")
        self.patch(tun, "fitness", "tuning.fitness")
        self.patch(tun, "surrogate_fitness", "tuning.surrogate")
        self.patch(tun, "decode_position", "tuning.decode")

        # OPTIMIZERS is one dict shared by cli and tuning
        for algorithm in list(meta.OPTIMIZERS):
            self.patch(meta.OPTIMIZERS, algorithm, f"metaheuristics.{algorithm}",
                       on_return=functools.partial(self._count_iterations, algorithm))
        self.patch(meta, "gwo_step", "metaheuristics.gwo_step")
        self.patch(meta, "woa_step", "metaheuristics.woa_step")
        benchmark_fns = {fn for fn, _ in benchmarks.BENCHMARKS.values()}
        evaluate = meta._evaluate
        bench_call = functools.partial(self.wrap, "benchmarks.call")
        tuning_call = functools.partial(self.wrap, "tuning.objective")

        def traced_evaluate(objective, positions):
            wrap = bench_call if objective in benchmark_fns else tuning_call
            return evaluate(wrap(objective), positions)

        meta._evaluate = traced_evaluate
        self._patches.append((meta, "_evaluate", evaluate))

        for fn, op in (("metric_report", "metric_report"), ("compare_methods", "compare"),
                       ("parse_score_csv", "parse_scores")):
            self.patch(cli, fn, f"evaluation.{op}")
        self.patch(ev, "rank_methods", "evaluation.rank")
        self.patch(ev, "mse", "evaluation.mse")
        self.patch(tun, "mse", "evaluation.mse")

    def _count_iterations(self, algorithm, result) -> None:
        n = len(result[2].best_fitness_per_iteration)
        self.iterations[algorithm] = self.iterations.get(algorithm, 0) + n

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def columns(self, lo: int = 0, hi: int | None = None):
        """(name id, duration, self time) arrays for spans lo..hi."""
        hi = len(self.name_col) if hi is None else hi
        names = np.frombuffer(self.name_col, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent_col, dtype=np.int32)[lo:hi] - lo
        dur = (np.frombuffer(self.end_col)[lo:hi] - np.frombuffer(self.start_col)[lo:hi])
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, dur, dur - child

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            start=np.frombuffer(self.start_col),
            end=np.frombuffer(self.end_col),
        )


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))])


def layer_metrics(tracer: Tracer, spans, passes, counts: dict) -> dict[str, Metric]:
    """The per-layer table from the traced passes.

    ``spans`` holds (first span, end span, optimizer iterations) per traced
    pass and ``passes`` the commands of those passes; ``counts`` are the
    tuner counters the workload read back from its artifacts. Per-pass
    quantities are medians over the traced passes; per-call timings pool
    every call of every traced pass. Times are in reference seconds (see
    hostspeed.py), like the end-to-end ones.
    """
    n = len(spans)
    stats = []  # per pass: span name -> (durations, self times), in reference seconds
    for (lo, hi, _), cmds in zip(spans, passes):
        names, dur, own = tracer.columns(lo, hi)
        speed = cmds[0].speed if cmds else 1.0
        stats.append({tracer.names[i]: (dur[names == i] * speed, own[names == i] * speed)
                      for i in np.unique(names)})

    def per_pass(fn) -> float:
        return float(np.median([fn(s) for s in stats]))

    def total(*names, own=False) -> float:
        return per_pass(lambda s: sum(float(s[k][own].sum()) for k in names if k in s))

    def calls(*names) -> float:
        return per_pass(lambda s: sum(len(s[k][0]) for k in names if k in s))

    def pooled(name, own=False):
        return np.concatenate([s[name][own] for s in stats if name in s] or [np.zeros(0)])

    def layer_self(layer) -> float:
        return total(*{k for s in stats for k in s if k.startswith(layer + ".")}, own=True)

    table: dict[str, Metric] = {}

    def put(name, value, unit, better="lower", samples=n):
        table[name] = Metric(name, float(value), unit, better, samples)

    def timing(name, span, own=False):
        sample = pooled(span, own) * 1e6
        put(f"{name}.p50", quantile(sample, 0.5), "us", samples=len(sample))
        put(f"{name}.p99", quantile(sample, 0.99), "us", samples=len(sample))

    walls = [sum(c.ref_seconds for c in cmds) for cmds in passes]
    wall = float(np.median(walls))
    for layer in LAYERS:
        own = layer_self(layer)
        put(f"{layer}.self_s", own, "s")
        put(f"{layer}.self_share", own / wall, "share")
    put("attributed_share", sum(layer_self(layer) for layer in LAYERS) / wall, "share", "higher")

    for op in ("conv_fwd", "conv_bwd", "pool_fwd", "pool_bwd", "lstm_fwd", "lstm_bwd"):
        timing(f"layers.{op}_us", f"layers.{op}")
        put(f"layers.{op}_calls", calls(f"layers.{op}"), "count")

    timing("network.grad_us", "network.grad")
    timing("network.optimizer_us", "network.optimizer")
    timing("network.step_self_us", "network.grad", own=True)
    put("network.grad_calls", calls("network.grad"), "count")
    put("network.train_s", total("network.train"), "s")
    timing("network.predict_window_us", "network.predict_window")
    put("network.predict_window_calls", calls("network.predict_window"), "count")
    put("network.forecast_s", total("network.iterative_forecast"), "s")
    put("network.model_io_s", total("network.load_model", "network.save_model"), "s")

    objective = counts.get("tuning.objective_calls", 0)
    distinct = counts.get("tuning.distinct_cells", 0)
    for key in ("objective_calls", "cache_hits", "distinct_cells", "infeasible_cells",
                "diverged_cells", "budget_overrun"):
        put(f"tuning.{key}", counts.get(f"tuning.{key}", 0), "count",
            "higher" if key == "cache_hits" else "lower")
    put("tuning.cache_hit_ratio", counts.get("tuning.cache_hits", 0) / objective if objective else 0.0,
        "share", "higher")
    put("tuning.useful_ratio", counts.get("tuning.finite_cells", 0) / distinct if distinct else 0.0,
        "share", "higher")
    fitness = pooled("tuning.fitness")
    put("tuning.fitness_s.p50", quantile(fitness, 0.5), "s", samples=len(fitness))
    put("tuning.fitness_s.max", fitness.max() if len(fitness) else 0.0, "s", samples=len(fitness))
    timing("tuning.decode_us", "tuning.decode")

    timing("metaheuristics.gwo_step_us", "metaheuristics.gwo_step")
    timing("metaheuristics.woa_step_us", "metaheuristics.woa_step")
    ga = [(float(s["metaheuristics.ga"][1].sum()), it.get("ga", 0)) for s, (_, _, it) in zip(stats, spans)
          if "metaheuristics.ga" in s]
    put("metaheuristics.ga_generation_us",
        np.median([own / it * 1e6 for own, it in ga if it]) if ga else 0.0, "us")
    put("metaheuristics.iterations", float(np.median([sum(it.values()) for _, _, it in spans])),
        "count")
    put("metaheuristics.objective_calls", calls("tuning.objective", "benchmarks.call"), "count")

    timing("benchmarks.call_us", "benchmarks.call")
    put("benchmarks.calls", calls("benchmarks.call"), "count")

    put("timeseries.load_csv_s", total("timeseries.load_csv"), "s")
    put("timeseries.load_csv_calls", calls("timeseries.load_csv"), "count")
    put("timeseries.impute_s", total("timeseries.impute_missing"), "s")
    put("timeseries.make_windows_s", total("timeseries.make_windows"), "s")
    put("timeseries.make_windows_calls", calls("timeseries.make_windows"), "count")

    put("evaluation.rank_s", total("evaluation.rank"), "s")
    put("evaluation.compare_s", total("evaluation.compare"), "s")
    put("evaluation.metric_report_s", total("evaluation.metric_report"), "s")
    put("evaluation.mse_calls", calls("evaluation.mse"), "count")

    put("cli.bytes_written", np.median([sum(c.bytes_written for c in cmds) for cmds in passes]), "bytes")
    put("cli.commands", np.median([len(cmds) for cmds in passes]), "count")
    put("cli.failed_commands", sum(not c.ok for cmds in passes for c in cmds), "count")
    put("cli.nonfinite_json_tokens", counts.get("cli.nonfinite_json_tokens", 0), "count")
    return table
