"""swarmcast benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload {tune,infer,search} --seed N --seconds S --trace {0,1}

Run from the root of a swarmcast checkout; it imports the package from
``src/`` and writes only under ``.bench_work/``. Set-up (a fresh
interpreter importing swarmcast, plus the workload's input generation)
is repeated seven times and its median reported as ``setup_s``. The
timed phase then repeats passes of the workload's command sequence until
``--seconds`` have elapsed, at least three times; ``wall_s`` is the
median pass time, counting only the time spent inside CLI commands.
Times are in reference seconds, corrected for the host's speed as
explained in hostspeed.py; the measured pass times are printed too.

With ``--trace 1`` untraced and traced passes alternate; per-layer
metrics come from the traced ones and ``trace_overhead`` is the ratio of
their median wall times. With ``--against DIR`` the workload runs in
``--pairs`` interleaved pairs of subprocesses, one on this checkout's
``src`` and one on DIR's, alternating which side goes first.

The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``, holding the
end-to-end metrics of BENCHMARK.json (or with ``--trace 1`` its
per-layer ones). The lines before it carry the environment, the
correctness checks, artifact digests and every workload metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from hostspeed import HostSpeed  # noqa: E402
from workloads import SAMPLE_CSV, WORKLOADS, Client, Metric, fresh_dir  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3


def spec() -> dict:
    """BENCHMARK.json: the metric names the final JSON line carries.

    Its per-layer list holds the metrics every workload can report (a
    layer a workload never calls reads 0 share and 0 calls); the traced
    run prints the full table, per-call p50/p99 timings included.
    """
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src", help="swarmcast source tree to import")
    parser.add_argument("--against", help="second swarmcast checkout (or src tree) for an A/B run")
    parser.add_argument("--pairs", type=int, default=10, help="A/B pairs to run")
    return parser.parse_args(argv)


def source_tree(path) -> Path | None:
    """The directory holding the ``swarmcast`` package, given it or its parent."""
    path = (ROOT / path).resolve()
    for candidate in (path, path / "src"):
        if (candidate / "swarmcast" / "cli.py").is_file():
            return candidate
    return None


def environment(seed: int) -> dict:
    import numpy as np

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
        "git_sha": None,
        "git_dirty": None,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    env["blas_threads"] = _openblas_threads()
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30)
        env["git_sha"] = sha.stdout.strip() or None
        env["git_dirty"] = bool(dirty.stdout.strip())
    return env


def _openblas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def import_probe(src: Path) -> None:
    """Start a fresh interpreter that imports the CLI, as every command line does.

    No timeout: with one, the wait polls in steps of up to 50 ms, which
    then shows in the measured time.
    """
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import swarmcast.cli"
    subprocess.run([sys.executable, "-B", "-c", code], check=True)


def run_setup(workload, src: Path, work: Path, main, speed: HostSpeed) -> tuple[float, list[str], bool]:
    """Set up SETUP_REPEATS times; median reference seconds, failures, inputs pure."""
    client = Client(main, speed.now)
    times, fingerprints = [], []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        speed.sample(3)
        started = speed.now()
        with speed.paused():
            import_probe(src)
        fingerprints.append(workload.setup(client, fresh_dir(work / "inputs")))
        seconds = speed.now() - started
        speed.sample(3)
        times.append(seconds * speed.factor_since(mark))
    return median(times), client.failures, len(set(fingerprints)) == 1


def print_metric(kind: str, m: Metric) -> None:
    print(f"{kind} {m.name} = {m.value:.6g} {m.unit} ({m.better} is better, n={m.n})")


def run(args) -> int:
    src = source_tree(args.src)
    if src is None:
        print(f"error: no swarmcast source tree at {args.src!r} under {ROOT}; "
              "run from the root of a swarmcast checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    if not (ROOT / SAMPLE_CSV).is_file():
        print(f"error: {SAMPLE_CSV} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    work = fresh_dir(ROOT / ".bench_work" / args.workload)
    speed = HostSpeed()
    speed.start()
    try:
        return measure(args, workload, src, work, speed)
    finally:
        speed.stop()


def measure(args, workload, src: Path, work: Path, speed: HostSpeed) -> int:
    import swarmcast.cli

    setup_s, setup_failures, pure = run_setup(workload, src, work, swarmcast.cli.main, speed)
    if setup_failures:
        print("error: set-up failed: " + "; ".join(setup_failures), file=sys.stderr)
        return 1
    print(f"check inputs_pure_function_of_seed: {'ok' if pure else 'FAILED'}")

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer(speed.now)

    client = Client(swarmcast.cli.main, speed.now)
    passes, traced, spans = [], [], []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES + bool(tracer) or time.perf_counter() - started < args.seconds:
        mark = speed.mark()
        is_traced = tracer is not None and len(passes) % 2 == 1
        if is_traced:
            tracer.install()
            tracer.iterations = {}
            client.main = tracer.wrap("cli.command", swarmcast.cli.main)
            lo = len(tracer.name_col)
        client.commands = []
        try:
            workload.run_pass(client, fresh_dir(work / "pass"))
        finally:
            if is_traced:
                tracer.uninstall()
                client.main = swarmcast.cli.main
                spans.append((lo, len(tracer.name_col), dict(tracer.iterations)))
        factor = speed.factor_since(mark)
        for command in client.commands:
            command.speed = factor
        passes.append(client.commands)
        traced.append(is_traced)

    walls = [sum(c.ref_seconds for c in cmds) for cmds in passes]
    attempted = sum(len(cmds) for cmds in passes)
    failed = sum(not c.ok for cmds in passes for c in cmds)
    for failure in client.failures:
        print(f"failure {failure}")
    for label, digests in client.reference.items():
        print(f"digest {label} " + " ".join(f"{k}={v[:16]}" for k, v in digests.items()))

    out = work / "pass"
    plain = [cmds for cmds, t in zip(passes, traced) if not t]
    quality_ok = True
    try:
        workload_metrics, counts = workload.results(plain, out)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        print(f"failure results: {type(exc).__name__}: {exc}")
        workload_metrics, counts, quality_ok = [], {}, False
    for m in workload_metrics:
        quality_ok = quality_ok and m.value == m.value and abs(m.value) != float("inf")
        print_metric("metric", m)

    plain_walls = [w for w, t in zip(walls, traced) if not t]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = [
        Metric("wall_s", median(plain_walls), "s", "lower", len(plain_walls)),
        Metric("setup_s", setup_s, "s", "lower", SETUP_REPEATS),
        Metric("peak_rss_mb", rss_mb, "MB", "lower", 1),
    ]
    for m in e2e:
        print_metric("metric", m)
    print("pass wall_s " + " ".join(f"{w:.4f}" for w in plain_walls))
    raw = median([sum(c.seconds for c in cmds) for cmds in plain])
    print(f"measured wall_s = {raw:.6g} s; wall_s above is in reference seconds, "
          f"{len(speed.samples)} host speed samples")
    print(f"metric failed_ratio = {failed / attempted:.6g} share (lower is better, n={attempted})")

    if tracer is None:
        by_name = {m.name: m for m in e2e}
        metrics = {m["name"]: {"value": by_name[m["name"]].value, "unit": m["unit"]}
                   for m in spec()["end_to_end"]}
    else:
        traced_passes = [cmds for cmds, t in zip(passes, traced) if t]
        table = layer_metrics(tracer, spans, traced_passes, counts)
        overhead = median([w for w, t in zip(walls, traced) if t]) / median(plain_walls)
        table["trace_overhead"] = Metric("trace_overhead", overhead, "ratio", "lower", len(spans))
        for m in table.values():
            if m.n:  # a layer the workload never calls has no per-call samples
                print_metric("layer", m)
        tracer.save(work / "spans.npz")
        print(f"spans: {len(tracer.name_col)} written to {(work / 'spans.npz').relative_to(ROOT)}")
        metrics = {m["name"]: {"value": table[m["name"]].value, "unit": m["unit"]}
                   for m in spec()["per_layer"]}

    correct = failed == 0 and pure and quality_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_against(args) -> int:
    """Interleaved A/B: pairs of subprocess runs, alternating which side goes first."""
    sides = {"this": source_tree(args.src), "other": source_tree(args.against)}
    missing = [name for name, src in sides.items() if src is None]
    if missing:
        print(f"error: no swarmcast source tree for {missing}", file=sys.stderr)
        return 2
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in spec()["end_to_end"]}
    values = {side: {name: [] for name in end_to_end} for side in sides}
    wins = {name: 0 for name in end_to_end}
    pairs = args.pairs
    for i in range(pairs):
        order = ("this", "other") if i % 2 == 0 else ("other", "this")
        seed = args.seed + i
        pair = {}
        for side in order:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                   "--src", str(sides[side])]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {side} run failed (exit {proc.returncode}): {proc.stderr[-400:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"error: {side} run on seed {seed} was not correct", file=sys.stderr)
                return 1
            pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
        for name, (_, better) in end_to_end.items():
            for side in sides:
                values[side][name].append(pair[side][name])
            this, other = pair["this"][name], pair["other"][name]
            if this != other and (this < other) == (better == "lower"):
                wins[name] += 1
        print(f"pair {i} seed {seed} first={order[0]} this/other " + " ".join(
            f"{name}:{pair['this'][name]:.4g}/{pair['other'][name]:.4g}" for name in end_to_end))
    summary = {"workload": args.workload, "pairs": pairs, "sides": {}, "this_wins_share": {}}
    for side in sides:
        summary["sides"][side] = {}
        for name, (unit, _) in end_to_end.items():
            q1, q2, q3 = quartiles(values[side][name])
            summary["sides"][side][name] = {"median": q2, "q1": q1, "q3": q3, "unit": unit}
            print(f"{side} {name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={pairs})")
    for name in end_to_end:
        summary["this_wins_share"][name] = wins[name] / pairs
        print(f"this side won {wins[name]}/{pairs} pairs on {name}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.against:
        return run_against(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
