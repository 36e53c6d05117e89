"""Benchmark of the dualrec package: three closed-loop workloads.

Run from the root of a checkout:

    python3 benchmark/run.py --workload train-standard --seed 1 --seconds 40 --trace 0

Workloads: ``train-standard``, ``cv-sweep`` and ``nmf-settle`` (see
README.md). Each run builds its inputs from ``--seed`` several times and
reports the median set-up time, then repeats whole rounds of the workload
while the next round still fits in ``--seconds`` (at least one round), and
checks every round's outputs. Times are taken in seconds and in units of a
reference loop run beside them (refclock.py). The program is driven through
its public functions and its CLI, in this one process, with one BLAS thread.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs three
rounds whatever ``--seconds`` says, the middle one with every layer traced,
and prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
A copy with the environment and every round's figures goes to
``benchmark/.out/<workload>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
BLAS_THREADS = "1"

# The BLAS library reads its thread count once, when numpy first loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from refclock import NOMINAL_REF_S, RefClock  # noqa: E402

# Set-up runs at least this many times, and more until it has taken this long.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 1000

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_ref", "ref"),
    ("throughput_per_ref", "1/ref"),
    ("rmse", "rating"),
)


@dataclass
class Round:
    """One round's operation counts, timings and outputs (checked later)."""

    attempted: int
    failed: int = 0
    wall_s: float = 0.0  # the whole timed part
    main_s: float = 0.0  # the main operation, net seconds
    main_ref: float = 0.0  # the same in reference-loop units
    rate_s: float = 0.0  # throughput, per second
    rate_ref: float = 0.0  # throughput, per reference-loop unit
    rmse: float = 0.0
    outputs: dict = field(default_factory=dict)


def _failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# workloads


class TrainStandard:
    """train_pair on the standard pair, save, load, then one predict per interaction."""

    name = "train-standard"
    PAIR_SEED = 101
    NOISE = 0.02
    TRAIN_SEED = 1

    def __init__(self, dualrec, out: Path, clock: RefClock):
        self.features, self.dualmodel = dualrec.features, dualrec.dualmodel
        self.out, self.clock = out, clock

    def setup(self, seed: int) -> dict:
        ds_a, ds_b, _ = self.features.synth_pair(noise=self.NOISE, seed=self.PAIR_SEED)
        users = [{r.user_id for r in ds.interactions} for ds in (ds_a, ds_b)]
        calls, ratings = [], []
        for d, ds in enumerate((ds_a, ds_b)):
            for r in ds.interactions:
                calls.append((d, ds.user_features[r.user_id], ds.item_features[r.item_id], r.user_id in users[1 - d]))
                ratings.append(r.rating)
        # the seed sets the order of the scoring calls; the pair is fixed (README)
        order = np.random.default_rng(seed).permutation(len(calls))
        return {
            "ds_a": ds_a,
            "ds_b": ds_b,
            "calls": [calls[k] for k in order],
            "ratings": np.array(ratings)[order],
            "domains": np.array([calls[k][0] for k in order]),
        }

    def round(self, inp: dict) -> Round:
        dm_mod = self.dualmodel
        cfg = dm_mod.TrainConfig()
        calls = inp["calls"]
        rnd = Round(attempted=3 + len(calls))
        path = self.out / "model.npz"
        t0 = perf_counter()
        try:
            (dm, traces), rnd.main_s, rnd.main_ref = self.clock.measure(
                lambda: dm_mod.train_pair(inp["ds_a"], inp["ds_b"], cfg, seed=self.TRAIN_SEED)
            )
            dm_mod.save_dual_model(dm, path)
            loaded = dm_mod.load_dual_model(path)
        except Exception:
            _failure("train, save or load")
            rnd.failed = rnd.attempted
            return rnd

        def score_all():
            preds = []
            for d, user_raw, item_raw, in_overlap in calls:
                try:
                    preds.append(dm_mod.predict(loaded, d, user_raw, item_raw, in_overlap))
                except Exception:
                    _failure("predict")
                    rnd.failed += 1
                    preds.append(float("nan"))
            return preds

        preds, predict_s, predict_ref = self.clock.measure(score_all)
        rnd.wall_s = perf_counter() - t0
        rnd.rate_s, rnd.rate_ref = len(calls) / predict_s, len(calls) / predict_ref
        preds = np.array(preds)
        rmses = [np.sqrt(np.mean((preds - inp["ratings"])[inp["domains"] == d] ** 2)) for d in (0, 1)]
        rnd.rmse = float(np.mean(rmses))
        rnd.outputs = {"dm": dm, "loaded": loaded, "traces": traces, "preds": preds, "cfg": cfg, "path": path}
        return rnd

    def check(self, inp: dict, out: dict) -> list[str]:
        with np.load(out["path"], allow_pickle=False) as data:
            bundle = {k: data[k] for k in data.files}
        cfg = out["cfg"]
        return [
            *checks.check_orthogonal(bundle["map_x"]),
            *checks.check_tol_stop(*out["traces"], cfg.tol, cfg.epochs),
            *checks.check_beats_constant(out["preds"], inp["ratings"], inp["domains"]),
            *checks.check_predictions(bundle, inp["calls"], out["preds"]),
            *checks.check_round_trip(self.model_arrays(out["dm"]), self.model_arrays(out["loaded"])),
        ]

    def model_arrays(self, dm) -> dict:
        """Every array of a dual model, read through its public attributes."""
        out = {"alpha": np.array(dm.alpha), "map_x": dm.map.x}
        for tag in ("rs_a", "rs_b"):
            for i, layer in enumerate(getattr(dm, tag).layers):
                out[f"{tag}.{i}.w"], out[f"{tag}.{i}.b"] = layer.weights, layer.bias
        for tag in ("ae_user_a", "ae_item_a", "ae_user_b", "ae_item_b"):
            ae = getattr(dm, tag)
            for part in ("encoder", "decoder"):
                layer = getattr(ae, part)
                out[f"{tag}.{part}.w"], out[f"{tag}.{part}.b"] = layer.weights, layer.bias
        for tag in ("user_schema_a", "item_schema_a", "user_schema_b", "item_schema_b"):
            out[tag] = np.array(self.features.schema_to_text(getattr(dm, tag)))
        return out


class CvSweep:
    """`dualrec alpha-sweep --alphas 0,0.03 --seed 0` on the standard pair written as CSV."""

    name = "cv-sweep"
    ALPHAS = ("0", "0.03")
    REPORTED_ALPHA = 0.03

    def __init__(self, dualrec, out: Path, clock: RefClock):
        self.cli = dualrec.cli
        self.out, self.clock = out, clock

    def setup(self, seed: int) -> dict:
        data = _fresh_dir(self.out / "data")
        if self.cli.main(["synth", "--seed", "101", "--sigma", "0.02", "--out", str(data)]) != 0:
            raise RuntimeError("dualrec synth failed")
        ratings = {d: checks.read_ratings(data / f"{d}_interactions.csv") for d in ("a", "b")}
        std = {d: float(np.std(r)) for d, r in ratings.items()}
        n_records = sum(len(r) for r in ratings.values())
        # the seed sets the order of the sweep points; the data is fixed (README)
        alphas = [self.ALPHAS[k] for k in np.random.default_rng(seed).permutation(len(self.ALPHAS))]
        return {"data": data, "std": std, "n_records": n_records, "alphas": alphas}

    def round(self, inp: dict) -> Round:
        rnd = Round(attempted=1)
        out = _fresh_dir(self.out / "sweep")
        argv = ["alpha-sweep", "--data", str(inp["data"]), "--out", str(out), "--alphas", ",".join(inp["alphas"]), "--seed", "0"]
        code, rnd.main_s, rnd.main_ref = self.clock.measure(lambda: self.cli.main(argv))
        rnd.wall_s = rnd.main_s
        if code != 0:
            print(f"operation failed: dualrec {' '.join(argv)} exited {code}", file=sys.stderr)
            rnd.failed = 1
            return rnd
        rows = checks.read_sweep_csv(out / "sweep.csv")
        # every record is held out once per sweep point
        scored = len(self.ALPHAS) * inp["n_records"]
        rnd.rate_s, rnd.rate_ref = scored / rnd.main_s, scored / rnd.main_ref
        rnd.rmse = float(np.mean([r["rmse"] for r in rows if r["alpha"] == self.REPORTED_ALPHA]))
        rnd.outputs = {"rows": rows, "summary": checks.read_json(out / "summary.json")}
        return rnd

    def check(self, inp: dict, out: dict) -> list[str]:
        rows = out["rows"]
        return [
            *checks.check_sweep_rows(rows, [float(a) for a in self.ALPHAS]),
            *checks.check_error_order(rows),
            *checks.check_beats_std(rows, inp["std"]),
            *checks.check_rank_bounds(rows),
            *checks.check_summary_agrees(rows, out["summary"]),
        ]


class NmfSettle:
    """`dualrec nmf-lab` on three problems of the convergence criterion, each run to settlement."""

    name = "nmf-settle"
    PROBLEMS = ((0.1, 1), (0.2, 2), (0.2, 11))  # (alpha, seed)
    BUDGET = 200_000
    SHAPE = (20, 15, 4)  # the nmf-lab defaults: rows, cols, rank

    def __init__(self, dualrec, out: Path, clock: RefClock):
        self.cli, self.nmflab = dualrec.cli, dualrec.nmflab
        self.out, self.clock = out, clock

    def setup(self, seed: int) -> dict:
        runs = []
        # the seed sets the order of the three runs; the problems are fixed (README)
        for k in np.random.default_rng(seed).permutation(len(self.PROBLEMS)):
            alpha, pseed = self.PROBLEMS[k]
            problem = self.nmflab.perturb_problem(self.nmflab.make_random_problem(*self.SHAPE, alpha, pseed), 1.0)
            conditions = self.nmflab.check_conditions(problem)
            if not all(conditions.values()):
                raise RuntimeError(f"problem seed {pseed}: conditions {conditions} fail after perturbation")
            argv = ["nmf-lab", "--alpha", str(alpha), "--seed", str(pseed), "--iters", str(self.BUDGET)]
            runs.append((argv, self.out / f"problem-{pseed}"))
        return {"runs": runs}

    def round(self, inp: dict) -> Round:
        runs = inp["runs"]
        rnd = Round(attempted=len(runs))
        dirs = [_fresh_dir(d) for _, d in runs]
        codes, rnd.main_s, rnd.main_ref = self.clock.measure(
            lambda: [self.cli.main([*argv, "--out", str(d)]) for (argv, _), d in zip(runs, dirs)]
        )
        rnd.wall_s = rnd.main_s
        for (argv, _), code in zip(runs, codes):
            if code != 0:
                print(f"operation failed: dualrec {' '.join(argv)} exited {code}", file=sys.stderr)
                rnd.failed += 1
        if rnd.failed:
            return rnd
        results = [(checks.read_trace_csv(d / "nmf_trace.csv"), checks.read_json(d / "nmf_summary.json")) for d in dirs]
        rows, cols, _ = self.SHAPE
        iterations = sum(s["iterations"] for _, s in results)
        rnd.rate_s, rnd.rate_ref = iterations / rnd.main_s, iterations / rnd.main_ref
        # root mean square residual per rating entry of the coupled objective
        rnd.rmse = float(np.mean([np.sqrt(s["final_direct_loss"] / (2 * rows * cols)) for _, s in results]))
        rnd.outputs = {"results": results}
        return rnd

    def check(self, inp: dict, out: dict) -> list[str]:
        problems = []
        for (argv, _), (trace, summary) in zip(inp["runs"], out["results"]):
            found = [
                *checks.check_monotone(trace),
                *checks.check_settled(trace, self.BUDGET),
                *checks.check_traced_final(trace, summary),
                *checks.check_decomposition(summary),
                *checks.check_conditions_after(summary),
            ]
            problems.extend(f"{' '.join(argv)}: {p}" for p in found)
        return problems


WORKLOADS = {w.name: w for w in (TrainStandard, CvSweep, NmfSettle)}

# The end-to-end metrics under the names each workload's description uses.
NAMED = {
    "train-standard": (("train_s", "main_s", "s"), ("predict_per_s", "throughput_per_s", "records/s")),
    "cv-sweep": (("sweep_s", "main_s", "s"), ("cv_rmse", "rmse", "rating"), ("scored_per_s", "throughput_per_s", "records/s")),
    "nmf-settle": (("nmf_s", "main_s", "s"), ("nmf_iters_per_s", "throughput_per_s", "iterations/s")),
}


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k, "?")) for k in ("name", "version")),
        "blas_build": blas.get("openblas configuration", ""),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running a workload


def measure_setup(workload, clock: RefClock, seed: int):
    """Build the inputs repeatedly; return them and each build's (seconds, ref)."""
    times = []
    begin = perf_counter()
    while len(times) < SETUP_MIN_REPS or (perf_counter() - begin < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        inputs, seconds, ref = clock.measure(lambda: workload.setup(seed))
        times.append((seconds, ref))
    return inputs, times


def play(workload, inputs, tracer=None) -> tuple[Round, list[str]]:
    """One round, traced when a tracer is given, then its output checks."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        rnd = workload.round(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = workload.check(inputs, rnd.outputs) if not rnd.failed else []
    rnd.outputs = {}
    return rnd, problems


def run_rounds(workload, inputs, seconds: float) -> list[tuple[Round, list[str]]]:
    """Whole rounds while the next one is expected to end within ``seconds``."""
    done, durations = [], []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        done.append(play(workload, inputs))
        durations.append(perf_counter() - t0)
        if perf_counter() - begin + statistics.median(durations) > seconds:
            return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dualrec" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: no {src / 'dualrec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dualrec

    if not Path(dualrec.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported dualrec from {dualrec.__file__}, not from {src}", file=sys.stderr)
        return 2
    from dualrec import cli  # noqa: F401  (loads the cli module, so it can be traced)

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    # reference samples would run inside traced spans; a traced run times in seconds only
    clock = RefClock(enabled=not args.trace)
    workload = WORKLOADS[args.workload](dualrec, out, clock)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    inputs, setup_times = measure_setup(workload, clock, args.seed)
    if args.trace:
        # untraced rounds before and after the traced one, so that warm-up
        # within the process does not count as tracing cost
        tracer = spans.Tracer()
        done = [play(workload, inputs), play(workload, inputs, tracer), play(workload, inputs)]
        for name in tracer.missing:
            print(f"warning: {name} not found, its metrics read 0", file=sys.stderr)
    else:
        done = run_rounds(workload, inputs, args.seconds)
    for k, (rnd, problems) in enumerate(done):
        label = "traced round" if args.trace and k == 1 else f"round {k}"
        print(f"{label}: wall {rnd.wall_s:.4f} s, main {rnd.main_s:.4f} s = {rnd.main_ref:.1f} ref, failed {rnd.failed}/{rnd.attempted}")
        for p in problems:
            print(f"  check failed: {p}")
    rounds = [rnd for rnd, _ in done]
    # metrics come from rounds without a failed operation
    clean = [rnd for rnd in rounds if not rnd.failed]
    if not clean or (args.trace and len(clean) < len(rounds)):
        print("error: too many operations failed to report the metrics", file=sys.stderr)
        return 1
    problems = [p for _, ps in done for p in ps]
    # tracing must not change any result either
    rmses = {rnd.rmse for rnd in clean}
    if len(rmses) != 1:
        problems.append(f"rounds of one seed disagree on rmse: {sorted(rmses)}")
        print(f"check failed: {problems[-1]}")

    if args.trace:
        untraced_wall = statistics.median([rounds[0].wall_s, rounds[2].wall_s])
        tracer.write(out / "spans.npz")
        metrics = tracer.layer_metrics(rounds[1].wall_s, untraced_wall)
    else:
        values = {
            # seconds at the reference machine's usual speed (refclock.NOMINAL_REF_S)
            "setup_s": statistics.median(ref for _, ref in setup_times) * NOMINAL_REF_S,
            "setup_wall_s": statistics.median(seconds for seconds, _ in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "main_ref": statistics.median(r.main_ref for r in clean),
            "throughput_per_ref": statistics.median(r.rate_ref for r in clean),
            "rmse": clean[-1].rmse,
            # in seconds as well, for reading; these drift with the machine
            "main_s": statistics.median(r.main_s for r in clean),
            "throughput_per_s": statistics.median(r.rate_s for r in clean),
            "ref_loop_s": statistics.median(clock.history),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, key, unit in NAMED[args.workload] + (("setup_wall_s", "setup_wall_s", "s"), ("ref_loop_s", "ref_loop_s", "s")):
            print(f"{args.workload} {name} = {values[key]:.6g} {unit}")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    record = {
        "args": vars(args),
        "environment": env,
        "setup_times_s_ref": setup_times,
        "rounds": [{k: v for k, v in vars(r).items() if k != "outputs"} for r in rounds],
        "ref_loop_s": clock.history,
        "problems": problems,
        "result": result,
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
