"""Command-line experiment runner.

Subcommands cover the full narrative: ``synth`` writes a correlated
synthetic domain pair as CSV triples plus a ground-truth latent file,
``train`` fits the dual model on a pair and saves the weight bundle,
``eval`` runs record-stratified cross validation and emits metric reports,
``alpha-sweep`` repeats the evaluation across a transfer-rate grid, and
``nmf-lab`` runs the dual nonnegative-factorization convergence experiment
and emits its loss trace.

Configuration is a flat ``key=value`` text file; command-line flags
override file keys, file keys override defaults. The keys are every
``TrainConfig`` key (``hidden`` is written ``16,8``) plus the keys of
evaluation, data generation, the sweep and the NMF lab. The transfer rate
alpha, and every entry of ``alphas``, lies in [0, 0.5]. Unknown keys and
out-of-range values fail fast with a one-line error that names the key.
Every run writes the effective configuration next to its outputs so results
are re-derivable. Reruns with the same config and seed produce byte-identical
text outputs (CSV, JSON, config echo). Set DUALREC_VERBOSE=1 for progress
lines on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dualrec import evaluate, features, nmflab
from dualrec.dualmodel import TrainConfig, check_alpha, check_at_least, save_dual_model, train_pair
from dualrec.features import load_domain, load_schema, require_disjoint_items, save_schema, synth_pair, write_domain


@dataclass
class ExperimentConfig(TrainConfig):
    """Every knob of every pipeline, with standard defaults.

    The training keys are TrainConfig's, checked there; this class adds the
    keys of evaluation, data generation, the sweep and the NMF lab.
    """

    folds: int = 5
    seed: int = 0
    rank_k: int = 5
    tau: float = 0.5
    # synthetic pair generation
    rho: float = 0.8
    sigma: float = 0.05
    density: float = 0.05
    n_users: int = 500
    n_items: int = 200
    latent_dim: int = 8
    # transfer-rate sweep, comma-separated
    alphas: str = "0,0.01,0.03,0.05,0.1,0.2"
    # dual-NMF lab
    nmf_rows: int = 20
    nmf_cols: int = 15
    nmf_rank: int = 4
    nmf_alpha: float = 0.1
    nmf_iters: int = 200_000
    nmf_tol: float = 1e-8
    nmf_scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        check_at_least(self, ("folds",), 2)
        check_at_least(
            self, ("rank_k", "n_users", "n_items", "latent_dim", "nmf_rows", "nmf_cols", "nmf_rank", "nmf_iters"), 1
        )
        check_at_least(self, ("seed", "sigma", "nmf_tol"), 0)
        for key, ok, bound in (
            ("tau", 0.0 < self.tau < 1.0, "(0, 1)"),
            ("rho", 0.0 <= self.rho <= 1.0, "[0, 1]"),
            ("density", 0.0 < self.density <= 1.0, "(0, 1]"),
            # the NMF reduction divides by 1 - 2 * alpha, so 0.5 is out
            ("nmf_alpha", 0.0 <= self.nmf_alpha < 0.5, "[0, 0.5)"),
            ("nmf_scale", self.nmf_scale > 0.0, "(0, inf)"),
        ):
            if not ok:
                raise ValueError(f"{key}={getattr(self, key)} outside {bound}")
        rates = parse_alphas(self.alphas)
        if not rates:
            raise ValueError("alphas names no transfer rate")
        for a in rates:
            check_alpha(a, "alphas entry")
        if self.nmf_rank > min(self.nmf_rows, self.nmf_cols):
            raise ValueError(f"nmf_rank={self.nmf_rank} above min(nmf_rows, nmf_cols)={min(self.nmf_rows, self.nmf_cols)}")


_FIELDS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELDS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple[int, ...]":
            return tuple(int(part) for part in raw.split(",") if part.strip() != "")
        return raw
    except ValueError:
        raise ValueError(f"config key {key} expects a {kind}, got {raw!r}") from None


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(part) for part in value)
    return str(value)


def parse_alphas(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"alphas must be comma-separated numbers, got {text!r}") from None


def load_config(path) -> ExperimentConfig:
    """Flat key=value file; unknown keys are an error, absent keys default."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            if key not in _FIELDS:
                raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw.strip())
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_config(cfg: ExperimentConfig, path) -> None:
    """Effective-config echo; reloading reproduces the exact config."""
    lines = [f"{name}={_format_value(getattr(cfg, name))}" for name in sorted(_FIELDS)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _log(msg: str) -> None:
    if os.environ.get("DUALREC_VERBOSE"):
        print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# dataset file layout shared by synth (writer) and train/eval (readers)


def _domain_paths(root: Path, name: str) -> dict:
    return {
        "interactions": root / f"{name}_interactions.csv",
        "user_features": root / f"{name}_user_features.csv",
        "item_features": root / f"{name}_item_features.csv",
        "user_schema": root / f"{name}_user_schema.txt",
        "item_schema": root / f"{name}_item_schema.txt",
    }


def load_pair(data_dir) -> tuple[features.DomainDataset, features.DomainDataset]:
    root = Path(data_dir)
    out = []
    for name in ("a", "b"):
        paths = _domain_paths(root, name)
        for p in paths.values():
            if not p.exists():
                raise FileNotFoundError(f"missing dataset file {p}")
        out.append(load_domain(paths["interactions"], paths["user_features"], paths["item_features"],
                               load_schema(paths["user_schema"]), load_schema(paths["item_schema"]), domain_name=name))
    require_disjoint_items(out[0], out[1])
    return out[0], out[1]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: ExperimentConfig, out_dir: Path) -> int:
    ds_a, ds_b, truth = synth_pair(n_users=cfg.n_users, n_items_per_domain=cfg.n_items, latent_dim=cfg.latent_dim,
                                   cross_correlation=cfg.rho, noise=cfg.sigma, density=cfg.density, seed=cfg.seed)
    for name, ds in (("a", ds_a), ("b", ds_b)):
        paths = _domain_paths(out_dir, name)
        write_domain(ds, paths["interactions"], paths["user_features"], paths["item_features"])
        save_schema(ds.user_schema, paths["user_schema"])
        save_schema(ds.item_schema, paths["item_schema"])
    np.savez(out_dir / "truth.npz", **dataclasses.asdict(truth))  # every field, ids as text arrays
    save_config(cfg, out_dir / "config.txt")
    _log(f"synth: {len(ds_a.interactions)} + {len(ds_b.interactions)} interactions -> {out_dir}")
    return 0


def cmd_train(cfg: ExperimentConfig, data_dir: Path, out_dir: Path) -> int:
    ds_a, ds_b = load_pair(data_dir)
    dm, (trace_a, trace_b) = train_pair(ds_a, ds_b, cfg, seed=cfg.seed)
    save_dual_model(dm, out_dir / "model.npz")
    evaluate.write_trace_csv(
        out_dir / "loss_trace.csv",
        ["epoch", "loss_a", "loss_b"],
        [(e, la, lb) for e, (la, lb) in enumerate(zip(trace_a, trace_b))],
    )
    save_config(cfg, out_dir / "config.txt")
    _log(f"train: {len(trace_a) - 1} epochs -> {out_dir / 'model.npz'}")
    return 0


def cmd_eval(cfg: ExperimentConfig, data_dir: Path, out_dir: Path) -> int:
    ds_a, ds_b = load_pair(data_dir)
    rep_a, rep_b = evaluate.run_cv(
        ds_a, ds_b, cfg, k=cfg.folds, seed=cfg.seed, rank_k=cfg.rank_k, tau=cfg.tau
    )
    evaluate.write_report_csv(out_dir / "report.csv", [rep_a, rep_b])
    evaluate.write_summary_json(out_dir / "summary.json", evaluate.report_summary([rep_a, rep_b]))
    save_config(cfg, out_dir / "config.txt")
    _log(f"eval: rmse a={rep_a.rmse:.4f} b={rep_b.rmse:.4f} -> {out_dir}")
    return 0


def cmd_alpha_sweep(cfg: ExperimentConfig, data_dir: Path, out_dir: Path) -> int:
    ds_a, ds_b = load_pair(data_dir)
    points = evaluate.alpha_sweep(
        ds_a, ds_b, parse_alphas(cfg.alphas), cfg, k=cfg.folds, seed=cfg.seed, rank_k=cfg.rank_k, tau=cfg.tau
    )
    evaluate.write_sweep_csv(out_dir / "sweep.csv", points)
    summary = {
        "alphas": [pt.alpha for pt in points],
        "points": {
            repr(pt.alpha): evaluate.report_summary([pt.report_a, pt.report_b]) for pt in points
        },
    }
    evaluate.write_summary_json(out_dir / "summary.json", summary)
    save_config(cfg, out_dir / "config.txt")
    _log(f"alpha-sweep: {len(points)} points -> {out_dir}")
    return 0


def cmd_nmf_lab(cfg: ExperimentConfig, out_dir: Path) -> int:
    problem = nmflab.make_random_problem(
        cfg.nmf_rows, cfg.nmf_cols, cfg.nmf_rank, cfg.nmf_alpha, cfg.seed, scale=cfg.nmf_scale
    )
    conditions_before = nmflab.check_conditions(problem)
    perturbed = not all(conditions_before.values())
    if perturbed:
        problem = nmflab.perturb_problem(problem, cfg.nmf_scale)
    conditions_after = nmflab.check_conditions(problem)
    state = nmflab.run_nmf(problem, max_iters=cfg.nmf_iters, tol=cfg.nmf_tol, seed=cfg.seed)
    trace = state.loss_trace
    evaluate.write_trace_csv(
        out_dir / "nmf_trace.csv", ["iteration", "loss"], list(enumerate(trace))
    )
    reduced_part, cross_part = nmflab.loss_decomposition(problem, state)
    summary = {
        "alpha": cfg.nmf_alpha,
        "rank": cfg.nmf_rank,
        "shape": [cfg.nmf_rows, cfg.nmf_cols],
        "conditions_before": conditions_before,
        "perturbation_applied": perturbed,
        "conditions_after": conditions_after,
        "iterations": len(trace) - 1,
        "converged": abs(trace[-1] - trace[-2]) < cfg.nmf_tol,
        "final_traced_loss": trace[-1],
        "final_direct_loss": nmflab.dual_loss(problem, state),
        "final_reduced_part": reduced_part,
        "final_cross_part": cross_part,
    }
    evaluate.write_summary_json(out_dir / "nmf_summary.json", summary)
    save_config(cfg, out_dir / "config.txt")
    _log(f"nmf-lab: {summary['iterations']} iterations, final loss {trace[-1]:.3e} -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_override(parser: argparse.ArgumentParser, flag: str, key: str, help_text: str) -> None:
    kind = _FIELDS[key]
    typ = int if kind == "int" else float if kind == "float" else str
    parser.add_argument(flag, dest=key, type=typ, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualrec",
        description="Dual-transfer cross-domain recommendation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic correlated domain pair")
    p_synth.add_argument("--out", required=True, help="output directory")
    _add_override(p_synth, "--rho", "rho", "cross-domain correlation in [0, 1]")
    _add_override(p_synth, "--sigma", "sigma", "rating noise standard deviation")
    _add_override(p_synth, "--density", "density", "observation probability in (0, 1]")
    _add_override(p_synth, "--n-users", "n_users", "users shared by both domains")
    _add_override(p_synth, "--n-items", "n_items", "items per domain")
    _add_override(p_synth, "--latent-dim", "latent_dim", "ground-truth latent dimension")

    p_train = sub.add_parser("train", help="train the dual model on a domain pair")
    p_train.add_argument("--data", required=True, help="directory produced by synth (or same layout)")
    p_train.add_argument("--out", required=True, help="output directory")
    _add_override(p_train, "--alpha", "alpha", "transfer rate in [0, 0.5]")
    _add_override(p_train, "--epochs", "epochs", "epoch budget")
    _add_override(p_train, "--embed-dim", "embed_dim", "embedding size")

    p_eval = sub.add_parser("eval", help="cross-validate and write metric reports")
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--out", required=True, help="output directory")
    _add_override(p_eval, "--alpha", "alpha", "transfer rate in [0, 0.5]")
    _add_override(p_eval, "--folds", "folds", "cross-validation folds")
    _add_override(p_eval, "--epochs", "epochs", "epoch budget")

    p_sweep = sub.add_parser("alpha-sweep", help="cross-validate across a transfer-rate grid")
    p_sweep.add_argument("--data", required=True, help="dataset directory")
    p_sweep.add_argument("--out", required=True, help="output directory")
    _add_override(p_sweep, "--alphas", "alphas", "comma-separated transfer rates")
    _add_override(p_sweep, "--folds", "folds", "cross-validation folds")
    _add_override(p_sweep, "--epochs", "epochs", "epoch budget")

    p_nmf = sub.add_parser("nmf-lab", help="dual-NMF convergence experiment")
    p_nmf.add_argument("--out", required=True, help="output directory")
    _add_override(p_nmf, "--alpha", "nmf_alpha", "coupling weight in [0, 0.5)")
    _add_override(p_nmf, "--rows", "nmf_rows", "rating matrix rows")
    _add_override(p_nmf, "--cols", "nmf_cols", "rating matrix columns")
    _add_override(p_nmf, "--rank", "nmf_rank", "factorization rank")
    _add_override(p_nmf, "--iters", "nmf_iters", "iteration budget")

    for p in (p_synth, p_train, p_eval, p_sweep, p_nmf):
        p.add_argument("--config", default=None, help="key=value config file")
        _add_override(p, "--seed", "seed", "base random seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        overrides = {key: getattr(args, key) for key in _FIELDS if getattr(args, key, None) is not None}
        cfg = dataclasses.replace(cfg, **overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            return cmd_synth(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, Path(args.data), out_dir)
        if args.command == "eval":
            return cmd_eval(cfg, Path(args.data), out_dir)
        if args.command == "alpha-sweep":
            return cmd_alpha_sweep(cfg, Path(args.data), out_dir)
        if args.command == "nmf-lab":
            return cmd_nmf_lab(cfg, out_dir)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
