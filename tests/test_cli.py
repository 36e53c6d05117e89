"""End-to-end command-line pipeline tests on a miniature dataset."""

import csv
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualrec import dualmodel, evaluate
from dualrec.cli import ExperimentConfig, load_config, load_pair, main, save_config
from dualrec.dualmodel import TrainConfig, load_dual_model
from dualrec.evaluate import alpha_sweep

SMALL = {
    "n_users": 30,
    "n_items": 12,
    "latent_dim": 4,
    "embed_dim": 4,
    "epochs": 2,
    "ae_epochs": 100,
    "folds": 2,
    "density": 0.4,
    "sigma": 0.05,
    "alphas": "0,0.03",
}


# out-of-range values, at least one per config key, as written in a config file
OUT_OF_RANGE = [
    ("alpha", "0.6"), ("alpha", "nan"), ("embed_dim", "0"), ("epochs", "0"), ("tol", "-1e-9"),
    ("lr_a", "-0.1"), ("lr_b", "nan"), ("lr_map", "-1"), ("batch_size", "0"),
    ("penalty_weight", "-1"), ("hidden", "8,0"), ("ae_lr", "-0.05"), ("ae_epochs", "0"),
    ("ae_batch_size", "0"), ("folds", "1"), ("seed", "-1"), ("rank_k", "0"), ("tau", "1.0"),
    ("rho", "1.5"), ("sigma", "-0.1"), ("density", "0"), ("n_users", "0"), ("n_items", "0"),
    ("latent_dim", "0"), ("alphas", "0,0.6"), ("nmf_rows", "0"), ("nmf_cols", "0"),
    ("nmf_rank", "0"), ("nmf_alpha", "0.5"), ("nmf_iters", "0"), ("nmf_tol", "-1"),
    ("nmf_scale", "0"),
]


# a float and a bool for every key typed int, and hidden widths that are no integers, as the error names them
NON_INTEGERS = [(f.name, value, f"{f.name}={value}") for f in dataclasses.fields(ExperimentConfig) if f.type == "int"
                for value in (2.5, True)] + [("hidden", (8.5,), "hidden[0]=8.5"), ("hidden", (16, True), "hidden[1]=True")]


def write_small_config(path, **extra):
    cfg = dict(SMALL)
    cfg.update(extra)
    path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Shared synth output the downstream commands reuse."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_small_config(root / "config.txt")
    data = root / "data"
    assert main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(data)]) == 0
    return root, cfg, data


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        assert load_config(p) == ExperimentConfig()

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.alpha == 0.03
        assert cfg.embed_dim == 8
        assert cfg.epochs == 100
        assert cfg.folds == 5

    def test_round_trip_is_exact(self, tmp_path):
        cfg = ExperimentConfig(alpha=0.07, epochs=42, alphas="0,0.1", sigma=0.125)
        save_config(cfg, tmp_path / "c.txt")
        assert load_config(tmp_path / "c.txt") == cfg

    def test_unknown_key_rejected_with_location(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("alhpa=0.03\n", encoding="utf-8")
        with pytest.raises(ValueError, match="alhpa"):
            load_config(p)

    def test_type_mismatch_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("epochs=ten\n", encoding="utf-8")
        with pytest.raises(ValueError, match="epochs"):
            load_config(p)

    def test_alpha_bound_named_in_error(self):
        with pytest.raises(ValueError, match=r"^alpha 0.6 outside \[0, 0.5\]$"):
            ExperimentConfig(alpha=0.6)

    def test_hidden_is_a_config_key(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("hidden=12,6\n", encoding="utf-8")
        cfg = load_config(p)
        assert cfg.hidden == (12, 6)
        save_config(cfg, tmp_path / "echo.txt")
        assert "hidden=12,6\n" in (tmp_path / "echo.txt").read_text(encoding="utf-8")

    def test_declares_no_training_key_twice(self):
        own = set(ExperimentConfig.__annotations__)
        assert own.isdisjoint(f.name for f in dataclasses.fields(TrainConfig))
        assert len(dataclasses.fields(ExperimentConfig)) == 31

    @pytest.mark.parametrize("key, bad", OUT_OF_RANGE)
    def test_out_of_range_value_names_its_key(self, tmp_path, key, bad):
        p = tmp_path / "c.txt"
        p.write_text(f"{key}={bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=key):
            load_config(p)

    def test_every_key_has_an_out_of_range_case(self):
        assert {key for key, _ in OUT_OF_RANGE} == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize("key, value, named", NON_INTEGERS)
    def test_an_integer_key_refuses_a_non_integer(self, key, value, named):
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an integer$"):
            ExperimentConfig(**{key: value})

    def test_numpy_integers_are_integers(self):
        cfg = ExperimentConfig(epochs=np.int64(3), hidden=(np.int64(4), np.int32(2)), folds=np.int64(3))
        assert (cfg.epochs, cfg.hidden, cfg.folds) == (3, (4, 2), 3)

    def test_empty_alpha_grid_rejected(self):
        with pytest.raises(ValueError, match="alphas"):
            ExperimentConfig(alphas=",")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_save_then_load_is_identity(self, tmp_path, data):
        rate = st.floats(0.0, 0.5)
        nonneg = st.floats(0.0, 1e3)
        count = st.integers(1, 10_000)
        rows, cols = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        cfg = ExperimentConfig(
            alpha=data.draw(rate),
            embed_dim=data.draw(count),
            epochs=data.draw(count),
            tol=data.draw(nonneg),
            lr_a=data.draw(nonneg),
            lr_b=data.draw(nonneg),
            lr_map=data.draw(nonneg),
            batch_size=data.draw(count),
            penalty_weight=data.draw(nonneg),
            hidden=tuple(data.draw(st.lists(count, max_size=4))),
            ae_lr=data.draw(nonneg),
            ae_epochs=data.draw(count),
            ae_batch_size=data.draw(count),
            folds=data.draw(st.integers(2, 20)),
            seed=data.draw(st.integers(0, 2**32)),
            rank_k=data.draw(count),
            tau=data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            rho=data.draw(st.floats(0.0, 1.0)),
            sigma=data.draw(nonneg),
            density=data.draw(st.floats(0.0, 1.0, exclude_min=True)),
            n_users=data.draw(count),
            n_items=data.draw(count),
            latent_dim=data.draw(count),
            alphas=",".join(repr(a) for a in data.draw(st.lists(rate, min_size=1, max_size=5))),
            nmf_rows=rows,
            nmf_cols=cols,
            nmf_rank=data.draw(st.integers(1, min(rows, cols))),
            nmf_alpha=data.draw(st.floats(0.0, 0.5, exclude_max=True)),
            nmf_iters=data.draw(count),
            nmf_tol=data.draw(nonneg),
            nmf_scale=data.draw(st.floats(0.0, 1e3, exclude_min=True)),
        )
        save_config(cfg, tmp_path / "c.txt")
        assert load_config(tmp_path / "c.txt") == cfg

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        p = tmp_path / "c.txt"
        p.write_text("alpha=0.6\n", encoding="utf-8")
        code = main(["eval", "--config", str(p), "--data", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSynth:
    def test_writes_domain_triples_truth_and_config_echo(self, pipeline_dir):
        _, _, data = pipeline_dir
        for name in ("a", "b"):
            for stem in ("interactions", "user_features", "item_features"):
                assert (data / f"{name}_{stem}.csv").exists()
            for stem in ("user_schema", "item_schema"):
                assert (data / f"{name}_{stem}.txt").exists()
        truth = np.load(data / "truth.npz")
        assert truth["q"].shape == (4, 4)
        assert truth["user_latents_a"].shape == (30, 4)
        echo = load_config(data / "config.txt")
        assert echo.seed == 7
        assert echo.n_users == 30

    def test_rerun_is_byte_identical(self, pipeline_dir, tmp_path):
        _, cfg, data = pipeline_dir
        again = tmp_path / "again"
        assert main(["synth", "--config", str(cfg), "--seed", "7", "--out", str(again)]) == 0
        for f in ("a_interactions.csv", "b_interactions.csv", "a_user_features.csv", "config.txt"):
            assert (again / f).read_bytes() == (data / f).read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = write_small_config(tmp_path / "c.txt")
        out = tmp_path / "synth"
        assert main(["synth", "--config", str(cfg), "--seed", "1", "--n-users", "9", "--out", str(out)]) == 0
        assert load_config(out / "config.txt").n_users == 9


class TestTrainEval:
    def test_train_emits_model_and_monotonish_trace(self, pipeline_dir, tmp_path):
        _, cfg, data = pipeline_dir
        out = tmp_path / "train"
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
        assert (out / "model.npz").exists()
        with open(out / "loss_trace.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # pre-training point + 2 epochs
        losses_a = [float(r["loss_a"]) for r in rows]
        assert all(np.isfinite(losses_a))
        assert losses_a[-1] < losses_a[0]

    def test_eval_report_parses_and_is_rerun_stable(self, pipeline_dir, tmp_path):
        _, cfg, data = pipeline_dir
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert main(["eval", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
        with open(out1 / "report.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["domain"] for r in rows} == {"a", "b"}
        assert len(rows) == 4  # 2 domains x 2 folds
        assert all(float(r["rmse"]) >= float(r["mae"]) for r in rows)
        summary = json.loads((out1 / "summary.json").read_text(encoding="utf-8"))
        assert set(summary["domains"]) == {"a", "b"}
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_summary_config_rebuilds_the_train_config(self, pipeline_dir, tmp_path):
        _, cfg, data = pipeline_dir
        out = tmp_path / "e"
        assert main(["eval", "--config", str(cfg), "--data", str(data), "--seed", "3", "--out", str(out)]) == 0
        echo = json.loads((out / "summary.json").read_text(encoding="utf-8"))["config"]
        run = load_config(cfg)
        train_keys = [f.name for f in dataclasses.fields(TrainConfig)]
        assert TrainConfig(**{k: echo[k] for k in train_keys}) == TrainConfig(**{k: getattr(run, k) for k in train_keys})
        assert (echo["folds"], echo["seed"], echo["rank_k"], echo["tau"]) == (run.folds, 3, run.rank_k, run.tau)

    def test_one_fold_fails_before_any_autoencoder_trains(self, pipeline_dir, tmp_path, capsys, monkeypatch):
        _, cfg, data = pipeline_dir

        def refuse(*args, **kwargs):
            raise AssertionError("an autoencoder trained")

        monkeypatch.setattr(dualmodel, "train_pair_autoencoders", refuse)
        code = main(["eval", "--config", str(cfg), "--data", str(data), "--folds", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "folds=1 below 2" in capsys.readouterr().err

    def test_eval_on_missing_data_dir_exits_nonzero(self, tmp_path, capsys):
        code = main(["eval", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing dataset file" in capsys.readouterr().err

    def test_alpha_sweep_covers_requested_grid(self, pipeline_dir, tmp_path):
        _, cfg, data = pipeline_dir
        out = tmp_path / "sweep"
        assert main(["alpha-sweep", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
        with open(out / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["alpha"] for r in rows] == ["0.0", "0.0", "0.03", "0.03"]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["alphas"] == [0.0, 0.03]

    def test_sweep_points_equal_eval_at_each_alpha(self, pipeline_dir, tmp_path):
        _, cfg, data = pipeline_dir
        sweep = tmp_path / "sweep"
        argv = ["--config", str(cfg), "--data", str(data), "--seed", "3"]
        assert main(["alpha-sweep", *argv, "--alphas", "0,0.03", "--out", str(sweep)]) == 0
        points = json.loads((sweep / "summary.json").read_text(encoding="utf-8"))["points"]
        for alpha in ("0", "0.03"):
            out = tmp_path / f"eval-{alpha}"
            assert main(["eval", *argv, "--alpha", alpha, "--out", str(out)]) == 0
            alone = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            assert points[repr(float(alpha))]["domains"] == alone["domains"]


class TestAlphaBound:
    """alpha 0.5 is accepted and 0.5000001 refused, with one message, on every path."""

    MESSAGE = "alpha 0.5000001 outside [0, 0.5]"

    def test_train_config(self):
        assert TrainConfig(alpha=0.5).alpha == 0.5
        with pytest.raises(ValueError) as exc:
            TrainConfig(alpha=0.5000001)
        assert str(exc.value) == self.MESSAGE

    def test_train_flag_and_load(self, pipeline_dir, tmp_path, capsys):
        _, cfg, data = pipeline_dir
        argv = ["train", "--config", str(cfg), "--data", str(data)]
        assert main([*argv, "--alpha", "0.5", "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert main([*argv, "--alpha", "0.5000001", "--out", str(tmp_path / "no")]) == 2
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"
        assert load_dual_model(tmp_path / "ok" / "model.npz").alpha == 0.5
        with np.load(tmp_path / "ok" / "model.npz") as npz:
            arrays = dict(npz)
        arrays["alpha"] = np.array(0.5000001)
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ValueError) as exc:
            load_dual_model(tmp_path / "bad.npz")
        assert str(exc.value) == self.MESSAGE

    def test_alpha_sweep(self, pipeline_dir, monkeypatch):
        _, cfg, data = pipeline_dir
        ds_a, ds_b = load_pair(data)
        run = load_config(cfg)
        with monkeypatch.context() as m:
            m.setattr(evaluate, "run_cv", None)  # the refusal comes before the first run
            with pytest.raises(ValueError) as exc:
                alpha_sweep(ds_a, ds_b, [0.0, 0.5000001], run, k=2)
        assert str(exc.value) == self.MESSAGE
        (point,) = alpha_sweep(ds_a, ds_b, [0.5], run, k=2)
        assert point.alpha == 0.5 and np.isfinite(point.report_a.rmse)


class TestNmfLab:
    def test_defaults_converge(self, tmp_path):
        out = tmp_path / "nmf"
        assert main(["nmf-lab", "--out", str(out)]) == 0
        summary = json.loads((out / "nmf_summary.json").read_text(encoding="utf-8"))
        assert summary["perturbation_applied"]
        assert summary["converged"] is True

    def test_trace_is_monotone_and_summary_coherent(self, tmp_path):
        out = tmp_path / "nmf"
        assert main(["nmf-lab", "--alpha", "0.1", "--seed", "1", "--iters", "400", "--out", str(out)]) == 0
        with open(out / "nmf_trace.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        losses = np.array([float(r["loss"]) for r in rows])
        assert np.all(np.diff(losses) <= 1e-10)
        summary = json.loads((out / "nmf_summary.json").read_text(encoding="utf-8"))
        assert summary["iterations"] == len(losses) - 1
        assert summary["final_traced_loss"] == losses[-1]
        assert all(summary["conditions_after"].values())

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = [tmp_path / "n1", tmp_path / "n2"]
        for out in outs:
            assert main(["nmf-lab", "--alpha", "0.1", "--seed", "1", "--iters", "200", "--out", str(out)]) == 0
        assert (outs[0] / "nmf_trace.csv").read_bytes() == (outs[1] / "nmf_trace.csv").read_bytes()
        assert (outs[0] / "nmf_summary.json").read_bytes() == (outs[1] / "nmf_summary.json").read_bytes()

    def test_converged_follows_the_settling_rule_at_the_budget_edge(self, tmp_path):
        # a coupled problem (alpha > 0) that settles after a few hundred steps
        def run(iters):
            out = tmp_path / f"iters{iters}"
            argv = ["nmf-lab", "--alpha", "0.05", "--rows", "6", "--cols", "5", "--rank", "2",
                    "--seed", "3", "--iters", str(iters), "--out", str(out)]
            assert main(argv) == 0
            return json.loads((out / "nmf_summary.json").read_text(encoding="utf-8"))

        free = run(1000)
        settled_at = free["iterations"]
        assert free["converged"] and settled_at < 1000
        on_edge = run(settled_at)
        assert on_edge["iterations"] == settled_at and on_edge["converged"]
        short = run(settled_at - 1)
        assert short["iterations"] == settled_at - 1 and not short["converged"]

    def test_invalid_rank_exits_nonzero(self, tmp_path, capsys):
        code = main(["nmf-lab", "--rank", "99", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nmf_rank" in capsys.readouterr().err
