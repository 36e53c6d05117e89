"""Acceptance gate: seven release criteria, one test (one pass/fail line) each.

 1. Orthogonality of the trained mapping and its transfer guarantees.
 2. Gradient integrity of every hand-derived backward pass.
 3. Degeneration identities (no-transfer independence, full-tie symmetry).
 4. Coupled-factorization convergence at desk scale.
 5. Neural training-loop convergence on the standard synthetic pair.
 6. Measurable transfer benefit over the no-transfer baseline.
 7. Byte-identical reruns of every command-line pipeline.

Criterion 6 contains one sub-assertion, a 2 percent transfer gain, that
the program as it stands does not meet; the test asserts the criterion as
stated and fails with the measured numbers rather than hiding the gap.  Its
docstring and failure message carry the measured channel diagnostics.
Criterion 4 runs its 20 factorization problems to settlement (measured
settle iterations 18,790 to 167,861, within a budget of 200,000).

Heavy fixtures are session-scoped; the full gate takes several minutes,
dominated by the 5-seed transfer-benefit protocol of criterion 6, with
criterion 4's settling runs next.
"""

import numpy as np
import pytest

from dualrec.autoencoder import loss_and_grads as ae_loss_and_grads
from dualrec.autoencoder import new_autoencoder, stack_autoencoders, train_autoencoder
from dualrec.cli import main as cli_main
from dualrec.dualmodel import (
    Domain,
    DualModel,
    ModelStack,
    TrainConfig,
    dual_loss_and_grads,
    make_rating_model,
    entity_vectors,
    predict_from_embeddings,
    prepare_domain,
    train_pair,
)
from dualrec.evaluate import alpha_sweep, precision_recall_at_k, rmse, run_cv
from dualrec.features import kfold, synth_pair
from dualrec.mapping import OrthogonalMap, init_map, map_forward, map_inverse, orthogonality_defect
from dualrec.nmflab import (
    MU_EPS,
    check_conditions,
    init_state,
    make_random_problem,
    perturb_problem,
    run_nmf,
)
from dualrec.numeric import FlatStack, grad_check, make_rng
from single_domain import domain_autoencoders, model_backward, model_forward, train_single
from test_training_kernel import step_batches


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def converged_run():
    """One full training run on the standard synthetic pair.

    Shared by criteria 1 (orthogonality after training) and 5 (convergence).
    Pair seed 101 / train seed 1 were frozen after measuring seeds 100..104:
    all five satisfy criterion 5; this pair converges mid-budget (epoch 44)
    rather than at the budget edge, so the gate does not sit on a knife edge.
    """
    ds_a, ds_b, _ = synth_pair(
        n_users=500,
        n_items_per_domain=200,
        latent_dim=8,
        cross_correlation=0.8,
        noise=0.02,
        density=0.05,
        seed=101,
    )
    cfg = TrainConfig()  # alpha=0.03, embed_dim=8, epochs=100, tol=1e-5
    dm, (trace_a, trace_b) = train_pair(ds_a, ds_b, cfg, seed=1)
    return dm, trace_a, trace_b, cfg


# ---------------------------------------------------------------------------
# criterion 1: orthogonality


def test_criterion_1_orthogonal_transfer(converged_run):
    """The trained map is orthogonal and transfer preserves geometry."""
    dm, _, _, _ = converged_run
    m = dm.maps[(0, 1)]
    assert orthogonality_defect(m.x) <= 1e-6, "trained map drifted off the orthogonal manifold"

    rng = make_rng(2024)
    worst_inner = worst_cos = worst_round = 0.0
    for _ in range(1000):
        u = rng.normal(size=m.dim)
        v = rng.normal(size=m.dim)
        xu, xv = map_forward(m, u), map_forward(m, v)
        worst_inner = max(worst_inner, abs(float(xu @ xv - u @ v)))
        cos_before = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        cos_after = float(xu @ xv) / (np.linalg.norm(xu) * np.linalg.norm(xv))
        worst_cos = max(worst_cos, abs(cos_after - cos_before))
        worst_round = max(worst_round, float(np.max(np.abs(map_inverse(m, xu) - u))))
    assert worst_inner <= 1e-6, f"inner products drift up to {worst_inner:.3e}"
    assert worst_cos <= 1e-6, f"cosine similarities drift up to {worst_cos:.3e}"
    assert worst_round <= 1e-6, f"inverse(forward(e)) misses e by up to {worst_round:.3e}"


# ---------------------------------------------------------------------------
# criterion 2: gradient integrity


def test_criterion_2_gradient_integrity():
    """Every analytic gradient matches central differences at <= 1e-4."""
    # autoencoder reconstruction loss, all four parameter arrays, as a stack of one
    xb = make_rng(31).random(size=(1, 8, 12))
    ae_stack = stack_autoencoders([new_autoencoder(12, 5, seed=2)])

    def ae_wrapped(params):
        loss, grads = ae_loss_and_grads(FlatStack(params[0], ae_stack.layout), xb)
        return float(loss[0]), [grads]

    ae_err = grad_check(ae_wrapped, [ae_stack.params])
    assert ae_err <= 1e-4, f"autoencoder gradient error {ae_err:.3e}"

    # each rating scorer: gradient of the raw score w.r.t. every weight
    for domain_index in (0, 1):
        model = make_rating_model(4, seed=5, domain_index=domain_index, hidden=(8, 4))
        x_in = make_rng(37, domain_index).random(size=8)

        def mlp_wrapped(params):
            k = 0
            for layer in model.layers:
                layer.weights, layer.bias = params[k], params[k + 1]
                k += 2
            y, caches = model_forward(model, x_in)
            _, grads = model_backward(model, caches, np.array([1.0]))
            flat = []
            for dw, db in grads:
                flat.extend([dw, db])
            return float(y[0]), flat

        params = []
        for layer in model.layers:
            params.extend([layer.weights, layer.bias])
        mlp_err = grad_check(mlp_wrapped, params)
        assert mlp_err <= 1e-4, f"scorer {domain_index} gradient error {mlp_err:.3e}"

    # full dual objective including the orthogonality penalty, for two
    # models trained as one stack: each model's gradient is its own slice
    corpus = make_rng(41).random(size=(6, 9))
    ae_small, _ = train_autoencoder(corpus, embed_dim=4, epochs=1, seed=0)
    stack = ModelStack.of([
        DualModel([Domain(make_rating_model(4, seed, k, (8, 4)), ae_small, ae_small) for k in (0, 1)],
                  {(0, 1): init_map(4, seed)}, 0.1)
        for seed in (7, 8)
    ])
    rng = make_rng(43)
    batch_a = (rng.random((2, 6, 4)), rng.random((2, 6, 4)), rng.random((2, 6)), np.ones((2, 6), dtype=bool))
    batch_b = (rng.random((2, 6, 4)), rng.random((2, 6, 4)), rng.random((2, 6)), np.ones((2, 6), dtype=bool))
    batches = step_batches(0.1, batch_a, batch_b)

    def dual_wrapped(params):
        total, grads, gx = dual_loss_and_grads(ModelStack(params[0], stack.layout, params[1], stack.alpha), *batches)
        return float(total.sum()), [grads, gx]

    dual_err = grad_check(dual_wrapped, [stack.params, stack.x])
    assert dual_err <= 1e-4, f"dual objective gradient error {dual_err:.3e}"


# ---------------------------------------------------------------------------
# criterion 3: degeneration identities


def test_criterion_3_degeneration_identities():
    """alpha=0 splits into two independent models; a full tie erases the labels."""
    ds_a, ds_b, _ = synth_pair(
        n_users=150, n_items_per_domain=60, latent_dim=6,
        cross_correlation=0.8, noise=0.05, density=0.12, seed=11,
    )
    cfg = TrainConfig(alpha=0.0, embed_dim=6, epochs=30, tol=0.0, lr_a=0.1, lr_b=0.1,
                      hidden=(12, 6), ae_epochs=300, ae_lr=0.05)
    k, seed = 5, 0
    rep_a, rep_b = run_cv(ds_a, ds_b, cfg, k=k, seed=seed)

    # mirror of the protocol with plain single-domain training
    for ds, rep, domain_index, lr in ((ds_a, rep_a, 0, cfg.lr_a), (ds_b, rep_b, 1, cfg.lr_b)):
        ae_u, ae_i = domain_autoencoders(ds, cfg, seed)
        vectors = entity_vectors(ds)
        split = kfold(ds, k, seed)
        fold_rmse, fold_prec = [], []
        for fold in range(k):
            tr, te = split.fold_indices(fold)
            model, _ = train_single(
                prepare_domain(ds, ae_u, ae_i, vectors, tr), domain_index,
                embed_dim=cfg.embed_dim, seed=seed * 10_000 + fold,
                epochs=cfg.epochs, tol=cfg.tol, lr=lr,
                batch_size=cfg.batch_size, hidden=cfg.hidden,
            )
            arr_te = prepare_domain(ds, ae_u, ae_i, vectors, te)
            preds = model_forward(model, arr_te.ui)[0][:, 0]
            fold_rmse.append(rmse(preds, arr_te.ratings))
            pr = precision_recall_at_k(arr_te.user_ids, preds, arr_te.ratings, k=5, tau=0.5)
            fold_prec.append(pr.precision)
        assert rep.rmse == pytest.approx(float(np.mean(fold_rmse)), abs=1e-9), (
            f"domain {rep.domain}: alpha=0 CV rmse {rep.rmse!r} differs from the "
            "independent single-domain mirror"
        )
        assert rep.precision_at_k == pytest.approx(float(np.mean(fold_prec)), abs=1e-9), (
            f"domain {rep.domain}: alpha=0 CV precision differs from the mirror"
        )

    # full tie: alpha=0.5, identity map, identical scorer weights
    corpus = make_rng(99).random(size=(6, 9))
    ae_small, _ = train_autoencoder(corpus, embed_dim=6, epochs=1, seed=0)
    shared = make_rating_model(6, seed=3, domain_index=0, hidden=(12, 6))
    tied = DualModel([Domain(shared, ae_small, ae_small), Domain(shared.copy(), ae_small, ae_small)],
                     {(0, 1): OrthogonalMap(np.eye(6))}, 0.5)
    rng = make_rng(17)
    for _ in range(100):
        u, i = rng.random(6), rng.random(6)
        pa = predict_from_embeddings(tied, "a", u, i)
        pb = predict_from_embeddings(tied, "b", u, i)
        assert pa == pytest.approx(pb, abs=1e-12), "domain label leaked into the tied model"


# ---------------------------------------------------------------------------
# criterion 4: coupled factorization convergence


def test_criterion_4_factorization_convergence():
    """Monotone coupled-factorization descent that settles, at desk scale.

    Three sub-assertions: (i) the loss trace is non-increasing at every
    iteration within 1e-10 on 20 perturbed random problems with the
    convergence preconditions verified; (ii) alpha=0 runs match a classical
    single-matrix factorization oracle within 1e-6 relative; (iii) every
    run from (i) settles by its own stopping rule, ending with
    |delta loss| < 1e-8, rather than by running out of its budget of
    200,000 iterations.

    The budget is measured, not promised by theory: Lee-Seung
    multiplicative updates guarantee a non-increasing loss (Lee and Seung,
    NIPS 2001) but no rate, and they are known to converge slowly (Lin,
    IEEE TNN 2007). The perturbation that establishes the convergence
    preconditions adds rank(X)*k = 20 to every matrix entry (X is the 20x20
    permutation mixing, rank 20), and the updates then crawl along a
    plateau where the step delta decays like a power law. Measured on
    problem seed 1 (alpha=0.1): |delta| is 7.0e-4 at iteration 5000, 1.0e-5
    at 20000, 2.9e-7 at 50000, and first drops below 1e-8 at iteration
    98829. Across the 20 problems the settle iteration ranges from 18,790
    (problem 11) to 167,861 (problem 7), 1.32M iterations in all; the
    budget is the slowest run plus about 20 percent. An earlier budget of
    5000 iterations was missed by all 20 problems, and neither a shift of 4
    nor the smallest shift that satisfies conditions (b) and (c) brings
    them within it under the update rule that (ii) pins.
    """
    alphas = [0.05, 0.1, 0.2]
    budget = 200_000
    unsettled = []
    for i in range(20):
        p = perturb_problem(make_random_problem(20, 15, 4, alphas[i % 3], seed=i), 1.0)
        conds = check_conditions(p)
        assert all(conds.values()), f"problem {i}: conditions {conds} not all true after perturbation"
        s = run_nmf(p, max_iters=budget, tol=1e-8, seed=i)
        trace = np.array(s.loss_trace)
        steps = np.diff(trace)
        assert np.all(steps <= 1e-10), (
            f"problem {i}: loss increased by {steps.max():.3e} "
            f"at iteration {int(np.argmax(steps)) + 1}"
        )
        final_delta = abs(float(trace[-1] - trace[-2]))
        if not final_delta < 1e-8:
            unsettled.append(f"problem {i} after {len(trace) - 1} iterations (|delta| {final_delta:.3e})")

    # alpha=0 oracle: same update rule and stopping rule, written classically
    def classical_mu_step(v, w, h):
        h = h * (w.T @ v) / np.maximum(w.T @ w @ h, MU_EPS)
        w = w * (v @ h.T) / np.maximum(w @ h @ h.T, MU_EPS)
        return w, h

    for seed in (100, 101, 102):
        p0 = make_random_problem(20, 15, 4, 0.0, seed=seed)
        s = run_nmf(p0, max_iters=2000, tol=1e-9, seed=seed)
        s0 = init_state(p0, seed=seed)
        w_a, h_a, w_b, h_b = (f.copy() for f in s0.factors())
        prev = np.sum((p0.v_a - w_a @ h_a) ** 2) + np.sum((p0.v_b - w_b @ h_b) ** 2)
        for _ in range(2000):
            w_a, h_a = classical_mu_step(p0.v_a, w_a, h_a)
            w_b, h_b = classical_mu_step(p0.v_b, w_b, h_b)
            cur = np.sum((p0.v_a - w_a @ h_a) ** 2) + np.sum((p0.v_b - w_b @ h_b) ** 2)
            if abs(prev - cur) < 1e-9:
                break
            prev = cur
        assert s.loss_trace[-1] == pytest.approx(cur, rel=1e-6), (
            f"alpha=0 problem seed {seed}: final loss {s.loss_trace[-1]!r} vs oracle {cur!r}"
        )

    assert not unsettled, (
        f"{len(unsettled)}/20 problems did not reach |delta loss| < 1e-8 within {budget} "
        f"iterations: {'; '.join(unsettled)}"
    )


# ---------------------------------------------------------------------------
# criterion 5: neural training-loop convergence


def test_criterion_5_training_convergence(converged_run):
    """The dual loop settles within budget and stays below its epoch-1 loss."""
    _, trace_a, trace_b, _ = converged_run
    total = np.array(trace_a) + np.array(trace_b)
    stopped_epoch = len(trace_a) - 1  # trace[0] is the pre-training loss
    assert stopped_epoch <= 100
    final_delta = abs(float(total[-1] - total[-2]))
    assert final_delta < 1e-5, (
        f"ran {stopped_epoch} epochs without the combined loss settling "
        f"(last epoch-to-epoch change {final_delta:.3e})"
    )
    assert stopped_epoch > 11, "converged before epoch 11; the shape check would be vacuous"
    assert max(trace_a[11:]) < trace_a[1], "domain a loss rose back above its epoch-1 value"
    assert max(trace_b[11:]) < trace_b[1], "domain b loss rose back above its epoch-1 value"


# ---------------------------------------------------------------------------
# criterion 6: transfer benefit


def test_criterion_6_transfer_benefit():
    """Transfer at alpha=0.03 versus the alpha=0 baseline, 5 seeds, 5 folds.

    Four sub-assertions on correlated pairs (rho=0.8) plus a negative
    control on an uncorrelated pair (rho=0): (i) mean RMSE strictly lower
    than baseline on domain a, (ii) strictly lower on domain b, (iii) on the
    rho=0 pair the alpha=0 sweep point stays within one fold-level standard
    deviation of the best point, (iv) mean relative improvement of at least
    2 percent.

    (iv) IS NOT MET by the program as it stands, and this test is expected
    to fail there, honestly. PAPER.md claims gains over baselines but gives
    no number for the gain over the alpha=0 ablation, so the 2 percent bar
    and the data are kept. Measured on pair seed 100, fold 0 of CV seed 0,
    alpha=0.03: the within-channel scorers reach RMSE 0.1960 on domain a and
    0.1641 on domain b, against 0.2131 and 0.1689 for the constant (training
    mean) predictor. Each channel's error is 0.90-0.975 correlated with the
    rating's deviation from the mean, and the within and cross channel
    errors are 0.930 correlated on domain a and 0.890 on domain b. To first
    order the convex blend (1-a)*within + a*cross improves RMSE by about
    a*(1 - c*sigma_cross/sigma_within), which at these values is 0.1 percent
    on domain a and 0.4 percent on domain b. The shared floor sits upstream
    of the blend: the user autoencoder keeps about as much as the top 8
    principal components of the encoded user features, a linear fit
    recovers the true user latent with R^2 0.39-0.70 from the embedding but
    0.98 from the encoded features, and a bilinear ridge on the encoded
    features reaches test RMSE 0.042 on domain a. Whether the autoencoder
    should keep those directions is not settled by PAPER.md or the README.
    Measured means over seeds 0..4 with equal-budget training (tol=0):
    domain a +0.016 percent (sd 0.045), domain b +0.207 percent (sd 0.093),
    overall +0.111 percent. Sub-assertions (i), (ii), (iii) pass.
    """
    # tol=0 gives both runs the same epoch budget: no stopping skew. Each
    # seed's baseline and transfer run are one sweep, so they share one
    # preparation (autoencoders, warm map, encoded folds).
    cfg_base = TrainConfig(alpha=0.0, tol=0.0)
    base_a, base_b, dual_a, dual_b = [], [], [], []
    for s in range(5):
        ds_a, ds_b, _ = synth_pair(
            n_users=500, n_items_per_domain=200, latent_dim=8,
            cross_correlation=0.8, noise=0.02, density=0.05, seed=100 + s,
        )
        base, dual = alpha_sweep(ds_a, ds_b, [0.0, 0.03], cfg_base, k=5, seed=s)
        base_a.append(base.report_a.rmse)
        base_b.append(base.report_b.rmse)
        dual_a.append(dual.report_a.rmse)
        dual_b.append(dual.report_b.rmse)
    mean_base_a, mean_dual_a = float(np.mean(base_a)), float(np.mean(dual_a))
    mean_base_b, mean_dual_b = float(np.mean(base_b)), float(np.mean(dual_b))
    gain_a = (mean_base_a - mean_dual_a) / mean_base_a
    gain_b = (mean_base_b - mean_dual_b) / mean_base_b
    mean_gain = (gain_a + gain_b) / 2.0
    detail = (
        f"domain a baseline {mean_base_a:.6f} vs transfer {mean_dual_a:.6f} ({gain_a:+.4%}); "
        f"domain b baseline {mean_base_b:.6f} vs transfer {mean_dual_b:.6f} ({gain_b:+.4%}); "
        f"mean improvement {mean_gain:+.4%}"
    )

    # negative control before the final verdict so one line reports everything
    nc_a, nc_b, _ = synth_pair(
        n_users=500, n_items_per_domain=200, latent_dim=8,
        cross_correlation=0.0, noise=0.02, density=0.05, seed=100,
    )
    points = alpha_sweep(nc_a, nc_b, [0.0, 0.01, 0.03, 0.05, 0.1], cfg_base, k=5, seed=0)
    combined = []
    for pt in points:
        per_fold = [
            (fa.rmse + fb.rmse) / 2.0
            for fa, fb in zip(pt.report_a.per_fold, pt.report_b.per_fold)
        ]
        combined.append((float(np.mean(per_fold)), float(np.std(per_fold, ddof=1))))
    zero_rmse = combined[0][0]
    best_idx = int(np.argmin([c for c, _ in combined]))
    best_rmse, best_sd = combined[best_idx]
    control = (
        f"negative control combined rmse by alpha {[round(c, 5) for c, _ in combined]}, "
        f"alpha=0 at {zero_rmse:.5f}, best point {best_rmse:.5f} (fold sd {best_sd:.5f})"
    )

    assert mean_dual_a < mean_base_a, f"no improvement on domain a: {detail}"
    assert mean_dual_b < mean_base_b, f"no improvement on domain b: {detail}"
    assert zero_rmse <= best_rmse + best_sd, f"negative control failed: {control}"
    assert mean_gain >= 0.02, (
        f"{detail}. {control}. Transfer helps both domains and the negative control holds, "
        "but the gain is far below the 2 percent bar: on pair seed 100, fold 0, the within "
        "and cross channel errors are 0.930 (domain a) and 0.890 (domain b) correlated, so "
        "the convex blend at alpha=0.03 buys about 0.1-0.4 percent, while a bilinear ridge "
        "on the encoded features reaches RMSE 0.042 against the scorers' 0.196 (domain a): "
        "the user embedding, not the blend, sets the floor both channels share"
    )


# ---------------------------------------------------------------------------
# criterion 7: byte-identical pipeline reruns


def test_criterion_7_reproducible_pipelines(tmp_path):
    """Every CLI pipeline rerun with the same config and seed is byte-identical."""
    cfg = tmp_path / "config.txt"
    cfg.write_text(
        "".join(
            f"{key}={value}\n"
            for key, value in {
                "n_users": 40, "n_items": 15, "latent_dim": 4, "embed_dim": 4,
                "epochs": 3, "ae_epochs": 120, "folds": 2, "density": 0.3,
                "sigma": 0.05, "alphas": "0,0.03", "nmf_iters": 300, "seed": 9,
            }.items()
        ),
        encoding="utf-8",
    )

    def run_all(root):
        data = root / "data"
        assert cli_main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        outs = {"synth": data}
        for command in ("train", "eval", "alpha-sweep"):
            out = root / command
            rc = cli_main([command, "--config", str(cfg), "--data", str(data), "--out", str(out)])
            assert rc == 0, f"{command} exited {rc}"
            outs[command] = out
        out = root / "nmf"
        assert cli_main(["nmf-lab", "--config", str(cfg), "--out", str(out)]) == 0
        outs["nmf-lab"] = out
        return outs

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    for command in first:
        d1, d2 = first[command], second[command]
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2, f"{command}: file sets differ: {names1} vs {names2}"
        for name in names1:
            if name.endswith((".csv", ".json", ".txt")):
                b1, b2 = (d1 / name).read_bytes(), (d2 / name).read_bytes()
                assert b1 == b2, f"{command}/{name}: rerun produced different bytes"
