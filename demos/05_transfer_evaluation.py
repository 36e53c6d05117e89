"""Cross-validated evaluation and the transfer-rate sweep.

Runs 3-fold cross validation at several transfer rates on one correlated
pair and prints the metric table. Equal epoch budgets (tol=0) keep the
comparison clean. Takes around half a minute.

    python3 demos/05_transfer_evaluation.py
"""

import numpy as np

from dualrec.dualmodel import TrainConfig
from dualrec.evaluate import alpha_sweep
from dualrec.features import synth_pair


def main():
    ds_a, ds_b, _ = synth_pair(
        n_users=150, n_items_per_domain=60, latent_dim=6,
        cross_correlation=0.8, noise=0.05, density=0.12, seed=11,
    )
    print(f"pair: {len(ds_a.interactions)} + {len(ds_b.interactions)} interactions, "
          f"{len(np.intersect1d(ds_a.user_ids, ds_b.user_ids))} shared users")

    cfg = TrainConfig(embed_dim=6, epochs=25, tol=0.0, hidden=(12, 6), ae_epochs=300)
    points = alpha_sweep(ds_a, ds_b, [0.0, 0.03, 0.1], cfg, k=3, seed=0)

    print("\nalpha    rmse a    mae a   prec@5 a    rmse b    mae b   prec@5 b")
    for pt in points:
        ra, rb = pt.report_a, pt.report_b
        print(f"{pt.alpha:5.2f}  {ra.rmse:.5f}  {ra.mae:.5f}    {ra.precision_at_k:.4f}"
              f"   {rb.rmse:.5f}  {rb.mae:.5f}    {rb.precision_at_k:.4f}")

    base, best = points[0], min(points[1:], key=lambda p: p.report_a.rmse + p.report_b.rmse)
    gain_a = (base.report_a.rmse - best.report_a.rmse) / base.report_a.rmse
    gain_b = (base.report_b.rmse - best.report_b.rmse) / base.report_b.rmse
    print(f"\nbest transfer rate {best.alpha}: rmse change vs alpha=0 "
          f"a {gain_a:+.3%}, b {gain_b:+.3%}")

    ra = points[1].report_a
    folds = [f.rmse for f in ra.per_fold]
    print(f"\nper-fold rmse on domain a at alpha=0.03: {np.round(folds, 5).tolist()}")
    print(f"fold sizes: {[f.n_test for f in ra.per_fold]}, "
          f"recall defined in all folds: {all(f.recall_defined for f in ra.per_fold)}")


if __name__ == "__main__":
    main()
