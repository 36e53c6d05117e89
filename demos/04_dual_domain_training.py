"""End-to-end dual training on a correlated domain pair.

Trains the full stack (entity autoencoders, twin scorers, orthogonal map)
with the coupled loop, then exercises prediction from raw feature dicts,
model persistence, and the generalization to more than two domains.

    python3 demos/04_dual_domain_training.py
"""

import tempfile
from pathlib import Path

import numpy as np

from dualrec.dualmodel import (
    TrainConfig,
    embed_pair,
    load_dual_model,
    predict,
    save_dual_model,
    score,
    train_pair,
)
from dualrec.features import synth_pair
from dualrec.mapping import orthogonality_defect


def main():
    ds_a, ds_b, _ = synth_pair(
        n_users=100, n_items_per_domain=40, latent_dim=4,
        cross_correlation=0.8, noise=0.05, density=0.25, seed=5,
    )
    cfg = TrainConfig(alpha=0.03, embed_dim=6, epochs=15, tol=0.0,
                      hidden=(12, 6), ae_epochs=250)
    dm, (trace_a, trace_b) = train_pair(ds_a, ds_b, cfg, seed=0)

    print("== coupled training (alpha = 0.03) ==")
    for e in range(0, len(trace_a), 3):
        label = "pre-training" if e == 0 else f"after epoch {e:2d}"
        print(f"{label}: loss a {trace_a[e]:.5f}, loss b {trace_b[e]:.5f}")
    print(f"mapping stayed orthogonal: defect {orthogonality_defect(dm.maps[(0, 1)].x):.2e}")

    print("\n== predictions from raw feature dicts ==")
    uid = sorted(ds_a.user_ids & ds_b.user_ids)[0]
    iid = ds_a.interactions[0].item_id
    user_raw = ds_a.user_features[uid]
    item_raw = ds_a.item_features[iid]
    with_transfer = predict(dm, "a", user_raw, item_raw)
    without = predict(dm, "a", user_raw, item_raw, in_overlap=False)
    print(f"user {uid}, item {iid}:")
    print(f"  blended rating (user known in both domains): {with_transfer:.4f}")
    print(f"  within-domain only (no partner history):     {without:.4f}")

    print("\n== persistence round trip ==")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        save_dual_model(dm, path)
        loaded = load_dual_model(path)
        same = predict(loaded, "a", user_raw, item_raw) == with_transfer
        print(f"saved to {path.name} ({path.stat().st_size} bytes), "
              f"reloaded prediction identical: {same}")

    print("\n== the same model as an n-domain system ==")
    # the n-domain blend by hand: domain a's own score and the mean of its n-1 partners' scores
    n = len(dm.domains)
    u, i = embed_pair(dm, "a", user_raw, item_raw)
    cross = sum(score(dom.scorer, dm.cross_matrix(j, 0) @ u, i) for j, dom in enumerate(dm.domains) if j != 0)
    p2 = (1 - dm.alpha) * score(dm.domains[0].scorer, u, i) + dm.alpha / (n - 1) * cross
    print(f"two-domain instance of the n-domain form agrees: "
          f"{np.isclose(p2, with_transfer, atol=1e-15)} ({p2:.4f})")


if __name__ == "__main__":
    main()
