"""Feature schemas, deterministic encoding, and the synthetic domain pair.

Walks a hand-built schema through encoding, then generates a correlated
two-domain dataset and splits it into folds. Run directly:

    python3 demos/01_feature_schemas.py
"""

import warnings

import numpy as np

from dualrec.features import FeatureSchema, FieldSpec, encode, kfold, schema_to_text, synth_pair


def main():
    print("== a schema built by hand ==")
    schema = FeatureSchema(
        fields=(
            FieldSpec("gender", "one_hot", values=("F", "M")),
            FieldSpec("age", "numeric", lo=18, hi=90),
            FieldSpec("interests", "multi_hot", values=("news", "sports", "music")),
            FieldSpec("city", "one_hot", buckets=8),
        )
    )
    print(schema_to_text(schema))
    print(f"encoded length: {schema.encoded_length}")
    print("(explicit one_hot vocabularies reserve one extra slot for unseen values)")

    print("\n== encoding raw rows ==")
    for raw in (
        {"gender": "F", "age": 34, "interests": "music", "city": "lisbon"},
        {"gender": "X", "age": 990, "interests": "", "city": "osaka"},  # unknown + clamped
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vec = encode(schema, raw)
        print(f"{raw} ->\n  {np.round(vec, 3)}")
        for w in caught:
            print(f"  (warned: {w.message})")

    print("\n== synthetic correlated domain pair ==")
    ds_a, ds_b, truth = synth_pair(
        n_users=60, n_items_per_domain=25, latent_dim=4,
        cross_correlation=0.8, noise=0.05, density=0.3, seed=0,
    )
    shared = np.intersect1d(ds_a.user_ids, ds_b.user_ids)
    print(f"domain a: {len(ds_a.interactions)} interactions over "
          f"{len(ds_a.user_ids)} users x {len(ds_a.item_ids)} items")
    print(f"domain b: {len(ds_b.interactions)} interactions over "
          f"{len(ds_b.user_ids)} users x {len(ds_b.item_ids)} items")
    print(f"shared users: {len(shared)}, shared items: {len(np.intersect1d(ds_a.item_ids, ds_b.item_ids))}")
    print(f"latent mixing matrix shape {truth.q.shape}, "
          f"first rating: {ds_a.interactions[0]}")

    print("\n== five-fold split of domain a ==")
    split = kfold(ds_a, k=5, seed=0)
    sizes = [int(np.sum(split.assignments == f)) for f in range(5)]
    print(f"held-out records per fold: {sizes} (total {sum(sizes)})")
    tr, te = split.fold_indices(0)
    print(f"fold 0 trains on {len(tr)} records, tests on {len(te)}")


if __name__ == "__main__":
    main()
