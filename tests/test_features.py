"""Schema encoding, CSV ingestion, folds, and the synthetic pair generator."""

import csv
import dataclasses
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrec.features import (
    DomainDataset,
    FeatureSchema,
    FieldSpec,
    InteractionRecord,
    encode,
    kfold,
    load_domain,
    parse_schema,
    require_disjoint_items,
    schema_to_text,
    synth_pair,
    write_domain,
)
from dualrec.numeric import sigmoid


def gender_field():
    return FieldSpec("gender", "one_hot", values=("F", "M"))


class TestFieldSpec:
    def test_one_hot_width_reserves_unknown_slot(self):
        assert gender_field().width == 3  # 2 categories + out-of-vocabulary slot

    def test_hash_bucket_width_has_no_reserved_slot(self):
        assert FieldSpec("city", "one_hot", buckets=64).width == 64

    def test_values_and_buckets_are_exclusive(self):
        with pytest.raises(ValueError):
            FieldSpec("bad", "one_hot", values=("x",), buckets=4)
        with pytest.raises(ValueError):
            FieldSpec("bad", "one_hot")

    def test_numeric_needs_ordered_range(self):
        with pytest.raises(ValueError):
            FieldSpec("age", "numeric", lo=10, hi=10)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec("g", "one_hot", values=("F", "F"))


class TestEncode:
    def test_one_hot_first_category_hits_first_slot(self):
        schema = FeatureSchema((gender_field(),))
        np.testing.assert_array_equal(encode(schema, {"gender": "F"}), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(encode(schema, {"gender": "M"}), [0.0, 1.0, 0.0])

    def test_one_hot_unknown_and_missing_use_reserved_slot(self):
        schema = FeatureSchema((gender_field(),))
        np.testing.assert_array_equal(encode(schema, {"gender": "X"}), [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(encode(schema, {}), [0.0, 0.0, 1.0])

    def test_numeric_boundaries_and_midpoint(self):
        schema = FeatureSchema((FieldSpec("trait", "numeric", lo=0, hi=100),))
        assert encode(schema, {"trait": 0})[0] == 0.0
        assert encode(schema, {"trait": 100})[0] == 1.0
        assert encode(schema, {"trait": 50})[0] == 0.5

    def test_numeric_out_of_range_clamps_with_warning(self):
        schema = FeatureSchema((FieldSpec("trait", "numeric", lo=0, hi=100),))
        with pytest.warns(UserWarning):
            assert encode(schema, {"trait": 150})[0] == 1.0

    def test_multi_hot_indicator(self):
        schema = FeatureSchema((FieldSpec("tags", "multi_hot", values=("0", "1", "2", "3")),))
        np.testing.assert_array_equal(encode(schema, {"tags": ["1", "3"]}), [0, 1, 0, 1])

    def test_multi_hot_missing_is_zeros_and_unknown_ignored(self):
        schema = FeatureSchema((FieldSpec("tags", "multi_hot", values=("a", "b")),))
        np.testing.assert_array_equal(encode(schema, {}), [0, 0])
        np.testing.assert_array_equal(encode(schema, {"tags": ["a", "zz"]}), [1, 0])

    def test_blocks_follow_schema_order(self):
        schema = FeatureSchema(
            (
                gender_field(),
                FieldSpec("trait", "numeric", lo=0, hi=10),
                FieldSpec("tags", "multi_hot", values=("x", "y")),
            )
        )
        v = encode(schema, {"gender": "M", "trait": 5, "tags": "y"})
        assert schema.encoded_length == 6
        np.testing.assert_array_equal(v, [0, 1, 0, 0.5, 0, 1])

    def test_missing_numeric_is_an_error(self):
        schema = FeatureSchema((FieldSpec("trait", "numeric", lo=0, hi=1),))
        with pytest.raises(ValueError, match="trait"):
            encode(schema, {})

    @pytest.mark.parametrize("kind", ["numeric", "date"])
    @pytest.mark.parametrize("value", ["nan", "NaN", float("nan")])
    def test_nan_is_an_error_naming_the_field(self, kind, value):
        # NaN fails both range comparisons, so it would pass the clamp silently
        schema = FeatureSchema((FieldSpec("trait", kind, lo=0, hi=100),))
        with pytest.raises(ValueError, match="'trait'.*not a number"):
            encode(schema, {"trait": value})


class TestSchemaText:
    def test_round_trip(self):
        schema = FeatureSchema(
            (
                gender_field(),
                FieldSpec("city", "one_hot", buckets=64),
                FieldSpec("age", "numeric", lo=0.0, hi=120.0),
                FieldSpec("tags", "multi_hot", values=("a", "b", "c")),
            )
        )
        assert parse_schema(schema_to_text(schema)) == schema

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_schema("f,embedding,4")

    @pytest.mark.parametrize("name, values", [
        ("f", ("a|b", "c")),  # read back as three values
        ("f", ("hash:3",)),  # read back as three buckets
        ("#g", ("x",)),  # read back as a comment
        ("f", (" a",)),  # read back stripped
        ("f", ("a", "")),  # read back without the empty value
        ("a,b", ("x",)),  # fails only on load
        ("f", ("x\ny",)),  # fails only on load
    ])
    def test_a_field_its_line_cannot_carry_is_refused_by_name(self, name, values):
        with pytest.raises(ValueError, match=f"^field {re.escape(repr(name))} does not read back from its schema line "):
            FieldSpec(name, "one_hot", values=values)


def mostly(plain, odd):
    """plain four times in five, else odd."""
    return st.sampled_from([True] * 4 + [False]).flatmap(lambda p: plain if p else odd)


# text, at times with the characters the schema line format gives a meaning to
SCHEMA_TEXT = mostly(st.text("abc", min_size=1, max_size=3),
                     st.text(st.sampled_from("ab,|#: \t\n\r\x0b\x85\u2028\u3000"), max_size=5))


@st.composite
def field_spec_args(draw):
    """FieldSpec arguments, plausible or not: the name, the kind and its spec, at times an argument
    its kind does not take."""
    kind = draw(st.sampled_from(["one_hot", "multi_hot", "numeric", "date"]))
    if kind in ("one_hot", "multi_hot"):
        values = st.lists(mostly(SCHEMA_TEXT, SCHEMA_TEXT.map("hash:".__add__)), min_size=1, max_size=3)
        buckets = mostly(st.integers(1, 5), st.integers(-1, 0) | st.booleans() | st.just(2.5))
        spec = draw(st.fixed_dictionaries({"values": values.map(tuple)}) | st.fixed_dictionaries({"buckets": buckets}))
    else:
        number = mostly(st.floats() | st.floats().map(np.float64), st.integers(-2**60, 2**60) | st.booleans())
        spec = draw(st.fixed_dictionaries({"lo": number, "hi": number}))
    spec.update(draw(mostly(st.just({}), st.sampled_from([{"lo": 0.0}, {"values": ("x",)}, {"buckets": 2}]))))
    return draw(SCHEMA_TEXT), kind, spec


@given(st.lists(field_spec_args(), max_size=2))
def test_a_schema_reads_back_from_its_text_or_is_refused(args):
    try:
        schema = FeatureSchema(tuple(FieldSpec(name, kind, **spec) for name, kind, spec in args))
    except ValueError:
        return
    assert parse_schema(schema_to_text(schema)) == schema


def write_interactions(path, rows):
    lines = ["user_id,item_id,rating,timestamp"] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_feature_rows(path, rows):
    lines = ["entity_id,field,value"] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def tiny_schema():
    return FeatureSchema((FieldSpec("trait", "numeric", lo=0, hi=10),))


class TestLoadDomain:
    def test_empty_interactions_file_gives_empty_dataset(self, tmp_path, tiny_schema):
        write_interactions(tmp_path / "i.csv", [])
        write_feature_rows(tmp_path / "u.csv", [])
        write_feature_rows(tmp_path / "v.csv", [])
        ds = load_domain(
            tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv",
            tiny_schema, tiny_schema, domain_name="a",
        )
        assert len(ds.interactions) == 0

    def test_out_of_range_rating_names_the_line(self, tmp_path, tiny_schema):
        write_interactions(tmp_path / "i.csv", ["u1,i1,1.5,"])
        write_feature_rows(tmp_path / "u.csv", ["u1,trait,5"])
        write_feature_rows(tmp_path / "v.csv", ["i1,trait,5"])
        with pytest.raises(ValueError, match="i.csv:2"):
            load_domain(
                tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv",
                tiny_schema, tiny_schema, domain_name="a",
            )

    def test_three_row_fixture_preserves_records_in_order(self, tmp_path, tiny_schema):
        write_interactions(
            tmp_path / "i.csv",
            ["u1,i1,0.5,", "u2,i1,1.0,1700000000", "u1,i2,0.0,"],
        )
        write_feature_rows(tmp_path / "u.csv", ["u1,trait,5", "u2,trait,7"])
        write_feature_rows(tmp_path / "v.csv", ["i1,trait,1", "i2,trait,2"])
        ds = load_domain(
            tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv",
            tiny_schema, tiny_schema, domain_name="a",
        )
        assert [(r.user_id, r.item_id, r.rating) for r in ds.interactions] == [
            ("u1", "i1", 0.5),
            ("u2", "i1", 1.0),
            ("u1", "i2", 0.0),
        ]
        assert ds.interactions[1].timestamp == 1700000000

    def test_interaction_without_features_rejected(self, tmp_path, tiny_schema):
        write_interactions(tmp_path / "i.csv", ["u1,i1,0.5,"])
        write_feature_rows(tmp_path / "u.csv", [])
        write_feature_rows(tmp_path / "v.csv", ["i1,trait,1"])
        with pytest.raises(ValueError, match="u1"):
            load_domain(
                tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv",
                tiny_schema, tiny_schema, domain_name="a",
            )

    def test_write_then_load_round_trips(self, tmp_path, tiny_schema):
        ds = DomainDataset(
            "a",
            (InteractionRecord("u1", "i1", 0.125), InteractionRecord("u1", "i2", 0.75, 12345)),
            {"u1": {"trait": 3.0}},
            {"i1": {"trait": 1.0}, "i2": {"trait": 2.0}},
            tiny_schema,
            tiny_schema,
        )
        write_domain(ds, tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv")
        back = load_domain(
            tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv",
            tiny_schema, tiny_schema, domain_name="a",
        )
        assert back.interactions == ds.interactions
        # CSV is untyped, so raw values come back as strings, numeric and date
        # ones parsed to floats; the contract is that encoding them reproduces
        # the same vectors
        for uid in ds.user_features:
            np.testing.assert_array_equal(
                encode(tiny_schema, back.user_features[uid]),
                encode(tiny_schema, ds.user_features[uid]),
            )
        for iid in ds.item_features:
            np.testing.assert_array_equal(
                encode(tiny_schema, back.item_features[iid]),
                encode(tiny_schema, ds.item_features[iid]),
            )


    @pytest.mark.parametrize("value, message", [
        ("abc", r"cannot interpret 'abc' as a number"), ("nan", r"'nan' is not a number"),
    ])
    def test_a_value_that_is_no_number_is_refused_by_its_line(self, tmp_path, tiny_schema, value, message):
        write_interactions(tmp_path / "i.csv", ["u1,i1,0.5,"])
        write_feature_rows(tmp_path / "u.csv", ["u1,trait,5", f"u2,trait,{value}"])
        write_feature_rows(tmp_path / "v.csv", ["i1,trait,1"])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'u.csv'))}:3: field 'trait': {message}$"):
            load_domain(tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv", tiny_schema, tiny_schema)

    def test_an_entity_without_a_field_that_encoding_needs_is_refused(self, tmp_path, tiny_schema):
        # a vocabulary one-hot field and a multi-hot field may be missing; a hash-bucketed one may not
        schema = FeatureSchema((FieldSpec("trait", "numeric", lo=0, hi=10), gender_field(),
                                FieldSpec("tags", "multi_hot", values=("x", "y")), FieldSpec("city", "one_hot", buckets=4)))
        write_interactions(tmp_path / "i.csv", ["u1,i1,0.5,"])
        write_feature_rows(tmp_path / "u.csv", ["u1,trait,5", "u1,city,paris", "u2,trait,5"])
        write_feature_rows(tmp_path / "v.csv", ["i1,trait,1"])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'u.csv'))}: entity 'u2' has no value "
                                             r"for field 'city'$"):
            load_domain(tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv", schema, tiny_schema)
        write_feature_rows(tmp_path / "u.csv", ["u1,trait,5", "u1,city,paris"])
        ds = load_domain(tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv", schema, tiny_schema)
        assert encode(schema, ds.user_features["u1"])[1:4].tolist() == [0.0, 0.0, 1.0]  # gender: the unknown slot

    def test_an_unrated_entity_names_the_interactions_file(self, tmp_path, tiny_schema):
        write_interactions(tmp_path / "i.csv", ["u1,i1,0.5,"])
        write_feature_rows(tmp_path / "u.csv", ["u2,trait,5"])
        write_feature_rows(tmp_path / "v.csv", ["i1,trait,1"])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'i.csv'))}: domain 'a': no features for "
                                             rf"user 'u1' \(user features {re.escape(str(tmp_path / 'u.csv'))}, "):
            load_domain(tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv", tiny_schema, tiny_schema, "a")


@pytest.fixture(scope="module")
def written_domain(tmp_path_factory):
    """A small synthetic domain with a hash-bucketed user field, and the lines of its three CSV files."""
    ds, _, _ = synth_pair(n_users=8, n_items_per_domain=6, latent_dim=2, density=0.5, seed=3)
    schema = FeatureSchema(ds.user_schema.fields + (FieldSpec("city", "one_hot", buckets=8),))
    users = {u: {**raw, "city": f"c{k % 3}"} for k, (u, raw) in enumerate(sorted(ds.user_features.items()))}
    ds = dataclasses.replace(ds, user_features=users, user_schema=schema)
    root = tmp_path_factory.mktemp("domain")
    paths = [root / name for name in ("i.csv", "u.csv", "v.csv")]
    write_domain(ds, *paths)
    return ds, {path.name: path.read_text(encoding="utf-8").splitlines() for path in paths}


CELLS = st.one_of(st.sampled_from(["", "abc", "nan", "inf", "-1", "1e309", "0.5", "7", "u0001", "trait", "city", "tags"]),
                  st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=6))


@pytest.mark.filterwarnings("ignore:field .* clamped")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_domain_with_one_mutated_row_loads_and_encodes_or_names_the_file(written_domain, data):
    ds, texts = written_domain
    name = data.draw(st.sampled_from(sorted(texts)), label="file")
    lines = list(texts[name])
    ln = data.draw(st.integers(1, len(lines) - 1), label="line")  # a row under the header
    row = next(csv.reader([lines[ln]]))
    row[data.draw(st.integers(0, len(row) - 1), label="column")] = data.draw(CELLS, label="cell")
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(row)
    lines[ln] = out.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: Path(tmp) / n for n in texts}
        for n, path in paths.items():
            path.write_text("\n".join(lines if n == name else texts[n]) + "\n", encoding="utf-8")
        try:
            back = load_domain(paths["i.csv"], paths["u.csv"], paths["v.csv"], ds.user_schema, ds.item_schema, "a")
        except ValueError as exc:
            assert str(paths[name]) in str(exc)
            return
    for table, schema in ((back.user_features, back.user_schema), (back.item_features, back.item_schema)):
        for raw in table.values():
            encode(schema, raw)


class TestInvariants:
    def test_rating_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            InteractionRecord("u", "i", 1.5)

    def test_disjoint_items_enforced(self, tiny_schema):
        mk = lambda name, item: DomainDataset(
            name,
            (InteractionRecord("u1", item, 0.5),),
            {"u1": {"trait": 1}},
            {item: {"trait": 1}},
            tiny_schema,
            tiny_schema,
        )
        with pytest.raises(ValueError, match="share"):
            require_disjoint_items(mk("a", "i1"), mk("b", "i1"))
        require_disjoint_items(mk("a", "i1"), mk("b", "j1"))  # disjoint passes


def dataset_of(n, tiny_schema):
    recs = tuple(InteractionRecord(f"u{i}", "i0", 0.5) for i in range(n))
    users = {f"u{i}": {"trait": 1} for i in range(n)}
    return DomainDataset("a", recs, users, {"i0": {"trait": 1}}, tiny_schema, tiny_schema)


class TestKfold:
    def test_even_split(self, tiny_schema):
        split = kfold(dataset_of(10, tiny_schema), k=5, seed=0)
        sizes = [len(split.fold_indices(f)[1]) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_uneven_split_balanced(self, tiny_schema):
        split = kfold(dataset_of(11, tiny_schema), k=5, seed=0)
        sizes = sorted((len(split.fold_indices(f)[1]) for f in range(5)), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_same_seed_reproduces_assignments(self, tiny_schema):
        ds = dataset_of(20, tiny_schema)
        a = kfold(ds, k=4, seed=9)
        b = kfold(ds, k=4, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_train_and_test_partition_all_records(self, tiny_schema):
        ds = dataset_of(13, tiny_schema)
        split = kfold(ds, k=4, seed=3)
        seen = []
        for f in range(4):
            train, test = split.fold_indices(f)
            assert set(train) | set(test) == set(range(13))
            assert not set(train) & set(test)
            seen.extend(test)
        assert sorted(seen) == list(range(13))  # every record held out exactly once


class TestSynthPair:
    def test_perfect_correlation_aligns_probe_rankings(self):
        # rho=1, sigma=0: a shared user's score of any probe latent is identical
        # in both domains once the probe is expressed in each domain's frame
        _, _, truth = synth_pair(
            n_users=20, n_items_per_domain=10, latent_dim=6,
            cross_correlation=1.0, noise=0.0, density=1.0, seed=5,
        )
        rng = np.random.default_rng(0)
        probes = rng.normal(size=(15, 6))
        scores_a = sigmoid(truth.user_latents_a @ probes.T)
        scores_b = sigmoid(truth.user_latents_b @ (probes @ truth.q.T).T)
        np.testing.assert_allclose(scores_a, scores_b, atol=1e-12)
        for u in range(20):
            np.testing.assert_array_equal(np.argsort(scores_a[u]), np.argsort(scores_b[u]))

    def test_zero_correlation_decouples_user_similarities(self):
        _, _, truth = synth_pair(
            n_users=500, n_items_per_domain=2, latent_dim=8,
            cross_correlation=0.0, noise=0.0, density=0.5, seed=5,
        )
        sim_a = truth.user_latents_a @ truth.user_latents_a.T
        sim_b = truth.user_latents_b @ truth.user_latents_b.T
        iu = np.triu_indices(500, k=1)
        r = np.corrcoef(sim_a[iu], sim_b[iu])[0, 1]
        assert abs(r) < 0.1

    def test_interaction_count_near_binomial_expectation(self):
        ds_a, ds_b, _ = synth_pair(
            n_users=500, n_items_per_domain=200, latent_dim=8,
            cross_correlation=0.8, noise=0.05, density=0.05, seed=0,
        )
        for ds in (ds_a, ds_b):
            assert abs(len(ds.interactions) - 5000) <= 200

    def test_same_seed_is_bitwise_reproducible(self):
        kwargs = dict(n_users=30, n_items_per_domain=10, latent_dim=4,
                      cross_correlation=0.8, noise=0.05, density=0.3, seed=77)
        a1, b1, t1 = synth_pair(**kwargs)
        a2, b2, t2 = synth_pair(**kwargs)
        assert a1.interactions == a2.interactions
        assert b1.interactions == b2.interactions
        np.testing.assert_array_equal(t1.user_latents_b, t2.user_latents_b)

    def test_item_ids_disjoint_and_users_shared(self):
        ds_a, ds_b, _ = synth_pair(n_users=10, n_items_per_domain=5, latent_dim=4,
                                   cross_correlation=0.5, noise=0.0, density=1.0, seed=1)
        require_disjoint_items(ds_a, ds_b)
        assert set(ds_a.user_features) == set(ds_b.user_features)

    def test_feature_vectors_differ_between_domains_for_shared_user(self):
        # the generator measures each domain in its own frame; at rho<1 the raw
        # views of the same user must not coincide
        ds_a, ds_b, _ = synth_pair(n_users=10, n_items_per_domain=5, latent_dim=4,
                                   cross_correlation=0.5, noise=0.0, density=1.0, seed=1)
        va = encode(ds_a.user_schema, ds_a.user_features["u0000"])
        vb = encode(ds_b.user_schema, ds_b.user_features["u0000"])
        assert np.max(np.abs(va - vb)) > 1e-6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            synth_pair(cross_correlation=1.5)
        with pytest.raises(ValueError):
            synth_pair(density=0.0)
        with pytest.raises(ValueError):
            synth_pair(noise=-0.1)
