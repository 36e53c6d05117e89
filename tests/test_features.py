"""Schema encoding, CSV ingestion, folds, and the synthetic pair generator."""

import csv
import dataclasses
import io
import math
import re
import tempfile
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrec import features
from dualrec.features import (
    KINDS,
    DomainDataset,
    FeatureSchema,
    FieldSpec,
    GroundTruth,
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

    def test_a_bucket_count_below_one_is_refused(self):
        with pytest.raises(ValueError, match=r"^field 'city': buckets=0 below 1$"):
            FieldSpec("city", "one_hot", buckets=0)

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

    @pytest.mark.parametrize("kind", ["numeric", "date"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "1e309", float("inf"), float("-inf")])
    def test_an_infinite_value_is_an_error_naming_the_field(self, kind, value):
        # an infinite value would clamp to a bound of the range, as if it were a reading
        schema = FeatureSchema((FieldSpec("trait", kind, lo=0, hi=100),))
        with pytest.raises(ValueError, match=rf"^field 'trait': {re.escape(repr(value))} is not a finite number$"):
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


# ---------------------------------------------------------------------------
# encoding plans against the field-by-field encoder they replaced


def oracle_categorical_index(spec, value):
    if not isinstance(value, str):
        raise TypeError(f"field {spec.name!r}: categorical value must be a string, got {type(value).__name__}")
    if spec.buckets is not None:
        return zlib.crc32(value.encode("utf-8")) % spec.buckets
    try:
        return spec.values.index(value)
    except ValueError:
        return len(spec.values)


def oracle_number(spec, value):
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"field {spec.name!r}: cannot interpret {value!r} as a number") from None
    if not math.isfinite(x):
        raise ValueError(f"field {spec.name!r}: {value!r} is not a {'finite ' if x == x else ''}number")
    return x


def oracle_scale_scalar(spec, value):
    x = oracle_number(spec, value)
    if x < spec.lo or x > spec.hi:
        warnings.warn(f"field {spec.name!r}: value {x} outside [{spec.lo}, {spec.hi}], clamped", stacklevel=3)
        x = min(max(x, spec.lo), spec.hi)
    return (x - spec.lo) / (spec.hi - spec.lo)


def oracle_encode(schema, raw):
    """`encode` as it was before schemas compiled to plans: field by field, each dispatched on its spec."""
    out = np.zeros(schema.encoded_length)
    pos = 0
    for spec in schema.fields:
        block = out[pos : pos + spec.width]
        present = spec.name in raw
        if spec.kind == "one_hot":
            if present:
                block[oracle_categorical_index(spec, raw[spec.name])] = 1.0
            elif spec.values is not None:
                block[len(spec.values)] = 1.0
            else:
                raise ValueError(f"field {spec.name!r}: hash-bucketed field missing from raw values")
        elif spec.kind == "multi_hot":
            vals = raw.get(spec.name, [])
            if isinstance(vals, str):
                vals = [vals]
            for v in vals:
                if spec.values is not None and v not in spec.values:
                    continue
                block[oracle_categorical_index(spec, v)] = 1.0
        else:
            if not present:
                raise ValueError(f"field {spec.name!r}: numeric/date field missing from raw values")
            block[0] = oracle_scale_scalar(spec, raw[spec.name])
        pos += spec.width
    return out


def encoding(fn, schema, raw):
    """What fn does with raw: the vector's bytes or the exception's type and message, and every
    warning with the file and line it points at. Both encoders are called from the one line below."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(schema, raw).tobytes()
        except Exception as exc:  # noqa: BLE001 -- the oracle's exception is the expectation
            result = type(exc), str(exc)
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


VOCABULARY = st.lists(st.text("abcd", min_size=1, max_size=2), min_size=1, max_size=4, unique=True).map(tuple)
FIELD_KINDS = ("one_hot", "hashed one_hot", "multi_hot", "hashed multi_hot", "numeric", "date")


@st.composite
def schemas(draw):
    """A schema of one to five fields of every kind, named f0, f1, ..."""
    fields = []
    for k, kind in enumerate(draw(st.lists(st.sampled_from(FIELD_KINDS), min_size=1, max_size=5))):
        if kind.startswith("hashed"):
            fields.append(FieldSpec(f"f{k}", kind.split()[1], buckets=draw(st.integers(1, 6))))
        elif kind.endswith("hot"):
            fields.append(FieldSpec(f"f{k}", kind, values=draw(VOCABULARY)))
        else:
            lo = draw(st.floats(-100, 100))
            fields.append(FieldSpec(f"f{k}", kind, lo=lo, hi=lo + draw(st.floats(0.5, 100))))
    return FeatureSchema(tuple(fields))


# values no field takes: not strings, unhashable, or numpy strings (a 0-d one equals its text)
ODD_VALUES = st.one_of(st.none(), st.integers(-3, 3), st.floats(), st.binary(max_size=2),
                       st.lists(st.text("ab", max_size=1), max_size=2), st.dictionaries(st.text("a"), st.integers(), max_size=1),
                       st.sampled_from([np.array("a"), np.array(["a", "b"]), np.str_("a")]))


def raw_values(spec):
    """A raw value for spec: a fitting one, or one out of range, NaN, ±inf, text, or of no fitting type."""
    if spec.kind in ("numeric", "date"):
        return st.one_of(st.floats(spec.lo - 10, spec.hi + 10), st.floats(), st.floats().map(np.float64),
                         st.integers(-200, 200), st.sampled_from(["7.5", "abc", "1e309", "nan", "-inf", ""]), ODD_VALUES)
    words = st.sampled_from(spec.values or ("a",)) | st.text("abcdz", max_size=2)
    if spec.kind == "one_hot":
        return words | ODD_VALUES
    return words | st.lists(words | ODD_VALUES, max_size=4) | st.tuples(words, words) | ODD_VALUES


@st.composite
def raw_dicts(draw, schema):
    """A raw dict for schema; each field missing one time in four."""
    return {f.name: draw(raw_values(f)) for f in schema.fields if draw(st.integers(0, 3))}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), schema=schemas())
def test_a_plan_encodes_like_the_field_by_field_encoder(data, schema):
    for _ in range(3):
        raw = data.draw(raw_dicts(schema), label="raw")
        want = encoding(oracle_encode, schema, raw)
        assert encoding(encode, schema, raw) == want
        assert all(filename == __file__ for *_, filename, _ in want[1])  # the clamp warning names encode's caller


def test_every_entity_of_the_standard_pair_encodes_like_the_field_by_field_encoder():
    ds_a, ds_b, _ = synth_pair()
    for ds in (ds_a, ds_b):
        for table, schema in ((ds.user_features, ds.user_schema), (ds.item_features, ds.item_schema)):
            for raw in table.values():
                assert encode(schema, raw).tobytes() == oracle_encode(schema, raw).tobytes()


# one part of a schema line, changed: any text, a kind, another field's name, or a spec
LINE_PARTS = SCHEMA_TEXT | st.sampled_from([*KINDS, "f0", "f1", "f2", "hash:3", "hash:0", "hash:x", "a|b", "a|a", "b",
                                            "0:1", "1:0", "nan:1", "0:inf", "-5.5:2", "3", ""])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), schema=schemas())
def test_a_schema_text_with_one_changed_line_reads_back_and_encodes_like_the_oracle_or_names_the_line(data, schema):
    lines = schema_to_text(schema).splitlines()
    ln = data.draw(st.integers(0, len(lines) - 1), label="line")
    parts = lines[ln].split(",", 2)  # name, kind, spec
    parts[data.draw(st.integers(0, 2), label="part")] = data.draw(LINE_PARTS, label="new")
    lines[ln] = ",".join(parts)
    text = "\n".join(lines) + "\n"
    try:
        back = parse_schema(text)
    except ValueError as exc:
        # a part with line breaks makes the changed line several
        named = range(ln + 1, ln + 1 + max(1, len(lines[ln].splitlines())))
        if str(exc) == "schema text contains no fields":  # nothing left to blame a line for
            assert all(not line.strip() or line.strip().startswith("#") for line in text.splitlines())
        else:
            assert re.match(r"schema line \d+: ", str(exc)), str(exc)
            assert any(int(n) in named for n in re.findall(r"line (\d+)", str(exc))), (str(exc), ln)
        return
    assert parse_schema(schema_to_text(back)) == back
    for _ in range(2):
        raw = data.draw(raw_dicts(back), label="raw")
        assert encoding(encode, back, raw) == encoding(oracle_encode, back, raw)


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


    def test_numpy_ratings_and_values_write_as_numbers_and_round_trip(self, tmp_path, tiny_schema):
        schema = FeatureSchema((FieldSpec("trait", "numeric", lo=0, hi=10), FieldSpec("born", "date", lo=0, hi=9e9)))
        ratings = np.array([0.5331286185263773, 1 / 3])
        ds = DomainDataset(
            "a",
            (InteractionRecord("u1", "i1", ratings[0]), InteractionRecord("u1", "i2", ratings[1], np.int64(7))),
            {"u1": {"trait": np.float64(2.75), "born": np.int64(1_600_000_000)}},
            {"i1": {"trait": 4, "born": 0.5}, "i2": {"trait": np.float32(1.5), "born": np.float64(3e9)}},
            schema,
            schema,
        )
        write_domain(ds, tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv")
        assert (tmp_path / "i.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "u1,i1,0.5331286185263773,", "u1,i2,0.3333333333333333,7"]
        assert (tmp_path / "u.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "u1,trait,2.75", "u1,born,1600000000.0"]
        back = load_domain(tmp_path / "i.csv", tmp_path / "u.csv", tmp_path / "v.csv", schema, schema, "a")
        assert back.interactions == ds.interactions
        for table, back_table in ((ds.user_features, back.user_features), (ds.item_features, back.item_features)):
            assert back_table == {eid: {name: float(v) for name, v in raw.items()} for eid, raw in table.items()}

    @pytest.mark.parametrize("value, message", [
        ("abc", r"cannot interpret 'abc' as a number"), ("nan", r"'nan' is not a number"),
        ("inf", r"'inf' is not a finite number"), ("-inf", r"'-inf' is not a finite number"),
        ("1e309", r"'1e309' is not a finite number"),
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
    def test_one_fold_is_refused_in_the_config_key_words(self, tiny_schema):
        # once "k must be >= 2, got 1", where the CLI says "folds=1 below 2"
        with pytest.raises(ValueError, match=r"^k=1 below 2$"):
            kfold(dataset_of(10, tiny_schema), k=1, seed=0)

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

    def test_more_folds_than_records_names_the_domain(self, tiny_schema):
        with pytest.raises(ValueError, match=r"^domain 'a' has 2 records, fewer than k=3 folds$"):
            kfold(dataset_of(2, tiny_schema), k=3, seed=0)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(3.0), True, np.bool_(True), "2"])
    def test_a_fold_count_that_is_no_integer_is_refused_by_name(self, tiny_schema, k):
        with pytest.raises(ValueError, match=rf"^k={re.escape(str(k))} is not an integer$"):
            kfold(dataset_of(10, tiny_schema), k=k, seed=0)

    def test_an_np_int64_fold_count_splits_like_an_int(self, tiny_schema):
        ds = dataset_of(10, tiny_schema)
        split = kfold(ds, k=np.int64(3), seed=0)
        np.testing.assert_array_equal(split.assignments, kfold(ds, k=3, seed=0).assignments)


def oracle_latent_raw_features(latents, proj_rng, prefix, frame=None):
    """features._latent_raw_features entity by entity, reading one numpy scalar per field."""
    d = latents.shape[1]
    p_group = proj_rng.normal(size=d)
    p_trait = proj_rng.normal(size=d)
    p_tags = proj_rng.normal(size=(6, d))
    basis, r = np.linalg.qr(proj_rng.normal(size=(d, d)))
    basis = basis * np.sign(np.diag(r))
    if frame is not None:
        p_group = frame @ p_group
        p_trait = frame @ p_trait
        p_tags = p_tags @ frame.T
        basis = frame @ basis
    group_scores = sigmoid(latents @ p_group)
    trait_scores = 100.0 * sigmoid(latents @ p_trait)
    tag_scores = sigmoid(latents @ p_tags.T)
    coord_scores = 100.0 * sigmoid(latents @ basis)
    out = []
    for i in range(latents.shape[0]):
        g = min(int(group_scores[i] * 4), 3)
        raw = {
            "group": f"{prefix}{g + 1}",
            "trait": float(trait_scores[i]),
            "tags": [f"t{j}" for j in range(6) if tag_scores[i, j] > 0.6],
        }
        for j in range(d):
            raw[f"s{j}"] = float(coord_scores[i, j])
        out.append(raw)
    return out


def oracle_domain_interactions(users, items, user_ids, item_ids, density, mask_rng, noise_rng, sigma):
    """features._domain_interactions record by record over np.argwhere, one numpy scalar per rating."""
    scores = sigmoid(users @ items.T)
    if sigma > 0:
        scores = scores + noise_rng.normal(scale=sigma, size=scores.shape)
    ratings = np.clip(scores, 0.0, 1.0)
    mask = mask_rng.random(scores.shape) < density
    return tuple(InteractionRecord(user_ids[i], item_ids[j], float(ratings[i, j])) for i, j in np.argwhere(mask))


def typed(x):
    """x with every leaf as (type name, repr): equal only for equal values of equal types, in equal order."""
    if isinstance(x, InteractionRecord):
        return ("record", *(typed(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return ("dict", *((k, typed(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, *(typed(v) for v in x))
    return (type(x).__name__, repr(x))


class TestSynthPair:
    @pytest.mark.parametrize("kwargs", [
        {"noise": 0.02, "seed": 101},  # the standard pair
        {},
        {"n_users": 37, "n_items_per_domain": 11, "latent_dim": 5, "seed": 3},
        {"n_users": 60, "n_items_per_domain": 25, "density": 1.0, "noise": 0.0, "seed": 4},
        {"n_users": 100, "n_items_per_domain": 40, "density": 0.5, "noise": 0.5, "seed": 5},  # clips at 0 and 1
    ], ids=["standard", "defaults", "odd-shape", "dense-noiseless", "clipped"])
    def test_equals_the_per_record_oracle(self, kwargs, monkeypatch):
        got = synth_pair(**kwargs)
        monkeypatch.setattr(features, "_latent_raw_features", oracle_latent_raw_features)
        monkeypatch.setattr(features, "_domain_interactions", oracle_domain_interactions)
        want = synth_pair(**kwargs)
        for ds, oracle in zip(got[:2], want[:2]):
            assert len(ds.interactions) == len(oracle.interactions)
            for n, (rec, rec_oracle) in enumerate(zip(ds.interactions, oracle.interactions)):
                assert typed(rec) == typed(rec_oracle), n
            for table, table_oracle in ((ds.user_features, oracle.user_features),
                                        (ds.item_features, oracle.item_features)):
                assert list(table) == list(table_oracle)
                for eid, raw in table.items():
                    assert typed(raw) == typed(table_oracle[eid]), eid
        if kwargs.get("noise") == 0.5:
            ratings = {r.rating for ds in got[:2] for r in ds.interactions}
            assert {0.0, 1.0} <= ratings

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
        for ds1, ds2 in ((a1, a2), (b1, b2)):
            assert ds1.interactions == ds2.interactions
            assert ds1.user_features == ds2.user_features
            assert ds1.item_features == ds2.item_features
        for f in dataclasses.fields(GroundTruth):
            v1, v2 = np.asarray(getattr(t1, f.name)), np.asarray(getattr(t2, f.name))
            assert v1.dtype == v2.dtype and v1.shape == v2.shape and v1.tobytes() == v2.tobytes(), f.name

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

    @pytest.mark.parametrize("kwargs, message", [
        ({"noise": math.nan}, "noise=nan is not a number"),  # once wrote the noise-free pair, byte for byte
        ({"n_users": 2.5}, "n_users=2.5 is not an integer"),  # once a bare numpy TypeError
        ({"n_users": 0}, "n_users=0 below 1"),  # once named three parameters and not the value
        ({"latent_dim": 0}, "latent_dim=0 below 1"),
    ])
    def test_each_parameter_is_refused_by_its_own_name(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            synth_pair(**kwargs)
        assert str(exc.value) == message
