"""Feature schemas, encoding, dataset ingestion, fold splits, synthetic data.

Raw user/item attributes are described by a FeatureSchema and encoded into
fixed-length float vectors: one-hot and multi-hot blocks for categorical
fields, min-max scaled scalars for numeric and date fields. Every one-hot
block with an explicit vocabulary carries one extra reserved slot at the end
for out-of-vocabulary values, so real-world open vocabularies never abort an
encode. High-cardinality fields can instead be hash-bucketed (crc32 modulo a
fixed bucket count), in which case no reserved slot is needed.

Datasets are three CSV files per domain:

    interactions: header ``user_id,item_id,rating,timestamp``; ratings are
        decimals in [0, 1]; timestamp is integer seconds, may be empty.
    features:     header ``entity_id,field,value``; multi-hot fields repeat
        one row per active value.
    schema:       one ``name,kind,spec`` line per field, see parse_schema.

The synthetic generator produces a pair of domains whose per-user latents are
correlated through a ground-truth orthogonal matrix, which makes
mapping-recovery and transfer-benefit experiments possible.
"""

from __future__ import annotations

import csv
import warnings
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import isfinite

import numpy as np

from dualrec.mapping import init_map
from dualrec.numeric import check_integer, make_rng, sigmoid

KINDS = ("one_hot", "multi_hot", "numeric", "date")

# rng stream labels, arbitrary but fixed
_L_KFOLD = 0x06F0
_L_SYNTH_USERS = 1
_L_SYNTH_Q = 2
_L_SYNTH_ITEMS = 3
_L_SYNTH_EPS = 4
_L_SYNTH_MASK = 5
_L_SYNTH_NOISE = 6
_L_SYNTH_PROJ = 7


@dataclass(frozen=True)
class FieldSpec:
    """One schema field.

    Categorical kinds carry either an explicit ordered vocabulary in
    ``values`` or a hash bucket count in ``buckets`` (exactly one of the
    two). Numeric and date kinds carry the inclusive range [lo, hi].
    """

    name: str
    kind: str
    values: tuple[str, ...] | None = None
    buckets: int | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("field name must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}, expected one of {KINDS}")
        if self.kind in ("one_hot", "multi_hot"):
            if (self.values is None) == (self.buckets is None):
                raise ValueError(f"field {self.name!r}: give exactly one of values/buckets")
            if self.values is not None:
                if len(self.values) < 1 or not all(isinstance(v, str) for v in self.values):
                    raise ValueError(f"field {self.name!r}: values must be one or more strings")
                if len(set(self.values)) != len(self.values):
                    raise ValueError(f"field {self.name!r}: duplicate category values")
            if self.buckets is not None and self.buckets < 1:
                raise ValueError(f"field {self.name!r}: bucket count must be >= 1")
        else:
            if self.lo is None or self.hi is None:
                raise ValueError(f"field {self.name!r}: numeric/date fields need lo and hi")
            if not self.lo < self.hi:
                raise ValueError(f"field {self.name!r}: lo must be < hi")
        line = _field_line(self)  # a field must read back from its line of schema text as it stands
        try:  # one line, as parse_schema splits the text
            same = line.splitlines() == [line] and _read_line(line) == (self.name, self.kind, self.values,
                                                                          self.buckets, self.lo, self.hi)
        except ValueError:
            same = False
        if not same:
            raise ValueError(f"field {self.name!r} does not read back from its schema line {line!r}")

    @cached_property
    def width(self) -> int:
        """Encoded block length, computed once per spec."""
        if self.kind in ("numeric", "date"):
            return 1
        # an explicit one-hot vocabulary reserves a trailing out-of-vocabulary slot
        return self.buckets if self.values is None else len(self.values) + (self.kind == "one_hot")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered list of fields; block order in encoded vectors follows it."""

    fields: tuple[FieldSpec, ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError("a schema needs at least one field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("field names must be unique")

    @cached_property
    def encoded_length(self) -> int:
        return sum(f.width for f in self.fields)

    @cached_property
    def plan(self) -> tuple:
        """The schema compiled once for `encode`: per field, in order, (plan kind,
        name, offset, p, q), p and q as the plan kinds below say; a vocabulary maps
        each value to its slot in the whole vector."""
        plan, at = [], 0
        for f in self.fields:
            if f.kind in ("numeric", "date"):
                plan.append((_SCALAR, f.name, at, f.lo, f.hi))
            elif f.values is None:
                plan.append((_HASHED if f.kind == "one_hot" else _HASHED_TAGS, f.name, at, None, f.buckets))
            else:
                slots = {v: at + k for k, v in enumerate(f.values)}
                plan.append((_ONE_HOT, f.name, at, slots, at + len(f.values)) if f.kind == "one_hot"
                            else (_TAGS, f.name, at, slots, None))
            at += f.width
        return tuple(plan)


# plan kinds, with their (p, q): a numeric or date field (lo, hi), a one-hot field (vocabulary, reserved
# slot), a hashed one (None, bucket count), a multi-hot field (vocabulary, None), a hashed one (None, bucket count)
_SCALAR, _ONE_HOT, _HASHED, _TAGS, _HASHED_TAGS = range(5)


def _bucket(value: str, buckets: int) -> int:
    return zlib.crc32(value.encode("utf-8")) % buckets


def _category(name: str, value) -> str:
    """A categorical value, which must be a string."""
    if not isinstance(value, str):
        raise TypeError(f"field {name!r}: categorical value must be a string, got {type(value).__name__}")
    return value


def _number(name: str, value) -> float:
    """A numeric or date field's value as a float; text, NaN or an infinite
    value (overflowing text such as '1e309' too) is a ValueError naming the field."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r}: cannot interpret {value!r} as a number") from None
    if not isfinite(x):  # NaN fails both range comparisons of the clamp, and ±inf would clamp like a reading
        raise ValueError(f"field {name!r}: {value!r} is not a {'finite ' if x == x else ''}number")
    return x


def encode(schema: FeatureSchema, raw: dict, out: np.ndarray | None = None) -> np.ndarray:
    """Encode raw field values into one fixed-length float vector, by the
    schema's plan (`FeatureSchema.plan`). Given out, a zeroed float row of
    the schema's encoded length, encode fills and returns it instead of a
    new vector.

    Missing one-hot fields land in the reserved slot (hash-bucketed fields
    have none and must be present); missing multi-hot fields encode as all
    zeros; missing numeric/date fields are an error. Multi-hot values may be
    a single string or an iterable of strings; values not in an explicit
    multi-hot vocabulary are ignored, whatever their type. A numeric value
    outside its range is clamped with a warning.
    """
    if out is None:
        out = np.zeros(schema.encoded_length)
    for kind, name, at, p, q in schema.plan:
        if kind == _SCALAR:
            if name not in raw:
                raise ValueError(f"field {name!r}: numeric/date field missing from raw values")
            x = _number(name, raw[name])
            if x < p or x > q:
                warnings.warn(f"field {name!r}: value {x} outside [{p}, {q}], clamped", stacklevel=2)
                x = min(max(x, p), q)
            out[at] = (x - p) / (q - p)
        elif kind == _ONE_HOT:
            out[p.get(_category(name, raw[name]), q) if name in raw else q] = 1.0
        elif kind == _HASHED:
            if name not in raw:
                raise ValueError(f"field {name!r}: hash-bucketed field missing from raw values")
            out[at + _bucket(_category(name, raw[name]), q)] = 1.0
        else:
            vals = raw.get(name, [])
            for v in [vals] if isinstance(vals, str) else vals:
                if kind == _HASHED_TAGS:
                    out[at + _bucket(_category(name, v), q)] = 1.0
                    continue
                try:
                    slot = p.get(v)
                except TypeError:  # unhashable, so no string: refused if it equals a value, as `in` would find
                    if any(w == v for w in p):
                        _category(name, v)
                    continue
                if slot is not None:
                    out[slot] = 1.0
    return out


# ---------------------------------------------------------------------------
# schema text format


def _field_line(f: FieldSpec) -> str:
    """The field's ``name,kind,spec`` line: spec ``a|b|c`` (vocabulary), ``hash:64`` or ``lo:hi``."""
    if f.kind in ("one_hot", "multi_hot"):
        spec = f"hash:{f.buckets}" if f.buckets is not None else "|".join(f.values)
    else:
        spec = f"{f.lo}:{f.hi}"  # str, not repr: an np.float64 writes as a number
    return f"{f.name},{f.kind},{spec}"


def _read_line(line: str):
    """FieldSpec's (name, kind, values, buckets, lo, hi) from a line of schema text; None if blank or comment."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split(",", 2)
    if len(parts) != 3:
        raise ValueError(f"expected 'name,kind,spec', got {line!r}")
    name, kind, spec = (p.strip() for p in parts)
    if kind in ("one_hot", "multi_hot"):
        if spec.startswith("hash:"):
            return name, kind, None, int(spec[5:]), None, None
        vals = tuple(v for v in spec.split("|") if v)
        if not vals:
            raise ValueError(f"empty vocabulary for field {name!r}")
        return name, kind, vals, None, None, None
    if kind in ("numeric", "date"):
        lo, _, hi = spec.partition(":")
        try:
            return name, kind, None, None, float(lo), float(hi)
        except ValueError:
            raise ValueError(f"bad range {spec!r} for field {name!r}") from None
    raise ValueError(f"unknown kind {kind!r}")


def schema_to_text(schema: FeatureSchema) -> str:
    """One ``name,kind,spec`` line per field (`_field_line`)."""
    return "".join(_field_line(f) + "\n" for f in schema.fields)


def parse_schema(text: str) -> FeatureSchema:
    """The schema of text, one field per line; an error names its line, and a
    repeated field name both lines."""
    fields, lines = [], {}
    for ln, line in enumerate(text.splitlines(), start=1):
        try:
            args = _read_line(line)
            if args is not None:
                fields.append(FieldSpec(*args))
                if lines.setdefault(args[0], ln) != ln:
                    raise ValueError(f"field name {args[0]!r} repeats line {lines[args[0]]}")
        except ValueError as exc:
            raise ValueError(f"schema line {ln}: {exc}") from None
    if not fields:
        raise ValueError("schema text contains no fields")
    return FeatureSchema(tuple(fields))


def save_schema(schema: FeatureSchema, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(schema_to_text(schema))


def load_schema(path) -> FeatureSchema:
    with open(path, encoding="utf-8") as fh:
        return parse_schema(fh.read())


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class InteractionRecord:
    user_id: str
    item_id: str
    rating: float
    timestamp: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.rating <= 1.0:
            raise ValueError(f"rating {self.rating} outside [0, 1]")


@dataclass
class DomainDataset:
    domain_name: str
    interactions: tuple[InteractionRecord, ...]
    user_features: dict
    item_features: dict
    user_schema: FeatureSchema
    item_schema: FeatureSchema

    def __post_init__(self):
        for rec in self.interactions:
            if rec.user_id not in self.user_features:
                raise ValueError(f"domain {self.domain_name!r}: no features for user {rec.user_id!r}")
            if rec.item_id not in self.item_features:
                raise ValueError(f"domain {self.domain_name!r}: no features for item {rec.item_id!r}")

    @property
    def user_ids(self) -> set:
        return set(self.user_features)

    @property
    def item_ids(self) -> set:
        return set(self.item_features)


def require_disjoint_items(a: DomainDataset, b: DomainDataset) -> None:
    """Item catalogs of a domain pair must not overlap; user sets may."""
    shared = a.item_ids & b.item_ids
    if shared:
        some = sorted(shared)[:5]
        raise ValueError(
            f"domains {a.domain_name!r} and {b.domain_name!r} share {len(shared)} item ids, e.g. {some}"
        )


def _read_csv_rows(path, expected_header: list[str]):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: missing header, expected {','.join(expected_header)}") from None
        if header != expected_header:
            raise ValueError(f"{path}:1: bad header {header!r}, expected {expected_header!r}")
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ValueError(f"{path}:{ln}: expected {len(expected_header)} columns, got {len(row)}")
            yield ln, row


_PLAIN_CELLS = {str, float, int, bool}  # the csv module writes these as write_csv formats them


def write_csv(path, header, rows) -> None:
    """The package's one CSV writer: a string cell as it is, a float (np.float64
    too) by the repr of the float it holds, anything else by str. Lists or
    tuples of plain cells go to the csv module as they are; other rows are
    formatted cell by cell."""
    rows = rows if isinstance(rows, list) else list(rows)  # read twice: the type scans, then the writer
    if not (set(map(type, rows)) <= {list, tuple} and set(map(type, chain.from_iterable(rows))) <= _PLAIN_CELLS):
        rows = [[x if isinstance(x, str) else repr(float(x)) if isinstance(x, float) else str(x) for x in row]
                for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header))
        w.writerows(rows)


def _read_interactions(path) -> tuple[InteractionRecord, ...]:
    records = []
    for ln, (user_id, item_id, rating_s, ts_s) in _read_csv_rows(
        path, ["user_id", "item_id", "rating", "timestamp"]
    ):
        try:
            rating = float(rating_s)
        except ValueError:
            raise ValueError(f"{path}:{ln}: rating {rating_s!r} is not a number") from None
        if not 0.0 <= rating <= 1.0:
            raise ValueError(f"{path}:{ln}: rating {rating} outside [0, 1]")
        ts: int | None = None
        if ts_s != "":
            try:
                ts = int(ts_s)
            except ValueError:
                raise ValueError(f"{path}:{ln}: timestamp {ts_s!r} is not an integer") from None
        records.append(InteractionRecord(user_id, item_id, rating, ts))
    return tuple(records)


def _read_features(path, schema: FeatureSchema) -> dict:
    """Each entity's raw values, numeric and date ones as numbers. A row or an
    entity that `encode` would refuse is a ValueError naming the file and the
    line or the entity."""
    specs = {f.name: f for f in schema.fields}
    table: dict = {}
    for ln, (entity_id, fname, value) in _read_csv_rows(path, ["entity_id", "field", "value"]):
        raw = table.setdefault(entity_id, {})
        try:
            if fname not in specs:
                raise ValueError(f"field {fname!r} not in schema")
            if specs[fname].kind == "multi_hot":
                raw.setdefault(fname, []).append(value)
            elif fname in raw:
                raise ValueError(f"duplicate value for field {fname!r} of entity {entity_id!r}")
            else:
                raw[fname] = value if specs[fname].kind == "one_hot" else _number(fname, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    # the fields encode has no slot for when missing: numeric, date and hash-bucketed one-hot
    needed = [f.name for f in schema.fields if f.kind != "multi_hot" and f.values is None]
    for entity_id, raw in table.items():
        missing = [name for name in needed if name not in raw]
        if missing:
            raise ValueError(f"{path}: entity {entity_id!r} has no value for field {missing[0]!r}")
    return table


def load_domain(
    interactions_path,
    user_features_path,
    item_features_path,
    user_schema: FeatureSchema,
    item_schema: FeatureSchema,
    domain_name: str = "domain",
) -> DomainDataset:
    """Assemble and validate one domain from its three CSV files.

    Every referenced user and item must have a feature row, and every entity
    a value of each field `encode` needs; a malformed row fails with the
    offending file and line number, a missing value with the file, the
    entity and the field.
    """
    interactions = _read_interactions(interactions_path)
    user_features = _read_features(user_features_path, user_schema)
    item_features = _read_features(item_features_path, item_schema)
    try:
        return DomainDataset(domain_name, interactions, user_features, item_features, user_schema, item_schema)
    except ValueError as exc:  # an entity that interactions_path rates and its features file lacks
        raise ValueError(f"{interactions_path}: {exc} (user features {user_features_path}, "
                         f"item features {item_features_path})") from None


# ---------------------------------------------------------------------------
# fold splitting


@dataclass(frozen=True)
class FoldSplit:
    k: int
    assignments: np.ndarray  # per-interaction fold index

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train record indices, test record indices) for one held-out fold."""
        if not 0 <= fold < self.k:
            raise ValueError(f"fold {fold} outside [0, {self.k})")
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, test


def kfold(dataset: DomainDataset, k: int, seed: int) -> FoldSplit:
    """Record-stratified split: permute interactions, deal round-robin."""
    n = len(dataset.interactions)
    check_integer("k", k)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"domain {dataset.domain_name!r} has {n} records, fewer than k={k} folds")
    rng = make_rng(seed, _L_KFOLD)
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % k
    return FoldSplit(k, assignments)


# ---------------------------------------------------------------------------
# synthetic cross-domain pair


@dataclass(frozen=True)
class GroundTruth:
    """Latents behind a synthetic pair, for instrumentation and oracles."""

    q: np.ndarray  # orthogonal map between the user-latent spaces
    user_latents_a: np.ndarray
    user_latents_b: np.ndarray
    item_latents_a: np.ndarray
    item_latents_b: np.ndarray
    user_ids: tuple[str, ...]
    item_ids_a: tuple[str, ...]
    item_ids_b: tuple[str, ...]


def _entity_schema(prefix: str, dim: int) -> FeatureSchema:
    scores = tuple(FieldSpec(f"s{i}", "numeric", lo=0.0, hi=100.0) for i in range(dim))
    return FeatureSchema(
        (
            FieldSpec("group", "one_hot", values=(f"{prefix}1", f"{prefix}2", f"{prefix}3", f"{prefix}4")),
            FieldSpec("trait", "numeric", lo=0.0, hi=100.0),
            FieldSpec("tags", "multi_hot", values=("t0", "t1", "t2", "t3", "t4", "t5")),
        )
        + scores
    )


def _latent_raw_features(
    latents: np.ndarray,
    proj_rng: np.random.Generator,
    prefix: str,
    frame: np.ndarray | None = None,
) -> list[dict]:
    """Project latents through fixed random directions into schema-shaped raw values.

    The s-fields hold sigmoid scores along an orthonormal basis, so together
    they pin down the latent; group/trait/tags are coarser redundant views.
    `frame` rotates every projection direction. Passing the pair's ground-truth
    rotation makes a domain measure latents in its own frame: coordinates stay
    internally consistent within the domain, and a shared user's scores line up
    across domains (damped by the cross correlation).
    """
    d = latents.shape[1]
    p_group = proj_rng.normal(size=d)
    p_trait = proj_rng.normal(size=d)
    p_tags = proj_rng.normal(size=(6, d))
    basis, r = np.linalg.qr(proj_rng.normal(size=(d, d)))
    basis = basis * np.sign(np.diag(r))  # fix QR sign ambiguity
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
        g = min(int(group_scores[i] * 4), 3)  # quartile bins of sigmoid score
        raw = {
            "group": f"{prefix}{g + 1}",
            "trait": float(trait_scores[i]),
            "tags": [f"t{j}" for j in range(6) if tag_scores[i, j] > 0.6],
        }
        for j in range(d):
            raw[f"s{j}"] = float(coord_scores[i, j])
        out.append(raw)
    return out


def _domain_interactions(
    users: np.ndarray,
    items: np.ndarray,
    user_ids,
    item_ids,
    density: float,
    mask_rng,
    noise_rng,
    sigma: float,
) -> tuple[InteractionRecord, ...]:
    scores = sigmoid(users @ items.T)
    if sigma > 0:
        scores = scores + noise_rng.normal(scale=sigma, size=scores.shape)
    ratings = np.clip(scores, 0.0, 1.0)
    mask = mask_rng.random(scores.shape) < density
    records = []
    for i, j in np.argwhere(mask):
        records.append(InteractionRecord(user_ids[i], item_ids[j], float(ratings[i, j])))
    return tuple(records)


def synth_pair(
    n_users: int = 500,
    n_items_per_domain: int = 200,
    latent_dim: int = 8,
    cross_correlation: float = 0.8,
    noise: float = 0.05,
    density: float = 0.05,
    seed: int = 0,
) -> tuple[DomainDataset, DomainDataset, GroundTruth]:
    """Generate a correlated two-domain dataset with known latents.

    Per-user latent u drives domain a; the domain-b latent is
    rho*(Q u) + (1-rho)*eps for a fixed random orthogonal Q and fresh
    Gaussian eps, so rho=1 transfers perfectly and rho=0 makes the domains
    unrelated. Ratings are sigmoid(<user, item>) plus Gaussian noise, clipped
    to [0, 1]; observation of each (user, item) pair is an independent
    Bernoulli(density) draw. Raw features are quantized random projections
    of the latents, so encoded features genuinely carry preference signal.
    """
    rho = float(cross_correlation)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"cross_correlation {rho} outside [0, 1]")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density {density} outside (0, 1]")
    if noise < 0:
        raise ValueError(f"noise {noise} must be >= 0")
    if min(n_users, n_items_per_domain, latent_dim) < 1:
        raise ValueError("n_users, n_items_per_domain, latent_dim must be >= 1")

    u_a = make_rng(seed, _L_SYNTH_USERS).normal(size=(n_users, latent_dim))
    q = init_map(latent_dim, seed, domain_pair=("a", "b")).x
    eps = make_rng(seed, _L_SYNTH_EPS).normal(size=(n_users, latent_dim))
    u_b = rho * (u_a @ q.T) + (1.0 - rho) * eps

    item_scale = 1.0 / np.sqrt(latent_dim)  # keeps <user, item> roughly unit variance
    v_a = make_rng(seed, _L_SYNTH_ITEMS, 0).normal(scale=item_scale, size=(n_items_per_domain, latent_dim))
    v_b = make_rng(seed, _L_SYNTH_ITEMS, 1).normal(scale=item_scale, size=(n_items_per_domain, latent_dim))

    user_ids = tuple(f"u{i:04d}" for i in range(n_users))
    item_ids_a = tuple(f"ai{j:04d}" for j in range(n_items_per_domain))
    item_ids_b = tuple(f"bi{j:04d}" for j in range(n_items_per_domain))

    user_schema = _entity_schema("q", latent_dim)
    item_schema = _entity_schema("c", latent_dim)
    raw_u_a = _latent_raw_features(u_a, make_rng(seed, _L_SYNTH_PROJ, 0), "q")
    raw_u_b = _latent_raw_features(u_b, make_rng(seed, _L_SYNTH_PROJ, 0), "q", frame=q)
    raw_v_a = _latent_raw_features(v_a, make_rng(seed, _L_SYNTH_PROJ, 1), "c")
    raw_v_b = _latent_raw_features(v_b, make_rng(seed, _L_SYNTH_PROJ, 1), "c", frame=q)

    ds = []
    for name, users, items, iids, raw_users, raw_items, sub in (
        ("a", u_a, v_a, item_ids_a, raw_u_a, raw_v_a, 0),
        ("b", u_b, v_b, item_ids_b, raw_u_b, raw_v_b, 1),
    ):
        interactions = _domain_interactions(
            users,
            items,
            user_ids,
            iids,
            density,
            make_rng(seed, _L_SYNTH_MASK, sub),
            make_rng(seed, _L_SYNTH_NOISE, sub),
            noise,
        )
        ds.append(
            DomainDataset(
                name,
                interactions,
                {uid: raw_users[i] for i, uid in enumerate(user_ids)},
                {iid: raw_items[j] for j, iid in enumerate(iids)},
                user_schema,
                item_schema,
            )
        )

    truth = GroundTruth(q, u_a, u_b, v_a, v_b, user_ids, item_ids_a, item_ids_b)
    return ds[0], ds[1], truth


# ---------------------------------------------------------------------------
# CSV emission (inverse of load_domain, used by the synthetic pipeline)


def write_domain(dataset: DomainDataset, interactions_path, user_features_path, item_features_path) -> None:
    """Write a domain back out under the same CSV contracts load_domain reads."""
    write_csv(interactions_path, ["user_id", "item_id", "rating", "timestamp"],
              [[r.user_id, r.item_id, r.rating, "" if r.timestamp is None else r.timestamp]
               for r in dataset.interactions])
    for path, table, schema in (
        (user_features_path, dataset.user_features, dataset.user_schema),
        (item_features_path, dataset.item_features, dataset.item_schema),
    ):
        write_csv(path, ["entity_id", "field", "value"], [
            [eid, spec.name, v] for eid in sorted(table) for spec in schema.fields if spec.name in table[eid]
            for v in _field_cells(spec, table[eid][spec.name])
        ])


def _field_cells(spec: FieldSpec, val):
    """The value cells of one entity's field: one per multi-hot value, numeric and date ones as floats."""
    if spec.kind == "multi_hot":
        return [val] if isinstance(val, str) else val
    return [float(val)] if spec.kind in ("numeric", "date") else [val]
