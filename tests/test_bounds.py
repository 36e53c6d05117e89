"""Fixed bounds: `numeric.check_bound` and every entry point that routes through it (ROADMAP aim 3).

The tables state each bound once more, apart from the code: a row names the
value as its error does, gives the interval, whether an integer is due, and a
call that hands the value to its entry point. Every row must refuse NaN, +-inf,
a bool, a float where an integer is due and the values just outside each end,
each with its exact ``name=value ...`` message, and accept each closed end. The
agreement test checks that a config key and the library parameter it feeds
refuse the same values in the same words.
"""

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrec import dualmodel
from dualrec.autoencoder import new_autoencoder, train_autoencoders
from dualrec.cli import ExperimentConfig
from dualrec.evaluate import precision_recall_at_k
from dualrec.features import FieldSpec, FoldSplit, kfold, synth_pair
from dualrec.mapping import init_map
from dualrec.nmflab import DualNmfProblem, make_random_problem, perturb, perturb_problem, run_nmf
from dualrec.numeric import check_bound


class Row(NamedTuple):
    name: str  # as the error names the value
    bound: str
    integer: bool
    call: Callable
    bools: bool = True  # False where the value is read from text, which holds no bool


def config_row(key: str, bound: str, **base) -> Row:
    if key == "hidden":
        return Row("hidden[0]", bound, True, lambda v: ExperimentConfig(hidden=(v,)))
    if key == "alphas":
        return Row("alphas[0]", bound, False, lambda v: ExperimentConfig(alphas=repr(v)), bools=False)
    integer = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}[key] == "int"
    return Row(key, bound, integer, lambda v: ExperimentConfig(**{**base, key: v}))


CONFIG = {row.name.partition("[")[0]: row for row in [
    config_row("alpha", "[0, 0.5]"), config_row("embed_dim", "[1, inf)"), config_row("epochs", "[1, inf)"),
    config_row("tol", "[0, inf)"), config_row("lr_a", "[0, inf)"), config_row("lr_b", "[0, inf)"),
    config_row("lr_map", "[0, inf)"), config_row("batch_size", "[1, inf)"), config_row("penalty_weight", "[0, inf)"),
    config_row("hidden", "[1, inf)"), config_row("ae_lr", "[0, inf)"), config_row("ae_epochs", "[1, inf)"),
    config_row("ae_batch_size", "[1, inf)"), config_row("folds", "[2, inf)"), config_row("seed", "[0, inf)"),
    config_row("rank_k", "[1, inf)"), config_row("tau", "(0, 1)"), config_row("rho", "[0, 1]"),
    config_row("sigma", "[0, inf)"), config_row("density", "(0, 1]"), config_row("n_users", "[1, inf)"),
    config_row("n_items", "[1, inf)"), config_row("latent_dim", "[1, inf)"), config_row("alphas", "[0, 0.5]"),
    config_row("nmf_rows", "[1, inf)", nmf_rank=1), config_row("nmf_cols", "[1, inf)", nmf_rank=1),
    config_row("nmf_rank", "[1, inf)"), config_row("nmf_alpha", "[0, 0.5)"), config_row("nmf_iters", "[1, inf)"),
    config_row("nmf_tol", "[0, inf)"), config_row("nmf_scale", "(0, inf)"),
]}

SYNTH = {"n_users": 3, "n_items_per_domain": 2, "latent_dim": 2, "density": 1.0}
PAIR_A = synth_pair(**SYNTH)[0]  # 6 records
ONES = np.ones((3, 3))
NMF = perturb_problem(make_random_problem(4, 3, 2, 0.1, seed=0), 1.0)
CORPUS = np.linspace(0.0, 1.0, 8).reshape(4, 2)
SCORER = {"rs0_l0_w": np.ones((1, 2)), "rs0_l0_b": np.zeros(1), "rs0_l0_act": np.array("identity")}


def synth_row(name: str, bound: str, integer: bool = False) -> Row:
    return Row(name, bound, integer, lambda v: synth_pair(**{**SYNTH, name: v}))


def autoencoders_row(name: str, bound: str, integer: bool = False) -> Row:
    return Row(name, bound, integer, lambda v: train_autoencoders([CORPUS], [("a", "user")], embed_dim=1,
                                                                  **{"lr": 0.1, "epochs": 1, name: v}))


LIBRARY = {
    "evaluate.k": Row("k", "[1, inf)", True, lambda v: precision_recall_at_k(["u"], [0.5], [0.5], k=v)),
    "evaluate.tau": Row("tau", "(0, 1)", False, lambda v: precision_recall_at_k(["u"], [0.5], [0.5], tau=v)),
    "features.buckets": Row("field 'g': buckets", "[1, inf)", True, lambda v: FieldSpec("g", "one_hot", buckets=v)),
    "features.fold": Row("fold", "[0, 3)", True, lambda v: FoldSplit(3, np.arange(6) % 3).fold_indices(v)),
    "features.kfold": Row("k", "[2, inf)", True, lambda v: kfold(PAIR_A, v, 0)),
    "synth.n_users": synth_row("n_users", "[1, inf)", True),
    "synth.n_items_per_domain": synth_row("n_items_per_domain", "[1, inf)", True),
    "synth.latent_dim": synth_row("latent_dim", "[1, inf)", True),
    "synth.cross_correlation": synth_row("cross_correlation", "[0, 1]"),
    "synth.noise": synth_row("noise", "[0, inf)"),
    "synth.density": synth_row("density", "(0, 1]"),
    "nmflab.alpha": Row("alpha", "[0, 0.5)", False, lambda v: DualNmfProblem(ONES, ONES, np.eye(3), v, 2)),
    "nmflab.rank": Row("rank", "[1, 3]", True, lambda v: DualNmfProblem(ONES, ONES, np.eye(3), 0.1, v)),
    "nmflab.perturb_m": Row("m", "[0, inf)", True, lambda v: perturb(ONES, v, 1.0)),
    "nmflab.perturb_k": Row("k", "(0, inf)", False, lambda v: perturb(ONES, 1, v)),
    "nmflab.rows": Row("rows", "[1, inf)", True, lambda v: make_random_problem(v, 3, 1, 0.1, 0)),
    "nmflab.cols": Row("cols", "[1, inf)", True, lambda v: make_random_problem(3, v, 1, 0.1, 0)),
    "nmflab.scale": Row("scale", "(0, inf)", False, lambda v: make_random_problem(3, 3, 2, 0.1, 0, scale=v)),
    "nmflab.max_iters": Row("max_iters", "[0, inf)", True, lambda v: run_nmf(NMF, max_iters=v)),
    "nmflab.tol": Row("tol", "[0, inf)", False, lambda v: run_nmf(NMF, max_iters=1, tol=v)),
    "autoencoder.embed_dim": Row("embed_dim", "[1, inf)", True, lambda v: new_autoencoder(2, v, 0)),
    "autoencoder.lr": autoencoders_row("lr", "[0, inf)"),
    "autoencoder.epochs": autoencoders_row("epochs", "[1, inf)", True),
    "autoencoder.batch_size": autoencoders_row("batch_size", "[1, inf)", True),
    "mapping.d": Row("d", "[1, inf)", True, lambda v: init_map(v, 0)),
    "dualmodel.layer_count": Row("rs0_n", "[1, inf)", True, lambda v: dualmodel._model_from_arrays(
        dualmodel._Bundle(SCORER, rs0_n=np.array(v)), "rs0_")),
}

ROWS = [*CONFIG.values(), *LIBRARY.values()]
IDS = [f"config.{key}" for key in CONFIG] + list(LIBRARY)


def ends(row: Row):
    """(lo, hi) as numbers, and the words that refuse a value outside them."""
    lo, hi = (float(end) for end in row.bound[1:-1].split(","))
    words = f"below {row.bound[1:].split(',')[0]}" if row.bound[0] == "[" and hi == math.inf else f"outside {row.bound}"
    return lo, hi, words


def past(row: Row, end: float, way: int):
    """The nearest value beyond end, way -1 below it and +1 above it: an open end
    itself, else its neighbour, an integer where row's values are."""
    closed = row.bound[0 if way < 0 else -1] in "[]"
    if row.integer:
        return int(end) + way * closed
    return float(np.nextafter(end, way * math.inf)) if closed else end


def beyond(row: Row, end: float, way: int):
    """Values beyond end (way -1 below it, +1 above it), from past(row, end, way) on;
    integers within int64, which is what a bundle holds."""
    edge = past(row, end, way)
    if row.integer:
        return st.integers(-2**63, edge) if way < 0 else st.integers(edge, 2**63 - 1)
    return st.floats(**{"max_value" if way < 0 else "min_value": edge}, allow_nan=False, allow_infinity=False)


def refusals(row: Row):
    """(value, the words after name=value) that row must refuse."""
    lo, hi, words = ends(row)
    sides = [(lo, -1)] + [(hi, 1)] * (hi < math.inf)
    not_number = "is not an integer" if row.integer else "is not a number"
    not_finite = "is not an integer" if row.integer else "is not finite"
    cases = [st.tuples(st.just(math.nan), st.just(not_number)),
             st.tuples(st.sampled_from([math.inf, -math.inf]), st.just(not_finite)),
             st.tuples(st.sampled_from([past(row, end, way) for end, way in sides]), st.just(words)),
             *(st.tuples(beyond(row, end, way), st.just(words)) for end, way in sides)]
    if row.bools:
        cases.append(st.tuples(st.booleans(), st.just(not_number)))
    if row.integer:
        cases.append(st.tuples(st.floats(-1e6, 1e6), st.just("is not an integer")))  # 2.0 is no integer either
    return st.one_of(cases)


def refusal(row: Row, value):
    """The message row's entry point gives value, or None when it accepts it."""
    try:
        row.call(value)
    except ValueError as exc:
        return str(exc)
    return None


def test_the_config_table_covers_every_key():
    assert set(CONFIG) == {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("row", ROWS, ids=IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_each_bound_refuses_a_value_outside_it_with_its_exact_message(row, data):
    value, words = data.draw(refusals(row), label="value, words")
    assert refusal(row, value) == f"{row.name}={value} {words}"


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_each_closed_end_is_accepted(row):
    lo, hi, _ = ends(row)
    closed = [lo] * (row.bound[0] == "[") + [hi] * (row.bound[-1] == "]")
    for end in closed:
        assert refusal(row, int(end) if row.integer else end) is None, end


# each config key beside the library parameter it feeds
AGREEING = [
    ("folds", "features.kfold"), ("rank_k", "evaluate.k"), ("tau", "evaluate.tau"),
    ("rho", "synth.cross_correlation"), ("sigma", "synth.noise"), ("density", "synth.density"),
    ("n_users", "synth.n_users"), ("n_items", "synth.n_items_per_domain"), ("latent_dim", "synth.latent_dim"),
    ("nmf_rows", "nmflab.rows"), ("nmf_cols", "nmflab.cols"), ("nmf_alpha", "nmflab.alpha"),
    ("nmf_scale", "nmflab.scale"), ("nmf_tol", "nmflab.tol"),
    ("embed_dim", "autoencoder.embed_dim"), ("ae_lr", "autoencoder.lr"), ("ae_epochs", "autoencoder.epochs"),
    ("ae_batch_size", "autoencoder.batch_size"),
]


def probes(*rows) -> list:
    """NaN, +-inf, a bool, a fraction, and each finite end of every row with its neighbours."""
    values = [math.nan, math.inf, -math.inf, True, 2.5]
    for row in rows:
        for end in ends(row)[:2]:
            if math.isfinite(end):
                near = [int(end) - 1, int(end), int(end) + 1] if row.integer else [
                    float(np.nextafter(end, -math.inf)), end, float(np.nextafter(end, math.inf))]
                values += near
    return values


def words(message):
    return None if message is None else message.split("=", 1)[1]


@pytest.mark.parametrize("key, parameter", AGREEING)
def test_a_config_key_and_its_library_parameter_refuse_alike(key, parameter):
    cli, lib = CONFIG[key], LIBRARY[parameter]
    for value in probes(cli, lib):
        assert words(refusal(cli, value)) == words(refusal(lib, value)), value


def test_the_nmf_budget_alone_differs_and_only_at_zero():
    # deliberate: the nmf-lab summary reads the last two trace entries, so the CLI asks for
    # at least one step, while run_nmf may run none and return the initial loss alone
    cli, lib = CONFIG["nmf_iters"], LIBRARY["nmflab.max_iters"]
    differ = {v for v in probes(cli, lib) if (refusal(cli, v) is None) != (refusal(lib, v) is None)}
    assert differ == {0}
    assert refusal(cli, 0) == "nmf_iters=0 below 1" and refusal(lib, 0) is None


@pytest.mark.parametrize("value, bound, integer, message", [
    (1, "[2, inf)", True, "k=1 below 2"),
    (2.0, "[2, inf)", True, "k=2.0 is not an integer"),
    (np.bool_(True), "[1, inf)", True, "k=True is not an integer"),
    ("2", "[1, inf)", True, "k=2 is not an integer"),
    ("a", "[0, 1]", False, "k=a is not a number"),
    (True, "[0, 1]", False, "k=True is not a number"),
    (math.nan, "[0, 1]", False, "k=nan is not a number"),
    (-math.inf, "[0, inf)", False, "k=-inf is not finite"),
    (0.0, "(0, inf)", False, "k=0.0 outside (0, inf)"),
    (0.5, "[0, 0.5)", False, "k=0.5 outside [0, 0.5)"),
    (-1e-300, "[0, 1]", False, "k=-1e-300 outside [0, 1]"),
])
def test_check_bound_refuses_in_its_order_and_words(value, bound, integer, message):
    with pytest.raises(ValueError) as exc:
        check_bound("k", value, bound, integer)
    assert str(exc.value) == message


@pytest.mark.parametrize("value, bound, integer", [
    (np.int64(2), "[2, inf)", True), (0.5, "[0, 0.5]", False), (1, "(0, 1]", False),
    (np.float32(0.25), "(0, 1)", False), (10**400, "[1, inf)", True),
])
def test_check_bound_accepts_a_value_inside(value, bound, integer):
    check_bound("k", value, bound, integer)
