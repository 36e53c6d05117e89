"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the dualrec modules from outside the
package. The modules import names directly (``from dualrec.numeric import
layer_forward``), so one function is bound in several module namespaces;
:meth:`Tracer.install` replaces every binding it finds in every loaded
``dualrec`` module and :meth:`Tracer.uninstall` restores them.

Each call becomes one span (name, start, end, parent). Spans are kept in
flat arrays while the round runs and written out once it has ended. A
layer's self time is the summed duration of its spans minus the part their
child spans cover. The per-layer metrics that are not plain span sums are
counted by hooks at the same boundaries (see ``_hooks``).
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("features", "autoencoder", "mapping", "dualmodel", "numeric", "evaluate", "nmflab", "cli")

# Public functions traced in each module. Private helpers stay unwrapped and
# their time counts as self time of the traced function that calls them.
TARGETS = {
    "features": ("encode", "load_domain", "kfold", "synth_pair", "write_domain"),
    "autoencoder": ("train_autoencoder", "loss_and_grads", "ae_encode", "reconstruction_loss"),
    "mapping": ("project_orthogonal", "orthogonality_defect", "ortho_penalty", "align_map"),
    "dualmodel": (
        "train_pair", "train_domain_autoencoders", "shared_user_alignment", "new_dual_model",
        "prepare_domain", "fit", "train_epoch", "dual_loss_and_grads", "apply_grads",
        "evaluate_loss", "predict_batch", "model_forward", "model_backward", "predict",
        "save_dual_model", "load_dual_model",
    ),
    "numeric": ("layer_forward", "layer_backward", "sgd_step"),
    "evaluate": (
        "run_cv", "alpha_sweep", "precision_recall_at_k", "rmse", "mae",
        "write_report_csv", "write_sweep_csv", "write_summary_json", "write_trace_csv",
    ),
    "nmflab": ("run_nmf", "make_random_problem", "perturb_problem", "check_conditions", "loss_decomposition", "dual_loss"),
    "cli": ("main", "load_pair"),
}

EMIT = ("evaluate.write_report_csv", "evaluate.write_sweep_csv", "evaluate.write_summary_json", "evaluate.write_trace_csv")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("features.encode.calls", "count"),
    ("features.encode.us", "us"),
    ("features.load.s", "s"),
    ("autoencoder.train.calls", "count"),
    ("autoencoder.step.calls", "count"),
    ("autoencoder.step.us", "us"),
    ("autoencoder.encode.us", "us"),
    ("mapping.project.calls", "count"),
    ("mapping.project.us", "us"),
    ("mapping.ns_iters", "count"),
    ("mapping.penalty.calls", "count"),
    ("dualmodel.step.calls", "count"),
    ("dualmodel.step.us", "us"),
    ("dualmodel.apply.us", "us"),
    ("dualmodel.epochs", "count"),
    ("dualmodel.eval_loss.us", "us"),
    ("dualmodel.prepare.s", "s"),
    ("dualmodel.rows.useful_share", "ratio"),
    ("dualmodel.predict.us", "us"),
    ("dualmodel.bundle_save.s", "s"),
    ("dualmodel.bundle_load.s", "s"),
    ("numeric.layer_forward.calls", "count"),
    ("numeric.layer_backward.calls", "count"),
    ("numeric.sgd_step.calls", "count"),
    ("evaluate.run_cv.calls", "count"),
    ("evaluate.fold.s", "s"),
    ("evaluate.rank.us", "us"),
    ("evaluate.emit.s", "s"),
    ("nmflab.run.calls", "count"),
    ("nmflab.iters", "count"),
    ("nmflab.iter_us", "us"),
    ("cli.load_pair.s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counts = {"epochs": 0, "nmf_iters": 0, "rows_forwarded": 0, "rows_useful": 0}

    # -- hooks: counts taken where the work happens -------------------------

    def _hooks(self):
        counts = self.counts
        step_id = self._id("dualmodel.dual_loss_and_grads")
        stack = self._stack
        name_id = self.name_id

        def on_step(args, kwargs):
            dm = _arg(args, kwargs, 0, "dm")
            for pos, name in ((1, "batch_a"), (2, "batch_b")):
                batch = _arg(args, kwargs, pos, name)
                if batch is not None:
                    overlap = batch[3]
                    # within rows always carry weight 1 - alpha > 0; cross rows
                    # carry the effective alpha, zero off the overlap or at alpha 0
                    counts["rows_useful"] += len(overlap) + (int(np.count_nonzero(overlap)) if dm.alpha != 0.0 else 0)

        def on_forward(args, kwargs):
            if stack[-1] >= 0 and name_id[stack[-1]] == step_id:
                counts["rows_forwarded"] += _arg(args, kwargs, 1, "x").shape[0]

        def after_fit(result):
            counts["epochs"] += len(result[0]) - 1

        def after_nmf(result):
            counts["nmf_iters"] += len(result.loss_trace) - 1

        return {
            "dualmodel.dual_loss_and_grads": (on_step, None),
            "dualmodel.model_forward": (on_forward, None),
            "dualmodel.fit": (None, after_fit),
            "nmflab.run_nmf": (None, after_nmf),
        }

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, nid: int, before, after):
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "dualrec" or key.startswith("dualrec.")]
        hooks = self._hooks()
        for layer, functions in TARGETS.items():
            home = sys.modules.get(f"dualrec.{layer}")
            for fname in functions:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                span = f"{layer}.{fname}"
                before, after = hooks.get(span, (None, None))
                wrapper = self._wrap(original, self._id(span), before, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=np.str_),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Every per-layer metric from the recorded spans and counts."""
        a = self.arrays()
        n_names = len(self.names)
        nid, par = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(nid, weights=dur - covered, minlength=n_names)
        calls = np.bincount(nid, minlength=n_names)
        total = np.bincount(nid, weights=dur, minlength=n_names)

        def idx(name):
            return self._name_ids.get(name)

        def n(name):
            i = idx(name)
            return int(calls[i]) if i is not None else 0

        def s(name):
            i = idx(name)
            return float(total[i]) if i is not None else 0.0

        def us(name):
            return 1e6 * s(name) / n(name) if n(name) else 0.0

        def children_of(parent_name, child_name):
            p, c = idx(parent_name), idx(child_name)
            if p is None or c is None:
                return np.zeros(0, dtype=np.int64)
            return np.flatnonzero((nid == c) & has_parent & (nid[np.maximum(par, 0)] == p))

        # Newton-Schulz: each projection checks the defect once before its
        # loop and once per loop pass, the last check ending the loop.
        ns_iters = len(children_of("mapping.project_orthogonal", "mapping.orthogonality_defect")) - 2 * n(
            "mapping.project_orthogonal"
        )
        # A fold of run_cv runs from one new_dual_model call to the next, or
        # to the end of run_cv: model set-up, fit and scoring of both domains.
        fold_starts = children_of("evaluate.run_cv", "dualmodel.new_dual_model")
        folds = []
        for cv in np.unique(par[fold_starts]):
            edges = np.append(np.sort(a["start"][fold_starts[par[fold_starts] == cv]]), a["end"][cv])
            folds.extend(np.diff(edges))
        forwarded = self.counts["rows_forwarded"]
        iters = self.counts["nmf_iters"]
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, t in zip(self.names, self_time):
            layer_self[name.split(".", 1)[0]] += float(t)
        values = {
            "features.encode.calls": n("features.encode"),
            "features.encode.us": us("features.encode"),
            "features.load.s": s("features.load_domain"),
            "autoencoder.train.calls": n("autoencoder.train_autoencoder"),
            "autoencoder.step.calls": n("autoencoder.loss_and_grads"),
            "autoencoder.step.us": us("autoencoder.loss_and_grads"),
            "autoencoder.encode.us": us("autoencoder.ae_encode"),
            "mapping.project.calls": n("mapping.project_orthogonal"),
            "mapping.project.us": us("mapping.project_orthogonal"),
            "mapping.ns_iters": ns_iters,
            "mapping.penalty.calls": n("mapping.ortho_penalty"),
            "dualmodel.step.calls": n("dualmodel.dual_loss_and_grads"),
            "dualmodel.step.us": us("dualmodel.dual_loss_and_grads"),
            "dualmodel.apply.us": us("dualmodel.apply_grads"),
            "dualmodel.epochs": self.counts["epochs"],
            "dualmodel.eval_loss.us": us("dualmodel.evaluate_loss"),
            "dualmodel.prepare.s": s("dualmodel.prepare_domain"),
            "dualmodel.rows.useful_share": self.counts["rows_useful"] / forwarded if forwarded else 0.0,
            "dualmodel.predict.us": us("dualmodel.predict"),
            "dualmodel.bundle_save.s": s("dualmodel.save_dual_model"),
            "dualmodel.bundle_load.s": s("dualmodel.load_dual_model"),
            "numeric.layer_forward.calls": n("numeric.layer_forward"),
            "numeric.layer_backward.calls": n("numeric.layer_backward"),
            "numeric.sgd_step.calls": n("numeric.sgd_step"),
            "evaluate.run_cv.calls": n("evaluate.run_cv"),
            "evaluate.fold.s": float(np.mean(folds)) if folds else 0.0,
            "evaluate.rank.us": us("evaluate.precision_recall_at_k"),
            "evaluate.emit.s": sum(s(name) for name in EMIT),
            "nmflab.run.calls": n("nmflab.run_nmf"),
            "nmflab.iters": iters,
            "nmflab.iter_us": 1e6 * s("nmflab.run_nmf") / iters if iters else 0.0,
            "cli.load_pair.s": s("cli.load_pair"),
            **{f"{layer}.self_s": t for layer, t in layer_self.items()},
            "trace.spans": len(dur),
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        }
        units = dict(PER_LAYER)
        return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
