"""In-memory spans and counters around the public functions of the sfdnn package.

The benchmark measures each layer from outside: it replaces a public
function by a wrapper in every package module that holds a reference to
it, so a call is seen wherever the caller looks the function up
(``pipeline.train`` as well as ``fdnn.train``).  Methods are wrapped on
their class.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent index, operation id]``; counters are
plain integers keyed by metric name.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (owner, attribute, span name, counting hook); the owner is a module path,
# or "module:Class" for a method.  "{}" in a span name takes the first argument.
_TARGETS = (
    ("sfdnn.simgen", "generate_scenario_dataset", "simgen.generate", None),
    ("sfdnn.basis", "functional_inner_products", "basis.inner_products", None),
    ("sfdnn.fpca", "fit_fpca", "fpca.fit", None),
    ("sfdnn.fpca", "project_scores", "fpca.project", None),
    ("sfdnn.spatial:SpatialFilterFactor", "__init__", "spatial.factor", None),
    ("sfdnn.spatial:SpatialFilterFactor", "solve", "spatial.solve", "_count_rhs"),
    ("sfdnn.spatial:SpatialFilterFactor", "solve_transpose", "spatial.solve", "_count_rhs"),
    ("sfdnn.spatial:SpatialWeightMatrix", "eigenvalues", "spatial.eig", None),
    ("sfdnn.spatial", "estimate_rho_ml", "spatial.rho_profile", None),
    ("sfdnn.spatial", "log_det_filter", "spatial.logdet_lu", None),
    ("sfdnn.spatial", "build_knn_bisquare_weights", "spatial.knn_build", None),
    ("sfdnn.spatial", "save_weights", "spatial.weights_io", None),
    ("sfdnn.spatial", "load_weights", "spatial.weights_io", "_count_read"),
    ("sfdnn.fdnn", "forward", "fdnn.forward", "_count_forward"),
    ("sfdnn.fdnn", "train", "fdnn.train", "_count_epochs"),
    ("sfdnn.pipeline", "fit_ml_baseline", "pipeline.fit_ml", None),
    ("sfdnn.pipeline", "fit_fdnn_model", "pipeline.fit_fdnn", None),
    ("sfdnn.pipeline", "fit_sfdnn", "pipeline.fit_sfdnn", None),
    ("sfdnn.pipeline", "predict_model", "pipeline.predict", None),
    ("sfdnn.pipeline", "save_model", "pipeline.save_model", None),
    ("sfdnn.pipeline", "load_model", "pipeline.load_model", "_count_read"),
    ("sfdnn.evaluation", "monte_carlo_study", "evaluation.study", None),
    ("sfdnn.cli", "run", "cli.{}", None),
    ("sfdnn.cli", "parse_config", "cli.config_read", "_count_read"),
    ("sfdnn.cli", "read_functional_csv", "cli.csv_read", "_count_read"),
    ("sfdnn.cli", "read_scalars_csv", "cli.csv_read", "_count_read"),
    ("sfdnn.cli", "read_coords_csv", "cli.csv_read", "_count_read"),
    ("sfdnn.cli", "write_functional_csv", "cli.csv_write", None),
    ("sfdnn.cli", "write_scalars_csv", "cli.csv_write", None),
    ("sfdnn.cli", "write_metrics_csv", "cli.csv_write", None),
)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op_id = None
        self._stack = []
        self._restore = []

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name.format(args[0]) if "{}" in name else name
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = [span_name, time.perf_counter(), None, parent, tracer.op_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer.count(span_name + "_calls")
            if hook is not None:
                getattr(tracer, hook)(args, result)
            return result

        return wrapper

    def _count_rhs(self, args, result):
        b = args[1]
        self.count("spatial.solve_rhs_cols", b.shape[1] if b.ndim == 2 else 1)

    def _count_forward(self, args, result):
        rows = result[0].shape[0]
        self.count("fdnn.forward_rows", rows)
        if self.inside("fdnn.train"):
            self.count("fdnn.train_forward_rows", rows)

    def _count_epochs(self, args, result):
        config, y = args[1], args[4]
        _, trace = result
        n = len(y)
        n_val = min(int(round(config.validation_fraction * n)), n - 1)
        train_rows = n - n_val if config.validation_fraction > 0.0 else n
        epochs = len(trace.epoch_losses)
        self.count("fdnn.epochs", epochs)
        self.count("fdnn.useful_rows", epochs * train_rows)

    def _count_read(self, args, result):
        self.count("cli.bytes_read", os.path.getsize(args[0]))

    def install(self):
        """Wrap every target in every loaded sfdnn module that refers to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "sfdnn" or n.startswith("sfdnn."))
        ]
        for owner_path, attr, name, hook in _TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            if class_name:
                owner = getattr(sys.modules[module_name], class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, hook))
                self._restore.append((owner, attr, original))
                continue
            original = getattr(sys.modules[owner_path], attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def absorb(self, spans, counts, op_id):
        """Append spans and counters recorded by a child process."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, None if parent is None else parent + offset, op_id])
        for key, value in counts.items():
            self.count(key, value)


def span_times(spans):
    """Total and self time per span name; self time excludes child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    total, own = {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[i])
    return total, own
