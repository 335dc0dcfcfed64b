"""The benchmark's workloads, their operations and their correctness checks.

Every operation returns a record: its replication seed, the test MSPE per
estimator kind, the dependence estimates, and a list of failed checks.  An
operation fails when the package raises, a CLI call exits nonzero, or a
check below does not hold.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np

from sfdnn import evaluation, pipeline, simgen, spatial
from sfdnn.basis import Grid, trapezoid_weights
from sfdnn.fdnn import TrainConfig

HERE = os.path.dirname(os.path.abspath(__file__))
RHO = 0.9
KINDS = ("ml", "fdnn", "sfdnn")
# the criterion-4 cell of the paper's study: strong dependence, gaussian errors
C4 = simgen.ScenarioConfig(n_train=500, n_test=1000, rho=RHO, error_dist="gaussian")

# The accuracy guard replays the first replication of the acceptance suite's
# criterion-4 study.  Values measured at the seed commit with one OpenBLAS
# thread; a test MSPE may be at most MSPE_TOLERANCE of it worse, and the
# dependence estimate may move by at most RHO_TOLERANCE.
REF_SEED = 4000
SEED_COMMIT = {
    "ml": 1.263283746541777,
    "fdnn": 7.734601239915774,
    "sfdnn": 3.3712919885050088,
    "rho_hat": 0.8993790360678486,
}
MSPE_TOLERANCE = 0.05
RHO_TOLERANCE = 1e-6

# spatial-scale: dense inverse-distance W at the eigenvalue route's limit, and
# sparse KNN W on 10000 sites where every profile evaluation is one sparse LU
DENSE_N_TRAIN = 2000
KNN_SITES = 10000
KNN_NEIGHBORS = 4
KNN_RHO_WINDOW = 0.05


def op_seed(seed: int, index: int) -> int:
    """Replication seed of the index-th timed operation of a run."""
    return (seed * 1000 + index + 1) % 2**31


def _check_predictions(failures, label, predictions, expected):
    if predictions.shape != (expected,):
        failures.append(f"{label}: {predictions.shape} predictions, expected {expected}")
    elif not np.all(np.isfinite(predictions)):
        failures.append(f"{label}: non-finite predictions")


def _check_rho(failures, label, rho_hat, interval):
    lo, hi = interval
    if not lo < rho_hat < hi:
        failures.append(f"{label}: rho_hat={rho_hat!r} outside ({lo}, {hi})")


@contextlib.contextmanager
def _observe_study(seen):
    """Observe the study's ML fits and predictions at its own lookup sites."""
    fit_ml, predict = evaluation.fit_ml_baseline, evaluation.predict_model

    def observed_fit_ml(data, *args, **kwargs):
        model = fit_ml(data, *args, **kwargs)
        seen["rho"].append((model.rho_hat, data.weights.admissible_interval()))
        return model

    def observed_predict(model, data):
        predictions = predict(model, data)
        seen["predictions"].append((model.kind, data.n, predictions))
        return predictions

    evaluation.fit_ml_baseline, evaluation.predict_model = observed_fit_ml, observed_predict
    try:
        yield
    finally:
        evaluation.fit_ml_baseline, evaluation.predict_model = fit_ml, predict


def mc_replication(seed: int) -> dict:
    """One paired replication of the criterion-4 study, all three kinds."""
    seen = {"rho": [], "predictions": []}
    with _observe_study(seen):
        table = evaluation.monte_carlo_study([C4], KINDS, 1, seed)
    record = {"seed": seed, "mspe": {}, "rho_hat": [], "failures": []}
    failures = record["failures"]
    for kind in KINDS:
        report = table.report(C4, kind)
        failures.extend(f"{kind}: {message}" for _, message in report.failures)
        if report.num_ok:
            record["mspe"][kind] = float(report.mspe[0])
    for kind in KINDS:
        test_sets = [p for k, n, p in seen["predictions"] if k == kind and n == C4.n_test]
        if len(test_sets) != 1:
            failures.append(f"{kind}: {len(test_sets)} test prediction sets, expected 1")
        for predictions in test_sets:
            _check_predictions(failures, kind, predictions, C4.n_test)
    for rho_hat, interval in seen["rho"]:
        record["rho_hat"].append(float(rho_hat))
        _check_rho(failures, "ml", rho_hat, interval)
    if seed == REF_SEED:
        failures.extend(reference_failures(record))
    return record


def reference_failures(record) -> list:
    """Compare a replication at REF_SEED with the seed commit's values."""
    failures = []
    for kind in KINDS:
        value, base = record["mspe"].get(kind), SEED_COMMIT[kind]
        if value is None or not value <= base * (1.0 + MSPE_TOLERANCE):
            failures.append(
                f"{kind}: test MSPE {value!r} more than {MSPE_TOLERANCE:.0%} above {base!r}"
            )
    rho = record["rho_hat"][0] if record["rho_hat"] else None
    if rho is None or abs(rho - SEED_COMMIT["rho_hat"]) > RHO_TOLERANCE:
        failures.append(f"ml: rho_hat {rho!r} differs from {SEED_COMMIT['rho_hat']!r}")
    return failures


class McStrong:
    """One operation is one paired replication of ``monte_carlo_study``.

    Operation 0 replays the reference replication, whose accuracy the run
    reports; later operations take their replication seed from ``--seed``.
    """

    replays_reference = True
    min_ops = 1

    def setup(self, seed):
        self.seed = seed

    def warmup(self):
        tiny = simgen.ScenarioConfig(n_train=60, n_test=60, rho=RHO, error_dist="gaussian")
        config = TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=3, seed=0)
        evaluation.monte_carlo_study([tiny], KINDS, 1, self.seed, config=config)

    def op(self, index):
        return mc_replication(REF_SEED if index == 0 else op_seed(self.seed, index))

    def close(self):
        pass


class SpatialScale:
    """One operation fits ``ml`` on dense and on sparse weights; no network.

    (a) simulates an n_train=2000 dataset (dense inverse-distance W, the
    eigenvalue route), fits and predicts 1000 test sites; (b) builds KNN
    bi-square weights on 10000 seeded sites, filters a response through
    them, fits (one sparse LU per profile evaluation), predicts in sample
    and computes local Moran's I.
    """

    replays_reference = False
    min_ops = 1

    def setup(self, seed):
        self.seed = seed
        self.grid = Grid.uniform(C4.num_grid_points)
        # the sites of (b) come from the seed; every operation reuses them
        self.sites = self._sites(np.random.default_rng(seed))

    def _sites(self, rng):
        n = KNN_SITES
        points = np.column_stack([rng.uniform(25.0, 50.0, n), rng.uniform(-125.0, -65.0, n)])
        expansion = simgen.kl_basis_matrix(self.grid)
        betas = simgen.true_coefficient_curves(self.grid)
        w_quad = trapezoid_weights(self.grid.points)
        sd = np.sqrt(simgen.kl_score_variances())
        curves, drive = [], np.zeros(n)
        for p in range(len(betas)):
            x = (rng.standard_normal((n, sd.size)) * sd) @ expansion
            curves.append(x)
            drive += (x * w_quad) @ betas[p]
        scalars = rng.standard_normal((n, 3))
        # the simulator's scalar coefficients, plus unit gaussian noise
        drive += scalars @ np.array([1.25, -2.0, 2.15]) + rng.standard_normal(n)
        return points, curves, scalars, drive

    def warmup(self):
        tiny = simgen.ScenarioConfig(n_train=200, n_test=100, rho=RHO, error_dist="gaussian")
        train, test, _ = simgen.generate_scenario_dataset(tiny)
        pipeline.predict_model(pipeline.fit_ml_baseline(train), test)
        points = self.sites[0][:100]
        spatial.local_morans_i(spatial.build_knn_bisquare_weights(points, KNN_NEIGHBORS), points[:, 0])

    def op(self, index):
        seed = op_seed(self.seed, index)
        record = {"seed": seed, "mspe": {}, "rho_hat": [], "failures": []}
        failures = record["failures"]

        cell = simgen.ScenarioConfig(
            n_train=DENSE_N_TRAIN, n_test=C4.n_test, rho=RHO, error_dist="gaussian",
            replication_seed=seed,
        )
        train, test, _ = simgen.generate_scenario_dataset(cell)
        model = pipeline.fit_ml_baseline(train)
        predictions = pipeline.predict_model(model, test)
        _check_predictions(failures, "dense", predictions, cell.n_test)
        _check_rho(failures, "dense", model.rho_hat, train.weights.admissible_interval())
        record["mspe"]["ml"] = float(np.mean((predictions - test.response) ** 2))
        record["rho_hat"].append(float(model.rho_hat))

        points, curves, scalars, drive = self.sites
        weights = spatial.build_knn_bisquare_weights(points, KNN_NEIGHBORS)
        response = spatial.apply_spatial_filter(weights, RHO, drive)
        data = pipeline.RegressionDataset(
            functional=curves, grid=self.grid, scalars=scalars, response=response, weights=weights
        )
        model = pipeline.fit_ml_baseline(data)
        predictions = pipeline.predict_model(model, data)
        morans = spatial.local_morans_i(weights, response)
        _check_predictions(failures, "knn", predictions, KNN_SITES)
        _check_predictions(failures, "knn moran", morans, KNN_SITES)
        _check_rho(failures, "knn", model.rho_hat, weights.admissible_interval())
        if abs(model.rho_hat - RHO) > KNN_RHO_WINDOW:
            failures.append(f"knn: rho_hat={model.rho_hat!r} further than {KNN_RHO_WINDOW} from {RHO}")
        record["mspe"]["ml_knn_in_sample"] = float(np.mean((predictions - response) ** 2))
        record["rho_hat"].append(float(model.rho_hat))
        return record

    def close(self):
        pass


_EXPECTED_FILES = {
    "simulate": (
        "train_functional.csv", "train_scalars.csv", "train_weights.txt",
        "test_functional.csv", "test_scalars.csv", "test_weights.txt",
    ),
    "fit": ("model.txt", "train_metrics.csv"),
    "predict": ("predictions.csv", "test_metrics.csv"),
}


class CliRoundtrip:
    """One operation is simulate, fit ml, predict, fit sfdnn, predict.

    Each command is its own ``sfdnn`` process writing into a fresh out-dir;
    a traced run collects each child's spans and counters through a file.
    """

    replays_reference = False
    # one operation outlasts --seconds, and its time alone varies between
    # runs by more than run_s's bound; the run reports the median of two
    min_ops = 2

    def __init__(self):
        self.tracer = None

    def setup(self, seed):
        self.seed = seed
        self.root = os.path.join(HERE, "out", f"cli-work-{os.getpid()}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)

    def warmup(self):
        pass

    def _call(self, record, op_dir, step, argv):
        trace_file = os.path.join(op_dir, f"{step}.trace.json") if self.tracer else "-"
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_child.py"), trace_file, *argv],
            capture_output=True, text=True, cwd=op_dir, timeout=170,
        )
        out_dir = os.path.join(op_dir, step)
        if proc.returncode != 0:
            record["failures"].append(f"{step}: exit {proc.returncode}: {proc.stderr.strip()}")
            return False
        missing = [f for f in _EXPECTED_FILES[argv[0]] if not os.path.isfile(os.path.join(out_dir, f))]
        if missing:
            record["failures"].append(f"{step}: missing {missing}")
            return False
        if self.tracer:
            with open(trace_file, encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.absorb(child["spans"], child["counts"], self.tracer.op_id)
        return True

    def op(self, index):
        seed = op_seed(self.seed, index)
        record = {"seed": seed, "mspe": {}, "rho_hat": [], "failures": []}
        op_dir = os.path.join(self.root, f"op{index}")
        os.makedirs(op_dir)
        scenario = f"n_train = {C4.n_train}\nn_test = {C4.n_test}\nrho = {RHO}\nreplication_seed = {seed}\n"
        sim = "sim"
        inputs = "".join(
            f"{role}_{part} = {sim}/{role}_{part}.{ext}\n"
            for role in ("train", "test")
            for part, ext in (("functional", "csv"), ("scalars", "csv"), ("weights", "txt"))
        )
        with open(os.path.join(op_dir, "simulate.cfg"), "w", encoding="utf-8") as fh:
            fh.write(scenario)
        with open(os.path.join(op_dir, "fit.cfg"), "w", encoding="utf-8") as fh:
            fh.write(scenario + inputs)
        common = ["--seed", str(seed)]
        if not self._call(record, op_dir, sim, ["simulate", "--config", "simulate.cfg", "--out-dir", sim, *common]):
            return record
        for kind in ("ml", "sfdnn"):
            fit_dir, pred_dir = f"fit-{kind}", f"predict-{kind}"
            with open(os.path.join(op_dir, f"predict-{kind}.cfg"), "w", encoding="utf-8") as fh:
                fh.write(scenario + inputs + f"model_file = {fit_dir}/model.txt\n")
            argv = ["fit", "--config", "fit.cfg", "--kind", kind, "--out-dir", fit_dir, *common]
            if not self._call(record, op_dir, fit_dir, argv):
                return record
            argv = ["predict", "--config", f"predict-{kind}.cfg", "--out-dir", pred_dir, *common]
            if not self._call(record, op_dir, pred_dir, argv):
                return record
            self._check_outputs(record, op_dir, kind)
        shutil.rmtree(op_dir)
        return record

    def _check_outputs(self, record, op_dir, kind):
        failures = record["failures"]
        predictions = np.loadtxt(
            os.path.join(op_dir, f"predict-{kind}", "predictions.csv"), delimiter=",", skiprows=1, ndmin=2
        )[:, 1]
        response = np.loadtxt(
            os.path.join(op_dir, "sim", "test_scalars.csv"), delimiter=",", skiprows=1, ndmin=2
        )[:, -1]
        _check_predictions(failures, kind, predictions, C4.n_test)
        with open(os.path.join(op_dir, f"predict-{kind}", "test_metrics.csv"), encoding="utf-8") as fh:
            reported = dict(line.strip().split(",") for line in fh if line.strip())
        mspe = float(reported["mspe"])
        if predictions.shape == response.shape:
            recomputed = float(np.mean((response - predictions) ** 2))
            if abs(mspe - recomputed) > 1e-12 * recomputed:
                failures.append(f"{kind}: reported MSPE {mspe!r} but predictions give {recomputed!r}")
        record["mspe"][kind] = mspe
        with open(os.path.join(op_dir, f"fit-{kind}", "model.txt"), encoding="utf-8") as fh:
            fields = dict(line.split(" ", 1) for line in fh.read().splitlines()[1:3])
        rho_hat = float(fields["rho_hat"])
        record["rho_hat"].append(rho_hat)
        # every admissible interval of a row-normalized W lies inside (-1, 1)
        _check_rho(failures, kind, rho_hat, (-1.0, 1.0))

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {
    "mc-strong": McStrong,
    "spatial-scale": SpatialScale,
    "cli-roundtrip": CliRoundtrip,
}
