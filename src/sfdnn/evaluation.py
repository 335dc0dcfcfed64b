"""Metrics, K-fold hyperparameter tuning, and the Monte Carlo study driver.

The study driver runs paired replications: within a replication every
estimator kind sees bit-identical data, generated from a seed derived as
``base_seed XOR r`` so replications are order-independent and can run on
worker threads.  A replication fits ``ml`` first and then, in one pipeline
call, trains its network kinds, which share an architecture, a config and
a seed, as the members of one stack: each reports bit for bit what it
reports alone.  Failures are recorded per replication and kind, never
silently dropped; a network kind whose filter cannot be prepared fails
alone, and the other trains by itself.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    DataError,
    DegenerateVarianceError,
    DimensionError,
    FoldSizeError,
    InvalidSizeError,
    SfdnnError,
    check_integers,
)
from .fdnn import NetworkArchitecture, TrainConfig
from .pipeline import (
    KINDS,
    RegressionDataset,
    _fit_network,
    _train_metrics,
    fit_fdnn_model,
    fit_ml_baseline,
    fit_sfdnn,
    predict_model,
)
from .simgen import ScenarioConfig, generate_scenario_dataset
from .spatial import build_knn_bisquare_weights

__all__ = [
    "Metrics",
    "TaylorStats",
    "TuneGrid",
    "CandidateConfig",
    "MetricReport",
    "StudyTable",
    "compute_metrics",
    "taylor_stats",
    "fit_kind",
    "kfold_tune",
    "monte_carlo_study",
    "default_architecture",
    "default_train_config",
]

METRIC_NAMES = ("mse", "r2", "mspe", "r2_test")


@dataclass(frozen=True)
class Metrics:
    """Squared-error and R-squared for one prediction set."""

    mse: float
    r2: float


def _paired(y, yhat):
    """``y`` and ``yhat`` as flat finite float arrays of one length, at least 2."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size != yhat.size:
        raise DimensionError("observed and predicted lengths differ")
    if y.size < 2:
        raise DimensionError("need at least 2 observations")
    for name, values in (("observations", y), ("predictions", yhat)):
        if not np.isfinite(values).all():
            raise DataError(f"{name} contain NaN or infinite values")
    return y, yhat


def compute_metrics(y, yhat) -> Metrics:
    """Mean squared residual and R-squared against the observations' own mean."""
    y, yhat = _paired(y, yhat)
    if float(np.sum((y - y.mean()) ** 2)) <= 0.0:
        raise DegenerateVarianceError("R-squared is undefined for a constant response")
    return Metrics(**_train_metrics(y, yhat))


@dataclass(frozen=True)
class TaylorStats:
    """Correlation, standard deviations, and centered RMS difference."""

    correlation: float
    sd_observed: float
    sd_predicted: float
    centered_rmsd: float


def taylor_stats(y, yhat) -> TaylorStats:
    """Taylor-diagram statistics; population standard deviations throughout."""
    y, yhat = _paired(y, yhat)
    sd_obs = float(y.std())
    sd_pred = float(yhat.std())
    if sd_obs <= 0.0 or sd_pred <= 0.0:
        raise DegenerateVarianceError("Taylor statistics need nonzero variances")
    corr = float(np.corrcoef(y, yhat)[0, 1])
    centered = (yhat - yhat.mean()) - (y - y.mean())
    return TaylorStats(
        correlation=corr,
        sd_observed=sd_obs,
        sd_predicted=sd_pred,
        centered_rmsd=float(np.sqrt(np.mean(centered**2))),
    )


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the hyperparameter grid."""

    hidden_sizes: tuple
    activation: str
    learning_rate: float
    batch_size: int
    basis_size: int
    weight_decay: float
    max_epochs: int
    neighbor_count: int | None = None

    def architecture(self, num_functional: int, num_scalar: int) -> NetworkArchitecture:
        return NetworkArchitecture.uniform(
            num_functional, num_scalar, self.basis_size, self.hidden_sizes, self.activation
        )

    def train_config(self, base: TrainConfig) -> TrainConfig:
        """``base`` with this candidate's four training settings."""
        return replace(
            base,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            weight_decay=self.weight_decay,
        )

    def num_parameters(self, num_functional: int, num_scalar: int) -> int:
        return self.architecture(num_functional, num_scalar).num_parameters


@dataclass
class TuneGrid:
    """Candidate lists; the grid is their full cartesian product."""

    hidden_sizes: list = field(default_factory=lambda: [(32, 16)])
    activations: list = field(default_factory=lambda: ["relu"])
    learning_rates: list = field(default_factory=lambda: [1e-2])
    batch_sizes: list = field(default_factory=lambda: [32])
    basis_sizes: list = field(default_factory=lambda: [7])
    weight_decays: list = field(default_factory=lambda: [0.0])
    max_epochs: list = field(default_factory=lambda: [200])
    neighbor_counts: list = field(default_factory=lambda: [None])

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise InvalidSizeError(f"tuning grid field '{f.name}' must be nonempty")

    def candidates(self) -> list:
        # one CandidateConfig field per grid list, in the same order
        lists = (getattr(self, f.name) for f in fields(self))
        return [CandidateConfig(tuple(hidden), *rest) for hidden, *rest in itertools.product(*lists)]


def fit_kind(kind, data, arch, config, basis_degree, variance_threshold):
    """Fit estimator ``kind`` to ``data``; ``ml`` reads neither ``arch`` nor ``config``."""
    if kind == "ml":
        return fit_ml_baseline(data, variance_threshold)
    if kind == "fdnn":
        return fit_fdnn_model(data, arch, config, basis_degree)
    if kind == "sfdnn":
        return fit_sfdnn(data, arch, config, basis_degree, variance_threshold)
    raise InvalidSizeError(f"unknown estimator kind '{kind}'")


def _effective_candidate(kind, candidate):
    """The part of ``candidate`` that ``kind``'s fit depends on.

    ``ml`` reads only the weight matrix, so only the neighbor count;
    ``fdnn`` ignores the weight matrix, so everything but the neighbor count.
    """
    if kind == "ml":
        return candidate.neighbor_count
    if kind == "fdnn":
        return replace(candidate, neighbor_count=None)
    return candidate


def kfold_tune(
    data: RegressionDataset,
    kind: str,
    grid: TuneGrid,
    num_folds: int,
    seed: int,
    coords=None,
    variance_threshold: float = 0.95,
    basis_degree: int = 3,
    config: TrainConfig | None = None,
):
    """Exhaustive grid search by K-fold cross-validated prediction error.

    Returns the winning candidate and the full table (one dict per
    candidate).  Ties break toward the smaller model, then grid order.
    Candidates with a ``neighbor_count`` rebuild the weight matrix from
    ``coords`` before splitting, once per neighbor count.  Candidates that
    differ only in settings ``kind`` ignores share one cross-validation.
    Fits take ``variance_threshold`` and ``basis_degree`` as in :func:`monte_carlo_study`
    and train as ``config`` says, with the candidate's settings and ``seed``.
    """
    n = data.n
    check_integers(FoldSizeError, num_folds=num_folds)
    if num_folds < 2:
        raise FoldSizeError("need at least 2 folds")
    if n < 2 * num_folds:
        raise FoldSizeError(f"{num_folds} folds over {n} rows would leave folds below 2 rows")
    base = replace(config or TrainConfig(), seed=seed)
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, num_folds)

    # per neighbor count, each fold's (training, held-out) datasets, shared by
    # every candidate, so each fold's weight matrix computes its spectrum once
    # and each training set runs its stage one (FPCA and the rho search) once
    splits = {}
    scores = {}
    table = []
    for index, cand in enumerate(grid.candidates()):
        count = cand.neighbor_count
        if count is not None and coords is None:
            raise InvalidSizeError("tuning neighbor_count requires site coordinates")
        effective = _effective_candidate(kind, cand)
        if effective not in scores:
            if count not in splits:
                count_data = data if count is None else replace(
                    data, weights=build_knn_bisquare_weights(coords, count)
                )
                splits[count] = [
                    (count_data.subset(np.setdiff1d(perm, fold)), count_data.subset(np.sort(fold)))
                    for fold in folds
                ]
            arch = cand.architecture(data.num_functional, data.num_scalar)
            train_config = cand.train_config(base)
            total_sq = 0.0
            for train, held in splits[count]:
                fit = fit_kind(kind, train, arch, train_config, basis_degree, variance_threshold)
                preds = predict_model(fit, held)
                total_sq += float(np.sum((preds - held.response) ** 2))
            scores[effective] = total_sq / n
        cv_mspe = scores[effective]
        size = cand.num_parameters(data.num_functional, data.num_scalar)
        table.append({"index": index, "candidate": cand, "cv_mspe": cv_mspe, "size": size})
    best = min(table, key=lambda row: (row["cv_mspe"], row["size"], row["index"]))
    return best["candidate"], table


@dataclass
class MetricReport:
    """Per-replication metric vectors with aggregates for one scenario/kind.

    Replications whose dependence estimate pins at the admissible-interval
    boundary stay in the aggregates but are counted in ``num_boundary``;
    replications that raised are listed in ``failures`` and excluded.
    """

    scenario: ScenarioConfig
    kind: str
    mse: np.ndarray
    r2: np.ndarray
    mspe: np.ndarray
    r2_test: np.ndarray
    failures: list
    num_boundary: int = 0

    def mean(self, name: str) -> float:
        values = getattr(self, name)
        return float(np.mean(values)) if values.size else float("nan")

    def sd(self, name: str) -> float:
        values = getattr(self, name)
        if values.size < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    @property
    def num_ok(self) -> int:
        return int(self.mse.size)


def default_architecture(num_functional: int = 3, num_scalar: int = 3) -> NetworkArchitecture:
    return NetworkArchitecture.uniform(num_functional, num_scalar, 7, (32, 16), "relu")


def default_train_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=200, seed=seed)


def _run_replication(scenario, kinds, rep_seed, arch, config, variance_threshold, basis_degree):
    cfg = replace(scenario, replication_seed=rep_seed)
    train, test, _ = generate_scenario_dataset(cfg)
    config = replace(config, seed=rep_seed)
    # ml fits first; the network kinds then train as one stack
    fits = {}
    if "ml" in kinds:
        try:
            fits["ml"] = fit_ml_baseline(train, variance_threshold)
        except (SfdnnError, np.linalg.LinAlgError) as exc:
            fits["ml"] = exc
    networks = [kind for kind in kinds if kind != "ml"]
    if networks:
        try:
            fits.update(_fit_network(train, arch, config, basis_degree, networks, variance_threshold))
        except (SfdnnError, np.linalg.LinAlgError) as exc:
            fits.update(dict.fromkeys(networks, exc))
    out = {}
    for kind in kinds:
        model = fits[kind]
        if isinstance(model, Exception):
            out[kind] = model
            continue
        try:
            # each fit's train_metrics are those of its own fitted values, which
            # predict_model(model, train) returns bit for bit
            train_m = model.train_metrics
            test_m = compute_metrics(test.response, predict_model(model, test))
            out[kind] = ((train_m["mse"], train_m["r2"], test_m.mse, test_m.r2), model.at_boundary)
        except (SfdnnError, np.linalg.LinAlgError) as exc:
            out[kind] = exc
    return out


@dataclass
class StudyTable:
    """All reports of a study, exportable as CSV or aligned text."""

    reports: list

    def report(self, scenario: ScenarioConfig, kind: str) -> MetricReport:
        for r in self.reports:
            if r.scenario == scenario and r.kind == kind:
                return r
        raise KeyError((scenario, kind))

    def to_csv_lines(self) -> list:
        lines = ["n_train,rho,error_dist,kind,metric,mean,sd,n_ok,n_failed,n_boundary"]
        for r in self.reports:
            s = r.scenario
            for name in METRIC_NAMES:
                lines.append(
                    f"{s.n_train},{s.rho:.17g},{s.error_dist},{r.kind},{name},"
                    f"{r.mean(name):.17g},{r.sd(name):.17g},{r.num_ok},{len(r.failures)},"
                    f"{r.num_boundary}"
                )
        return lines

    def format_text(self) -> str:
        kinds = dict.fromkeys(r.kind for r in self.reports)
        scenarios = dict.fromkeys(r.scenario for r in self.reports)
        header = f"{'n_train':>7} {'rho':>5} {'errors':>8}"
        for kind in kinds:
            for name in METRIC_NAMES:
                header += f" {kind + ':' + name:>15}"
        out = [header, "-" * len(header)]
        for s in scenarios:
            mean_line = f"{s.n_train:>7} {s.rho:>5.2f} {s.error_dist:>8}"
            sd_line = " " * len(f"{s.n_train:>7} {s.rho:>5.2f} {s.error_dist:>8}")
            for kind in kinds:
                r = self.report(s, kind)
                for name in METRIC_NAMES:
                    mean_line += f" {r.mean(name):>15.3f}"
                    sd_line += f" {'(' + format(r.sd(name), '.3f') + ')':>15}"
            out.append(mean_line)
            out.append(sd_line)
        return "\n".join(out)


def monte_carlo_study(
    scenarios,
    kinds,
    num_replications: int,
    base_seed: int,
    arch: NetworkArchitecture | None = None,
    config: TrainConfig | None = None,
    variance_threshold: float = 0.95,
    basis_degree: int = 3,
    jobs: int = 1,
) -> StudyTable:
    """Paired Monte Carlo comparison of estimator kinds over scenarios.

    ``kinds`` names distinct estimator kinds, at least one.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise InvalidSizeError("need at least one estimator kind")
    for kind in kinds:
        if kind not in KINDS:
            raise InvalidSizeError(f"unknown estimator kind '{kind}'")
    if len(set(kinds)) < len(kinds):
        raise InvalidSizeError(f"estimator kinds must be distinct, got {', '.join(kinds)}")
    check_integers(InvalidSizeError, num_replications=num_replications, jobs=jobs, base_seed=base_seed)
    if num_replications < 1:
        raise InvalidSizeError("need at least one replication")
    if jobs < 1:
        raise InvalidSizeError("jobs must be at least 1")
    if base_seed < 0:
        # each replication's seed, base_seed ^ r, seeds its TrainConfig too
        raise InvalidSizeError("base_seed must be nonnegative")
    if arch is None:
        arch = default_architecture()
    if config is None:
        config = default_train_config()

    reports = []
    for scenario in scenarios:
        rep_seeds = [base_seed ^ r for r in range(num_replications)]

        def replicate(seed):
            return _run_replication(scenario, kinds, seed, arch, config, variance_threshold, basis_degree)

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(replicate, rep_seeds))
        else:
            results = [replicate(s) for s in rep_seeds]
        for kind in kinds:
            rows = []
            failures = []
            boundary = 0
            for r, result in enumerate(results):
                value = result[kind]
                if isinstance(value, Exception):
                    failures.append((r, f"{type(value).__name__}: {value}"))
                else:
                    metrics, at_boundary = value
                    rows.append(metrics)
                    boundary += bool(at_boundary)
            rows = np.asarray(rows, dtype=float).reshape(-1, 4)
            reports.append(
                MetricReport(
                    scenario=scenario,
                    kind=kind,
                    mse=rows[:, 0],
                    r2=rows[:, 1],
                    mspe=rows[:, 2],
                    r2_test=rows[:, 3],
                    failures=failures,
                    num_boundary=boundary,
                )
            )
    return StudyTable(reports=reports)
