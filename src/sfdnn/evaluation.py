"""Metrics, K-fold hyperparameter tuning, and the Monte Carlo study driver.

The study driver runs paired replications: within a replication every
estimator kind sees bit-identical data, generated from a seed derived as
``base_seed XOR r`` so replications are order-independent and can run on
worker threads.  Failed replications are recorded per kind, never silently
dropped.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DimensionError,
    FoldSizeError,
    InvalidSizeError,
    SfdnnError,
)
from .fdnn import NetworkArchitecture, TrainConfig
from .pipeline import (
    RegressionDataset,
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
    role: str


def compute_metrics(y, yhat, role: str = "train") -> Metrics:
    """Mean squared residual and R-squared against the role's own mean."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size != yhat.size:
        raise DimensionError("observed and predicted lengths differ")
    if y.size < 2:
        raise DimensionError("need at least 2 observations")
    if role not in ("train", "test"):
        raise InvalidSizeError(f"role must be 'train' or 'test', got '{role}'")
    resid = y - yhat
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0.0:
        raise DegenerateVarianceError("R-squared is undefined for a constant response")
    return Metrics(
        mse=float(np.mean(resid**2)),
        r2=1.0 - float(resid @ resid) / sst,
        role=role,
    )


@dataclass(frozen=True)
class TaylorStats:
    """Correlation, standard deviations, and centered RMS difference."""

    correlation: float
    sd_observed: float
    sd_predicted: float
    centered_rmsd: float


def taylor_stats(y, yhat) -> TaylorStats:
    """Taylor-diagram statistics; population standard deviations throughout."""
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size != yhat.size:
        raise DimensionError("observed and predicted lengths differ")
    if y.size < 2:
        raise DimensionError("need at least 2 observations")
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
        return NetworkArchitecture(
            num_functional=num_functional,
            basis_sizes=(self.basis_size,) * num_functional,
            num_scalar=num_scalar,
            hidden_sizes=self.hidden_sizes,
            activations=(self.activation,) * len(self.hidden_sizes),
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            weight_decay=self.weight_decay,
            seed=seed,
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


def _fit_kind(kind, data, candidate, seed, variance_threshold, basis_degree):
    if kind == "ml":
        return fit_ml_baseline(data, variance_threshold)
    arch = candidate.architecture(data.num_functional, data.num_scalar)
    config = candidate.train_config(seed)
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
):
    """Exhaustive grid search by K-fold cross-validated prediction error.

    Returns the winning candidate and the full table (one dict per
    candidate).  Ties break toward the smaller model, then grid order.
    Candidates with a ``neighbor_count`` rebuild the weight matrix from
    ``coords`` before splitting, once per neighbor count.  Candidates that
    differ only in settings ``kind`` ignores share one cross-validation.
    Every fit takes ``variance_threshold`` and ``basis_degree``, as in
    :func:`monte_carlo_study`.
    """
    n = data.n
    if num_folds < 2:
        raise FoldSizeError("need at least 2 folds")
    if n < 2 * num_folds:
        raise FoldSizeError(f"{num_folds} folds over {n} rows would leave folds below 2 rows")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, num_folds)

    datasets = {None: data}
    scores = {}
    table = []
    best = None
    best_key = None
    for index, cand in enumerate(grid.candidates()):
        count = cand.neighbor_count
        if count not in datasets:
            if coords is None:
                raise InvalidSizeError(
                    "tuning neighbor_count requires site coordinates"
                )
            datasets[count] = RegressionDataset(
                functional=data.functional, grid=data.grid, scalars=data.scalars,
                response=data.response, weights=build_knn_bisquare_weights(coords, count),
            )
        effective = _effective_candidate(kind, cand)
        if effective not in scores:
            cand_data = datasets[count]
            total_sq = 0.0
            for fold in folds:
                held = np.sort(fold)
                rest = np.sort(np.setdiff1d(perm, fold))
                fit = _fit_kind(
                    kind, cand_data.subset(rest), cand, seed, variance_threshold, basis_degree
                )
                preds = predict_model(fit, cand_data.subset(held))
                total_sq += float(np.sum((preds - cand_data.response[held]) ** 2))
            scores[effective] = total_sq / n
        cv_mspe = scores[effective]
        size = cand.num_parameters(data.num_functional, data.num_scalar)
        table.append({"index": index, "candidate": cand, "cv_mspe": cv_mspe, "size": size})
        key = (cv_mspe, size, index)
        if best_key is None or key < best_key:
            best_key = key
            best = cand
    return best, table


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
    return NetworkArchitecture(
        num_functional=num_functional,
        basis_sizes=(7,) * num_functional,
        num_scalar=num_scalar,
        hidden_sizes=(32, 16),
        activations=("relu", "relu"),
    )


def default_train_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=200, seed=seed)


def _run_replication(scenario, kinds, rep_seed, arch, config, variance_threshold, basis_degree):
    cfg = replace(scenario, replication_seed=rep_seed)
    train, test, _ = generate_scenario_dataset(cfg)
    out = {}
    for kind in kinds:
        try:
            if kind == "ml":
                model = fit_ml_baseline(train, variance_threshold)
            elif kind == "fdnn":
                model = fit_fdnn_model(train, arch, replace(config, seed=rep_seed), basis_degree)
            elif kind == "sfdnn":
                model = fit_sfdnn(
                    train, arch, replace(config, seed=rep_seed), basis_degree, variance_threshold
                )
            else:
                raise InvalidSizeError(f"unknown estimator kind '{kind}'")
            train_m = compute_metrics(train.response, predict_model(model, train), "train")
            test_m = compute_metrics(test.response, predict_model(model, test), "test")
            out[kind] = ((train_m.mse, train_m.r2, test_m.mse, test_m.r2), model.at_boundary)
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
        kinds = []
        for r in self.reports:
            if r.kind not in kinds:
                kinds.append(r.kind)
        scenarios = []
        for r in self.reports:
            if r.scenario not in scenarios:
                scenarios.append(r.scenario)

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
    """Paired Monte Carlo comparison of estimator kinds over scenarios."""
    if num_replications < 1:
        raise InvalidSizeError("need at least one replication")
    if arch is None:
        arch = default_architecture()
    if config is None:
        config = default_train_config()

    reports = []
    for scenario in scenarios:
        rep_seeds = [base_seed ^ r for r in range(num_replications)]
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(
                    pool.map(
                        lambda s: _run_replication(
                            scenario, kinds, s, arch, config, variance_threshold, basis_degree
                        ),
                        rep_seeds,
                    )
                )
        else:
            results = [
                _run_replication(
                    scenario, kinds, s, arch, config, variance_threshold, basis_degree
                )
                for s in rep_seeds
            ]
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
