"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Criteria 4 and 6 compare the two-stage network against the likelihood
baseline on data generated by an exactly linear process.  The baseline here
is the correctly specified maximum-likelihood estimator and attains the
irreducible noise floor, so those ordering clauses measure whether a
network approximator can undercut an efficient parametric fit on its own
model; the measured values are printed either way.
"""

import math
import time

import numpy as np

from sfdnn.basis import Grid, evaluate_basis, make_bspline_basis, trapezoid_weights
from sfdnn.evaluation import monte_carlo_study, taylor_stats
from sfdnn.fdnn import (
    NetworkArchitecture,
    SpatialContext,
    TrainConfig,
    init_parameters,
    load_parameters,
    loss,
    predict,
    save_parameters,
)
from sfdnn.fdnn import gradients as exact_gradients
from sfdnn.fpca import fit_fpca, project_scores
from sfdnn.pipeline import (
    fit_fdnn_model,
    fit_sfdnn,
    load_model,
    predict_model,
    save_model,
)
from sfdnn.simgen import (
    ScenarioConfig,
    generate_scenario_dataset,
    kl_basis_matrix,
    kl_score_variances,
)
from sfdnn.spatial import (
    SpatialWeightMatrix,
    apply_spatial_filter,
    build_inverse_distance_weights,
    load_weights,
    log_det_filter,
    save_weights,
)


def report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def finite_difference(params, features, scalars, y, ctx=None, step=1e-5):
    out = []
    for _, tensor, _ in params.tensors():
        g = np.zeros_like(tensor)
        if tensor.size == 0:
            out.append(g)
            continue
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + step
            lp = loss(predict(params, features, scalars, ctx), y)
            tensor[idx] = orig - step
            lm = loss(predict(params, features, scalars, ctx), y)
            tensor[idx] = orig
            g[idx] = (lp - lm) / (2.0 * step)
        out.append(g)
    return out


class TestCriterion1:
    def test_gradient_correctness(self):
        # fixed seed chosen so no relu pre-activation falls inside the
        # finite-difference window; central differences straddling a kink
        # would otherwise disagree with the exact subgradient
        start = time.time()
        rng = np.random.default_rng(2)
        n = 20
        W = build_inverse_distance_weights(n)
        lo, hi = W.admissible_interval()
        worst = 0.0
        for trial in range(10):
            p = int(rng.integers(1, 4))
            j = int(rng.integers(0, 4))
            depth = int(rng.integers(1, 3))
            hidden = tuple(int(rng.integers(1, 7)) for _ in range(depth))
            acts = tuple(rng.choice(["tanh", "sigmoid", "relu"]) for _ in range(depth))
            basis_sizes = tuple(int(rng.integers(2, 7)) for _ in range(p))
            arch = NetworkArchitecture(p, basis_sizes, j, hidden, acts)
            params = init_parameters(arch, int(rng.integers(0, 10_000)))
            features = rng.normal(size=(n, arch.feature_width))
            scalars = rng.normal(size=(n, j))
            y = rng.normal(size=n)
            rho = float(rng.uniform(lo + 0.05, hi - 0.05))
            for ctx in (None, SpatialContext(W, rho)):
                analytic = [g for _, g, _ in exact_gradients(params, features, scalars, y, ctx).tensors()]
                numeric = finite_difference(params, features, scalars, y, ctx)
                for a, f in zip(analytic, numeric):
                    if a.size == 0:
                        continue
                    denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(f)))
                    worst = max(worst, float(np.max(np.abs(a - f) / denom)))
        elapsed = time.time() - start
        report(
            1,
            worst < 1e-4 and elapsed < 60,
            f"max relative gradient error {worst:.2e} (tolerance 1e-4), {elapsed:.1f}s",
        )


class TestCriterion2:
    def test_rho_recovery_with_grid_oracle(self):
        from sfdnn.spatial import estimate_rho_ml

        start = time.time()
        n = 500
        results = {}
        grid_ok = True
        shared_w, eigs = None, None
        for rho in (0.1, 0.5, 0.9):
            estimates = []
            for r in range(50):
                cfg = ScenarioConfig(
                    n_train=n, n_test=2, rho=rho, error_dist="gaussian",
                    replication_seed=7000 + r,
                )
                train, _, _ = generate_scenario_dataset(cfg)
                scores = [
                    project_scores(fit_fpca(c, train.grid, 0.95), c, train.grid)
                    for c in train.functional
                ]
                design = np.column_stack([np.ones(n)] + scores + [train.scalars])
                est = estimate_rho_ml(train.response, design, train.weights)
                estimates.append(est.rho_hat)

                # independent 201-point profile-likelihood grid; every replication
                # shares one W, so its spectrum is computed once and each W checked against it
                dense_w = train.weights.toarray()
                if eigs is None:
                    shared_w, eigs = dense_w, np.linalg.eigvals(dense_w)
                assert np.array_equal(dense_w, shared_w), "replications drew different weights"
                q, _ = np.linalg.qr(design, mode="reduced")
                y = train.response
                ylag = train.weights.matvec(y)
                e0 = y - q @ (q.T @ y)
                e1 = ylag - q @ (q.T @ ylag)
                lo, hi = est.admissible_interval
                grid_pts = np.linspace(lo + 1e-6, hi - 1e-6, 201)
                vals = [
                    float(np.sum(np.log(np.abs(1.0 - g * eigs))))
                    - 0.5 * n * math.log(float((e0 - g * e1) @ (e0 - g * e1)) / n)
                    for g in grid_pts
                ]
                best = grid_pts[int(np.argmax(vals))]
                if abs(best - est.rho_hat) > (grid_pts[1] - grid_pts[0]) + 1e-12:
                    grid_ok = False
            results[rho] = float(np.mean(estimates))
        elapsed = time.time() - start
        bias_ok = all(abs(results[r] - r) <= 0.05 for r in results)
        detail = ", ".join(f"rho={r}: mean {results[r]:.4f}" for r in results)
        report(
            2,
            bias_ok and grid_ok and elapsed < 300,
            f"{detail}; grid oracle {'confirmed' if grid_ok else 'violated'}; {elapsed:.0f}s",
        )


def cofactor_det(a):
    """Laplace cofactor expansion row by row, memoized on column subsets."""
    from functools import lru_cache

    n = a.shape[0]

    @lru_cache(maxsize=None)
    def expand(row, cols_mask):
        if row == n:
            return 1.0
        total = 0.0
        sign = 1.0
        for j in range(n):
            if not (cols_mask >> j) & 1:
                continue
            if a[row, j] != 0.0:
                total += sign * a[row, j] * expand(row + 1, cols_mask & ~(1 << j))
            sign = -sign
        return total

    return expand(0, (1 << n) - 1)


class TestCriterion3:
    def test_log_determinant_oracles(self):
        rng = np.random.default_rng(77)
        worst_cof = 0.0
        for n in (4, 6, 8, 10):
            raw = rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(raw, 0.0)
            raw /= raw.sum(axis=1, keepdims=True)
            W = SpatialWeightMatrix(raw, row_normalized=True)
            lo, hi = W.admissible_interval()
            for rho in np.linspace(lo + 0.02, hi - 0.02, 20):
                mine = log_det_filter(W, float(rho))
                oracle = math.log(cofactor_det(np.eye(n) - rho * raw))
                worst_cof = max(worst_cof, abs(mine - oracle))

        worst_eig = 0.0
        raw = rng.uniform(0.0, 1.0, (50, 50))
        sym = (raw + raw.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        sym /= np.abs(np.linalg.eigvalsh(sym)).max() * 1.1
        W = SpatialWeightMatrix(sym, row_normalized=False)
        lam = np.linalg.eigvalsh(sym)
        for rho in (-0.9, -0.4, 0.2, 0.6, 0.95):
            mine = log_det_filter(W, rho)
            oracle = float(np.sum(np.log(np.abs(1.0 - rho * lam))))
            worst_eig = max(worst_eig, abs(mine - oracle))
        report(
            3,
            worst_cof < 1e-10 and worst_eig < 1e-8,
            f"cofactor gap {worst_cof:.2e} (tol 1e-10), eigenvalue gap {worst_eig:.2e} (tol 1e-8)",
        )


class TestCriterion4:
    def test_strong_dependence_ordering(self):
        start = time.time()
        scenario = ScenarioConfig(n_train=500, rho=0.9, error_dist="gaussian")
        table = monte_carlo_study([scenario], ("ml", "fdnn", "sfdnn"), 25, base_seed=4000)
        ml = table.report(scenario, "ml").mean("mspe")
        fdnn = table.report(scenario, "fdnn").mean("mspe")
        sfdnn = table.report(scenario, "sfdnn").mean("mspe")
        elapsed = time.time() - start
        detail = (
            f"mean MSPE ml={ml:.3f} fdnn={fdnn:.3f} sfdnn={sfdnn:.3f}; "
            f"window [2, 8]; {elapsed:.0f}s"
        )
        print(f"  criterion 4 clause sfdnn<fdnn: {'PASS' if sfdnn < fdnn else 'FAIL'}")
        print(f"  criterion 4 clause sfdnn<ml:   {'PASS' if sfdnn < ml else 'FAIL'}")
        print(f"  criterion 4 clause window:     {'PASS' if 2.0 <= sfdnn <= 8.0 else 'FAIL'}")
        report(4, sfdnn < fdnn and sfdnn < ml and 2.0 <= sfdnn <= 8.0 and elapsed < 1800, detail)


class TestCriterion5:
    def test_low_dependence_parity(self):
        scenario = ScenarioConfig(n_train=250, rho=0.1, error_dist="gaussian")
        table = monte_carlo_study([scenario], ("fdnn", "sfdnn"), 25, base_seed=4100)
        fdnn = table.report(scenario, "fdnn").mean("r2_test")
        sfdnn = table.report(scenario, "sfdnn").mean("r2_test")
        gap = abs(fdnn - sfdnn)
        report(
            5,
            gap < 0.02,
            f"mean R2_test fdnn={fdnn:.4f} sfdnn={sfdnn:.4f}, |gap|={gap:.4f} (tol 0.02)",
        )


class TestCriterion6:
    def test_heavy_tail_ordering(self):
        scenario = ScenarioConfig(n_train=500, rho=0.9, error_dist="t3")
        table = monte_carlo_study([scenario], ("ml", "sfdnn"), 25, base_seed=4200)
        ml = table.report(scenario, "ml").mean("mspe")
        sfdnn = table.report(scenario, "sfdnn").mean("mspe")
        report(6, sfdnn < ml, f"mean MSPE sfdnn={sfdnn:.3f} vs ml={ml:.3f}")


class TestCriterion7:
    def test_fpca_spectrum(self):
        start = time.time()
        # fine-grid oracle for the eigenvalues of the generating covariance
        fine = Grid(np.linspace(0.0, 1.0, 2001))
        funcs = kl_basis_matrix(fine)
        variances = kl_score_variances()
        cov = (funcs.T * variances) @ funcs
        w = trapezoid_weights(fine.points)
        sqrt_w = np.sqrt(w)
        sym = sqrt_w[:, None] * cov * sqrt_w[None, :]
        oracle = np.sort(np.linalg.eigvalsh(sym))[::-1][:5]

        grid = Grid.uniform(101)
        rng = np.random.default_rng(303)
        scores = rng.normal(size=(10_000, 5)) * np.sqrt(variances)
        curves = scores @ kl_basis_matrix(grid)
        model = fit_fpca(curves, grid)
        est = model.eigenvalues[:5]
        rel = np.abs(est - oracle) / oracle
        elapsed = time.time() - start
        report(
            7,
            bool(np.all(rel < 0.05)) and elapsed < 120,
            f"relative eigenvalue errors {np.array2string(rel, precision=4)} (tol 5%), {elapsed:.0f}s",
        )


class TestCriterion8:
    def test_degeneration_identities(self):
        cfg = ScenarioConfig(n_train=120, n_test=80, rho=0.5, error_dist="gaussian", replication_seed=88)
        train, test, _ = generate_scenario_dataset(cfg)
        arch = NetworkArchitecture(3, (6, 6, 6), 3, (12, 6), ("relu", "relu"))
        tc = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=40, seed=9)
        fdnn = fit_fdnn_model(train, arch, tc)
        sfdnn = fit_sfdnn(train, arch, tc, rho_override=0.0)
        bit_equal = all(
            np.array_equal(a, b)
            for (_, a, _), (_, b, _) in zip(fdnn.parameters.tensors(), sfdnn.parameters.tensors())
        )
        preds_equal = np.array_equal(predict_model(fdnn, test), predict_model(sfdnn, test))

        # identity-activation network on linear data vs closed-form least squares
        lin_cfg = ScenarioConfig(n_train=200, n_test=2, rho=0.0, error_dist="gaussian", replication_seed=91)
        lin_train, _, _ = generate_scenario_dataset(lin_cfg)
        lin_arch = NetworkArchitecture(3, (6, 6, 6), 3, (8,), ("identity",))
        lin_tc = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=500, seed=2)
        lin_model = fit_fdnn_model(lin_train, lin_arch, lin_tc)

        from sfdnn.pipeline import _spline_features

        bases = lin_model.bases
        features = _spline_features(lin_train.functional, lin_train.grid, bases)
        design = np.column_stack([features, lin_train.scalars, np.ones(lin_train.n)])
        beta, *_ = np.linalg.lstsq(design, lin_train.response, rcond=None)
        ols_loss = float(np.mean((lin_train.response - design @ beta) ** 2))
        net_loss = lin_model.train_metrics["mse"]
        within = net_loss <= ols_loss * 1.05
        report(
            8,
            bit_equal and preds_equal and within,
            f"bit-level match {bit_equal}, prediction match {preds_equal}, "
            f"net loss {net_loss:.4f} vs least-squares {ols_loss:.4f} (within 5%: {within})",
        )


class TestCriterion9:
    def test_invariant_suites(self, tmp_path):
        checks = []

        # partition of unity
        rng = np.random.default_rng(11)
        pts = np.concatenate([[0.0], np.sort(rng.uniform(1e-9, 1 - 1e-9, 1000)), [1.0]])
        grid = Grid(pts)
        pou = max(
            float(np.max(np.abs(evaluate_basis(make_bspline_basis(d, m), grid).sum(axis=0) - 1.0)))
            for d, m in [(1, 4), (2, 6), (3, 8)]
        )
        checks.append(("partition of unity < 1e-12", pou < 1e-12))

        # eigenfunction orthonormality
        g101 = Grid.uniform(101)
        scores = rng.normal(size=(40, 5)) * np.sqrt(kl_score_variances())
        curves = scores @ kl_basis_matrix(g101)
        model = fit_fpca(curves, g101)
        w = trapezoid_weights(g101.points)
        gram = (model.eigenfunctions * w) @ model.eigenfunctions.T
        ortho = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
        checks.append(("eigenfunction orthonormality < 1e-8", ortho < 1e-8))

        # weight-matrix row sums
        for n in (5, 50, 500):
            W = build_inverse_distance_weights(n)
            checks.append(
                (f"row sums n={n} < 1e-12", float(np.max(np.abs(W.row_sums() - 1.0))) < 1e-12)
            )

        # Taylor identity
        y, yhat = rng.normal(size=30), rng.normal(size=30)
        t = taylor_stats(y, yhat)
        identity_gap = abs(
            t.centered_rmsd**2
            - (t.sd_observed**2 + t.sd_predicted**2
               - 2 * t.sd_observed * t.sd_predicted * t.correlation)
        )
        checks.append(("Taylor identity < 1e-10", identity_gap < 1e-10))

        # filter residual bound
        W = build_inverse_distance_weights(40)
        lo, hi = W.admissible_interval()
        worst_resid = 0.0
        for _ in range(5):
            rho = float(rng.uniform(lo + 1e-3, hi - 1e-3))
            b = rng.normal(size=(40, 2))
            x = apply_spatial_filter(W, rho, b)
            worst_resid = max(
                worst_resid, float(np.max(np.abs((np.eye(40) - rho * W.toarray()) @ x - b)))
            )
        checks.append(("filter residual < 1e-10", worst_resid < 1e-10))

        # parameter round trip
        arch = NetworkArchitecture(2, (5, 4), 2, (6, 3), ("relu", "tanh"))
        params = init_parameters(arch, 5)
        ppath = tmp_path / "params.txt"
        save_parameters(params, ppath)
        back = load_parameters(ppath)
        round_params = all(
            np.array_equal(a, b) for (_, a, _), (_, b, _) in zip(params.tensors(), back.tensors())
        )
        checks.append(("parameter round trip bit-exact", round_params))

        # weight-matrix round trip
        wpath = tmp_path / "w.txt"
        W7 = build_inverse_distance_weights(7)
        save_weights(W7, wpath)
        round_w = np.array_equal(load_weights(wpath).toarray(), W7.toarray())
        checks.append(("weight-matrix round trip bit-exact", round_w))

        # model round trip preserves predictions
        cfg = ScenarioConfig(n_train=60, n_test=40, rho=0.3, error_dist="gaussian", replication_seed=4)
        train, test, _ = generate_scenario_dataset(cfg)
        arch = NetworkArchitecture(3, (5, 5, 5), 3, (6,), ("relu",))
        m = fit_sfdnn(train, arch, TrainConfig(max_epochs=15, batch_size=16, seed=1))
        mpath = tmp_path / "model.txt"
        save_model(m, mpath)
        round_model = np.array_equal(predict_model(load_model(mpath), test), predict_model(m, test))
        checks.append(("model round trip preserves predictions", round_model))

        for label, ok in checks:
            print(f"  criterion 9 invariant: {label}: {'PASS' if ok else 'FAIL'}")
        report(9, all(ok for _, ok in checks), f"{sum(ok for _, ok in checks)}/{len(checks)} invariants hold")


class TestSurrogateApplicationPath:
    def test_end_to_end_surrogate_run(self, tmp_path):
        # stands in for the real-data study: spatially correlated surrogate
        # sites, fit/predict/plotdata over the file-based interface
        import sfdnn.cli as cli

        out = tmp_path / "surrogate"
        cfg_lines = [
            "n_train = 500",
            "n_test = 500",
            "rho = 0.6",
            "error_dist = gaussian",
            "replication_seed = 9",
            "seed = 2",
            "hidden_sizes = 16,8",
            "basis_size = 6",
            "max_epochs = 60",
            "batch_size = 64",
            f"out_dir = {out}",
        ]
        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text("\n".join(cfg_lines) + "\n", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(sim_cfg)]) == 0

        mspe = {}
        for kind in ("fdnn", "sfdnn"):
            fit_cfg = tmp_path / f"fit_{kind}.cfg"
            fit_cfg.write_text(
                "\n".join(
                    cfg_lines
                    + [
                        f"kind = {kind}",
                        f"train_functional = {out / 'train_functional.csv'}",
                        f"train_scalars = {out / 'train_scalars.csv'}",
                        f"train_weights = {out / 'train_weights.txt'}",
                    ]
                )
                + "\n",
                encoding="utf-8",
            )
            assert cli.main(["fit", "--config", str(fit_cfg)]) == 0
            (out / f"model_{kind}.txt").write_bytes((out / "model.txt").read_bytes())
            pred_cfg = tmp_path / f"pred_{kind}.cfg"
            pred_cfg.write_text(
                "\n".join(
                    cfg_lines
                    + [
                        f"kind = {kind}",
                        f"model_file = {out / f'model_{kind}.txt'}",
                        f"test_functional = {out / 'test_functional.csv'}",
                        f"test_scalars = {out / 'test_scalars.csv'}",
                        f"test_weights = {out / 'test_weights.txt'}",
                    ]
                )
                + "\n",
                encoding="utf-8",
            )
            assert cli.main(["predict", "--config", str(pred_cfg)]) == 0
            for line in (out / "test_metrics.csv").read_text().splitlines()[1:]:
                key, value = line.split(",")
                if key == "mspe":
                    mspe[kind] = float(value)

        plot_cfg = tmp_path / "plot.cfg"
        plot_cfg.write_text(
            "\n".join(
                cfg_lines
                + [
                    f"model_file = {out / 'model_sfdnn.txt'}",
                    f"train_functional = {out / 'train_functional.csv'}",
                    f"train_scalars = {out / 'train_scalars.csv'}",
                    f"train_weights = {out / 'train_weights.txt'}",
                    f"test_functional = {out / 'test_functional.csv'}",
                    f"test_scalars = {out / 'test_scalars.csv'}",
                    f"test_weights = {out / 'test_weights.txt'}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert cli.main(["plotdata", "--config", str(plot_cfg)]) == 0
        taylor = (out / "taylor.csv").read_text().splitlines()
        assert len(taylor) == 3 and taylor[1].startswith("train,")

        ok = mspe["sfdnn"] <= mspe["fdnn"]
        print(
            f"  surrogate path: sfdnn MSPE {mspe['sfdnn']:.3f} vs fdnn {mspe['fdnn']:.3f}: "
            f"{'PASS' if ok else 'FAIL'}"
        )
        assert ok
