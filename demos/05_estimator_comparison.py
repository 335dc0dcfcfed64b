"""The three estimators side by side on one simulated replication.

Under strong spatial dependence the plain network cannot represent the
cross-site coupling and degrades out of sample, while the two-stage variant
filters that coupling out before the nonlinear layers see the data.
"""

import numpy as np

from sfdnn import (
    NetworkArchitecture,
    ScenarioConfig,
    TrainConfig,
    compute_metrics,
    fit_fdnn_model,
    fit_ml_baseline,
    fit_sfdnn,
    generate_scenario_dataset,
    predict_model,
)

cfg = ScenarioConfig(n_train=300, n_test=400, rho=0.9, error_dist="gaussian", replication_seed=12)
train, test, _ = generate_scenario_dataset(cfg)

arch = NetworkArchitecture(
    num_functional=3, basis_sizes=(7, 7, 7), num_scalar=3,
    hidden_sizes=(32, 16), activations=("relu", "relu"),
)
tc = TrainConfig(learning_rate=0.01, batch_size=64, max_epochs=150, seed=5)

models = {
    "ml": fit_ml_baseline(train),
    "fdnn": fit_fdnn_model(train, arch, tc),
    "sfdnn": fit_sfdnn(train, arch, tc),
}

print(f"{'kind':>6} {'rho_hat':>8} {'train MSE':>10} {'train R2':>9} {'MSPE':>8} {'R2_test':>8}")
for kind, model in models.items():
    preds = predict_model(model, test)
    m = compute_metrics(test.response, preds)
    rho = "-" if model.rho_hat is None else f"{model.rho_hat:.3f}"
    print(
        f"{kind:>6} {rho:>8} {model.train_metrics['mse']:>10.3f} "
        f"{model.train_metrics['r2']:>9.3f} {m.mse:>8.3f} {m.r2:>8.3f}"
    )

print("\nthe two-stage fit holds the stage-one dependence estimate fixed:")
print(f"  stored value: {models['sfdnn'].rho_hat:.6f}")
