"""The penalized-regression suite on a synthetic design matrix.

Three informative columns, three pure-noise columns: watch OLS keep
everything, LASSO shrink, LARS order the entries, and the two selection
procedures (LARS-Traps, BOLASSO) reject the noise.

Run from the repository root:  python3 demos/04_regression_combiners.py
"""

import numpy as np

from qppfuse import bolasso, enet_fit, lars_path, lars_traps, lasso_fit, ols_fit, ridge_fit
from qppfuse.fusion import ScoreTable, cv_select, lambda_grid, lambda_max

rng = np.random.default_rng(99)
n = 120
x = rng.standard_normal((n, 6))
y = 1.0 * x[:, 0] + 0.8 * x[:, 1] + 0.6 * x[:, 2] + 0.4 * rng.standard_normal(n)
names = ["s1", "s2", "s3", "n1", "n2", "n3"]
table = ScoreTable([f"q{i}" for i in range(n)],
                   {nm: x[:, j] for j, nm in enumerate(names)}, y)


def show(label, model):
    cells = "  ".join(f"{nm}={model.coefficients.get(nm, 0.0):+.3f}" for nm in names)
    print(f"{label:<12} intercept={model.intercept:+.3f}  {cells}")


# ---------------------------------------------------------------------------
# Dense fits: OLS keeps every column; ridge shrinks but never zeroes.
show("OLS", ols_fit(table))
show("Ridge(1.0)", ridge_fit(table, 1.0))

# LASSO zeroes the noise once lam is large enough; at lambda_max everything dies.
lam = 0.15 * lambda_max(table)
show(f"LASSO", lasso_fit(table, lam))
show("E-Net(0.5)", enet_fit(table, lam, alpha=0.5))

# ---------------------------------------------------------------------------
# The LARS path enters columns in order of usefulness.
print("\nLARS entry order:", " -> ".join(k.column for k in lars_path(table)))

# Cross-validated lambda selection (5 folds, seeded -> reproducible).
best_lam, cv_model = cv_select(table, "lasso", lam_grid=lambda_grid(table),
                               k_folds=5, seed=0)
print(f"\nLASSO-CV picked lam = {best_lam:.4f}")
show("LASSO-CV", cv_model)

# ---------------------------------------------------------------------------
# Selection procedures: random probes (traps) and bootstrapped supports.
traps = lars_traps(table, n_traps=6, seed=3)
print(f"\nLARS-Traps selected: {sorted(traps.support)}")

grid = np.geomspace(lambda_max(table), 0.1 * lambda_max(table), 30)
boot = bolasso(table, b=50, threshold=0.9, k_folds=5, lam_grid=grid, seed=3)
counts = boot.hyperparameters["support_counts"]
# BOLASSO stops drawing bootstraps once no further one can change its kept set.
print(f"BOLASSO supports out of {boot.hyperparameters['resamples']} bootstraps run (b = 50): "
      f"{counts}")
print(f"BOLASSO kept (>=90%): {sorted(boot.support)}")
