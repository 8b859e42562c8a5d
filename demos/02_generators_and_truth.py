"""The three synthetic generators and their ground-truth effect curves.

The exact truth comes from a recursion over the treatments with the mean
shifted propensities (a binomial sum for the trial generator).  An
independently coded Monte Carlo redraws treatments from the shifted
propensities with no dropout and averages the structural outcome mean;
the two agree within its standard errors.
"""

import numpy as np

import oddshift as od

grid = od.DeltaGrid.log_spaced(0.1, 5.0, 7)

for kind in ("trial", "observational", "dropout"):
    cfg = od.DgpConfig(kind=kind, n=3000, T=4, u_l=1.0, p=0.5, seed=1)
    ds = od.simulate(cfg)
    dropped = np.mean(ds.R[:, ds.T] == 0)
    exact = od.exact_effect_curve(cfg, grid, t=4)
    psi, se = od.true_effect_curve(cfg, grid, t=4, draws=100_000, seed=2)
    print(f"--- {kind}: n={ds.n}, dropout by the end {dropped:.1%}")
    print("    delta:", "  ".join(f"{d:5.2f}" for d in grid.values))
    print("    exact:", "  ".join(f"{v:5.2f}" for v in exact))
    print("    MC   :", "  ".join(f"{v:5.2f}" for v in psi))
    print(f"    largest gap {np.max(np.abs(psi - exact) / se):.2f} Monte Carlo SEs")

# a fully observed panel at delta = 1 is just the observational world:
cfg = od.DgpConfig(kind="observational", n=30_000, T=4, seed=3)
ds = od.simulate(cfg)
psi = od.exact_effect_curve(cfg, [1.0], 4)
print(
    f"\nno-shift check: truth at delta=1 is {psi[0]:.3f}, "
    f"observed mean outcome is {np.nanmean(ds.Y[:, 3]):.3f}"
)

# pushing delta to infinity forces treatment everywhere (trial: 10 + sqrt(T))
psi_inf = od.exact_effect_curve(od.DgpConfig(kind="trial", n=10, T=4, p=0.5, seed=0), [1e6], 4)
print(f"always-treated limit for the trial generator at T=4: {psi_inf[0]:.3f} (= 12)")
