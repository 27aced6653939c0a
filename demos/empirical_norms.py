"""Uniform gaps between empirical and population norms, and their rate theory.

One simulated design gives the suprema; the closed-form entropy and rate
quantities say how fast they should shrink; a small Monte-Carlo run checks
the predicted square-root slope.
"""

import numpy as np

from semorder._rng import derived_rng
from semorder.empproc import (
    MomentPair,
    delta_n,
    entropy_bound_l1,
    j_integral_l1,
    rate_experiment,
    z_sup_ellipsoid,
    z_sup_l1,
)


def main() -> None:
    n, p = 400, 4
    rng = derived_rng(3)
    x = rng.uniform(-1.0, 1.0, (n, p))
    sigma = np.eye(p) / 3.0
    mp = MomentPair(x.T @ x / n, sigma, n=n, p=p, k_x=1.0)
    z_ell = z_sup_ellipsoid(mp)
    z_l1 = z_sup_l1(mp, budget=1.0)
    print(f"design: n={n}, p={p}, uniform on (-1, 1)")
    print(f"relative norm gap over the ellipsoid class: {z_ell:.5f}")
    print(f"over the budget-1 subclass:                 {z_l1:.5f}  (never larger)")

    print()
    print("closed-form theory at this size:")
    print(f"  entropy bound at scale u=0.5: {entropy_bound_l1(0.5, p, n, 1.0, 1.0):.3f}")
    print(f"  entropy integral:             {j_integral_l1(p, n, 1.0, 1.0):.3f}")
    print(f"  plug-in rate delta_n:         {delta_n(1.0, 1.0, p, n, 1.0 / 3.0):.4f}")

    print()
    print("Monte-Carlo slope of the ellipsoid gap (theory -1/2):")
    grid = [{"n": 2**k, "p": 4, "N": 2} for k in range(8, 13)]
    rep = rate_experiment("case4", grid, reps=20, seed=5)
    for cell in rep.cells:
        print(f"  n={cell['n']:5d}  mean={cell['mean']:.5f}  se={cell['se']:.5f}")
    s = rep.slopes[0]
    print(f"  slope {s['slope']:.3f} +- {s['stderr']:.3f}, R^2 {s['r_squared']:.3f}")


if __name__ == "__main__":
    main()
