"""Watching the mean-field limit emerge.

The scaling experiment weakens the interaction (phi -> eps * phi) while
densifying the gas (initial density rho0 / eps). The renormalized density
(eps * k1) and pair function (eps^2 * k2) should approach the kinetic
solution and its product as eps -> 0. This is a desk-scale version of the
full sweep (the acceptance suite runs the larger one).

Run:  python demos/04_mean_field_sweep.py        (writes demo_out/sweep/)
"""

import numpy as np

from kawasaki import (DensityField, KernelSpec, PotentialSpec, SweepSpec,
                      Torus, convergence_report, run_sweep,
                      write_sweep_outputs)

torus = Torus(1, 20.0)
kernel = KernelSpec.top_hat(2.0, 1.0, dim=1)     # fast mixing: alpha = 4
pot = PotentialSpec.top_hat(1.0, 3.0, dim=1)     # strong repulsion contrast
rho0 = DensityField.from_function(
    torus, 32, lambda x: 0.7 + 0.35 * np.cos(6 * np.pi * x / 20.0))

spec = SweepSpec(torus=torus, kernel=kernel, potential=pot,
                 epsilons=(1.0, 0.5, 0.25), rho0=rho0, times=(1.0,),
                 n_traj_base=2000, n_cells=32,
                 r_edges=tuple(np.linspace(0.0, 5.0, 21)),
                 budget_max_particles=1e4, base_seed=7)

print(f"limit mass {rho0.mass:.1f}; expected particle counts "
      f"{[round(rho0.mass / e) for e in spec.epsilons]}")
result = run_sweep(spec)
print("\n  eps     n_traj   e1          e2")
for i, eps in enumerate(result.epsilons):
    print(f"  {eps:<6}  {result.n_traj[i]:<6}   "
          f"{result.e1[i, 0]:.4f}+-{result.e1_se[i, 0]:.4f} "
          f"{result.e2[i, 0]:.4f}+-{result.e2_se[i, 0]:.4f}")
print(f"\nmonotone within noise: {result.monotone_within_noise}")

report = convergence_report(result)
slope = report.slopes[1.0]
if slope is not None:
    print(f"log-log slope of e1 vs eps: {slope[0]:.2f} +- {slope[1]:.2f}")
write_sweep_outputs(result, "demo_out/sweep")
print("wrote demo_out/sweep/errors.csv and report.json")
