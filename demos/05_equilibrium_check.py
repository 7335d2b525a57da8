"""Reversibility in action: Gibbs states are preserved by the hop dynamics.

The grand-canonical Gibbs measure for the pair potential is reversible for
the hop process, so equilibrium statistics must be invariant in time. We
sample equilibrium configurations with an independent Metropolis chain
(displacement + insertion/deletion moves), push each sample through the
exact hop dynamics, and compare radial pair-correlation histograms before
and after.

Run:  python demos/05_equilibrium_check.py
"""

import numpy as np

from kawasaki import (GibbsSampler, KernelSpec, PotentialSpec,
                      SimulationParams, Torus, calibrate_activity,
                      estimate_pair_correlation, simulate_ensemble)

torus = Torus(1, 60.0)
kernel = KernelSpec.top_hat(1.0, 1.0, dim=1)   # alpha = 2
pot = PotentialSpec.top_hat(1.0, 0.7, dim=1)

rng = np.random.default_rng(5)
target = 120.0
z = calibrate_activity(torus, pot, target, rng)
print(f"calibrated activity z = {z:.3f} for mean count {target:.0f}")

chain = GibbsSampler(torus, pot, z, rng, initial_count=target)
initials = chain.sample(150, thin_moves=1500, burn_in_moves=15_000)
print(f"sampled {len(initials)} equilibrium configurations, "
      f"mean N = {np.mean([p.shape[0] for p in initials]):.1f}")

t_end = 5.0 / 2.0
params = SimulationParams(torus=torus, kernel=kernel, potential=pot,
                          rho0=2.0, t_end=t_end, snapshot_times=(t_end,),
                          record_events=False)
# trajectory i runs on stream (41, i) from initials[i]
finals = [traj.snapshots[0] for traj in
          simulate_ensemble(params, len(initials), 41, initials=initials)]

edges = np.linspace(0.0, 5.0, 21)
before = estimate_pair_correlation(initials, 0.0, edges, torus=torus)
after = estimate_pair_correlation(finals, 0.0, edges, torus=torus)
z_scores = (after.k2 - before.k2) / np.hypot(before.k2_se, after.k2_se)
print("\n  r        g2 before   g2 after    z")
rho2 = (target / torus.side) ** 2
for b in range(0, len(z_scores), 4):
    print(f"  {before.r_centers[b]:.2f}     "
          f"{before.k2[b] / rho2:.3f}       {after.k2[b] / rho2:.3f}      "
          f"{z_scores[b]:+.2f}")
frac = np.mean(np.abs(z_scores) <= 3.0)
print(f"\nbins agreeing within 3 sigma: {100 * frac:.0f}%")
