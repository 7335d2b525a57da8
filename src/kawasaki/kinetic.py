"""Deterministic solvers for the mean-field kinetic equation.

The density of the hopping gas in the weak-interaction / high-density limit
solves the nonlocal equation

    d/dt rho = (a * rho) exp(-(phi * rho)) - rho * (a * exp(-(phi * rho))),

with * the spatial convolution; for the contact potential local(kappa) the
convolution phi * rho degenerates to kappa * rho pointwise. Two integrators
are provided on a shared uniform time grid:

* a classical explicit 4-stage Runge-Kutta march (the production path), and
* fixed-point iteration of the Duhamel integral form
      rho_t = rho_0 e^{-alpha t}
            + int_0^t e^{-alpha (t-s)} (a * rho_s) e^{-(phi * rho_s)} ds
            + int_0^t e^{-alpha (t-s)} rho_s [a * (1 - e^{-(phi * rho_s)})] ds,
  used as an independent verification path on short windows where the
  contraction factor q(T) from the `horizon` module is below one. The time
  integrals use the trapezoid rule; the decaying weight makes the quadrature
  a one-step recursion, so each sweep costs one pass over the grid. The
  integrand is built in cache-sized blocks of time rows and folded into the
  recursion as it goes, so a sweep holds one (n_steps + 1, grid) stack,
  updated in place a block of rows at a time.

Kernels are tabulated on the grid via minimal-image distances and rescaled
so the discrete sum times the cell volume equals the continuum integral
exactly; this makes constant densities exact stationary points and mass
conservation hold to round-off. Convolutions take the real FFT at every grid
size (pocketfft is O(n log n) for any n); the solvers transform rho once and
invert a * rho and phi * rho in one batched call. `vlasov_first_order` alone
sums over minimal images, so the product-state identity rhs == first-order
hierarchy action is a genuine cross-check of two code paths.

`violations` lists every rule a solve breaks (specs of the grid's dimension
with supports below L/2, the RK4 step guard, the time grid and a Picard window
with q(T) < 1); both solvers raise the first of them before any work.
"""

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.fft  # numpy 2 loads it lazily: at import here, not inside a run

from .errors import (ConfigError, HorizonError, NumericError, StepSizeError,
                     _require_number, _require_reals, collect_violations, raise_first)
from .fields import DensityField
from .horizon import contraction_factor
from .kernels import KernelSpec, PotentialSpec, alpha as kernel_alpha, mean_phi
from .torus import Torus


# -- kernel tabulation -------------------------------------------------------


def _rfft(values, d):
    """Real FFT over the trailing d axes (rfft itself for d = 1: same bits, less overhead)."""
    if d == 1:
        return np.fft.rfft(values)
    return np.fft.rfftn(values, axes=tuple(range(values.ndim - d, values.ndim)))


def _irfft(spectrum, n, d):
    """Inverse of `_rfft` onto n cells per axis."""
    if d == 1:
        return np.fft.irfft(spectrum, n)
    return np.fft.irfftn(spectrum, s=(n,) * d,
                         axes=tuple(range(spectrum.ndim - d, spectrum.ndim)))


def check_support(spec, torus: Torus):
    """Raise GeometryError unless the spec has the torus's dimension and support < L/2."""
    torus.require_dim(spec)
    name = "potential" if isinstance(spec, PotentialSpec) else "kernel"
    torus.require_fits(spec.support_radius, f"{name} support", margin=2.0)


class TabulatedKernel:
    """A radial spec sampled on the grid, renormalized to its exact integral."""

    def __init__(self, spec, torus: Torus, n_cells: int):
        self.spec = spec
        self.torus = torus
        self.n = int(n_cells)
        d = torus.dim
        self.cell_volume = torus.cell_volume(self.n)
        check_support(spec, torus)
        dist = torus.offset_distances(self.n)
        tab = np.asarray(spec.radial(dist), dtype=float)
        tab[dist > spec.support_radius] = 0.0
        target = spec.integral
        s = tab.sum() * self.cell_volume
        if s > 0.0:
            tab *= target / s
        elif target > 0.0:
            # support narrower than a cell (includes local(kappa)): lump the
            # whole mass at zero offset, i.e. convolution becomes target * rho
            tab[(0,) * d] = target / self.cell_volume
        self.values = tab
        self.is_pow2 = self.n & (self.n - 1) == 0  # bench/tracing.py names its leaf by it
        self.fft = _rfft(tab, d)

    def convolve(self, values):
        """Circular convolution (kernel * values) * cell_volume, by FFT.

        `values` may carry extra leading axes (e.g. a time stack); the
        convolution acts on the trailing spatial axes.
        """
        return _convolved(values, self, self.fft)


def _convolve_direct(tab: TabulatedKernel, values):
    """`tab.convolve(values)` by explicit minimal-image summation over the
    nonzero kernel entries: the independent route of `vlasov_first_order`."""
    axes = tuple(range(values.ndim - tab.torus.dim, values.ndim))
    out = np.zeros_like(values, dtype=float)
    for shift in zip(*np.nonzero(tab.values)):
        out += tab.values[shift] * np.roll(values, shift=shift, axis=axes)
    return out * tab.cell_volume


@functools.lru_cache(maxsize=64)
def tabulate(spec, torus: Torus, n_cells: int) -> TabulatedKernel:
    return TabulatedKernel(spec, torus, n_cells)


# -- right-hand side ---------------------------------------------------------


def _tabs_for(rho, kernel, potential, lead=0):
    """(tab_a, spectra, kappa) for fields with `lead` leading axes; spectra
    stacks [a^; phi^] (a^ alone for local(kappa)). Built per solve, never
    cached on one kernel: a kernel meets many potentials."""
    tab_a = tabulate(kernel, rho.torus, rho.n_cells)
    local = potential.family == "local"
    tabs = [tab_a] if local else [tab_a, tabulate(potential, rho.torus, rho.n_cells)]
    spectra = np.stack([t.fft for t in tabs])
    spectra = spectra.reshape(spectra.shape[:1] + (1,) * lead + spectra.shape[1:])
    return tab_a, spectra, potential.kappa if local else None


def _convolved(values, tab_a, spectra):
    """[a * values; phi * values] from one forward transform and one batched inverse."""
    d = tab_a.torus.dim
    return _irfft(_rfft(values, d) * spectra, tab_a.n, d) * tab_a.cell_volume


def _rhs_values(values, tab_a, spectra, local_kappa):
    conv = _convolved(values, tab_a, spectra)
    w = local_kappa * values if local_kappa is not None else conv[1]
    g = np.exp(-w)
    return conv[0] * g - values * _convolved(g, tab_a, spectra[0])


def kinetic_rhs(rho: DensityField, kernel: KernelSpec, potential: PotentialSpec) -> np.ndarray:
    """(a * rho) e^{-(phi * rho)} - rho (a * e^{-(phi * rho)}) on the grid."""
    return _rhs_values(rho.values, *_tabs_for(rho, kernel, potential))


def vlasov_first_order(rho: DensityField, kernel: KernelSpec,
                       potential: PotentialSpec) -> np.ndarray:
    """First-order action of the limiting hierarchy on the product state.

    For a product (Poissonian) ansatz the configuration-space integrals of
    the hierarchy generator collapse to exp(-(phi * rho)), leaving a gain
    term (a * rho)(y) e^{-(phi*rho)(y)} and a loss term
    rho(x) (a * e^{-(phi*rho)})(x). Chaos propagation says this equals
    kinetic_rhs identically; this implementation goes through direct
    minimal-image summation so the identity compares two numerical routes.
    """
    tab_a = tabulate(kernel, rho.torus, rho.n_cells)
    vals = rho.values
    if potential.family == "local":
        w = potential.kappa * vals
    else:
        w = _convolve_direct(tabulate(potential, rho.torus, rho.n_cells), vals)
    escape = np.exp(-w)
    gain = _convolve_direct(tab_a, vals) * escape
    loss = vals * _convolve_direct(tab_a, escape)
    return gain - loss


# -- RK4 marching ------------------------------------------------------------

_CLAMP_FLOOR = -1e-13


def check_dt(dt: float, alpha: float):
    """The RK4 stability guard: raise ConfigError unless dt is finite, 0 < dt <= 0.1 / alpha."""
    if _require_number("dt", dt, 0, strict=True) > 0.1 / alpha * (1. + 1e-12):
        raise ConfigError(
            f"dt={dt:g} violates the stability guard dt <= 0.1/alpha = {0.1 / alpha:g}"
        )


def _time_grid(t_end: float, dt: float):
    """(n, t_end / n) of the grid both solvers march on: n = max(1, round(t_end / dt))
    steps; ConfigError when t_end / dt is not finite, as dt is too small."""
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ConfigError(f"dt={dt:g} is too small for t_end={t_end:g}")
    n_steps = max(1, int(round(ratio)))
    return n_steps, t_end / n_steps


def snapshot_steps(times, t_end: float, dt: float) -> list:
    """Step index k of each time s on `_time_grid(t_end, dt)`, t_end finite
    and >= 0; s must lie within 1e-9 of k * t_end / n with 0 <= k <= n.
    """
    _require_number("t_end", t_end, 0)
    n_steps, h = _time_grid(t_end, dt)
    steps = []
    for s in _require_reals("snapshot_times", times):
        s = _require_number("snapshot_times", s)
        k = int(round(s / h)) if h and math.isfinite(s / h) else 0
        if abs(k * h - s) > 1e-9 or not 0 <= k <= n_steps:
            raise ConfigError(
                f"snapshot time {s} is not on the dt grid over [0, {t_end:g}]")
        steps.append(k)
    return steps


def violations(rho0: DensityField, kernel: KernelSpec, potential: PotentialSpec,
               dt: float, t_end: float, snapshot_times=(), method: str = "rk4") -> list:
    """An error for every rule a solve from rho0 on [0, t_end] breaks, in order:
    check_support of both specs (GeometryError), check_dt, snapshot_steps, and
    for Picard t_end > 0 and q(t_end) < 1 (HorizonError); a rule whose inputs
    an earlier one rejected is skipped."""
    a = kernel_alpha(kernel)
    found = collect_violations(lambda: check_support(kernel, rho0.torus),
                               lambda: check_support(potential, rho0.torus),
                               lambda: check_dt(dt, a))
    if not collect_violations(lambda: _require_number("dt", dt, 0, strict=True)):
        found += collect_violations(lambda: snapshot_steps(snapshot_times, t_end, dt))
    if method == "picard" and not t_end > 0:
        found.append(ConfigError(f"Picard window needs t_end > 0, got {t_end:g}"))
    elif method == "picard" and math.isfinite(t_end):
        try:
            q = contraction_factor(rho0.sup, a, mean_phi(potential), t_end)
            if not q < 1.0:
                shown = f"{q:.4e}" if q >= 1e6 else f"{q:.4f}"  # a huge q has 300 digits
                raise HorizonError(f"contraction factor q(T)={shown} >= 1 on [0, {t_end:g}]")
        except HorizonError as exc:
            found.append(HorizonError(f"Picard window not certified: {exc}"))
    return found


def _rk4_once(values, dt, ops):
    k1 = _rhs_values(values, *ops)
    k2 = _rhs_values(values + 0.5 * dt * k1, *ops)
    k3 = _rhs_values(values + 0.5 * dt * k2, *ops)
    k4 = _rhs_values(values + dt * k3, *ops)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(eq=False)
class KineticTrajectory:
    """Stored solver history: per-step scalar monitors plus snapshot fields."""

    torus: Torus
    kernel: KernelSpec
    potential: PotentialSpec
    dt: float
    alpha: float
    times: np.ndarray
    sup_norms: np.ndarray
    min_pre_clamp: np.ndarray
    masses: np.ndarray
    snapshot_times: tuple
    snapshot_fields: list
    final: DensityField

    def snapshot_at(self, time: float) -> DensityField:
        for s, f in zip(self.snapshot_times, self.snapshot_fields):
            if abs(s - time) <= 1e-9:
                return f
        raise KeyError(f"no snapshot stored at t={time}")


def solve_kinetic(rho0: DensityField, kernel: KernelSpec, potential: PotentialSpec,
                  dt: float, t_end: float, snapshot_times=()) -> KineticTrajectory:
    """March the kinetic equation with RK4 on a uniform grid.

    dt is adjusted to the nearest value dividing t_end exactly; snapshot
    times must lie on the resulting grid (to 1e-9). Raises the first of `violations`.
    """
    raise_first(violations(rho0, kernel, potential, dt, t_end, snapshot_times))
    a = kernel_alpha(kernel)
    n_steps, dt_eff = _time_grid(t_end, dt) if t_end > 0 else (0, dt)
    ops = _tabs_for(rho0, kernel, potential)

    sts = tuple(sorted(snapshot_times))
    snap_idx = {}
    for s, k in zip(sts, snapshot_steps(sts, t_end, dt)):
        snap_idx.setdefault(k, []).append(s)

    vals = rho0.values.copy()
    times = np.empty(n_steps + 1)
    sups = np.empty(n_steps + 1)
    lows = np.empty(n_steps + 1)
    masses = np.empty(n_steps + 1)
    cellvol = rho0.cell_volume
    snaps = {}

    def record(k):
        times[k] = k * dt_eff
        sups[k] = vals.max()
        masses[k] = vals.sum() * cellvol
        for s in snap_idx.get(k, ()):
            snaps[s] = DensityField(rho0.torus, vals.copy())

    lows[0] = float(rho0.values.min())
    record(0)
    for k in range(1, n_steps + 1):
        vals = _rk4_once(vals, dt_eff, ops)
        low = float(vals.min())
        if low < _CLAMP_FLOOR:
            raise StepSizeError(
                f"negativity {low:.3e} at t={k * dt_eff:g}; reduce dt below {dt_eff:g}"
            )
        if low < 0.0:
            vals = np.maximum(vals, 0.0)
        lows[k] = low
        record(k)

    return KineticTrajectory(
        torus=rho0.torus, kernel=kernel, potential=potential, dt=dt_eff,
        alpha=a, times=times, sup_norms=sups, min_pre_clamp=lows, masses=masses,
        snapshot_times=sts, snapshot_fields=[snaps[s] for s in sts],
        final=DensityField(rho0.torus, vals),
    )


# -- bound monitors ----------------------------------------------------------


@dataclass
class BoundReport:
    """Outcome of the a-priori bound checks along a solver trajectory."""

    ok: bool
    u0: float
    alpha: float
    local_mode: bool
    violations: list = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


_BOUND_RTOL = 1e-9  # relative slack of the growth and invariant-region bounds


def monitor_bounds(traj: KineticTrajectory) -> BoundReport:
    """Check the growth, invariant-region, positivity, and (in local mode)
    maximum-principle bounds at every stored step."""
    if len(traj.times) == 0:
        raise ConfigError("empty trajectory")
    u0 = float(traj.sup_norms[0])
    a = traj.alpha
    local = traj.potential.family == "local"
    report = BoundReport(ok=True, u0=u0, alpha=a, local_mode=local)

    def violate(kind, time, margin):
        report.ok = False
        report.violations.append({"kind": kind, "time": float(time),
                                  "margin": float(margin)})

    for t, u, low in zip(traj.times, traj.sup_norms, traj.min_pre_clamp):
        grow = u0 * math.exp(a * t) * (1.0 + _BOUND_RTOL)
        if u > grow:
            violate("growth", t, u - grow)
        eat = math.exp(a * t)
        if eat < 2.0:
            inv = u0 / (2.0 - eat) * (1.0 + _BOUND_RTOL)
            if u > inv:
                violate("invariant-region", t, u - inv)
        if local and u > u0 + 1e-6:
            violate("maximum-principle", t, u - (u0 + 1e-6))
        if low < _CLAMP_FLOOR:
            violate("positivity", t, _CLAMP_FLOOR - low)
    return report


# -- Picard iteration of the integral form ------------------------------------


@dataclass(eq=False)
class PicardResult:
    """Fixed-point iteration history and the converged time slab."""

    torus: Torus
    dt: float
    times: np.ndarray
    fields: np.ndarray  # shape (n_steps + 1, *grid)
    deltas: list
    ratios: list
    q_bound: float
    iterations: int

    @property
    def final(self) -> DensityField:
        return DensityField(self.torus, self.fields[-1])


# Picard builds its integrand over at most this many cells at a time, so that a
# block's transforms and temporaries stay in cache, as simulator._QUERY_TERMS
# bounds an energy query. pocketfft transforms each time row on its own, so the
# block size changes no bit of the result.
_BLOCK_CELLS = 1 << 15


def _picard_integrand(values, tab_a, spectra, kappa, half_dt):
    """half_dt [(a * rho) g + rho (a * (1 - g))], g = e^{-(phi * rho)}, on a
    block of time rows, built in place."""
    conv = _convolved(values, tab_a, spectra)
    gain, g = conv[0], (conv[1] if kappa is None else kappa * values)
    np.exp(np.negative(g, out=g), out=g)
    gain *= g
    out = _convolved(np.subtract(1.0, g, out=g), tab_a, spectra[0])
    out *= values
    out += gain
    out *= half_dt
    return out


def picard_solve(rho0: DensityField, T: float, kernel: KernelSpec,
                 potential: PotentialSpec, tolerance: float = 1e-10,
                 dt: float = None, max_iter: int = 200) -> PicardResult:
    """Iterate the integral form on [0, T]; requires a certified window.

    Raises the first of `violations`: q(T) for sup-norm-u0 data must be below
    one, and dt (by default min(0.1 / alpha, T / 16)) within the RK4 guard.
    Iteration stops once the sup-over-time sup-norm update is below
    `tolerance`; the update sizes and their successive ratios are reported.
    """
    _require_number("T", T)
    tolerance = _require_number("tolerance", tolerance, 0, strict=True)
    max_iter = _require_number("max_iter", max_iter, 1, integer=True)
    a = kernel_alpha(kernel)
    if dt is None:
        dt = min(0.1 / a, T / 16.0) if T > 0 else 0.1 / a
    raise_first(violations(rho0, kernel, potential, dt, T, method="picard"))
    q = contraction_factor(rho0.sup, a, mean_phi(potential), T)
    n_steps, dt = _time_grid(T, dt)
    tab_a, spectra, kappa = _tabs_for(rho0, kernel, potential, lead=1)

    times = np.arange(n_steps + 1) * dt
    shape = rho0.values.shape
    cur = np.broadcast_to(rho0.values, (n_steps + 1,) + shape).copy()
    decay = np.exp(-a * times).reshape((-1,) + (1,) * len(shape))
    decay_dt = math.exp(-a * dt)

    rows = max(1, _BLOCK_CELLS // rho0.values.size)
    # one block's new rows, reused: a fresh block per block let the allocator
    # trim and re-fault the heap top (~20k page faults in a new process)
    buf = np.empty((min(rows, n_steps + 1),) + shape)

    deltas, ratios = [], []
    for it in range(1, max_iter + 1):
        # the one stack cur is updated in place a block of time rows at a time:
        # the integrand of the old rows is folded into the exact-decay trapezoid
        # recursion for int_0^t e^{-alpha (t-s)} G_s ds, then the new rows
        # overwrite the old. Later blocks read only their own rows, so this is
        # still a Jacobi sweep. prev is row k - 1's integrand; np.maximum keeps
        # a NaN from any block in the update size
        acc = np.zeros(shape)
        delta = 0.0
        for start in range(0, n_steps + 1, rows):
            old = cur[start:start + rows]
            block = _picard_integrand(old, tab_a, spectra, kappa, 0.5 * dt)
            new = np.multiply(rho0.values[None], decay[start:start + rows],
                              out=buf[:len(old)])
            for k, row in enumerate(block, start):
                if k:
                    acc += prev
                    acc *= decay_dt
                    acc += row
                    new[k - start] += acc
                prev = row
            diff = np.subtract(new, old, out=old)
            delta = np.maximum(delta, np.abs(diff, out=diff).max())
            old[...] = new
        deltas.append(float(delta))
        if len(deltas) > 1 and deltas[-2] > 0:
            ratios.append(deltas[-1] / deltas[-2])
        if delta < tolerance:
            return PicardResult(torus=rho0.torus, dt=dt, times=times, fields=cur,
                                deltas=deltas, ratios=ratios, q_bound=q, iterations=it)
    err = NumericError(f"Picard iteration did not reach {tolerance:g} in {max_iter} sweeps")
    err.deltas = deltas
    raise err
