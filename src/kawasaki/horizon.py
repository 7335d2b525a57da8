"""Analytic well-posedness certificates.

Closed-form estimates for the correlation-function evolution in the scale of
weighted sup-norm spaces indexed by theta:

* ``existence_horizon``: the guaranteed lifetime
  T(theta) = (theta0 - theta) / (2 alpha) * exp(-c_phi * e^{-theta})
  of the evolution started in the theta0-space and observed in the
  theta-space (theta <= theta0).
* ``theta_of_t``: the generalized inverse sup{theta <= theta0 : t < T(theta)},
  computed on the branch adjacent to theta0 (the sup picks the larger of the
  two preimages when T is past its maximum T_*).
* ``op_norm_bound``: the two-space operator norm bound
  2 alpha / (e (theta'' - theta')) * exp(c * e^{-theta''}), with c = c_phi
  for the bare generator and c = <phi> for the scaling-uniform and limiting
  variants.
* ``contraction_factor``: the Picard factor
  q(T) = 2 (1 - e^{-alpha T}) (1 + <phi> u0 exp(alpha T + 2 <phi> u0 e^{alpha T})),
  valid on windows with e^{alpha T} < 2; q(T) < 1 certifies geometric
  convergence of the integral-equation iteration with sup-norm-u0 data.

All root finding is plain bisection on monotone branches. The maximizer
theta_* is where dT/dtheta changes sign: it is bisected on the sign of
(theta0 - theta) c_phi e^{-theta} - 1 down to adjacent floats, so it is fixed
to its last bits although T is flat at its maximum. theta(t) and the window
of find_T_for_q are bisected down to adjacent floats too, through the same
helper.

A product c e^x past the float range saturates to inf (`_scaled_exp`), so
T(theta) is 0 where c_phi e^{-theta} overflows, and the norm bound and q(T)
are inf where they overflow.

`violations` lists every rule a `horizon_report` request breaks (theta <=
theta0, t >= 0, and q(T) windows T >= 0 with e^{alpha T} < 2 and a <phi>);
`horizon_report` raises the first of them before it computes anything.
"""

import math
from dataclasses import dataclass, field

from .errors import (ConfigError, HorizonError, NumericError, collect_violations,
                     raise_first)


def _bisect(below, lo, hi):
    """Bisect [lo, hi], where below(lo) holds and below(hi) does not, down to
    two adjacent floats, and return them."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if below(mid):
            lo = mid
        else:
            hi = mid


def _scaled_exp(c, x):
    """c e^x for c >= 0: 0.0 for c = 0, and inf where it is past the float range."""
    if c == 0.0:
        return 0.0
    try:
        return c * math.exp(x)
    except OverflowError:  # e^x is past the float range; c e^x need not be
        try:
            return math.exp(math.log(c) + x)
        except OverflowError:
            return math.inf


def _check_time(name, t):
    if not t >= 0:
        raise ConfigError(f"{name} must be >= 0, got {t}")


def existence_horizon(theta0: float, theta: float, alpha: float, c_phi: float) -> float:
    """Guaranteed lifetime T(theta) of the evolution entering the theta-space."""
    if not theta <= theta0:
        raise ConfigError(f"theta ({theta}) must be <= theta0 ({theta0})")
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if c_phi < 0:
        raise ConfigError(f"c_phi must be >= 0, got {c_phi}")
    return (theta0 - theta) / (2.0 * alpha) * math.exp(-_scaled_exp(c_phi, -theta))


def t_star(theta0: float, alpha: float, c_phi: float):
    """Maximum of T(.) over (-inf, theta0]: returns (T_*, argmax theta_*).

    For c_phi = 0 the horizon grows without bound as theta decreases, so
    T_* = inf with no finite maximizer.
    """
    if c_phi == 0.0:
        return math.inf, -math.inf

    def g(th):
        # has the sign of dT/dtheta and decreases in theta
        return _scaled_exp((theta0 - th) * c_phi, -th) - 1.0

    # expand left until the bracket contains the root
    width = 1.0
    while g(theta0 - width) <= 0.0:
        width *= 2.0
        if width > 1e8:
            raise NumericError("failed to bracket the horizon maximum")
    lo, hi = _bisect(lambda th: g(th) > 0.0, theta0 - width, theta0)
    th = lo if abs(g(lo)) <= abs(g(hi)) else hi
    return existence_horizon(theta0, th, alpha, c_phi), th


def theta_of_t(theta0: float, alpha: float, c_phi: float, t: float):
    """sup{theta <= theta0 : t < T(theta)}, or None when t >= T_*."""
    _check_time("t", t)
    if t == 0.0:
        return theta0
    if c_phi == 0.0:
        # T(theta) = (theta0 - theta) / (2 alpha) is strictly decreasing
        return theta0 - 2.0 * alpha * t
    T_max, th_max = t_star(theta0, alpha, c_phi)
    if t >= T_max:
        return None
    # T decreases from T_* to 0 on this branch; lo is the last float with T > t
    return _bisect(lambda th: existence_horizon(theta0, th, alpha, c_phi) > t,
                   th_max, theta0)[0]


def op_norm_bound(theta_pp: float, theta_p: float, alpha: float, c: float) -> float:
    """Two-space norm bound 2 alpha / (e (theta'' - theta')) * exp(c e^{-theta''}).

    `c` is c_phi for the bare generator and <phi> for the scaling-uniform and
    limiting generators, which share the same closed form.
    """
    if not theta_pp > theta_p:
        raise ConfigError(f"need theta'' > theta', got {theta_pp} <= {theta_p}")
    if alpha <= 0 or c < 0:
        raise ConfigError("need alpha > 0 and c >= 0")
    return _scaled_exp(2.0 * alpha / (math.e * (theta_pp - theta_p)),
                       _scaled_exp(c, -theta_pp))


def contraction_factor(u0: float, alpha: float, mean_phi: float, T: float) -> float:
    """Picard contraction factor q(T) on [0, T]; requires e^{alpha T} < 2."""
    _check_time("T", T)
    if u0 < 0 or mean_phi < 0 or alpha <= 0:
        raise ConfigError("need u0 >= 0, <phi> >= 0, alpha > 0")
    if alpha * T >= math.log(2.0):
        raise HorizonError(
            f"window too long: exp(alpha T) = {_scaled_exp(1.0, alpha * T):g} >= 2, "
            "the invariant-region constant u0 / (2 - e^{alpha T}) degenerates"
        )
    eat = math.exp(alpha * T)
    growth = _scaled_exp(mean_phi * u0, alpha * T + 2.0 * mean_phi * u0 * eat)
    if growth == math.inf:  # q saturates on every window but the empty one
        return math.inf if T > 0 else 0.0
    return 2.0 * (1.0 - math.exp(-alpha * T)) * (1.0 + growth)


def find_T_for_q(q_target: float, u0: float, alpha: float, mean_phi: float) -> float:
    """Window length T with q(T) = q_target to 1e-10, by bisection; q_target in (0, 1)."""
    if not 0.0 < q_target < 1.0:
        raise ConfigError(f"q_target must be in (0, 1), got {q_target}")
    lo = 0.0
    hi = math.log(2.0) / alpha * (1.0 - 1e-12)
    if contraction_factor(u0, alpha, mean_phi, hi) < q_target:
        raise NumericError("q stays below the target on the admissible window")
    lo, hi = _bisect(lambda T: contraction_factor(u0, alpha, mean_phi, T) < q_target,
                     lo, hi)
    T = 0.5 * (lo + hi)
    if abs(contraction_factor(u0, alpha, mean_phi, T) - q_target) > 1e-10:
        raise NumericError("bisection for q(T) did not reach tolerance")
    return T


@dataclass
class HorizonReport:
    """Bundle of analytic certificates for one model parameterization."""

    theta0: float
    alpha: float
    c_phi: float
    mean_phi: float = None
    theta: float = None
    T_of_theta: float = None
    T_star: float = None
    theta_star: float = None
    theta_of_t: dict = field(default_factory=dict)
    norm_bound: float = None
    u0: float = None
    q_of_T: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {k: {str(kk): vv for kk, vv in v.items()} if isinstance(v, dict) else v
                for k, v in self.__dict__.items()}


def violations(theta0, alpha, c_phi, mean_phi=None, theta=None, times=(), u0=1.0,
               windows=()) -> list:
    """An error for every rule the `horizon_report` request breaks, in order:
    those of T(theta) (of T(theta0) with no theta), t >= 0, and for q(T)
    windows a mean_phi and the rules of contraction_factor at the first bad one."""
    found = collect_violations(
        lambda: existence_horizon(theta0, theta0 if theta is None else theta, alpha, c_phi),
        lambda: [_check_time("t", t) for t in times])
    if windows and mean_phi is None:
        found.append(ConfigError("q(T) windows need mean_phi"))
    elif windows:
        found += collect_violations(
            lambda: [contraction_factor(u0, alpha, mean_phi, T) for T in windows])
    return found


def horizon_report(theta0, alpha, c_phi, mean_phi=None, theta=None, times=(),
                   u0=1.0, windows=()) -> HorizonReport:
    """Evaluate the full certificate set for one model.

    `times` requests theta(t) entries; `windows` requests q(T) entries (these
    need mean_phi). The norm bound is reported for the gap (theta0 - 1, theta0)
    in the bare variant. Raises the first of `violations`.
    """
    raise_first(violations(theta0, alpha, c_phi, mean_phi=mean_phi, theta=theta,
                           times=times, u0=u0, windows=windows))
    rep = HorizonReport(theta0=theta0, alpha=alpha, c_phi=c_phi, mean_phi=mean_phi,
                        theta=theta, u0=u0)
    T_max, th_max = t_star(theta0, alpha, c_phi)
    rep.T_star, rep.theta_star = T_max, th_max
    if theta is not None:
        rep.T_of_theta = existence_horizon(theta0, theta, alpha, c_phi)
    for t in times:
        rep.theta_of_t[t] = theta_of_t(theta0, alpha, c_phi, t)
    rep.norm_bound = op_norm_bound(theta0, theta0 - 1.0, alpha, c_phi)
    for T in windows:
        rep.q_of_T[T] = contraction_factor(u0, alpha, mean_phi, T)
    return rep
