import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import kawasaki
from kawasaki import horizon
from kawasaki import (ConfigError, HorizonError, NumericError,
                      contraction_factor, existence_horizon, find_T_for_q,
                      horizon_report, op_norm_bound, t_star, theta_of_t)

REPO = pathlib.Path(__file__).resolve().parents[1]


def T_ref(theta0, theta, alpha, c):
    return (theta0 - theta) / (2.0 * alpha) * math.exp(-c * math.exp(-theta))


def q_ref(u0, alpha, mphi, T):
    return 2.0 * (1.0 - math.exp(-alpha * T)) * (
        1.0 + mphi * u0 * math.exp(alpha * T + 2.0 * mphi * u0 * math.exp(alpha * T)))


# -- existence horizon -----------------------------------------------------------

def test_horizon_zero_at_theta0():
    assert existence_horizon(0.3, 0.3, 2.0, 1.5) == 0.0


def test_horizon_worked_value():
    # (1/2) e^{-e} evaluated to high precision
    assert existence_horizon(0.0, -1.0, 1.0, 1.0) == pytest.approx(
        0.032994017922656254, abs=1e-12)


def test_horizon_matches_reference_formula_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        theta0 = float(rng.uniform(-2, 2))
        theta = theta0 - float(rng.uniform(0, 3))
        alpha = float(rng.uniform(0.1, 5))
        c = float(rng.uniform(0, 3))
        assert existence_horizon(theta0, theta, alpha, c) == pytest.approx(
            T_ref(theta0, theta, alpha, c), rel=1e-14)


def test_horizon_alpha_homogeneity():
    a = existence_horizon(0.0, -1.0, 1.0, 1.0)
    b = existence_horizon(0.0, -1.0, 2.0, 1.0)
    assert a == 2.0 * b


def test_horizon_vanishes_far_left():
    assert existence_horizon(0.0, -50.0, 1.0, 1.0) <= 1e-12


def test_horizon_decreases_with_alpha():
    vals = [existence_horizon(0.0, -0.5, a, 1.0) for a in (0.5, 1.0, 2.0, 4.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_horizon_rejects_theta_above_theta0():
    with pytest.raises(ConfigError):
        existence_horizon(0.0, 0.5, 1.0, 1.0)


# -- T_star and theta(t) ------------------------------------------------------------

def test_t_star_matches_scipy_oracle():
    theta0, alpha, c = 0.0, 1.0, 1.0
    res = minimize_scalar(lambda th: -T_ref(theta0, th, alpha, c),
                          bounds=(-10.0, 0.0), method="bounded",
                          options={"xatol": 1e-12})
    T_max, th_max = t_star(theta0, alpha, c)
    assert T_max == pytest.approx(-res.fun, rel=1e-10)
    assert th_max == pytest.approx(res.x, abs=1e-6)
    # stationarity condition (theta0 - theta) c e^{-theta} = 1 at the maximizer,
    # which is bisected on that condition rather than on the flat T
    assert (theta0 - th_max) * c * math.exp(-th_max) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("theta0", [-2.0, 0.0, 1.0, 5.0])
@pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 7.0, 100.0])
def test_t_star_maximizer_is_within_a_float_of_the_root(theta0, c):
    _, th = t_star(theta0, 1.0, c)
    g = (theta0 - th) * c * math.exp(-th) - 1.0
    slope = c * math.exp(-th) * (1.0 + theta0 - th)  # -dg/dtheta
    assert abs(g) <= slope * np.spacing(abs(th)) + 4 * np.finfo(float).eps


def test_t_star_moves_a_few_ulps_with_one_ulp_of_c_phi():
    c = 0.6321205588285576  # the kinetic-grids top-hat c_phi, then one ulp up
    assert np.nextafter(c, 1.0) == 0.6321205588285577
    (T_a, th_a), (T_b, th_b) = t_star(0.0, 2.0, c), t_star(0.0, 2.0, np.nextafter(c, 1.0))
    assert abs(th_b - th_a) <= 4 * np.spacing(abs(th_a))
    assert abs(T_b - T_a) <= 4 * np.spacing(T_a)


def test_theta_of_t_moves_a_few_ulps_with_one_ulp_of_c_phi():
    c = 0.6321205588285576  # the kinetic-grids top-hat c_phi, then one ulp up
    T_max, _ = t_star(0.0, 2.0, c)
    for frac in (0.01, 0.25, 0.5, 0.9):
        t = frac * T_max
        th_a, th_b = theta_of_t(0.0, 2.0, c, t), theta_of_t(0.0, 2.0, np.nextafter(c, 1.0), t)
        assert abs(th_b - th_a) <= 4 * np.spacing(abs(th_a)), frac
        # the last float of the branch with T > t, whatever the bracket's start
        assert existence_horizon(0.0, th_a, 2.0, c) > t
        assert existence_horizon(0.0, np.nextafter(th_a, 1.0), 2.0, c) <= t


def test_t_star_infinite_without_potential():
    T_max, th_max = t_star(0.0, 1.0, 0.0)
    assert math.isinf(T_max)


def test_exponentials_past_the_float_range_saturate():
    # e^{-theta} overflows: T(theta) is (theta0 - theta) / (2 alpha) without a
    # potential, 0 where c_phi e^{-theta} overflows too, and exact where it does not
    assert math.isfinite(t_star(0.0, 2.0, 1e-300)[0])
    assert existence_horizon(0.0, -1000.0, 2.0, 0.0) == 250.0
    assert existence_horizon(0.0, -1000.0, 2.0, 1.26) == 0.0
    assert existence_horizon(0.0, -710.0, 2.0, 5e-324) == pytest.approx(177.5)
    assert contraction_factor(1e300, 2.0, 2.0, 0.01) == math.inf
    assert contraction_factor(1e300, 2.0, 2.0, 0.0) == 0.0


def test_theta_of_t_at_zero_is_theta0():
    assert theta_of_t(0.7, 2.0, 1.3, 0.0) == 0.7


def test_theta_of_t_no_potential_closed_form():
    assert theta_of_t(0.5, 2.0, 0.0, 0.3) == pytest.approx(0.5 - 2 * 2.0 * 0.3)


def test_theta_of_t_beyond_t_star_is_none():
    T_max, _ = t_star(0.0, 1.0, 1.0)
    assert theta_of_t(0.0, 1.0, 1.0, T_max) is None
    assert theta_of_t(0.0, 1.0, 1.0, 2.0 * T_max) is None


def test_theta_of_t_near_t_star_approaches_maximizer():
    T_max, th_max = t_star(0.0, 1.0, 1.0)
    th = theta_of_t(0.0, 1.0, 1.0, T_max * (1 - 1e-6))
    assert abs(th - th_max) <= 0.05


def test_theta_of_t_non_increasing():
    theta0, alpha, c = 0.0, 1.0, 1.0
    T_max, _ = t_star(theta0, alpha, c)
    grid = np.linspace(0.0, T_max * 0.999, 20)
    vals = [theta_of_t(theta0, alpha, c, t) for t in grid]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-10


def test_theta_of_t_is_generalized_inverse():
    theta0, alpha, c = 0.2, 1.5, 0.8
    T_max, _ = t_star(theta0, alpha, c)
    for frac in (0.1, 0.5, 0.9, 0.999):
        t = frac * T_max
        th = theta_of_t(theta0, alpha, c, t)
        assert existence_horizon(theta0, th, alpha, c) >= t - 1e-9
        if th + 1e-9 <= theta0:
            assert existence_horizon(theta0, th + 1e-9, alpha, c) < t + 1e-6


# -- operator norm bound --------------------------------------------------------------

def test_op_norm_bound_cancellation_case():
    assert op_norm_bound(0.0, -1.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_op_norm_bound_blows_up_as_gap_closes():
    assert op_norm_bound(0.0, -1e-6, 1.0, 1.0) > 1e6


def test_op_norm_bound_validation():
    with pytest.raises(ConfigError):
        op_norm_bound(0.0, 0.0, 1.0, 1.0)


# -- contraction factor ----------------------------------------------------------------

def test_q_zero_window():
    assert contraction_factor(1.0, 1.0, 1.0, 0.0) == 0.0


def test_q_worked_value():
    assert contraction_factor(1.0, 1.0, 1.0, 0.01) == pytest.approx(0.171439, abs=1e-5)
    assert contraction_factor(1.0, 1.0, 1.0, 0.01) == pytest.approx(
        q_ref(1.0, 1.0, 1.0, 0.01), rel=1e-14)


def test_q_strictly_increasing():
    grid = np.linspace(0.0, 0.6, 25)
    vals = [contraction_factor(1.0, 1.0, 1.0, t) for t in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_q_window_too_long():
    with pytest.raises(HorizonError):
        contraction_factor(1.0, 1.0, 1.0, math.log(2.0))


def test_q_head_is_exact_below_the_float_epsilon():
    # 1 - e^{-alpha T} by subtraction is 0 for alpha T below ~1.1e-16, so q(T)
    # would be 0 there whatever the data; the head is alpha T
    assert contraction_factor(300.0, 1.0, 1.0, 1e-17) == pytest.approx(
        2e-17 * (1.0 + 300.0 * math.exp(600.0)), rel=1e-14)


def test_find_T_for_q_bisection():
    T = find_T_for_q(0.5, 1.0, 1.0, 1.0)
    assert abs(contraction_factor(1.0, 1.0, 1.0, T) - 0.5) <= 1e-10


def test_find_T_for_q_rejects_targets_outside_unit():
    with pytest.raises(ConfigError):
        find_T_for_q(1.2, 1.0, 1.0, 1.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, args", [
    (existence_horizon, (0.0, -1.0, NAN, 1.0)),
    (existence_horizon, (0.0, -1.0, 1.0, NAN)),
    (existence_horizon, (0.0, -1.0, INF, 1.0)),
    (existence_horizon, (0.0, -1.0, 1.0, INF)),
    (t_star, (0.0, 1.0, NAN)),
    (t_star, (0.0, INF, 1.0)),
    (t_star, (0.0, 1.0, INF)),
    (t_star, (0.0, NAN, 1.0)),
    (theta_of_t, (0.0, NAN, 0.0, 0.1)),
    (theta_of_t, (0.0, 1.0, NAN, 0.1)),
    (theta_of_t, (0.0, NAN, 1.0, 0.0)),
    (op_norm_bound, (0.0, -1.0, NAN, 1.0)),
    (op_norm_bound, (0.0, -1.0, 1.0, NAN)),
    (contraction_factor, (NAN, 1.0, 1.0, 0.01)),
    (contraction_factor, (1.0, NAN, 1.0, 0.01)),
    (contraction_factor, (1.0, 1.0, NAN, 0.01)),
    (contraction_factor, (0.0, 1.0, INF, 0.01)),
    (contraction_factor, (INF, 1.0, 1.0, 0.0)),
    (contraction_factor, (1.0, INF, 1.0, 0.0)),
    (find_T_for_q, (0.5, 1.0, 0.0, 1.0)),
    (find_T_for_q, (0.5, 1.0, INF, 1.0)),
    (find_T_for_q, (0.5, NAN, 1.0, 1.0)),
    (find_T_for_q, (0.5, 1.0, 1.0, NAN)),
    (horizon_report, (0.0, NAN, 1.0)),
    (horizon_report, (0.0, 1.0, NAN)),
    (horizon_report, (0.0, INF, 1.0)),
], ids=["T alpha nan", "T c_phi nan", "T alpha inf", "T c_phi inf", "T* c_phi nan",
        "T* alpha inf", "T* c_phi inf", "T* alpha nan",
        "theta(t) alpha nan without potential", "theta(t) c_phi nan",
        "theta(0) alpha nan", "norm alpha nan", "norm c nan", "q u0 nan", "q alpha nan",
        "q mean_phi nan", "q mean_phi inf without data", "q(0) u0 inf", "q(0) alpha inf",
        "window alpha 0", "window alpha inf", "window u0 nan", "window mean_phi nan",
        "report alpha nan", "report c_phi nan", "report alpha inf"])
def test_nan_and_inf_give_no_certificate(call, args):
    # computed, each would give a NaN, an infinite or a made-up certificate, or
    # divide by zero
    with pytest.raises(ConfigError):
        call(*args)


# -- report ------------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, error", [
    (dict(theta=1.0), ConfigError),
    (dict(times=(0.01, -1.0)), ConfigError),
    (dict(times=(math.nan,)), ConfigError),
    (dict(mean_phi=1.0, windows=(5.0,)), HorizonError),
    (dict(mean_phi=1.0, windows=(-1.0,)), ConfigError),
    (dict(mean_phi=-1.0, windows=(0.01,)), ConfigError),
    (dict(windows=(0.01,)), ConfigError),  # computed nothing before
], ids=["theta above theta0", "negative t", "nan t", "window too long", "negative window",
        "negative mean_phi", "windows without mean_phi"])
def test_horizon_report_raises_each_rule_before_computing(kwargs, error):
    with pytest.raises(error) as err:
        horizon_report(0.0, 1.0, 1.0, **kwargs)
    assert type(err.value) is error
    assert [str(e) for e in horizon.violations(0.0, 1.0, 1.0, **kwargs)] == [str(err.value)]


def test_horizon_violations_lists_every_rule():
    found = horizon.violations(0.0, 1.0, 1.0, mean_phi=1.0, theta=0.5, times=(-1.0,),
                               windows=(0.01, 5.0, 6.0))
    assert [type(e) for e in found] == [ConfigError, ConfigError, HorizonError]
    assert [str(e) for e in found[:2]] == ["theta (0.5) must be <= theta0 (0.0)",
                                           "t must be >= 0, got -1.0"]
    assert str(found[2]).startswith("window too long: exp(alpha T) = 148.413 >= 2")
    assert horizon.violations(0.0, 1.0, 1.0, mean_phi=1.0, theta=-1.0, times=(0.01,),
                              windows=(0.01,)) == []


def test_horizon_report_roundtrip():
    rep = horizon_report(0.0, 1.0, 1.0, mean_phi=1.0, theta=-1.0,
                         times=(0.01,), u0=1.0, windows=(0.01,))
    obj = rep.to_json()
    assert obj["T_of_theta"] == pytest.approx(0.032994017922656254, abs=1e-12)
    assert obj["q_of_T"]["0.01"] == pytest.approx(0.171439, abs=1e-5)
    assert obj["theta_of_t"]["0.01"] is not None
    assert obj["norm_bound"] == pytest.approx(2.0)


# -- demo ------------------------------------------------------------------------------

def test_horizon_certificates_demo_runs(tmp_path):
    # the demo is the one caller of c_phi outside the tests and the benchmark
    src = os.path.dirname(os.path.dirname(os.path.abspath(kawasaki.__file__)))
    run = subprocess.run([sys.executable, str(REPO / "demos" / "01_horizon_certificates.py")],
                         cwd=tmp_path, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
