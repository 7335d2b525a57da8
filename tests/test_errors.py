"""One table of the value rules: each scalar a library object holds or an
entry point takes, the values just outside its bound, and the CLI config
field that feeds it. Every value of a row is refused with a ConfigError by
the library and, through that field, by `validate`."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from kawasaki import (ConfigError, DensityField, GibbsSampler, KernelSpec, PotentialSpec,
                      SimulationParams, SweepSpec, Torus, calibrate_activity,
                      existence_horizon, map_chunks, picard_solve, solve_kinetic)
from kawasaki.cli import main

from test_cli import CONFIGS, write_json

TORUS = Torus(1, 20.0)
HAT = KernelSpec.top_hat(1.0)
POT = PotentialSpec.top_hat(1.0, 0.5)
PARAMS = SimulationParams(TORUS, HAT, POT, t_end=0.1)
SWEEP = dict(torus=TORUS, kernel=HAT, potential=POT, epsilons=(1.0, 0.5), rho0=0.5,
             times=(0.25,), r_edges=(0.0, 1.0, 2.0))
SPEC = {"family": "top_hat", "dim": 1, "radius": 0.5, "height": 1.0}
RHO = DensityField.constant(TORUS, 32, 0.5)
BELOW_ZERO = -math.ulp(0.0)

# what every number rule refuses
HUGE = 10**400  # past the float range
NOT_NUMBERS = (math.nan, math.inf, -math.inf, True, "1", HUGE)


class Scalar(float):
    """A number given where a list is due: `listed` passes it as it is."""


# what every rule on a list of numbers refuses: an element that is not a real
# number (the list's own rules word NaN, +-inf and out-of-range elements), or
# a scalar in place of the list
SCALAR = Scalar(0.5)
NOT_REALS = (True, "1", None, SCALAR)


def listed(value):
    """A list field's value that holds `value`, or a Scalar itself."""
    return value if isinstance(value, Scalar) else (value,)


def gibbs(**kw):
    return GibbsSampler(TORUS, POT, **{"activity": 1.0, "rng": np.random.default_rng(0),
                                       "initial_count": 5, **kw})


def calibrate(target_count=10.0, moves_per_round=30):
    return calibrate_activity(TORUS, POT, target_count, np.random.default_rng(0),
                              moves_per_round)


class Rule(NamedTuple):
    make: Callable  # value -> an object with violations(), or a call that raises
    outside: tuple  # the values just outside the bound
    cli: Callable = None  # value -> (subcommand, config change) of the field that feeds it
    bad: tuple = NOT_NUMBERS
    library_only: tuple = ()  # refused by the library; JSON 2.0 is read as the integer 2


DIMS = (0, 4, 1.5)
RULES = {
    "SweepSpec.n_traj_base": Rule(lambda v: SweepSpec(**SWEEP, n_traj_base=v), (0, 1.5),
                                  lambda v: ("scale-sweep", {"n_traj_base": v})),
    "SweepSpec.n_cells": Rule(lambda v: SweepSpec(**SWEEP, n_cells=v), (0, 1.5),
                              lambda v: ("scale-sweep", {"n_cells": v})),
    "SweepSpec.n_jobs": Rule(lambda v: SweepSpec(**SWEEP, n_jobs=v), (0, 1.5),
                             lambda v: ("scale-sweep", {"threads": v})),
    "SweepSpec.base_seed": Rule(lambda v: SweepSpec(**SWEEP, base_seed=v), (-1, 0.5),
                                lambda v: ("scale-sweep", {"seed": v})),
    "SweepSpec.budget_max_particles": Rule(
        lambda v: SweepSpec(**SWEEP, budget_max_particles=v), (0.0,),
        lambda v: ("scale-sweep", {"budget_max_particles": v})),
    "SimulationParams.epsilon": Rule(lambda v: SimulationParams(TORUS, HAT, POT, epsilon=v),
                                     (0.0,), lambda v: ("simulate", {"epsilon": v})),
    "SimulationParams.t_end": Rule(  # the snapshot rule is skipped, not broken
        lambda v: SimulationParams(TORUS, HAT, POT, t_end=v, snapshot_times=(0.0,)),
        (BELOW_ZERO,), lambda v: ("simulate", {"t_end": v})),
    "SimulationParams.rho0": Rule(lambda v: SimulationParams(TORUS, HAT, POT, rho0=v),
                                  (BELOW_ZERO,), lambda v: ("simulate", {"rho0": v})),
    "SimulationParams.snapshot_times": Rule(  # True lies in [0, t_end]
        lambda v: SimulationParams(TORUS, HAT, POT, t_end=2.0, snapshot_times=listed(v)), (),
        bad=NOT_REALS),
    "SweepSpec.epsilons": Rule(lambda v: SweepSpec(**{**SWEEP, "epsilons": listed(v)}), (),
                               bad=NOT_REALS),
    "SweepSpec.times": Rule(lambda v: SweepSpec(**{**SWEEP, "times": listed(v)}), (),
                            bad=NOT_REALS),
    "SimulationParams.record_events": Rule(
        lambda v: SimulationParams(TORUS, HAT, POT, record_events=v), (),
        lambda v: ("simulate", {"record_events": v}), bad=(math.nan, 1, 0, "true", None)),
    "KernelSpec.radius": Rule(lambda v: KernelSpec.top_hat(v), (0.0,),
                              lambda v: ("kinetic", {"kernel": {**SPEC, "radius": v}})),
    "KernelSpec.height": Rule(lambda v: KernelSpec.top_hat(1.0, v), (0.0,),
                              lambda v: ("kinetic", {"kernel": {**SPEC, "height": v}})),
    "KernelSpec.dim": Rule(lambda v: KernelSpec.top_hat(1.0, dim=v), DIMS,
                           lambda v: ("kinetic", {"kernel": {**SPEC, "dim": v}}),
                           library_only=(2.0,)),
    "PotentialSpec.height": Rule(lambda v: PotentialSpec.top_hat(1.0, v), (BELOW_ZERO,),
                                 lambda v: ("kinetic", {"potential": {**SPEC, "height": v}})),
    "PotentialSpec.kappa": Rule(lambda v: PotentialSpec.local(v), (BELOW_ZERO,),
                                lambda v: ("kinetic", {"potential": {"family": "local",
                                                                     "dim": 1, "kappa": v}})),
    "PotentialSpec.dim": Rule(lambda v: PotentialSpec.local(1.0, dim=v), DIMS,
                              lambda v: ("kinetic", {"potential": {**SPEC, "dim": v}}),
                              library_only=(2.0,)),
    "Torus.dim": Rule(lambda v: Torus(v, 20.0), DIMS,
                      lambda v: ("simulate", {"torus": {"dim": v, "side": 20.0}}),
                      library_only=(2.0,)),
    "Torus.side": Rule(lambda v: Torus(1, v), (0.0,),
                       lambda v: ("simulate", {"torus": {"dim": 1, "side": v}})),
    "GibbsSampler.activity": Rule(lambda v: gibbs(activity=v), (0.0,)),
    "GibbsSampler.initial_count": Rule(lambda v: gibbs(initial_count=v), (BELOW_ZERO,)),
    "GibbsSampler.run.n_moves": Rule(lambda v: gibbs().run(v), (-1, 0.5)),
    "existence_horizon.alpha": Rule(lambda v: existence_horizon(0.0, -1.0, v, 1.0), (0.0,),
                                    lambda v: ("horizon", {"alpha": v})),
    "existence_horizon.c_phi": Rule(lambda v: existence_horizon(0.0, -1.0, 1.0, v),
                                    (BELOW_ZERO,), lambda v: ("horizon", {"c_phi": v})),
    "map_chunks.n_trajectories": Rule(lambda v: map_chunks(PARAMS, v, 1, None), (0, 1.5),
                                      lambda v: ("simulate", {"n_traj": v})),
    "map_chunks.n_jobs": Rule(lambda v: map_chunks(PARAMS, 2, 1, None, n_jobs=v), (0, 1.5),
                              lambda v: ("simulate", {"threads": v})),
    "solve_kinetic.dt": Rule(  # the guard allows dt up to 5, so True = 1 would run
        lambda v: solve_kinetic(RHO, KernelSpec.top_hat(0.01), POT, v, 0.1), (0.0,),
                             lambda v: ("kinetic", {"dt": v})),
    "solve_kinetic.snapshot_times": Rule(
        lambda v: solve_kinetic(RHO, HAT, POT, 0.01, 0.1, listed(v)), (),
        lambda v: ("kinetic", {"snapshots": listed(v)}),
        bad=NOT_NUMBERS + (SCALAR,)),
    "picard_solve.T": Rule(lambda v: picard_solve(RHO, v, HAT, POT), ()),
    "picard_solve.tolerance": Rule(
        lambda v: picard_solve(RHO, 0.01, HAT, POT, tolerance=v), (0.0,),
        lambda v: ("kinetic", {"picard_tolerance": v, "method": "picard"})),
    "picard_solve.max_iter": Rule(
        lambda v: picard_solve(RHO, 0.01, HAT, POT, max_iter=v), (0, 2.5),
        lambda v: ("kinetic", {"picard_max_iter": v, "method": "picard"})),
    "calibrate_activity.target_count": Rule(lambda v: calibrate(target_count=v), (0.0,)),
    "calibrate_activity.moves_per_round": Rule(lambda v: calibrate(moves_per_round=v),
                                               (0, 1.5)),
}


def shown(value):
    """A value's part of a test id: its repr, unless that would mislabel it."""
    return "10**400" if value is HUGE else "scalar" if isinstance(value, Scalar) else repr(value)


def cases(cli):
    return [pytest.param(name.rsplit(".", 1)[1], rule, value,
                         id=f"{name}-{shown(value)}")
            for name, rule in RULES.items() if rule.cli or not cli
            for value in rule.bad + rule.outside + (() if cli else rule.library_only)]


@pytest.mark.parametrize("field, rule, value", cases(cli=False))
def test_library_refuses_each_value_outside_a_rule(field, rule, value):
    try:
        made = rule.make(value)
    except ConfigError as exc:
        found = exc
    else:
        (found,) = made.violations()
    assert isinstance(found, ConfigError) and str(found).startswith(field), found


@pytest.mark.parametrize("field, rule, value", cases(cli=True))
def test_validate_refuses_each_value_outside_a_rule(tmp_path, capsys, field, rule, value):
    sub, change = rule.cli(value)
    path = write_json(tmp_path / "bad.json", {"subcommand": sub, **CONFIGS[sub](**change)})
    assert main(["validate", "--config", path]) == 1
    out, err = capsys.readouterr()
    assert (out, err.startswith(f"error (config): {sub} config: {[*change][0]}: ")) == (
        "", True), err
