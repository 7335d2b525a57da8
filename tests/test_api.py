"""The public surface: what the package exports, and the names that the
benchmark's tracer (`bench/tracing.py`) looks up in it."""

import dataclasses
import importlib
import importlib.util
import inspect
import os

import pytest

import kawasaki
from kawasaki import (BoundReport, GibbsSampler, KernelSpec, SimulationParams, SweepResult,
                      SweepSpec, Torus, calibrate_activity, errors, kinetic, simulator)
from kawasaki.kernels import RadialSpec
from kawasaki.kinetic import TabulatedKernel, tabulate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def load_tracing():
    """bench/tracing.py as a module, loaded from its file without installing
    anything."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for mod_name, attr, *_ in targets:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)


def test_tabulated_kernel_names_its_grid_for_the_tracer():
    kernel = KernelSpec.top_hat(1.0, 1.0, dim=1)
    torus = Torus(1, 20.0)
    assert isinstance(tabulate(kernel, torus, 64), TabulatedKernel)
    assert tabulate(kernel, torus, 64).is_pow2
    assert not tabulate(kernel, torus, 48).is_pow2


@pytest.mark.parametrize("name", ["Simulation", "Event", "detailed_balance_residual",
                                  "total_pair_energy", "NoDynamicsError",
                                  "Configuration", "BoundViolation"])
def test_test_only_names_are_not_exported(name):
    assert not hasattr(kawasaki, name)
    assert not hasattr(simulator, name)
    assert not hasattr(errors, name)


def test_names_no_library_path_calls_are_not_exported():
    # interaction_energy stays in kawasaki.simulator for tests/reference.py
    assert not hasattr(kawasaki, "convolve")
    assert not hasattr(kawasaki, "interaction_energy")
    assert not hasattr(kinetic, "convolve")
    assert callable(simulator.interaction_energy)
    assert not hasattr(BoundReport, "raise_if_failed")
    assert not hasattr(RadialSpec, "value")
    assert "reference" not in {f.name for f in dataclasses.fields(SweepResult)}
    assert "rounds" not in inspect.signature(calibrate_activity).parameters
    assert "exclude_mover" not in {f.name for f in dataclasses.fields(SimulationParams)}
    assert "exclude" not in inspect.signature(simulator.interaction_energy).parameters
    assert "epsilon" not in inspect.signature(GibbsSampler).parameters
    assert "epsilon" not in inspect.signature(calibrate_activity).parameters
    assert not {"n_traj", "dt"} & {f.name for f in dataclasses.fields(SweepSpec)}


def optional_parameters():
    """Every parameter with a default of every callable that `kawasaki`
    exports, and of the public methods that each exported class defines
    itself, as "owner(name)"."""
    found = []
    for name, obj in vars(kawasaki).items():
        if name.startswith("_") or not callable(obj):
            continue
        if inspect.isclass(obj):  # its constructor and its own public methods
            members = [(name, obj.__init__)] + [
                (f"{name}.{m}", getattr(obj, m)) for m in vars(obj)
                if not m.startswith("_") and callable(getattr(obj, m))]
        else:
            members = [(name, obj)]
        for owner, member in members:
            found += [f"{owner}({p.name})"
                      for p in inspect.signature(member).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    return found


def test_public_optional_parameter_count():
    # each new default is a knob to document and test: this count moves only
    # on purpose, and ROADMAP.md quotes it
    found = optional_parameters()
    assert len(found) == 73, sorted(found)


def test_source_line_count():
    # src/ should shrink, not grow: a change that must add code raises this
    # ceiling on purpose and says why, and ROADMAP.md quotes the count
    src = os.path.join(ROOT, "src", "kawasaki")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")  # as wc -l counts
    assert sum(counts.values()) <= 3868, counts
