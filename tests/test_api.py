"""The public surface: what the package exports, and the names that the
benchmark's tracer (`bench/tracing.py`) looks up in it."""

import importlib
import importlib.util
import os

import pytest

import kawasaki
from kawasaki import KernelSpec, Torus, kinetic, simulator
from kawasaki.kinetic import TabulatedKernel, tabulate

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


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
                                  "Configuration"])
def test_test_only_names_are_not_exported(name):
    assert not hasattr(kawasaki, name)
    assert not hasattr(simulator, name)


def test_names_no_library_path_calls_are_not_exported():
    # interaction_energy stays in kawasaki.simulator for tests/reference.py
    assert not hasattr(kawasaki, "convolve")
    assert not hasattr(kawasaki, "interaction_energy")
    assert not hasattr(kinetic, "convolve")
    assert callable(simulator.interaction_energy)
