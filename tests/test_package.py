"""Package surface tests: exported names, the knobs that were removed, and
the step logs' named columns."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import bll
import bll.cli
import bll.grid
import bll.thermo
from bll.diagnostics import deviation_error_norms
from bll.grid import Grid, grad
from bll.nsf import LOG_COLUMNS, NsfScenario, run_nsf
from bll.ob import TRACE_COLUMNS, ObScenario, gravity_potential, run_ob
from bll.thermo import EosParams

MODULES = ["bll"] + [f"bll.{info.name}" for info in pkgutil.iter_modules(bll.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name) -> None:
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_removed_knobs_stay_removed() -> None:
    # No caller set them; re-adding one is a decision, not an accident.
    assert not hasattr(bll.grid, "DirichletZ") and not hasattr(bll.grid, "NeumannZ")
    assert "initial" not in inspect.signature(run_ob).parameters
    assert list(inspect.signature(grad).parameters) == ["f"]
    assert not hasattr(bll.cli, "_resolve_threads")
    for fn in (bll.thermo.sound_speed_squared, bll.thermo._sound_speed_squared):
        assert list(inspect.signature(fn).parameters) == ["rho", "theta", "eos"]
    assert list(inspect.signature(bll.cli.ScenarioConfig.nsf_scenario).parameters) == ["self"]
    assert list(inspect.signature(deviation_error_norms).parameters) == ["nsf_traj", "ob_traj"]


def _ob_trace():
    g = Grid(6, 8)
    sc = ObScenario(grid=g, eos=EosParams(), G=gravity_potential(g, 1.0),
                    theta_b_bottom=lambda t: t, dt=1e-3, t_end=0.005)
    return run_ob(sc).trace


def _nsf_log():
    sc = NsfScenario(grid=Grid(6, 8), eos=EosParams(), eps=0.2, theta_b_bottom=0.2, t_end=0.005)
    return run_nsf(sc).log


@pytest.mark.parametrize("make, columns", [(_ob_trace, TRACE_COLUMNS), (_nsf_log, LOG_COLUMNS)],
                         ids=["ob_trace", "nsf_log"])
def test_step_log_columns_read_alike_by_attribute_and_key(make, columns) -> None:
    # A column named like an ndarray attribute (min, size, ...) would be
    # shadowed on attribute access; every column must read its own data.
    log = make()
    assert log.dtype.names == columns
    assert len(log) > 1
    for name in columns:
        by_attr = getattr(log, name)
        assert isinstance(by_attr, np.ndarray) and by_attr.dtype == np.float64
        assert np.array_equal(by_attr, log[name]), name
