"""Relative-energy, coercivity, error-norm, sweep, and comparison tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bll.cli import parse_config
from bll.diagnostics import (
    ComparisonReport,
    ConvergenceTable,
    ErrorNorms,
    EssentialSet,
    coercivity_check,
    compare_modified_vs_naive,
    default_essential_set,
    deviation_error_norms,
    ess_res_decompose,
    relative_energy,
    sweep,
)
from bll.errors import AlignmentError, ConfigError, DomainError
from bll.grid import Grid, ScalarField, VectorField
from bll.nsf import NsfScenario, NsfState, NsfTrajectory, build_initial_nsf, run_nsf
from bll.ob import ObScenario, ObState, ObTrajectory, gravity_potential, run_ob
from bll.thermo import EosParams

IDEAL = EosParams()
FULL = EosParams(p_inf=0.5, a=0.3)


def _uniform_ref(grid, rho=1.0, theta=1.0):
    return (
        ScalarField(grid, np.full((grid.nx, grid.nz), float(rho))),
        ScalarField(grid, np.full((grid.nx, grid.nz), float(theta))),
        VectorField.zeros(grid),
    )


def _uniform_state(grid, eps, rho=1.0, theta=1.0):
    return NsfState(
        ScalarField(grid, np.full((grid.nx, grid.nz), float(rho))),
        ScalarField(grid, np.full((grid.nx, grid.nz), float(theta))),
        VectorField.zeros(grid),
        0.0,
        eps,
    )


def _linear_profile(grid, bottom, top):
    return ScalarField.from_function(grid, lambda x, z: bottom + (top - bottom) * z)


def test_essential_set_validation_and_default_box() -> None:
    with pytest.raises(DomainError):
        EssentialSet(0.0, 2.0, 0.5, 2.0)
    with pytest.raises(DomainError):
        EssentialSet(2.0, 0.5, 0.5, 2.0)
    with pytest.raises(DomainError):
        EssentialSet(0.5, 2.0, 2.0, 0.5)
    K = default_essential_set(2.0, 0.5)
    assert (K.rho_lo, K.rho_hi, K.theta_lo, K.theta_hi) == (1.0, 4.0, 0.25, 1.0)


def test_relative_energy_zero_iff_equal() -> None:
    g = Grid(8, 6)
    state = _uniform_state(g, eps=0.1)
    ref = _uniform_ref(g)
    fld, total = relative_energy(state, ref, IDEAL)
    assert total == 0.0
    assert np.all(fld.values == 0.0)
    state.rho.values[3, 2] = 1.3
    _, bumped = relative_energy(state, ref, IDEAL)
    assert bumped > 0.0


def test_relative_energy_rejects_bad_reference() -> None:
    g = Grid(8, 6)
    state = _uniform_state(g, eps=0.1)
    bad = _uniform_ref(g)
    bad[0].values[0, 0] = -1.0
    with pytest.raises(DomainError):
        relative_energy(state, bad, IDEAL)
    other = _uniform_ref(Grid(8, 8))
    with pytest.raises(Exception):
        relative_energy(state, other, IDEAL)


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(0.2, 5.0),
    theta=st.floats(0.2, 5.0),
    rho_t=st.floats(0.2, 5.0),
    theta_t=st.floats(0.2, 5.0),
)
def test_relative_energy_is_bregman_nonnegative(rho, theta, rho_t, theta_t) -> None:
    g = Grid(4, 4)
    state = _uniform_state(g, eps=1.0, rho=rho, theta=theta)
    _, total = relative_energy(state, _uniform_ref(g, rho_t, theta_t), FULL)
    assert total >= -1e-13 * max(1.0, abs(total))
    _, at_self = relative_energy(state, _uniform_ref(g, rho, theta), FULL)
    assert at_self == 0.0


def test_relative_energy_quadratic_density_coefficient() -> None:
    # ideal gas, theta pinned: the thermostatic gap is (theta_bar/2 rho_bar)
    # (drho/eps)^2 to leading order; halving drho quarters the integral.
    g = Grid(8, 6)
    eps = 0.1
    ref = _uniform_ref(g)
    totals = []
    for delta in (1e-4, 5e-5):
        state = _uniform_state(g, eps, rho=1.0 + delta)
        totals.append(relative_energy(state, ref, IDEAL)[1])
    expect = 0.5 * (1e-4 / eps) ** 2
    assert abs(totals[0] - expect) <= 1e-3 * expect
    assert abs(totals[0] / totals[1] - 4.0) <= 1e-3


def test_relative_energy_matches_fd_hessian_to_cubic_order() -> None:
    g = Grid(4, 4)
    base_r, base_t = 1.2, 0.9

    def breg(dr, dt):
        state = _uniform_state(g, eps=1.0, rho=base_r + dr, theta=base_t + dt)
        return relative_energy(state, _uniform_ref(g, base_r, base_t), FULL)[1]

    h = 1e-5
    H = np.empty((2, 2))
    H[0, 0] = (breg(h, 0) + breg(-h, 0)) / h**2
    H[1, 1] = (breg(0, h) + breg(0, -h)) / h**2
    H[0, 1] = H[1, 0] = (breg(h, h) - breg(h, -h) - breg(-h, h) + breg(-h, -h)) / (4 * h**2)
    assert np.all(np.linalg.eigvalsh(H) > 0.0)

    d = np.array([0.7, -0.5])
    quad = 0.5 * d @ H @ d
    resid = [abs(breg(t * d[0], t * d[1]) - quad * t**2) for t in (4e-3, 2e-3, 1e-3)]
    assert resid[0] / resid[1] >= 6.0
    assert resid[1] / resid[2] >= 6.0


def test_masks_partition_and_residual_measure() -> None:
    g = Grid(8, 6)
    K = default_essential_set()
    state = _uniform_state(g, eps=0.1)
    split = ess_res_decompose(state, K)
    assert split.residual_measure == 0.0
    assert split.essential_measure == pytest.approx(g.volume)
    state.rho.values[2, 3] = 2.0 * K.rho_hi
    state.theta.values[5, 1] = 4.0 * K.theta_hi
    split = ess_res_decompose(state, K)
    assert np.all(split.essential ^ split.residual)
    assert not np.any(split.essential & split.residual)
    assert split.residual_measure == pytest.approx(2 * g.cell_volume)
    assert split.essential_measure + split.residual_measure == pytest.approx(g.volume)


def test_coercivity_essential_constant_matches_hessian_bound() -> None:
    # Ideal gas at (1,1): the thermostatic Hessian in (rho, theta) is
    # diag(1, 3/2), so the sharp cellwise constant approaches
    # lambda_min/2 = 1/2 from a rho-dominant cell.
    g = Grid(8, 6)
    rng = np.random.default_rng(7)
    state = _uniform_state(g, eps=0.1)
    state.rho.values += 1e-4 * rng.standard_normal(state.rho.values.shape)
    state.theta.values += 1e-4 * rng.standard_normal(state.theta.values.shape)
    state.rho.values[0, 0] = 1.0 + 2e-4
    state.theta.values[0, 0] = 1.0
    report = coercivity_check(state, _uniform_ref(g), default_essential_set(), IDEAL)
    assert report.residual_measure == 0.0
    assert report.c_residual == float("inf")
    assert abs(report.c_essential - 0.5) <= 0.025
    assert report.essential >= report.c_essential * report.essential_rhs * (1.0 - 1e-12)
    assert report.total == report.essential + report.residual


def test_coercivity_residual_block_and_vacuous_case() -> None:
    g = Grid(8, 6)
    K = default_essential_set()
    ref = _uniform_ref(g)
    state = _uniform_state(g, eps=0.1)
    report = coercivity_check(state, ref, K, IDEAL)
    assert report.total == 0.0
    assert report.c_essential == float("inf") and report.c_residual == float("inf")

    state.theta.values[2:4, 1:3] = 3.0 * K.theta_hi
    report = coercivity_check(state, ref, K, IDEAL)
    assert report.residual_measure == pytest.approx(4 * g.cell_volume)
    assert 0.0 < report.c_residual < float("inf")
    assert report.residual >= report.c_residual * report.residual_rhs * (1.0 - 1e-12)
    assert report.essential >= 0.0

    edge = _uniform_ref(g, rho=K.rho_hi)
    with pytest.raises(ConfigError):
        coercivity_check(state, edge, K, IDEAL)


def test_error_norms_zero_dynamics_all_zero() -> None:
    # No forcing at eps = 1: both solvers hold the rest state exactly, and
    # every deviation norm vanishes identically.
    g = Grid(8, 6)
    ob_sc = ObScenario(g, IDEAL, dt=1e-3, t_end=0.01)
    ob_traj = run_ob(ob_sc, snapshot_dt=0.005)
    nsf_sc = NsfScenario(g, IDEAL, eps=1.0, t_end=0.01)
    nsf_traj = run_nsf(nsf_sc, snapshot_dt=0.005)
    row = deviation_error_norms(nsf_traj, ob_traj)
    assert (row.err_rho, row.err_theta, row.err_mom) == (0.0, 0.0, 0.0)


def test_error_norms_alignment_guards() -> None:
    g = Grid(8, 6)
    ob_sc = ObScenario(g, IDEAL, dt=1e-3, t_end=0.01)
    ob_traj = run_ob(ob_sc, snapshot_dt=0.005)
    nsf_sc = NsfScenario(g, IDEAL, eps=0.5, t_end=0.01)
    nsf_traj = run_nsf(nsf_sc, snapshot_dt=0.005)
    coarse = run_nsf(nsf_sc, snapshot_dt=0.01)
    with pytest.raises(AlignmentError):
        deviation_error_norms(coarse, ob_traj)  # cadence mismatch
    other = ObScenario(Grid(8, 8), IDEAL, dt=1e-3, t_end=0.01)
    with pytest.raises(AlignmentError):
        deviation_error_norms(nsf_traj, run_ob(other, snapshot_dt=0.005))  # grid mismatch
    # a run of another reference state, gas or potential than the target's
    for kw, match in (
        ({"rho_bar": 2.0, "theta_bar": 3.0}, r"rho_bar differs: 2\.0 .*, 1\.0 in the target"),
        ({"theta_bar": 3.0}, r"theta_bar differs: 3\.0 .*, 1\.0 in the target"),
        ({"eos": EosParams(mu0=0.5)}, r"eos differs: .*mu0=0\.5.*mu0=0\.01"),
        ({"G": gravity_potential(g, 1.0)}, r"G differs .* by up to 4\.167e-01"),
    ):
        mismatched = run_nsf(NsfScenario(g, kw.pop("eos", IDEAL), eps=0.5, t_end=0.01, **kw), snapshot_dt=0.005)
        with pytest.raises(AlignmentError, match=match):
            deviation_error_norms(mismatched, ob_traj)


def _mirror_center(a):
    return a[::-1, :]


def _mirror_xface(u):
    return -np.roll(u[::-1, :], 1, axis=0)


def test_error_norms_x_mirror_symmetric() -> None:
    g = Grid(16, 8)
    eps = 0.2
    wb = 0.2 + 0.1 * np.cos(2 * np.pi * g.x_centers + 0.7)
    wt = -0.1 + 0.05 * np.sin(2 * np.pi * g.x_centers + 0.3)
    T0 = ScalarField.zeros(g)
    T0.values[:] = wb[:, None] * (1.0 - g.z_centers[None, :]) + wt[:, None] * g.z_centers[None, :]
    G = ScalarField.from_function(g, lambda x, z: 0.1 * np.cos(2 * np.pi * x + 0.3) * (z - 0.5))
    ob_sc = ObScenario(
        g, IDEAL, G=G, theta_b_bottom=wb, theta_b_top=wt, dt=1e-3, t_end=0.02, T0=T0
    )
    ob_traj = run_ob(ob_sc, snapshot_dt=0.01)
    nsf_sc = NsfScenario(
        g, IDEAL, eps=eps, G=G, theta_b_bottom=wb, theta_b_top=wt, t_end=0.02,
        T0=ob_traj.states[0].temp, U0=ob_traj.states[0].U,
    )
    nsf_traj = run_nsf(nsf_sc, snapshot_dt=0.01)
    row = deviation_error_norms(nsf_traj, ob_traj)

    mG = ScalarField(g, _mirror_center(G.values))
    m_ob_sc = ObScenario(
        g, IDEAL, G=mG, theta_b_bottom=wb[::-1], theta_b_top=wt[::-1],
        dt=1e-3, t_end=0.02,
    )
    m_ob_states = [
        ObState(
            VectorField(g, _mirror_xface(s.U.u), _mirror_center(s.U.w)),
            ScalarField(g, _mirror_center(s.temp.values)),
            ScalarField(g, _mirror_center(s.Pi.values)),
            s.t,
        )
        for s in ob_traj.states
    ]
    m_ob_traj = ObTrajectory(m_ob_sc, ob_traj.frame, ob_traj.times, m_ob_states, ob_traj.trace)
    m_nsf_states = [
        NsfState(
            ScalarField(g, _mirror_center(s.rho.values)),
            ScalarField(g, _mirror_center(s.theta.values)),
            VectorField(g, _mirror_xface(s.U.u), _mirror_center(s.U.w)),
            s.t,
            s.eps,
        )
        for s in nsf_traj.states
    ]
    m_nsf_sc = NsfScenario(g, IDEAL, eps=eps, G=mG, t_end=0.02)
    m_nsf_traj = NsfTrajectory(
        m_nsf_sc, nsf_traj.times, m_nsf_states, nsf_traj.log, nsf_traj.steps, nsf_traj.wall_seconds
    )
    m_row = deviation_error_norms(m_nsf_traj, m_ob_traj)
    for name in ("err_rho", "err_theta", "err_mom"):
        a, b = getattr(row, name), getattr(m_row, name)
        assert abs(a - b) <= 1e-13 * max(a, 1e-30)


def test_convergence_table_validation() -> None:
    rows = [ErrorNorms(0.1, 1.0, 1.0, 1.0), ErrorNorms(0.2, 1.0, 1.0, 1.0)]
    with pytest.raises(DomainError):
        ConvergenceTable(rows)
    with pytest.raises(DomainError):
        ConvergenceTable([ErrorNorms(0.1, -1.0, 1.0, 1.0)])


def test_sweep_validation_and_single_row() -> None:
    g = Grid(16, 8)
    T0 = _linear_profile(g, 0.2, -0.2)
    ob_sc = ObScenario(
        g, IDEAL, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2,
        dt=1e-3, t_end=0.02, T0=T0,
    )
    with pytest.raises(DomainError):
        sweep(ob_sc, [])
    with pytest.raises(DomainError):
        sweep(ob_sc, [0.1, 0.2])
    with pytest.raises(DomainError):
        sweep(ob_sc, [1.5])
    ramp = ObScenario(
        g, IDEAL, theta_b_bottom=lambda t: 0.1 * t, dt=1e-3, t_end=0.02,
    )
    with pytest.raises(DomainError):
        sweep(ramp, [0.2])

    table = sweep(ob_sc, [0.2], snapshot_dt=0.01)
    assert len(table.rows) == 1 and table.rates is None and not table.failures
    assert table.rows[0].eps == 0.2
    assert min(table.rows[0].err_rho, table.rows[0].err_theta, table.rows[0].err_mom) > 0


def test_sweep_two_eps_monotone_rates_deterministic() -> None:
    g = Grid(16, 8)
    T0 = _linear_profile(g, 0.2, -0.2)
    ob_sc = ObScenario(
        g, IDEAL, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2,
        dt=1e-3, t_end=0.05, T0=T0,
    )
    table = sweep(ob_sc, [0.2, 0.1], snapshot_dt=0.025)
    assert len(table.rows) == 2 and not table.failures
    hi, lo = table.rows
    assert lo.err_rho < hi.err_rho
    assert lo.err_theta < hi.err_theta
    assert lo.err_mom < hi.err_mom
    assert table.rates is not None and min(table.rates) > 0.5

    again = sweep(ob_sc, [0.2, 0.1], snapshot_dt=0.025)
    assert again.rows == table.rows and again.rates == table.rates


def test_sweep_annotates_failed_member() -> None:
    # The deep interior dip keeps the trace compatible but kills positivity
    # at eps = 0.9; that member must be annotated, not fatal.
    g = Grid(16, 8)
    T0 = ScalarField.from_function(g, lambda x, z: -6.0 * z * (1.0 - z))
    ob_sc = ObScenario(g, IDEAL, dt=1e-3, t_end=0.02, T0=T0)
    table = sweep(ob_sc, [0.9, 0.2], snapshot_dt=0.01)
    assert len(table.rows) == 1 and table.rows[0].eps == 0.2
    assert len(table.failures) == 1 and table.failures[0][0] == 0.9
    assert "positivity" in table.failures[0][1]


def _asymmetric_column(t_end):
    g = Grid(16, 8)
    T0 = ScalarField.from_function(g, lambda x, z: 0.5 * (1.0 - z) ** 2)
    return ObScenario(
        g, IDEAL, G=gravity_potential(g, 1.0), theta_b_bottom=0.5, theta_b_top=0.0,
        dt=1e-3, t_end=t_end, T0=T0,
    )


def test_sweep_theta_frame_rows_match_t_frame() -> None:
    # The mean temperature moves, so the Theta-frame target maps back to the
    # T frame through a non-zero shift before members start and are scored.
    ob_sc = _asymmetric_column(0.05)
    t_rows = sweep(ob_sc, [0.1, 0.05], snapshot_dt=0.025).rows
    theta = sweep(ob_sc, [0.1, 0.05], frame="Theta", snapshot_dt=0.025)
    assert len(theta.rows) == 2 and not theta.failures
    for a, b in zip(t_rows, theta.rows):
        assert a.eps == b.eps
        np.testing.assert_allclose(b[1:], a[1:], rtol=1e-11, atol=0.0)


def test_each_member_runs_once(monkeypatch) -> None:
    import bll.diagnostics

    calls = []

    def counting_run_nsf(scenario, snapshot_dt=None):
        calls.append(scenario.eps)
        return run_nsf(scenario, snapshot_dt)

    monkeypatch.setattr(bll.diagnostics, "run_nsf", counting_run_nsf)
    ob_sc = _asymmetric_column(0.02)
    compare_modified_vs_naive(ob_sc, 0.2, snapshot_dt=0.01)
    assert calls == [0.2]
    sweep(ob_sc, [0.2, 0.1], snapshot_dt=0.01)
    assert calls == [0.2, 0.2, 0.1]


def test_compare_rejects_time_dependent_wall() -> None:
    ramp = ObScenario(Grid(16, 8), IDEAL, theta_b_top=lambda t: 0.1 * t, dt=1e-3, t_end=0.02)
    with pytest.raises(DomainError, match="theta_b_top"):
        compare_modified_vs_naive(ramp, 0.2)


def test_compare_symmetric_targets_coincide_with_warning() -> None:
    g = Grid(16, 8)
    T0 = _linear_profile(g, 0.2, -0.2)
    ob_sc = ObScenario(
        g, IDEAL, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2,
        dt=1e-3, t_end=0.05, T0=T0,
    )
    with pytest.warns(UserWarning, match="coincide"):
        report = compare_modified_vs_naive(ob_sc, 0.2, snapshot_dt=0.025)
    assert report.coincident
    assert abs(report.ratio - 1.0) <= 0.05
    assert report.max_lambda <= 1e-10


def test_compare_lambda_hook_zero_targets_bit_identical() -> None:
    from dataclasses import replace

    g = Grid(16, 8)
    T0 = ScalarField.from_function(g, lambda x, z: 0.4 * (1.0 - z) ** 2)
    ob_sc = ObScenario(
        g, IDEAL, theta_b_bottom=0.4, theta_b_top=0.0, dt=1e-3, t_end=0.05,
        T0=T0, lambda_override=0.0,
    )
    a = run_ob(ob_sc, snapshot_dt=0.025)
    b = run_ob(replace(ob_sc, lambda_override=0.0), snapshot_dt=0.025)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.temp.values, sb.temp.values)
        assert np.array_equal(sa.U.u, sb.U.u)
    with pytest.warns(UserWarning, match="coincide"):
        report = compare_modified_vs_naive(ob_sc, 0.2, snapshot_dt=0.025)
    assert report.ratio == 1.0
    assert report.coincident


def test_compare_asymmetric_transient_report_io() -> None:
    g = Grid(16, 8)
    T0 = ScalarField.from_function(g, lambda x, z: 0.4 * (1.0 - z) ** 2)
    ob_sc = ObScenario(g, IDEAL, theta_b_bottom=0.4, theta_b_top=0.0, dt=1e-3, t_end=0.1, T0=T0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare_modified_vs_naive(ob_sc, 0.2, snapshot_dt=0.05)
    assert not report.coincident
    assert report.max_lambda > 1e-4
    assert np.isfinite(report.ratio) and report.ratio > 0
    text = report.format_text()
    assert "ratio" in text and "modified" in text


# x-varying walls under gravity at 32x16: the compressible scheme is balanced
# around the column between the x-mean wall temperatures.
X_WALL_EPS = (0.05, 0.025, 0.0125)


def test_sweep_with_x_varying_walls_converges() -> None:
    cfg = parse_config(
        "[forcing]\ng = 1\ntheta_b_bottom = 0.2\ntheta_b_top = -0.2\ntheta_b_cos = 0.1\n"
        "[nsf]\neps_list = 0.05, 0.025, 0.0125\n"
    )
    assert (cfg.nx, cfg.nz, cfg.ob_dt, cfg.ob_t_end, cfg.cadence) == (32, 16, 1e-3, 0.25, 0.05)
    table = sweep(cfg.ob_scenario(), cfg.eps_list, snapshot_dt=cfg.cadence)
    assert not table.failures and [row.eps for row in table.rows] == list(X_WALL_EPS)
    for name in ("err_rho", "err_theta", "err_mom"):
        values = [getattr(row, name) for row in table.rows]
        assert values[0] > values[1] > values[2], (name, values)
    assert table.rows[-1].err_mom <= 1e-3


def test_modified_target_wins_increasingly_with_x_varying_bottom_wall() -> None:
    g = Grid(32, 16)
    wall = lambda x: 0.5 + 0.1 * np.cos(2 * np.pi * x)  # noqa: E731
    T0 = ScalarField.from_function(
        g, lambda x, z: wall(x) * (1.0 - z) ** 2 + 0.3 * np.sin(np.pi * z) * np.cos(2 * np.pi * x)
    )
    sc = ObScenario(
        g, IDEAL, G=gravity_potential(g, 1.0), theta_b_bottom=wall(g.x_centers), theta_b_top=0.0,
        dt=1e-3, t_end=0.25, T0=T0,
    )
    ratios = [compare_modified_vs_naive(sc, eps, snapshot_dt=0.05).ratio for eps in X_WALL_EPS]
    assert 1.0 < ratios[0] < ratios[1] < ratios[2], ratios
