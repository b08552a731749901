"""Compressible-solver tests: fixed points, balance, oracles, conservation."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bll import grid as gr
from bll import nsf, thermo
from bll.errors import CompatibilityError, DivergenceError, DomainError, ShapeError, StabilityError
from bll.grid import (
    Grid,
    ScalarField,
    VectorField,
    _Advection,
    advect_velocity,
    center_to_xface,
    laplace_dirichlet,
    xface_to_center,
    zface_to_center,
)
from bll.nsf import (
    NsfScenario,
    NsfState,
    ballistic_energy,
    build_initial_nsf,
    cfl_dt,
    discrete_hydrostatic_reference,
    hydrostatic_stationary_1d,
    run_nsf,
    step_nsf,
)
from bll.ob import gravity_potential
from bll.thermo import (
    EosParams,
    _closure,
    _eta,
    _kappa,
    _mu,
    _rho_powers,
    energy_dtheta,
    entropy,
    pressure,
    rho_e,
    sound_speed_squared,
    theta_from_rho_e,
    transport,
)

IDEAL = EosParams()


def _scenario(g, **kw):
    kw.setdefault("eos", IDEAL)
    kw.setdefault("eps", 0.1)
    return NsfScenario(grid=g, **kw)


def _profile_state(g, rho_prof, theta_prof, eps):
    return NsfState(
        ScalarField(g, np.tile(rho_prof, (g.nx, 1))),
        ScalarField(g, np.tile(theta_prof, (g.nx, 1))),
        VectorField.zeros(g),
        0.0,
        eps,
    )


def test_scenario_rejects_eps_out_of_range() -> None:
    g = Grid(8, 8)
    for eps in (10.0, 0.0, -0.1):
        with pytest.raises(DomainError):
            _scenario(g, eps=eps)


def test_scenario_rejects_non_finite_time_parameters() -> None:
    g = Grid(8, 8)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(DomainError, match="t_end must be finite"):
            _scenario(g, t_end=bad)


def test_step_rejects_non_finite_dt() -> None:
    g = Grid(8, 8)
    sc = _scenario(g)
    state = build_initial_nsf(sc)
    for bad in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(DomainError, match="dt must be finite"):
            step_nsf(state, sc, bad)


def test_run_rejects_non_finite_snapshot_dt() -> None:
    sc = _scenario(Grid(8, 8), t_end=0.01)
    for bad in (float("nan"), float("inf"), -0.1):
        with pytest.raises(DomainError, match="snapshot_dt must be finite"):
            run_nsf(sc, snapshot_dt=bad)


@pytest.mark.parametrize("name", ["rho_bar", "theta_bar"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
def test_scenario_rejects_bad_reference_state(name, bad) -> None:
    with pytest.raises(DomainError, match=f"{name} must be finite and positive"):
        _scenario(Grid(8, 8), **{name: bad})


def test_scenario_rejects_wall_positivity_loss() -> None:
    g = Grid(8, 8)
    with pytest.raises(DomainError):
        _scenario(g, theta_b_bottom=-12.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_scenario_rejects_non_finite_walls(bad) -> None:
    g = Grid(8, 8)
    row = np.full(8, 0.1)
    row[5] = bad
    for wall in ("theta_b_bottom", "theta_b_top"):
        for value in (bad, row):
            with pytest.raises(DomainError, match=f"{wall} must be finite"):
                _scenario(g, **{wall: value})


def test_scenario_rejects_biased_potential() -> None:
    g = Grid(8, 8)
    with pytest.raises(DomainError):
        _scenario(g, G=ScalarField(g, np.ones((8, 8))))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_scenario_rejects_non_finite_potential(bad) -> None:
    # Checked before the mean-free check, which would report an inf G as a
    # biased one and let a NaN G through to fail late in the solver.
    g = Grid(8, 8)
    G = gravity_potential(g, 1.0)
    G.values[3, 2] = bad
    with pytest.raises(DomainError, match="^G must be finite$"):
        _scenario(g, G=G)


def test_build_initial_rejects_eps_too_large_for_deviations() -> None:
    g = Grid(8, 8)
    T0 = ScalarField(g, np.full((8, 8), -2.5))
    with pytest.raises(DomainError, match="too large"):
        build_initial_nsf(_scenario(g, eps=0.5, T0=T0))


def test_build_initial_ideal_gas_recovery() -> None:
    # Ideal gas at (1, 1): p_rho = p_theta = 1, so T0 = 0 gives r0 = G.
    g = Grid(16, 12)
    G = gravity_potential(g, 0.8)
    sc = _scenario(g, G=G)
    state = build_initial_nsf(sc)
    assert np.max(np.abs(state.rho.values - (1.0 + 0.1 * G.values))) <= 1e-14
    assert np.max(np.abs(state.theta.values - 1.0)) == 0.0
    assert abs(np.mean(state.rho.values) - 1.0) <= 1e-14


def test_uniform_state_is_exact_fixed_point() -> None:
    g = Grid(16, 8)
    sc = _scenario(g)
    s0 = build_initial_nsf(sc)
    s1 = step_nsf(s0, sc, cfl_dt(s0, sc))
    assert np.array_equal(s1.rho.values, s0.rho.values)
    assert np.array_equal(s1.theta.values, s0.theta.values)
    assert np.array_equal(s1.U.u, s0.U.u)
    assert np.array_equal(s1.U.w, s0.U.w)


def test_discrete_reference_is_stationary() -> None:
    g = Grid(16, 12)
    sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=0.3, theta_b_top=-0.2)
    rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
    state = _profile_state(g, rho_hat, theta_hat, sc.eps)
    dt = cfl_dt(state, sc)
    out = state
    for _ in range(20):
        out = step_nsf(out, sc, dt)
    assert np.max(np.abs(out.rho.values - state.rho.values)) <= 1e-12
    assert np.max(np.abs(out.theta.values - state.theta.values)) <= 1e-12
    assert np.max(np.abs(out.U.u)) <= 1e-12
    assert np.max(np.abs(out.U.w)) <= 1e-12


def test_discrete_reference_requires_flat_walls_and_z_only_potential() -> None:
    g = Grid(8, 8)
    bumpy = 0.1 + 0.05 * np.cos(2 * np.pi * g.x_centers)
    with pytest.raises(ShapeError):
        discrete_hydrostatic_reference(_scenario(g, theta_b_bottom=bumpy))
    Gx = ScalarField.from_function(g, lambda x, z: np.cos(2 * np.pi * x) * (z - 0.5))
    with pytest.raises(ShapeError):
        discrete_hydrostatic_reference(_scenario(g, G=Gx))


def test_reference_takes_flat_walls_bitwise_and_x_varying_walls_by_mean() -> None:
    # the mean of 12 copies of the wall temperature 1.03 rounds off it, so a
    # flat wall must enter the column as it is: 12 columns give 4 columns' bits
    refs = []
    for nx in (4, 12):
        g = Grid(nx, 8)
        sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=0.3, theta_b_top=-0.2)
        refs.append(discrete_hydrostatic_reference(sc))
    for a, b in zip(*refs):
        assert np.array_equal(a, b)
    g = Grid(16, 8)
    bumpy = 0.3 + 0.05 * np.cos(2 * np.pi * g.x_centers)
    aux = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=bumpy, theta_b_top=-0.2).reference()
    assert aux.balanced
    for a, b in zip((aux.rho_hat, aux.theta_hat), refs[0]):
        assert np.allclose(a, b, rtol=1e-13, atol=0.0)


def test_oracle_and_discrete_reference_agree_on_columns() -> None:
    # eps = 0.1 shrinks the 9e-13 ripple of Theta_B below the 1e-13
    # flatness tolerance on theta_bar + eps Theta_B: a column for both.
    g = Grid(8, 8)
    ripple = 0.25 + 5e-13 * np.cos(2 * np.pi * g.x_centers)
    sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=ripple)
    rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
    rho_o, theta_o = hydrostatic_stationary_1d(sc)
    assert max(np.max(np.abs(rho_hat - rho_o)), np.max(np.abs(theta_hat - theta_o))) <= 1e-3


EOS_CORNERS = (IDEAL, EosParams(p_inf=1.0), EosParams(a=1.0), EosParams(p_inf=1.0, a=1.0))


@settings(max_examples=100, deadline=None)
@given(eos=st.sampled_from(EOS_CORNERS), eps=st.floats(0.01, 1.0), gval=st.floats(0.0, 20.0))
def test_property_discrete_reference_balances_faces_and_mass(eos, eps, gval) -> None:
    g = Grid(4, 32)
    sc = _scenario(
        g, eos=eos, eps=eps, G=gravity_potential(g, gval), theta_b_bottom=0.25, theta_b_top=-0.25
    )
    rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
    p = pressure(rho_hat, theta_hat, eos)
    balance = np.diff(p) - 0.5 * eps * np.diff(sc.G.values[0]) * (rho_hat[:-1] + rho_hat[1:])
    assert np.max(np.abs(balance)) <= 1e-13 * np.max(p)
    assert abs(np.sum(rho_hat) * g.dz - sc.rho_bar) <= 1e-13 * sc.rho_bar


def test_discrete_reference_builds_strong_stratification_or_raises() -> None:
    g = Grid(4, 32)
    # a strongly stratified column, heated from above at eps = 1
    sc = _scenario(g, eps=1.0, G=gravity_potential(g, 10.0), theta_b_bottom=-0.5, theta_b_top=0.5)
    rho_hat, _ = discrete_hydrostatic_reference(sc)
    assert np.all(rho_hat > 0) and abs(np.sum(rho_hat) * g.dz - 1.0) <= 1e-13
    # eps g dz = 2.5 exceeds 2 theta everywhere, so the ideal-gas balance
    # rho_{k+1} (theta_{k+1} + 1.25) = rho_k (theta_k - 1.25) has no positive root
    sc = _scenario(g, eps=1.0, G=gravity_potential(g, 80.0), theta_b_bottom=0.25, theta_b_top=-0.25)
    with pytest.raises(DomainError, match="hydrostatic face balance did not converge"):
        discrete_hydrostatic_reference(sc)


def test_discrete_reference_builds_slowly_converging_conduction_profile() -> None:
    # kappa0 (1 + theta^8) spans four decades between the walls 1.9 and 0.1,
    # so the Picard update shrinks only about 5% per pass: it passes the
    # 1e-13 tolerance after more than 400 passes, and the profile exists.
    g = Grid(4, 32)
    eos = EosParams(p_inf=5.0, a=0.1, beta=8.0)
    sc = _scenario(g, eos=eos, eps=1.0, theta_b_bottom=0.9, theta_b_top=-0.9)
    rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
    assert np.all(np.diff(theta_hat) < 0) and 0.1 < theta_hat.min() < theta_hat.max() < 1.9
    assert abs(np.sum(rho_hat) * g.dz - 1.0) <= 1e-13


def test_oracle_brackets_strongly_stratified_column() -> None:
    # rho_hat reaches 14 rho_bar at the bottom, beyond the bracket widened
    # three times ([0.0875, 11.2] rho_bar); the oracle widens further.
    g = Grid(4, 32)
    sc = _scenario(g, eps=1.0, G=gravity_potential(g, 10.0), theta_b_bottom=-0.5, theta_b_top=0.5)
    rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
    assert rho_hat[0] > 11.2
    rho_o, theta_o = hydrostatic_stationary_1d(sc)
    assert np.max(np.abs(rho_o - rho_hat) / rho_hat) <= 0.1
    assert np.max(np.abs(theta_o - theta_hat) / theta_hat) <= 0.1
    assert abs(np.sum(rho_o) * g.dz - 1.0) <= 0.1


def test_discrete_reference_builds_radiation_dominated_column() -> None:
    # p / (rho p_rho) is about 170 here, so the Newton steps stall near 1e-14
    # of rho instead of reaching 1e-15; the solve stops at that rounding floor
    g = Grid(4, 32)
    eos = EosParams(p_inf=1.0, a=1.0)
    sc = _scenario(
        g, eos=eos, eps=0.3, rho_bar=0.05, theta_bar=3.0, theta_b_bottom=0.1, theta_b_top=0.0999
    )
    rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
    p = pressure(rho_hat, theta_hat, eos)
    assert np.max(np.abs(np.diff(p))) <= 1e-13 * np.max(p)
    assert abs(np.sum(rho_hat) * g.dz - 0.05) <= 1e-13 * 0.05


def test_oracle_integrates_each_bottom_density_once(monkeypatch) -> None:
    # The bracket ends and the root that brentq returns were integrated
    # already; the oracle must not integrate them again.
    import scipy.integrate

    solve_ivp = scipy.integrate.solve_ivp
    starts = []

    def counting(fun, span, y0, **kw):
        starts.append(float(y0[0]))
        return solve_ivp(fun, span, y0, **kw)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting)
    g = Grid(4, 16)
    hydrostatic_stationary_1d(_scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=0.25, theta_b_top=-0.25))
    assert len(starts) > 2 and len(set(starts)) == len(starts)


def _nan_T0(g):
    T0 = ScalarField.zeros(g)
    T0.values[2, 5] = np.nan
    return {"T0": T0}


def _nan_U0(g):
    U0 = VectorField.zeros(g)
    U0.w[0, 3] = np.nan
    return {"U0": U0}


@pytest.mark.parametrize("initial, name", [(_nan_T0, "T0"), (_nan_U0, "U0")], ids=["nan_T0", "nan_U0"])
def test_scenario_rejects_non_finite_initial_field(initial, name) -> None:
    g = Grid(8, 8)
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        _scenario(g, **initial(g))


@pytest.mark.parametrize("wall", ["theta_b_bottom", "theta_b_top"])
def test_scenario_rejects_time_dependent_wall_by_name(wall) -> None:
    with pytest.raises(DomainError, match=f"{wall} is time-dependent"):
        _scenario(Grid(8, 8), **{wall: lambda t: 0.1})


def test_oracle_raises_when_mass_shooting_does_not_converge(monkeypatch) -> None:
    import scipy.optimize

    brentq = scipy.optimize.brentq
    monkeypatch.setattr(scipy.optimize, "brentq", lambda *a, **kw: brentq(*a, **kw, maxiter=2))
    g = Grid(4, 16)
    sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=0.25, theta_b_top=-0.25)
    with pytest.raises(DomainError, match="mass shooting did not converge"):
        hydrostatic_stationary_1d(sc)


def test_oracle_matches_ideal_closed_form() -> None:
    # Equal walls keep theta constant, so rho is proportional to exp(eps G / theta_bar).
    g = Grid(8, 24)
    sc = _scenario(g, G=gravity_potential(g, 1.0))
    rho_prof, theta_prof = hydrostatic_stationary_1d(sc)
    assert np.max(np.abs(theta_prof - 1.0)) <= 1e-13
    ratio = rho_prof * np.exp(-0.1 * sc.G.values[0])
    assert np.ptp(ratio) / ratio[0] <= 1e-10
    # No potential: the uniform reference state.
    rho_u, theta_u = hydrostatic_stationary_1d(_scenario(g))
    assert np.max(np.abs(rho_u - 1.0)) <= 1e-10
    assert np.max(np.abs(theta_u - 1.0)) <= 1e-13


def test_oracle_rejects_unsupported_scenarios() -> None:
    g = Grid(8, 8)
    bumpy = 0.1 + 0.05 * np.cos(2 * np.pi * g.x_centers)
    with pytest.raises(ShapeError):
        hydrostatic_stationary_1d(_scenario(g, theta_b_bottom=bumpy))
    Gx = ScalarField.from_function(g, lambda x, z: np.cos(2 * np.pi * x) * (z - 0.5))
    with pytest.raises(ShapeError):
        hydrostatic_stationary_1d(_scenario(g, G=Gx))


def test_discrete_reference_converges_to_oracle_second_order() -> None:
    gaps = []
    for nz in (8, 16):
        g = Grid(8, nz)
        sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=0.25, theta_b_top=-0.25)
        rho_o, theta_o = hydrostatic_stationary_1d(sc)
        rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
        gaps.append(max(np.max(np.abs(rho_hat - rho_o)), np.max(np.abs(theta_hat - theta_o))))
    assert gaps[0] / gaps[1] >= 3.0


def test_hydrostatic_drift_second_order() -> None:
    # Start on the continuum profile; the trajectory relaxes toward the
    # discrete steady state, so its distance from the continuum profile stays
    # bounded by the (second-order) static gap, and the worst drift over the
    # run inherits the h^2 decay.
    drifts = []
    for nx, nz in ((16, 8), (32, 16)):
        g = Grid(nx, nz)
        sc = _scenario(
            g, G=gravity_potential(g, 1.0), theta_b_bottom=0.25, theta_b_top=-0.25, t_end=1.0
        )
        rho_o, theta_o = hydrostatic_stationary_1d(sc)
        rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
        gap_rho = np.max(np.abs(rho_hat - rho_o))
        gap_theta = np.max(np.abs(theta_hat - theta_o))
        initial = _profile_state(g, rho_o, theta_o, sc.eps)
        traj = run_nsf(sc, snapshot_dt=0.1, initial=initial)
        drift_rho = max(np.max(np.abs(s.rho.values - rho_o[None, :])) for s in traj.states)
        drift_theta = max(
            np.max(np.abs(s.theta.values - theta_o[None, :])) for s in traj.states
        )
        assert drift_rho <= 2.0 * gap_rho
        assert drift_theta <= 2.0 * gap_theta
        drifts.append(max(drift_rho, drift_theta))
        mass = traj.log.mass
        assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-12
    assert drifts[0] / drifts[1] >= 2.2


def test_acoustic_pulse_speed_matches_sound_speed() -> None:
    eps = 0.1
    g = Grid(256, 4)
    eos = EosParams(mu0=1e-4, kappa0=1e-4)
    sc = NsfScenario(g, eos, eps=eps, t_end=1.0)
    c = float(np.sqrt(sound_speed_squared(np.asarray(1.0), np.asarray(1.0), eos)))
    X, _ = g.cell_mesh()
    amp = 0.01
    bump = np.exp(-(((X - 0.3) / 0.05) ** 2))
    # Right-moving linear acoustic wave: u = (c/rho_bar) (rho - rho_bar)/eps,
    # theta tied isentropically (ideal gas: dtheta = (2 theta / 3 rho) drho).
    u = c * amp * np.exp(-(((g.x_faces[:, None] - 0.3) / 0.05) ** 2)) * np.ones((1, g.nz))
    state = NsfState(
        ScalarField(g, 1.0 + eps * amp * bump),
        ScalarField(g, 1.0 + eps * amp * (2.0 / 3.0) * bump),
        VectorField(g, u, np.zeros((g.nx, g.nz + 1))),
        0.0,
        eps,
    )
    t_target = 0.03
    while state.t < t_target - 1e-12:
        state = step_nsf(state, sc, min(cfl_dt(state, sc), t_target - state.t))
    prof = np.mean(state.rho.values - 1.0, axis=1)
    i = int(np.argmax(prof))
    off = 0.5 * (prof[i - 1] - prof[i + 1]) / (prof[i - 1] - 2 * prof[i] + prof[i + 1])
    speed = ((i + 0.5 + off) * g.dx - 0.3) / t_target
    assert abs(speed - c / eps) / (c / eps) <= 0.1


def test_step_rejects_dt_above_bound() -> None:
    g = Grid(16, 8)
    sc = _scenario(g)
    state = build_initial_nsf(sc)
    bound = cfl_dt(state, sc)
    with pytest.raises(StabilityError, match="retry with dt"):
        step_nsf(state, sc, 3.0 * bound)


@pytest.mark.parametrize("eos", [IDEAL, EosParams(p_inf=1.0, a=1.0)], ids=["ideal", "radiation"])
def test_run_matches_public_step_loop_bitwise(eos, monkeypatch) -> None:
    # run_nsf shares one thermodynamic evaluation between the log row, the
    # CFL bound and the next step; it must equal the public API step by step.
    g = Grid(16, 8)
    X, Z = g.cell_mesh()
    T0 = ScalarField(g, 0.2 * (1 - 2 * Z) + 0.1 * np.sin(2 * np.pi * X) * np.sin(np.pi * Z) ** 2)
    sc = _scenario(
        g, eos=eos, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2, T0=T0, t_end=0.02
    )
    bounds = []
    cfl_bound = nsf._cfl_bound
    monkeypatch.setattr(nsf, "_cfl_bound", lambda *args: bounds.append(None) or cfl_bound(*args))
    traj = run_nsf(sc)
    monkeypatch.undo()
    assert traj.steps > 5
    assert len(bounds) == traj.steps

    theta_tilde = laplace_dirichlet(g, *sc.wall_theta())

    def row(s, dt):
        rho = s.rho.values
        s_int = float(np.sum(rho * entropy(rho, s.theta.values, eos))) * g.cell_volume
        return (s.t, float(np.sum(rho)) * g.cell_volume, ballistic_energy(s, sc, theta_tilde), s_int, dt)

    state = build_initial_nsf(sc)
    rows = [row(state, 0.0)]
    while state.t < sc.t_end - 1e-12:
        dt = min(cfl_dt(state, sc), sc.t_end - state.t)
        state = step_nsf(state, sc, dt)
        rows.append(row(state, dt))
    want = np.array(rows)
    log = traj.log
    for k, col in enumerate((log.t, log.mass, log.ballistic_energy, log.entropy_proxy, log.dt)):
        assert np.array_equal(col, want[:, k])
    final = traj.states[-1]
    assert np.array_equal(final.rho.values, state.rho.values)
    assert np.array_equal(final.theta.values, state.theta.values)
    assert np.array_equal(final.U.u, state.U.u)
    assert np.array_equal(final.U.w, state.U.w)


def test_blowup_raises_divergence_error() -> None:
    g = Grid(16, 8)
    sc = _scenario(g)
    u = 50.0 * np.cos(np.pi * np.arange(16))[:, None] * np.ones((1, 8))
    state = NsfState(
        ScalarField(g, np.ones((16, 8))),
        ScalarField(g, np.ones((16, 8))),
        VectorField(g, u, np.zeros((16, 9))),
        0.0,
        0.1,
    )
    with pytest.raises(DivergenceError):
        for _ in range(6):
            state = step_nsf(state, sc, cfl_dt(state, sc))


def test_state_requires_positive_fields() -> None:
    g = Grid(8, 8)
    bad = np.ones((8, 8))
    bad[3, 4] = -1.0
    with pytest.raises(DomainError):
        NsfState(ScalarField(g, bad), ScalarField(g, np.ones((8, 8))), VectorField.zeros(g), 0.0, 0.1)


def test_mass_conserved_through_convection() -> None:
    g = Grid(24, 12)
    X, Z = g.cell_mesh()
    T0 = ScalarField(g, 0.2 * (1 - 2 * Z) + 0.3 * np.sin(2 * np.pi * X) * np.sin(np.pi * Z) ** 2)
    sc = _scenario(
        g, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2, T0=T0, t_end=0.1
    )
    traj = run_nsf(sc)
    mass = traj.log.mass
    assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-12
    assert max(np.max(np.abs(s.U.u)) for s in traj.states) > 1e-4


def test_step_count_scales_like_inverse_eps() -> None:
    g = Grid(16, 8)
    steps = {}
    for eps in (0.1, 0.05):
        traj = run_nsf(_scenario(g, eps=eps, t_end=0.05))
        steps[eps] = traj.steps
    ratio = steps[0.05] / steps[0.1]
    assert 1.7 <= ratio <= 2.3


def test_run_snapshots_and_log_layout() -> None:
    g = Grid(16, 8)
    sc = _scenario(g, theta_b_bottom=0.2, t_end=0.1)
    traj = run_nsf(sc, snapshot_dt=0.05)
    assert np.allclose(traj.times, [0.0, 0.05, 0.1], atol=1e-10)
    assert traj.log.t[0] == 0.0 and traj.log.dt[0] == 0.0
    assert np.all(np.diff(traj.log.t) > 0)
    assert np.all(traj.log.dt[1:] > 0)
    assert traj.steps == len(traj.log.t) - 1
    with pytest.raises(DomainError):
        run_nsf(sc, snapshot_dt=-0.1)


def test_ballistic_energy_uniform_and_kinetic_scaling() -> None:
    # Uniform ideal state at (1, 1) with s0 = 0 has zero entropy, so the
    # functional reduces to |Omega| rho_bar e = 3/2.
    g = Grid(16, 8)
    sc = _scenario(g)
    state = build_initial_nsf(sc)
    base = ballistic_energy(state, sc)
    assert abs(base - 1.5) <= 1e-13
    u1 = np.sin(2 * np.pi * g.x_faces)[:, None] * np.ones((1, g.nz))
    s1 = NsfState(state.rho.copy(), state.theta.copy(), VectorField(g, u1, np.zeros((16, 9))), 0.0, 0.1)
    s2 = NsfState(state.rho.copy(), state.theta.copy(), VectorField(g, 2 * u1, np.zeros((16, 9))), 0.0, 0.1)
    gain1 = ballistic_energy(s1, sc) - base
    gain2 = ballistic_energy(s2, sc) - base
    assert gain1 > 0
    assert abs(gain2 - 4.0 * gain1) <= 1e-12 * max(1.0, gain2)


def test_ballistic_energy_guards() -> None:
    g = Grid(16, 8)
    sc = _scenario(g, theta_b_bottom=0.2)
    state = build_initial_nsf(sc)
    with pytest.raises(CompatibilityError):
        ballistic_energy(state, sc, laplace_dirichlet(g, 2.0, 2.0))  # wrong trace
    bad = laplace_dirichlet(g, *sc.wall_theta())
    bad.values[0, 0] = -1.0
    with pytest.raises(DomainError):
        ballistic_energy(state, sc, bad)


@pytest.mark.parametrize("other", [Grid(4, 8), Grid(16, 16), Grid(16, 8, Lx=2.0), "xface"])
def test_ballistic_energy_rejects_theta_tilde_off_the_scenario_grid(other) -> None:
    # A theta_tilde of another grid, same-shape ones included, or on the
    # x-faces raises ShapeError naming both grids and the staggering.
    g = Grid(16, 8)
    sc = _scenario(g, theta_b_bottom=0.2)
    state = build_initial_nsf(sc)
    if other == "xface":
        theta_tilde = ScalarField(g, laplace_dirichlet(g, *sc.wall_theta()).values, gr.Staggering.XFACE)
        want = r"CENTER field on the scenario grid .*got a XFACE field"
    else:
        theta_tilde = laplace_dirichlet(other, 1.02, 1.0)
        want = rf"grid Grid\(nx=16, nz=8, Lx=1\.0\), got a CENTER field on Grid\(nx={other.nx}, nz={other.nz}, Lx={other.Lx}"
    with pytest.raises(ShapeError, match=want):
        ballistic_energy(state, sc, theta_tilde)


def test_ballistic_energy_decays_during_relaxation() -> None:
    # Pure relaxation toward the uniform state with matching wall data:
    # the functional is a Lyapunov candidate; monitored, not step-asserted.
    g = Grid(16, 12)
    X, Z = g.cell_mesh()
    T0 = ScalarField(g, 0.4 * np.sin(2 * np.pi * X) * np.sin(np.pi * Z) ** 2)
    sc = _scenario(g, T0=T0, t_end=0.1)
    traj = run_nsf(sc)
    be = traj.log.ballistic_energy
    assert be[-1] < be[0]
    assert np.max(np.diff(be)) <= 1e-8 * abs(be[0])


def _mirror_center(a):
    return a[::-1, :]


def _mirror_xface(u):
    return -np.roll(u[::-1, :], 1, axis=0)


def test_x_mirror_symmetry_bitwise() -> None:
    g = Grid(16, 8)
    X, Z = g.cell_mesh()
    T0 = ScalarField(g, 0.3 * np.sin(2 * np.pi * X + 0.4) * Z * (1 - Z))
    wall = 0.2 + 0.1 * np.cos(2 * np.pi * g.x_centers + 0.7)
    u0 = 0.2 * np.sin(2 * np.pi * g.x_faces + 0.3)[:, None] * np.ones((1, 8))
    U0 = VectorField(g, u0, np.zeros((16, 9)))
    sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=wall, T0=T0, U0=U0)

    T0m = ScalarField(g, _mirror_center(T0.values))
    U0m = VectorField(g, _mirror_xface(u0), np.zeros((16, 9)))
    scm = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=wall[::-1], T0=T0m, U0=U0m)

    a = build_initial_nsf(sc)
    b = build_initial_nsf(scm)
    dt = 0.9 * cfl_dt(a, sc)
    for _ in range(5):
        a = step_nsf(a, sc, dt)
        b = step_nsf(b, scm, dt)
    assert np.array_equal(b.rho.values, _mirror_center(a.rho.values))
    assert np.array_equal(b.theta.values, _mirror_center(a.theta.values))
    assert np.array_equal(b.U.u, _mirror_xface(a.U.u))
    assert np.array_equal(b.U.w, _mirror_center(a.U.w))


def test_radiation_stage_takes_one_cbrt_per_density(monkeypatch) -> None:
    # a stage's theta recovery forms _rho_powers of its density (the cold
    # floor) and hands it to the _thermo that follows: two cbrt passes per
    # step, one per stage, where each stage used to take two
    g = Grid(16, 8)
    calls = []
    inner = thermo._rho_powers

    def counted(rho):
        calls.append(rho.shape)
        return inner(rho)

    monkeypatch.setattr(thermo, "_rho_powers", counted)
    monkeypatch.setattr(nsf, "_rho_powers", counted)

    def run(t_end):
        sc = _scenario(g, eos=EosParams(p_inf=1.0, a=1.0), G=gravity_potential(g, 1.0),
                       theta_b_bottom=0.2, theta_b_top=-0.2, t_end=t_end)
        sc.reference()  # the discrete reference is built outside the count
        calls.clear()
        return run_nsf(sc).steps, len(calls)

    (short, short_calls), (long, long_calls) = run(0.01), run(0.02)
    assert long > short > 2
    assert long_calls - short_calls == 2 * (long - short)


def test_radiation_run_warm_start_matches_cold_start(monkeypatch) -> None:
    # every RK stage recovers theta from rho*e starting at the previous
    # stage's theta; a cold start (no guess) reaches the same trajectory to
    # rounding.  Velocities are compared on the unit velocity scale of the
    # scaled system: their rounding floor does not shrink with |U|.
    g = Grid(32, 16)
    X, Z = g.cell_mesh()
    T0 = ScalarField(g, 0.2 - 0.4 * Z + 0.1 * np.sin(2 * np.pi * X) * Z * (1 - Z))
    sc = _scenario(
        g, eos=EosParams(p_inf=1.0, a=1.0), G=gravity_potential(g, 1.0),
        theta_b_bottom=0.2, theta_b_top=-0.2, T0=T0, t_end=0.05,
    )
    inner = nsf._theta_from_rho_e
    guesses = []

    def counted(rho, E, eos, theta_guess, rho_powers):
        guesses.append(theta_guess is not None)
        return inner(rho, E, eos, theta_guess, rho_powers)

    monkeypatch.setattr(nsf, "_theta_from_rho_e", counted)
    warm = run_nsf(sc)
    assert len(guesses) == 2 * warm.steps and all(guesses)
    monkeypatch.setattr(nsf, "_theta_from_rho_e", lambda rho, E, eos, _, pair: inner(rho, E, eos, None, pair))
    cold = run_nsf(sc)
    assert warm.steps == cold.steps > 5
    a, b = warm.states[-1], cold.states[-1]
    for x, y in ((a.rho.values, b.rho.values), (a.theta.values, b.theta.values)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
    for x, y in ((a.U.u, b.U.u), (a.U.w, b.U.w)):
        assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))
    assert np.max(np.abs(a.U.w)) > 1e-4
    mass = warm.log.mass
    assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-12


def test_import_bll_does_not_import_scipy() -> None:
    # scipy is imported by the continuum oracle only: neither import nor a
    # stratified NSF run (discrete reference build and one step) loads it
    code = (
        "import sys, bll, bll.cli\n"
        "from bll.nsf import NsfScenario, run_nsf\n"
        "g = bll.Grid(16, 8)\n"
        "sc = NsfScenario(grid=g, eos=bll.thermo.EosParams(a=1.0), eps=0.1, t_end=1e-4,\n"
        "                 G=bll.ob.gravity_potential(g, 1.0), theta_b_bottom=0.25, theta_b_top=-0.25)\n"
        "print(sc.reference().balanced, run_nsf(sc).steps)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.splitlines() == ["True 1", "[]"]


def _rhs_full_formula(rho, th, u, w, scenario, aux, tf, eta):
    """nsf._rhs in plain slice formulas, operation for operation, with the
    bulk-viscosity terms eta div U (stresses) and eta (div U)^2 (dissipation)
    always evaluated."""
    g = scenario.grid
    eps = scenario.eps
    eos = scenario.eos
    inv_dx, inv_dz, half_inv_eps = aux.inv_dx, aux.inv_dz, aux.half_inv_eps
    E, p, c2, mu = tf.E, tf.p, tf.c2, tf.mu
    spec_h = (E + p) / rho

    dp = p - aux.p_hat_xz
    dr = rho - aux.rho_hat[None, :]
    dE = E - aux.E_hat_xz

    th_l = gr._xprev(th)
    rho_fx = center_to_xface(rho)
    jp_x = dp - gr._xprev(dp)
    jr_x = dr - gr._xprev(dr)
    jE_x = dE - gr._xprev(dE)
    half_u = np.abs(u) * 0.5
    jr_ac = jp_x / np.sqrt(center_to_xface(c2)) * half_inv_eps
    jE_ac = center_to_xface(spec_h) * jr_ac
    Fm_x = u * rho_fx - jr_ac - half_u * jr_x
    FE_x = center_to_xface(E) * u - jE_ac - half_u * jE_x
    FE_x -= _kappa(0.5 * (th + th_l), eos, inv_dx) * (th - th_l)

    wi = w[:, 1:-1]
    rho_fz = 0.5 * (rho[:, 1:] + rho[:, :-1])
    jp_z = dp[:, 1:] - dp[:, :-1]
    jr_z = dr[:, 1:] - dr[:, :-1]
    jE_z = dE[:, 1:] - dE[:, :-1]
    jr_ac_z = jp_z / np.sqrt(0.5 * (c2[:, 1:] + c2[:, :-1])) * half_inv_eps
    jE_ac_z = 0.5 * (spec_h[:, 1:] + spec_h[:, :-1]) * jr_ac_z
    half_w = np.abs(0.5 * wi)
    Fm_z = np.zeros_like(w)
    Fm_z[:, 1:-1] = wi * rho_fz - jr_ac_z - half_w * jr_z
    FE_z = np.zeros_like(w)
    FE_z[:, 1:-1] = (E[:, 1:] + E[:, :-1]) * (0.5 * wi) - jE_ac_z - half_w * jE_z
    FE_z[:, 1:-1] -= _kappa(0.5 * (th[:, 1:] + th[:, :-1]), eos, inv_dz) * (th[:, 1:] - th[:, :-1])
    FE_z[:, 0] = (th[:, 0] - aux.wall_b) * aux.kap_b2
    FE_z[:, -1] = (aux.wall_t - th[:, -1]) * aux.kap_t2

    d_rho = (gr._xnext(Fm_x) - Fm_x) * aux.div_x + (Fm_z[:, 1:] - Fm_z[:, :-1]) * aux.div_z
    d_E = (gr._xnext(FE_x) - FE_x) * aux.div_x + (FE_z[:, 1:] - FE_z[:, :-1]) * aux.div_z

    adv_u, adv_w = advect_velocity(g, u, w)
    Gv = scenario.G.values
    dGz_eps = (Gv[:, 1:] - Gv[:, :-1]) / (eps * g.dz)
    Dxx = (gr._xnext(u) - u) * inv_dx
    Dzz = (w[:, 1:] - w[:, :-1]) * inv_dz
    divU = Dxx + Dzz
    Sxx = mu * (Dxx - Dzz) + eta * divU
    Szz = mu * (Dzz - Dxx) + eta * divU
    shear = np.zeros_like(w)
    shear[:, 1:-1] = (u[:, 1:] - u[:, :-1]) * inv_dz
    shear[:, 0] = u[:, 0] * (2.0 * inv_dz)
    shear[:, -1] = u[:, -1] * (-2.0 * inv_dz)
    shear += (w - gr._xprev(w)) * inv_dx
    th_corner = np.empty_like(w)
    th_corner[:, 1:-1] = 0.25 * ((th[:, 1:] + th_l[:, 1:]) + (th[:, :-1] + th_l[:, :-1]))
    th_corner[:, 0] = 0.5 * (aux.wall_b + gr._xprev(aux.wall_b))
    th_corner[:, -1] = 0.5 * (aux.wall_t + gr._xprev(aux.wall_t))
    Sxz = _mu(th_corner, eos) * shear

    visc_u = (Sxx - gr._xprev(Sxx)) * inv_dx + (Sxz[:, 1:] - Sxz[:, :-1]) * inv_dz
    du = adv_u + (visc_u - jp_x * aux.pg_x) / rho_fx
    if aux.dGx_eps is not None:
        du += aux.dGx_eps
    visc_w = (gr._xnext(Sxz[:, 1:-1]) - Sxz[:, 1:-1]) * inv_dx + (Szz[:, 1:] - Szz[:, :-1]) * inv_dz
    dw = np.zeros_like(w)
    dw[:, 1:-1] = adv_w[:, 1:-1] + (
        visc_w - jp_z * aux.pg_z + (rho_fz - aux.rho_hat_f[None, :]) * dGz_eps
    ) / rho_fz

    sh2 = shear * shear
    sh2_r = gr._xnext(sh2)
    sh2_c = 0.25 * ((sh2[:, :-1] + sh2_r[:, :-1]) + (sh2[:, 1:] + sh2_r[:, 1:]))
    d_E += eps * eps * (mu * ((Dxx - Dzz) ** 2 + sh2_c) + eta * divU * divU) - p * divU
    return d_rho, d_E, du, dw


# Frozen copies of the stage as it was before its constants were folded and
# its Rusanov fluxes took two terms: rho*e with its powers, the slice formulas
# of _rhs (the six-term Rusanov flux, every grid and eps factor divided per
# stage, the potential force as G' (1 - rho_hat_f / rho_f)) and the CFL bound.
def _old_rho_e(rho, theta, eos):
    E = 1.5 * rho * theta
    if eos.p_inf:
        E += 1.5 * eos.p_inf * rho ** (5.0 / 3.0)
    return E + eos.a * theta ** 4 if eos.a else E


def _old_stage_thermo(rho, th, eos):
    p, _, _, e_theta, c2 = _closure(rho, th, eos)
    eta = _eta(th, eos) if eos.eta0 else None
    return nsf._Thermo(_old_rho_e(rho, th, eos), p, c2, e_theta, _mu(th, eos), eta)


def _old_rhs(rho, th, u, w, scenario, aux, tf, eta):
    g = scenario.grid
    dx, dz = g.dx, g.dz
    eps = scenario.eps
    eos = scenario.eos
    E, p, c2, mu = tf.E, tf.p, tf.c2, tf.mu
    spec_h = (E + p) / rho

    dp = p - aux.p_hat_xz
    dr = rho - aux.rho_hat[None, :]
    dE = E - _old_rho_e(aux.rho_hat, aux.theta_hat, eos)[None, :]

    th_l = gr._xprev(th)
    rho_fx = center_to_xface(rho)
    jp_x = dp - gr._xprev(dp)
    jr_x = dr - gr._xprev(dr)
    jE_x = dE - gr._xprev(dE)
    c2_fx = center_to_xface(c2)
    s_ac = np.abs(u) + np.sqrt(c2_fx) / eps
    s_ad = np.abs(u)
    jr_ac = jp_x / c2_fx
    jE_ac = center_to_xface(spec_h) * jr_ac
    Fm_x = u * rho_fx - 0.5 * (s_ac * jr_ac + s_ad * (jr_x - jr_ac))
    FE_x = u * center_to_xface(E) - 0.5 * (s_ac * jE_ac + s_ad * (jE_x - jE_ac))
    FE_x -= _kappa(0.5 * (th_l + th), eos) * (th - th_l) / dx

    wi = w[:, 1:-1]
    rho_fz = 0.5 * (rho[:, :-1] + rho[:, 1:])
    jp_z = dp[:, 1:] - dp[:, :-1]
    jr_z = dr[:, 1:] - dr[:, :-1]
    jE_z = dE[:, 1:] - dE[:, :-1]
    c2_fz = 0.5 * (c2[:, :-1] + c2[:, 1:])
    s_ac_z = np.abs(wi) + np.sqrt(c2_fz) / eps
    s_ad_z = np.abs(wi)
    jr_ac_z = jp_z / c2_fz
    jE_ac_z = 0.5 * (spec_h[:, :-1] + spec_h[:, 1:]) * jr_ac_z
    Fm_z = np.zeros_like(w)
    Fm_z[:, 1:-1] = wi * rho_fz - 0.5 * (s_ac_z * jr_ac_z + s_ad_z * (jr_z - jr_ac_z))
    FE_z = np.zeros_like(w)
    FE_z[:, 1:-1] = wi * 0.5 * (E[:, :-1] + E[:, 1:]) - 0.5 * (
        s_ac_z * jE_ac_z + s_ad_z * (jE_z - jE_ac_z)
    )
    FE_z[:, 1:-1] -= _kappa(0.5 * (th[:, :-1] + th[:, 1:]), eos) * (th[:, 1:] - th[:, :-1]) / dz
    FE_z[:, 0] = -transport(aux.wall_b, eos)[2] * 2.0 * (th[:, 0] - aux.wall_b) / dz
    FE_z[:, -1] = -transport(aux.wall_t, eos)[2] * 2.0 * (aux.wall_t - th[:, -1]) / dz

    d_rho = -((gr._xnext(Fm_x) - Fm_x) / dx + (Fm_z[:, 1:] - Fm_z[:, :-1]) / dz)
    d_E = -((gr._xnext(FE_x) - FE_x) / dx + (FE_z[:, 1:] - FE_z[:, :-1]) / dz)

    adv_u, adv_w = advect_velocity(g, u, w)
    Gv = scenario.G.values
    dGz = Gv[:, 1:] - Gv[:, :-1]
    Dxx = (gr._xnext(u) - u) / dx
    Dzz = (w[:, 1:] - w[:, :-1]) / dz
    divU = Dxx + Dzz
    Sxx = mu * (Dxx - Dzz) + eta * divU
    Szz = mu * (Dzz - Dxx) + eta * divU
    shear = np.zeros_like(w)
    shear[:, 1:-1] = (u[:, 1:] - u[:, :-1]) / dz
    shear[:, 0] = 2.0 * u[:, 0] / dz
    shear[:, -1] = -2.0 * u[:, -1] / dz
    shear += (w - gr._xprev(w)) / dx
    th_corner = np.empty_like(w)
    th_corner[:, 1:-1] = 0.25 * ((th[:, 1:] + th_l[:, 1:]) + (th[:, :-1] + th_l[:, :-1]))
    th_corner[:, 0] = 0.5 * (aux.wall_b + gr._xprev(aux.wall_b))
    th_corner[:, -1] = 0.5 * (aux.wall_t + gr._xprev(aux.wall_t))
    Sxz = _mu(th_corner, eos) * shear

    du = (
        adv_u
        - jp_x / (eps * eps * rho_fx * dx)
        + ((Sxx - gr._xprev(Sxx)) / dx + (Sxz[:, 1:] - Sxz[:, :-1]) / dz) / rho_fx
    )
    dGx = gr._xdiff_prev(Gv)
    if dGx.any():
        du += dGx / (eps * dx)
    dw = np.zeros_like(w)
    dw[:, 1:-1] = (
        adv_w[:, 1:-1]
        - jp_z / (eps * eps * rho_fz * dz)
        + dGz / (eps * dz) * (1.0 - aux.rho_hat_f[None, :] / rho_fz)
        + (
            (gr._xnext(Sxz[:, 1:-1]) - Sxz[:, 1:-1]) / dx
            + (Szz[:, 1:] - Szz[:, :-1]) / dz
        )
        / rho_fz
    )

    sh2 = shear * shear
    sh2_r = gr._xnext(sh2)
    sh2_c = 0.25 * ((sh2[:, :-1] + sh2_r[:, :-1]) + (sh2[:, 1:] + sh2_r[:, 1:]))
    d_E += eps * eps * (mu * ((Dxx - Dzz) ** 2 + sh2_c) + eta * divU * divU) - p * divU
    return d_rho, d_E, du, dw


def _paired(rates):
    """rates with d_rho and d_E as the two halves of one array, as _rhs
    returns them: _step updates the pair as one array."""
    pair = np.stack(rates[:2])
    return pair[0], pair[1], *rates[2:]


def _old_cfl_bound(x, scenario, aux, tf):
    g = scenario.grid
    rho, th, u, w = x
    c = np.sqrt(tf.c2) / scenario.eps
    rate = (np.abs(0.5 * (u + gr._xnext(u))) + c) / g.dx
    rate += (np.abs(0.5 * (w[:, 1:] + w[:, :-1])) + c) / g.dz
    D = 2.0 * tf.mu
    if tf.eta is not None:
        D += tf.eta
    D = np.maximum(D / rho, _kappa(th, scenario.eos) / (rho * tf.e_theta))
    rate += 2.0 * D * (1.0 / g.dx ** 2 + 1.0 / g.dz ** 2)
    return scenario.cfl / float(np.max(rate))


def _moving_state(eos, nx=16, nz=8, x_potential=False):
    """A scenario with x-varying walls and gravity, and a moving state on it;
    x_potential adds an x-varying part to the potential."""
    g = Grid(nx, nz)
    X, Z = g.cell_mesh()
    wall = 0.2 + 0.05 * np.cos(2 * np.pi * g.x_centers)
    T0 = ScalarField(g, wall[:, None] * (1 - Z) - 0.2 * Z + 0.1 * np.sin(2 * np.pi * X) * np.sin(np.pi * Z) ** 2)
    G = gravity_potential(g, 1.0)
    if x_potential:
        G = ScalarField(g, G.values + 0.3 * np.sin(2 * np.pi * X) * np.cos(np.pi * Z))
    sc = _scenario(g, eos=eos, G=G, theta_b_bottom=wall, theta_b_top=-0.2, T0=T0)
    state = build_initial_nsf(sc)
    rng = np.random.default_rng(4)
    w = 0.1 * rng.standard_normal((nx, nz + 1))
    w[:, 0] = w[:, -1] = 0.0
    return sc, state.rho.values, state.theta.values, 0.1 * rng.standard_normal((nx, nz)), w


@pytest.mark.parametrize(
    "nx, nz, x_potential",
    [(16, 8, False), (16, 8, True), (5, 4, False)],
    ids=["16x8_z_potential", "16x8_x_potential", "5x4_z_potential"],
)
def test_rhs_without_bulk_viscosity_matches_full_formula_bitwise(nx, nz, x_potential) -> None:
    # the x-varying potential takes the dGx branch around zero reference
    # profiles; 5x4 (odd nx, the smallest nz) puts the spare column of the
    # z-face layout next to the separate top row
    sc, rho, th, u, w = _moving_state(IDEAL, nx, nz, x_potential)
    aux = sc.reference()
    assert aux.balanced is not x_potential
    assert (aux.dGx_eps is not None) is x_potential
    assert IDEAL.eta0 == 0.0
    tf = nsf._thermo(rho, th, IDEAL)
    assert tf.eta is None
    got = nsf._rhs(rho, th, u, w, sc, aux, tf, _Advection(sc.grid))
    want = _rhs_full_formula(rho, th, u, w, sc, aux, tf, _eta(th, IDEAL))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.max(np.abs(got[2])) > 0.0 and np.max(np.abs(got[1])) > 0.0


@pytest.mark.parametrize("eos", [IDEAL, EosParams(p_inf=1.0, a=1.0)], ids=["ideal", "radiation"])
def test_step_nsf_writes_no_input_and_keeps_its_results(eos) -> None:
    # A step runs in its stage plan's reused buffers: step_nsf must leave
    # the input state bytewise unchanged, and a result must share no array
    # that a later call writes.  A plan's three rate sets keep a result
    # through one more step, so the later calls are two, each at another dt.
    sc, rho, th, u, w = _moving_state(eos)
    g = sc.grid
    state = NsfState(ScalarField(g, rho), ScalarField(g, th), VectorField(g, u, w), 0.0, sc.eps)
    fields = lambda s: (s.rho.values, s.theta.values, s.U.u, s.U.w)
    before = [a.tobytes() for a in fields(state)]
    dt = 0.5 * cfl_dt(state, sc)
    first = step_nsf(state, sc, dt)
    kept = [a.tobytes() for a in fields(first)]
    for k in (2.0, 4.0):
        later = step_nsf(state, sc, dt / k)
        assert [a.tobytes() for a in fields(state)] == before
        assert [a.tobytes() for a in fields(first)] == kept
        assert [a.tobytes() for a in fields(later)] not in (kept, before)


def test_runs_share_no_state_across_scenarios() -> None:
    # each scenario's z-face-layout invariants live on its own _NsfAux: a
    # member run after a dropped member at another eps equals the first run
    # at its eps bit for bit, in the states and the log.  A cache keyed by
    # id(aux) fails this once a dropped aux's id is reused, which takes
    # some rounds of freeing and allocating
    g = Grid(16, 8)

    def member(eps):
        return run_nsf(_scenario(
            g, eps=eps, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2, t_end=0.002
        ), snapshot_dt=0.001)

    fresh = member(0.1)
    for _ in range(100):
        dropped = member(0.2)
        assert not np.array_equal(dropped.states[-1].rho.values, fresh.states[-1].rho.values)
        del dropped
        gc.collect()
        again = member(0.1)
        assert again.steps == fresh.steps and len(again.states) == len(fresh.states) == 3
        for a, b in zip(again.states, fresh.states):
            for x, y in ((a.rho.values, b.rho.values), (a.theta.values, b.theta.values), (a.U.u, b.U.u), (a.U.w, b.U.w)):
                assert np.array_equal(x, y)
        for name in nsf.LOG_COLUMNS:
            assert np.array_equal(again.log[name], fresh.log[name])


@given(nx=st.integers(4, 12), nz=st.integers(4, 12), one_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_property_z_face_layout_matches_slice_formulas(nx, nz, one_row, seed) -> None:
    # The stage plan's stacked stencils.  centre -> face: column k >= 1 of
    # every block holds face k, the spare column 0 stays finite (and
    # positive for sums of positives); x faces pair each row with its
    # periodic previous row, a one-row block with itself; face -> center
    # closes the flux pair with the separate top row
    sc = _scenario(Grid(nx, nz))
    state = build_initial_nsf(sc)  # x-invariant: its strip has one row
    x = (state.rho.values, state.theta.values, state.U.u, state.U.w)
    aux = nsf._x_strip(sc, x)[1] if one_row else sc.reference()
    plan = nsf._StagePlan(sc, aux, 1 if one_row else nx)
    rng = np.random.default_rng(seed)
    plan.centre[...] = rng.uniform(0.5, 2.0, plan.centre.shape)
    plan.dev[...] = rng.uniform(-1.0, 1.0, plan.dev.shape)
    blocks, dev = plan.centre[1:], plan.dev
    for faces in (plan.z, plan.x):
        nsf._each(np.add, faces.sum_pairs)
        nsf._each(np.subtract, faces.jump_pairs)
    assert np.array_equal(plan.z.sums[..., 1:], blocks[..., 1:] + blocks[..., :-1])
    assert (plan.z.sums[..., 0] > 0.0).all()
    assert np.array_equal(plan.z.jumps[..., 1:], dev[..., 1:] - dev[..., :-1])
    assert np.isfinite(plan.z.jumps[..., 0]).all()
    assert np.array_equal(plan.x.sums, blocks + np.roll(blocks, 1, axis=-2))
    assert np.array_equal(plan.x.jumps, dev - np.roll(dev, 1, axis=-2))

    for F in (plan.z.F, plan.x.F):
        F[...] = rng.uniform(0.5, 2.0, F.shape)
    plan.top[...] = rng.uniform(0.5, 2.0, plan.top.shape)
    rates = plan.out
    np.subtract(plan.Fz_hi, plan.Fz_lo, out=rates.pair_lo)
    np.subtract(plan.top, plan.Fz_top, out=rates.pair_top)
    with_top = np.concatenate([plan.z.F, plan.top[..., None]], axis=-1)
    assert np.array_equal(rates.pair, with_top[..., 1:] - with_top[..., :-1])
    nsf._each(np.subtract, plan.div_x_pairs)
    assert np.array_equal(plan.div_x, np.roll(plan.x.F, -1, axis=-2) - plan.x.F)


def test_bulk_viscosity_still_acts_when_eta0_positive() -> None:
    bulk = EosParams(eta0=0.5)
    sc, rho, th, u, w = _moving_state(bulk)
    sc0, *_ = _moving_state(IDEAL)
    tf = nsf._thermo(rho, th, bulk)
    got = nsf._rhs(rho, th, u, w, sc, sc.reference(), tf, nsf._StagePlan(sc, sc.reference(), 16))
    want = _rhs_full_formula(rho, th, u, w, sc, sc.reference(), tf, tf.eta)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    without = nsf._rhs(rho, th, u, w, sc0, sc0.reference(), nsf._thermo(rho, th, IDEAL), nsf._StagePlan(sc0, sc0.reference(), 16))
    assert np.array_equal(got[0], without[0])  # mass has no viscous term
    assert not np.allclose(got[1], without[1], rtol=0.0, atol=1e-12)
    assert not np.allclose(got[2], without[2], rtol=0.0, atol=1e-12)
    assert cfl_dt(build_initial_nsf(sc), sc) <= cfl_dt(build_initial_nsf(sc0), sc0)


STAGE_EOS = [IDEAL, EosParams(p_inf=1.0), EosParams(a=1.0), EosParams(p_inf=1.0, a=1.0)]


@st.composite
def _thermo_states(draw):
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    positive = st.floats(1e-3, 1e3)
    return draw(arrays(float, shape, elements=positive)), draw(arrays(float, shape, elements=positive))


@given(
    state=_thermo_states(),
    p_inf=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    a=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    eta0=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
@settings(max_examples=200, deadline=None)
def test_property_stage_thermo_matches_public_functions(state, p_inf, a, eta0) -> None:
    # the stage reads the public closure: E is the public rho_e bit for bit,
    # so the logged ballistic energy is too, and so are p, c^2 and e_theta
    rho, th = state
    eos = EosParams(p_inf=p_inf, a=a, eta0=eta0)
    tf = nsf._thermo(rho, th, eos)
    assert np.array_equal(tf.E, rho_e(rho, th, eos))
    for got, want in (
        (tf.p, pressure(rho, th, eos)),
        (tf.c2, sound_speed_squared(rho, th, eos)),
        (tf.e_theta, energy_dtheta(rho, th, eos)),
    ):
        assert np.array_equal(np.broadcast_to(got, rho.shape), want)
    mu, eta, _ = transport(th, eos)
    assert np.array_equal(tf.mu, mu)
    assert tf.eta is None if eta0 == 0.0 else np.array_equal(tf.eta, eta)


# Frozen copy of the stage thermodynamics in its closed forms (one cbrt,
# products of theta, 5 theta / 3 for the ideal gas; rho*e power-free too):
# the stage must stay bit for bit on it.
def _closed_form_thermo(rho, th, eos):
    E = 1.5 * rho * th
    if eos.p_inf:
        E += 1.5 * eos.p_inf * (rho * np.cbrt(rho) ** 2)
    if eos.a:
        E = E + eos.a * (th * th * th * th)
    mu = eos.mu0 * (1.0 + th)
    eta = eos.eta0 * (1.0 + th) if eos.eta0 else None
    p = rho * th
    if not (eos.p_inf or eos.a):
        return nsf._Thermo(E, p, (5.0 / 3.0) * th, 1.5, mu, eta)
    p_rho, p_theta, e_theta = th, rho, 1.5
    if eos.p_inf:
        r23 = np.cbrt(rho) ** 2
        p += eos.p_inf * (rho * r23)
        p_rho = th + (5.0 / 3.0) * eos.p_inf * r23
    if eos.a:
        t3 = th * th * th
        p += (eos.a / 3.0) * (t3 * th)
        p_theta = rho + (4.0 * eos.a / 3.0) * t3
        e_theta = 1.5 + 4.0 * eos.a * t3 / rho
    c2 = p_rho + th * p_theta ** 2 / (rho ** 2 * e_theta)
    return nsf._Thermo(E, p, c2, e_theta, mu, eta)


@pytest.mark.parametrize("eos", STAGE_EOS, ids=["ideal", "stiffened", "radiation", "full"])
def test_stage_thermo_equals_frozen_closed_forms_bitwise(eos) -> None:
    rng = np.random.default_rng(7)
    rho, th = 10.0 ** rng.uniform(-3.0, 3.0, (2, 16, 8))
    for e in (eos, EosParams(p_inf=eos.p_inf, a=eos.a, eta0=0.5)):
        got, want = nsf._thermo(rho, th, e), _closed_form_thermo(rho, th, e)
        for name, x, y in zip(nsf._Thermo._fields, got, want):
            assert (x is None and y is None) or np.array_equal(x, y), name


# Frozen copies of the stage thermodynamics and the theta recovery as they were
# before the stage formed its closed forms: the Z-form kernels, theta^3 by a
# power, and the guards by isfinite/any.
def _old_thermo(rho, th, eos):
    Z = rho * th ** -1.5
    P = Z + eos.p_inf * Z ** (5.0 / 3.0) if eos.p_inf else Z
    P_prime = 1.0 + (5.0 / 3.0) * eos.p_inf * Z ** (2.0 / 3.0) if eos.p_inf else np.ones_like(Z)
    p = th ** 2.5 * P
    p_theta = 2.5 * th ** 1.5 * P - 1.5 * rho * P_prime
    E = 1.5 * rho * th
    if eos.p_inf:
        E += 1.5 * eos.p_inf * rho ** (5.0 / 3.0)
    if eos.a:
        p = p + (eos.a / 3.0) * th ** 4
        p_theta += (4.0 * eos.a / 3.0) * th ** 3
        E = E + eos.a * th ** 4
        e_theta = 1.5 + 4.0 * eos.a * th ** 3 / rho
    else:
        e_theta = np.full(np.broadcast(rho, th).shape, 1.5)
    c2 = th * P_prime + th * p_theta ** 2 / (rho ** 2 * e_theta)
    eta = eos.eta0 * (1.0 + th) if eos.eta0 else None
    return nsf._Thermo(E, p, c2, e_theta, eos.mu0 * (1.0 + th), eta)


def _old_theta_from_rho_e(rho, E, eos, theta_guess=None):
    rho = np.asarray(rho, dtype=float)
    E = np.asarray(E, dtype=float)
    R = E - 1.5 * eos.p_inf * rho ** (5.0 / 3.0) if eos.p_inf else E
    if np.any(~np.isfinite(R)) or np.any(R <= 0):
        raise DomainError("internal energy below the cold-pressure floor")
    if eos.a == 0.0:
        return R / (1.5 * rho)
    theta = np.maximum(R / (1.5 * rho) if theta_guess is None else theta_guess, 1e-30)
    for _ in range(60):
        t3 = theta ** 3
        f = 1.5 * rho * theta + eos.a * (t3 * theta) - R
        df = 1.5 * rho + 4.0 * eos.a * t3
        step = f / df
        theta = np.maximum(theta - step, 0.5 * theta)
        if np.max(np.abs(step)) <= 1e-14 * np.max(theta):
            return theta
    raise DomainError("Newton inversion of rho*e for theta did not converge")


def _old_stage_theta_from_rho_e(rho, E, eos, theta_guess, _pair):
    """_old_theta_from_rho_e behind the stage's private path, which also
    hands over the rho powers."""
    return _old_theta_from_rho_e(rho, E, eos, theta_guess)


def _stage_theta_of(rho, E, t, scenario, theta_guess):
    """nsf._theta_of with the rho powers a stage forms for it."""
    return nsf._theta_of(rho, E, t, scenario, theta_guess, _rho_powers(rho) if scenario.eos.p_inf else None)


def _old_theta_of(rho, E, t, scenario, theta_guess):
    if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
        raise DivergenceError("density lost positivity", time=t)
    try:
        th = _old_theta_from_rho_e(rho, E, scenario.eos, theta_guess)
    except DomainError as exc:
        raise DivergenceError(f"energy left the admissible range: {exc}", time=t) from exc
    if not np.all(np.isfinite(th)) or np.any(th <= 0):
        raise DivergenceError("temperature lost positivity", time=t)
    return th


def _outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except (ValueError, RuntimeError) as exc:  # DomainError, DivergenceError, numpy's empty min
        return type(exc), str(exc)


def _recovery_cases():
    """(rho, E) pairs with one bad entry in rho, in E, or in the theta they
    recover (1e-300 / 1e300 overflows theta, 1e300 / 1e-300 underflows it)."""
    rho, E = np.linspace(0.5, 2.0, 6), np.linspace(1.0, 3.0, 6)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        for target in ("rho", "E"):
            r, e = rho.copy(), E.copy()
            (r if target == "rho" else e)[2] = bad
            yield f"{target}={bad}", r, e
    for r2, e2 in ((1e-300, 1e300), (1e300, 1e-300)):
        r, e = rho.copy(), E.copy()
        r[2], e[2] = r2, e2
        yield f"theta_from({r2:g},{e2:g})", r, e


@pytest.mark.parametrize("eos", STAGE_EOS, ids=["ideal", "stiffened", "radiation", "full"])
def test_guards_raise_as_before_for_bad_entries(eos) -> None:
    sc = _scenario(Grid(8, 8), eos=eos)
    raised = 0
    for case, rho, E in _recovery_cases():
        for new, old, args in (
            (theta_from_rho_e, _old_theta_from_rho_e, (rho, E, eos)),
            (_stage_theta_of, _old_theta_of, (rho, E, 0.5, sc, np.ones_like(rho))),
        ):
            got, want = _outcome(new, *args), _outcome(old, *args)
            if isinstance(want, tuple):
                assert got == want, case
                raised += 1
            else:
                assert isinstance(got, np.ndarray) and got.shape == want.shape, case
                assert np.allclose(got, want, rtol=1e-14, atol=0.0, equal_nan=True), case
    assert raised >= 12


@pytest.mark.parametrize("eos", STAGE_EOS, ids=["ideal", "stiffened", "radiation", "full"])
def test_theta_recovery_takes_scalars_and_empty_arrays(eos) -> None:
    sc = _scenario(Grid(8, 8), eos=eos)
    one = np.asarray(1.0)
    E = rho_e(one, one, eos)
    assert float(theta_from_rho_e(1.0, float(E), eos)) == pytest.approx(1.0, rel=1e-13)
    assert float(_stage_theta_of(one, E, 0.0, sc, one)) == pytest.approx(1.0, rel=1e-13)
    for shape in ((0,), (0, 3)):
        empty = np.empty(shape)
        assert theta_from_rho_e(empty, empty, eos).shape == shape
        assert _stage_theta_of(empty, empty, 0.0, sc, empty).shape == shape


@pytest.mark.parametrize("eos", [IDEAL, EosParams(p_inf=1.0, a=1.0)], ids=["ideal", "radiation"])
def test_stage_closed_forms_move_a_run_by_rounding_only(eos, monkeypatch) -> None:
    # the same run with the frozen stage thermodynamics and theta recovery
    # swapped in agrees to rounding; velocities on the unit velocity scale
    g = Grid(16, 8)
    X, Z = g.cell_mesh()
    T0 = ScalarField(g, 0.2 * (1 - 2 * Z) + 0.1 * np.sin(2 * np.pi * X) * np.sin(np.pi * Z) ** 2)
    sc = _scenario(
        g, eos=eos, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2, T0=T0, t_end=0.05
    )
    new = run_nsf(sc)
    monkeypatch.setattr(nsf, "_thermo", lambda rho, th, eos, _=None: _old_thermo(rho, th, eos))
    monkeypatch.setattr(nsf, "_theta_from_rho_e", _old_stage_theta_from_rho_e)
    old = run_nsf(sc)
    monkeypatch.undo()
    assert new.steps == old.steps > 5
    a, b = new.states[-1], old.states[-1]
    for x, y in ((a.rho.values, b.rho.values), (a.theta.values, b.theta.values)):
        assert np.max(np.abs(x - y) / np.abs(y)) <= 1e-13
    for x, y in ((a.U.u, b.U.u), (a.U.w, b.U.w)):
        assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))
    assert np.max(np.abs(a.U.w)) > 1e-4
    for traj in (new, old):
        mass = traj.log.mass
        assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-12


@pytest.mark.parametrize("eos", [IDEAL, EosParams(p_inf=1.0, a=1.0)], ids=["ideal", "radiation"])
def test_stage_folding_moves_a_run_by_rounding_only(eos, monkeypatch) -> None:
    # the same run with the frozen stage (rho*e by powers, the six-term
    # Rusanov flux, divided constants, the old CFL bound) swapped in agrees
    # to rounding
    g = Grid(16, 8)
    X, Z = g.cell_mesh()
    T0 = ScalarField(g, 0.2 * (1 - 2 * Z) + 0.1 * np.sin(2 * np.pi * X) * np.sin(np.pi * Z) ** 2)
    sc = _scenario(
        g, eos=eos, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2, T0=T0, t_end=0.05
    )
    new = run_nsf(sc)
    monkeypatch.setattr(nsf, "_thermo", lambda rho, th, eos, _=None: _old_stage_thermo(rho, th, eos))
    monkeypatch.setattr(
        nsf, "_rhs", lambda rho, th, u, w, sc, aux, tf, _: _paired(_old_rhs(rho, th, u, w, sc, aux, tf, _eta(th, sc.eos)))
    )
    monkeypatch.setattr(nsf, "_cfl_bound", _old_cfl_bound)
    monkeypatch.setattr(nsf, "_theta_from_rho_e", _old_stage_theta_from_rho_e)
    old = run_nsf(sc)
    monkeypatch.undo()
    assert new.steps == old.steps > 5
    a, b = new.states[-1], old.states[-1]
    for x, y in ((a.rho.values, b.rho.values), (a.theta.values, b.theta.values)):
        assert np.max(np.abs(x - y) / np.abs(y)) <= 1e-13
    for x, y in ((a.U.u, b.U.u), (a.U.w, b.U.w)):
        assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))
    assert np.max(np.abs(a.U.w)) > 1e-4
    assert not np.array_equal(a.U.w, b.U.w)  # the swap took effect
    for traj in (new, old):
        mass = traj.log.mass
        assert np.max(np.abs(mass - mass[0])) / mass[0] <= 1e-12


@pytest.mark.parametrize("eos", [IDEAL, EosParams(p_inf=1.0, a=1.0)], ids=["ideal", "radiation"])
@pytest.mark.parametrize("nx, nz", [(16, 12), (64, 32)], ids=["16x12", "64x32"])
def test_rhs_is_exactly_zero_at_rest_on_the_discrete_reference(eos, nx, nz) -> None:
    # the potential force G' (rho_f - rho_hat_f) / rho_f vanishes exactly
    # where rho_f = rho_hat_f; G' (1 - rho_hat_f (1 / rho_f)) would not
    g = Grid(nx, nz)
    sc = _scenario(g, eos=eos, G=gravity_potential(g, 1.0), theta_b_bottom=0.3, theta_b_top=-0.2)
    rho_hat, theta_hat = discrete_hydrostatic_reference(sc)
    state = _profile_state(g, rho_hat, theta_hat, sc.eps)
    rho, th = state.rho.values, state.theta.values
    d_rho, _, du, dw = nsf._rhs(
        rho, th, state.U.u, state.U.w, sc, sc.reference(), nsf._thermo(rho, th, eos), nsf._StagePlan(sc, sc.reference(), nx)
    )
    assert np.array_equal(d_rho, np.zeros_like(rho))
    assert np.array_equal(du, np.zeros_like(state.U.u))
    assert np.array_equal(dw, np.zeros_like(state.U.w))


def _entry_points():
    """(name, call(state, scenario)) for every public NSF entry point that takes a state."""
    return [
        ("run_nsf", lambda st, sc: run_nsf(sc, initial=st)),
        ("step_nsf", lambda st, sc: step_nsf(st, sc, 1e-6)),
        ("cfl_dt", cfl_dt),
        ("ballistic_energy", ballistic_energy),
    ]


@pytest.mark.parametrize("name, call", _entry_points(), ids=[n for n, _ in _entry_points()])
def test_entry_points_reject_a_state_of_another_scenario(name, call) -> None:
    g = Grid(16, 8)
    sc = _scenario(g, t_end=1e-4)
    call(build_initial_nsf(sc), sc)  # the matching state runs
    other_eps = build_initial_nsf(_scenario(g, eps=0.05))
    with pytest.raises(CompatibilityError, match=r"eps=0\.05 .*eps=0\.1"):
        call(other_eps, sc)
    other_grid = build_initial_nsf(_scenario(Grid(8, 8)))
    with pytest.raises(ShapeError, match=r"nx=8, nz=8.*nx=16, nz=8"):
        call(other_grid, sc)


def _one_row(s, sc, theta_tilde):
    """(mass, ballistic energy, entropy integral) of state s formed on row 0
    of s and of theta_tilde, each row sum scaled by nx cell_volume: a
    strip's log, written out with the per-state arithmetic."""
    g, eos = sc.grid, sc.eos
    rho, th = s.rho.values[:1], s.theta.values[:1]
    kin = (zface_to_center(s.U.w * s.U.w) + xface_to_center(s.U.u * s.U.u))[:1]
    ent = entropy(rho, th, eos)
    dens = 0.5 * rho * kin * sc.eps ** 2 + rho_e(rho, th, eos) - theta_tilde.values[:1] * rho * ent
    scale = g.nx * g.cell_volume
    return tuple(float(np.sum(a)) * scale for a in (rho, dens, rho * ent))


def _step_loop(sc, snapshot_dt):
    """run_nsf's log rows and snapshots, formed at full width by the public
    step_nsf, cfl_dt and ballistic_energy with run_nsf's step clamping,
    and the _one_row integrals of every logged state."""
    g, eos = sc.grid, sc.eos
    theta_tilde = laplace_dirichlet(g, *sc.wall_theta())

    def row(s, dt):
        rho = s.rho.values
        s_int = float(np.sum(rho * entropy(rho, s.theta.values, eos))) * g.cell_volume
        return (s.t, float(np.sum(rho)) * g.cell_volume, ballistic_energy(s, sc, theta_tilde), s_int, dt)

    state = build_initial_nsf(sc)
    rows, states, next_snap = [row(state, 0.0)], [state], snapshot_dt
    one_row = [_one_row(state, sc, theta_tilde)]
    while state.t < sc.t_end - 1e-12:
        dt = min(cfl_dt(state, sc), min(next_snap, sc.t_end) - state.t)
        state = step_nsf(state, sc, dt)
        rows.append(row(state, dt))
        one_row.append(_one_row(state, sc, theta_tilde))
        at_snap = state.t >= next_snap - 1e-12
        if at_snap or state.t >= sc.t_end - 1e-12:
            states.append(state)
            next_snap += snapshot_dt if at_snap else 0.0
    return np.array(rows), states, np.array(one_row)


# The log columns that a strip forms on one row.
_INTEGRALS = ("mass", "ballistic_energy", "entropy_proxy")


def _assert_run_is_the_step_loop_bytewise(sc, monkeypatch):
    """Run sc through run_nsf and compare t, dt and every snapshot's fields
    bytewise with _step_loop, and the log's integrals too at full width; a
    strip's integrals, formed on one row, are bytewise _one_row's and
    within 1e-14 relative of the full-width sums.  Returns the widths of
    the states that run_nsf stepped, each under the caller's scenario
    object, and the (column flag, face directions) pairs of its steps: the
    directions, in order, whose _face_fluxes a step formed."""
    widths, runs, paths, fluxes = set(), [], set(), []
    step, face_fluxes = nsf._step, nsf._face_fluxes

    def spy(x, t, dt, run, aux, *args):
        widths.add(x[0].shape[0])
        runs.append(run)
        before = len(fluxes)
        out = step(x, t, dt, run, aux, *args)
        paths.add((aux.column, "".join(fluxes[before:])))
        return out

    def count(faces, *args):
        fluxes.append(faces.name)
        return face_fluxes(faces, *args)

    monkeypatch.setattr(nsf, "_step", spy)
    monkeypatch.setattr(nsf, "_face_fluxes", count)
    traj = run_nsf(sc, snapshot_dt=0.005)
    monkeypatch.undo()
    rows, states, one_row = _step_loop(sc, 0.005)
    assert traj.steps == len(rows) - 1 > 5 and traj.scenario is sc
    assert len(runs) == traj.steps and all(run is sc for run in runs)
    strip = widths != {sc.grid.nx}
    for k, name in enumerate(nsf.LOG_COLUMNS):
        got, want = traj.log[name], rows[:, k]
        if strip and name in _INTEGRALS:
            assert got.tobytes() == one_row[:, _INTEGRALS.index(name)].tobytes()
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        else:
            assert got.tobytes() == want.tobytes()
    assert traj.times == [s.t for s in states] and len(states) == 5
    for a, b in zip(traj.states, states):
        assert a.rho.grid == a.U.grid == sc.grid
        for x, y in ((a.rho.values, b.rho.values), (a.theta.values, b.theta.values), (a.U.u, b.U.u), (a.U.w, b.U.w)):
            assert x.tobytes() == y.tobytes()
    return widths, paths


def _column_scenario(g, eos, **kw):
    """The criterion-7/8 column, gravity, walls 0.2 / -0.2 and T0 linear in
    z, with kw replacing any of them."""
    Z = g.cell_mesh()[1]
    column = dict(
        G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2, T0=ScalarField(g, 0.2 * (1 - 2 * Z))
    )
    return _scenario(g, eos=eos, t_end=0.02, **(column | kw))


@pytest.mark.parametrize("start", ["rest", "shear", "negative_zero"])
@pytest.mark.parametrize("nx", [16, 6, 4])
@pytest.mark.parametrize(
    "eos", [IDEAL, EosParams(p_inf=1.0, a=1.0), EosParams(eta0=0.02)], ids=["ideal", "radiation", "bulk"]
)
def test_x_invariant_run_steps_a_strip_bytewise(eos, nx, start, monkeypatch) -> None:
    # An x-invariant run steps one row and tiles it back: its log and
    # snapshots are the full-width step loop's, byte for byte, 4 (the
    # narrowest grid) included.  The rest start is a column (u bytewise
    # +0.0), whose steps form only the z-face fluxes; the shear start has a
    # z-varying u, and an all -0.0 u is no column either.  The bulk gas
    # checks the column's eta div U terms.
    g = Grid(nx, 8)
    kw = {}
    if start == "shear":
        z = g.z_centers
        w = np.zeros((nx, 9))
        w[:, 1:-1] = 0.02 * np.sin(np.pi * g.z_faces[1:-1])
        kw["U0"] = VectorField(g, np.tile(0.1 * np.sin(np.pi * z) * (1 - z), (nx, 1)), w)
    elif start == "negative_zero":
        kw["U0"] = VectorField(g, np.full((nx, 8), -0.0), np.zeros((nx, 9)))
    column = start == "rest"
    sc = _column_scenario(g, eos, **kw)
    assert _assert_run_is_the_step_loop_bytewise(sc, monkeypatch) == ({1}, {(column, "zz" if column else "zxzx")})


@pytest.mark.parametrize("eos", [IDEAL, EosParams(eta0=0.02)], ids=["ideal", "bulk"])
def test_column_stage_is_the_full_stage_bytewise_with_signed_zeros(eos) -> None:
    # On the discrete reference at u = +0.0, with an x-invariant w mixing
    # +-0.0 and +-1e-3, the column's rates are rows of the full-width
    # stage's, zero signs included, and the full du is all +0.0.  Runs never
    # reach a state where a zero's sign survives the column's four + 0.0
    # operands: dropping all of them passes the run tests but not this one.
    g = Grid(8, 6)
    sc = _scenario(g, eos=eos, G=gravity_potential(g, 1.0), theta_b_bottom=0.2, theta_b_top=-0.2)
    rho, th = (np.tile(p, (8, 1)) for p in discrete_hydrostatic_reference(sc))
    rng = np.random.default_rng(2)
    for _ in range(100):
        col = rng.choice([0.0, -0.0, 1e-3, -1e-3], size=7)
        col[[0, -1]] = rng.choice([0.0, -0.0], size=2)
        x = (rho, th, np.zeros((8, 6)), np.tile(col, (8, 1)))
        xs, strip = nsf._x_strip(sc, x)
        full = nsf._rhs(*x, sc, sc.reference(), nsf._thermo(rho, th, eos), nsf._StagePlan(sc, sc.reference(), 8))
        got = nsf._rhs(*xs, sc, strip, nsf._thermo(xs[0], xs[1], eos), nsf._StagePlan(sc, strip, 1))
        assert strip.column and got[2] is None and not full[2].view(np.uint64).any()
        for i in (0, 1, 3):
            assert got[i].tobytes() == full[i][:1].tobytes()


@pytest.mark.parametrize(
    "start, times", [(0.02, [0.02, 0.03, 0.04, 0.05]), (0.015, [0.015, 0.02, 0.03, 0.04, 0.05])]
)
def test_late_start_snapshots_stay_on_multiples_of_snapshot_dt(start, times) -> None:
    # A run from a state at t > snapshot_dt takes its first snapshot at the
    # first multiple of snapshot_dt after the start, not behind it.
    sc = _scenario(Grid(8, 6), t_end=0.05)
    state = build_initial_nsf(sc)
    state.t = start
    traj = run_nsf(sc, snapshot_dt=0.01, initial=state)
    assert traj.times == pytest.approx(times, rel=0.0, abs=1e-12)
    assert [s.t for s in traj.states] == traj.times
    assert traj.log.t[0] == start and traj.log.t[-1] == pytest.approx(0.05, rel=0.0, abs=1e-12)


def _x_varying(g, case):
    """Scenario keywords that break x-invariance in one place."""
    X, Z = g.cell_mesh()
    if case == "T0":
        return {"T0": ScalarField(g, 0.2 * (1 - 2 * Z) + 0.05 * np.cos(2 * np.pi * X) * Z * (1 - Z))}
    if case == "wall":
        return {"theta_b_bottom": 0.2 + 0.05 * np.cos(2 * np.pi * g.x_centers)}
    u = np.zeros((g.nx, g.nz))
    u[3, 2] = -0.0  # one negative zero in a single column
    return {"U0": VectorField(g, u, np.zeros((g.nx, g.nz + 1)))}


@pytest.mark.parametrize("case", ["T0", "wall", "negative_zero"])
def test_x_varying_run_takes_the_full_path_bytewise(case, monkeypatch) -> None:
    # Negative controls: each breaks x-invariance in one place, so the run
    # steps the full width, and still equals the step loop byte for byte.
    g = Grid(16, 8)
    sc = _column_scenario(g, IDEAL, **_x_varying(g, case))
    assert _assert_run_is_the_step_loop_bytewise(sc, monkeypatch) == ({16}, {(False, "zxzx")})


def test_full_width_log_crosses_block_boundaries_bytewise(monkeypatch) -> None:
    # Log buffers cut to three full-width steps: the run's log fills several
    # blocks and still equals the per-step loop byte for byte.
    g = Grid(16, 8)
    sc = _column_scenario(g, IDEAL, **_x_varying(g, "T0"))
    blocks, form = [], nsf._LogRecorder._form
    monkeypatch.setattr(nsf, "_LOG_BYTES", 3 * 8 * 16 * (5 * 8 + 1))
    monkeypatch.setattr(nsf._LogRecorder, "_form", lambda log: blocks.append(log.filled) or form(log))
    assert _assert_run_is_the_step_loop_bytewise(sc, monkeypatch) == ({16}, {(False, "zxzx")})
    assert len(blocks) >= 3 and blocks[:2] == [3, 3]
