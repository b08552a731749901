"""Compressible-solver tests: fixed points, balance, oracles, conservation."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bll import grid as gr
from bll import nsf
from bll.errors import CompatibilityError, DivergenceError, DomainError, ShapeError, StabilityError
from bll.grid import Grid, ScalarField, VectorField, advect_velocity, center_to_xface, laplace_dirichlet
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
from bll.thermo import EosParams, _eta, _kappa, _mu, entropy, sound_speed_squared

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
        with pytest.raises(DomainError, match="dt must be finite"):
            _scenario(g, dt=bad)


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
    with pytest.raises(StabilityError, match="retry with dt"):
        run_nsf(_scenario(g, dt=3.0 * bound, t_end=0.1))


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
    inner = nsf.theta_from_rho_e
    guesses = []

    def counted(rho, E, eos, theta_guess=None):
        guesses.append(theta_guess is not None)
        return inner(rho, E, eos, theta_guess)

    monkeypatch.setattr(nsf, "theta_from_rho_e", counted)
    warm = run_nsf(sc)
    assert len(guesses) == 2 * warm.steps and all(guesses)
    monkeypatch.setattr(nsf, "theta_from_rho_e", lambda rho, E, eos, theta_guess=None: inner(rho, E, eos))
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


def test_brentq_port_matches_scipy_bitwise(monkeypatch) -> None:
    from scipy.optimize import brentq

    port = nsf._brentq
    for f, lo, hi in (
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
        (lambda x: x ** 9 - 0.5, 0.0, 2.0),
        (lambda x: (x - 0.3) ** 3 + 1e-9 * (x - 0.3), -1.0, 2.0),  # 53 iterations
    ):
        assert port(f, lo, hi, 1e-14, 1e-12) == brentq(f, lo, hi, xtol=1e-14, rtol=1e-12)

    # every mass-shooting solve of the discrete reference and of the oracle
    roots = []

    def both(f, lo, hi, xtol, rtol):
        roots.append((port(f, lo, hi, xtol, rtol), brentq(f, lo, hi, xtol=xtol, rtol=rtol)))
        return roots[-1][0]

    monkeypatch.setattr(nsf, "_brentq", both)
    g = Grid(4, 16)
    for eos in (IDEAL, EosParams(p_inf=1.0), EosParams(a=1.0), EosParams(p_inf=1.0, a=1.0)):
        for eps in (0.2, 0.05):
            sc = _scenario(
                g, eos=eos, eps=eps, G=gravity_potential(g, 1.0), theta_b_bottom=0.25, theta_b_top=-0.25
            )
            discrete_hydrostatic_reference(sc)
            hydrostatic_stationary_1d(sc)
    assert len(roots) == 16
    assert all(got == want for got, want in roots)


def test_brentq_port_rejects_unbracketed_interval_and_non_convergence() -> None:
    with pytest.raises(DomainError, match="not bracketed"):
        nsf._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14, 1e-12)
    # a triple root defeats 100 iterations here, as it does scipy's brentq
    with pytest.raises(DomainError, match="did not converge"):
        nsf._brentq(lambda x: (x - 0.3) ** 3, -1.0, 2.0, 1e-14, 1e-12)


def test_import_bll_does_not_import_scipy() -> None:
    # scipy is imported by the continuum oracle only, so import stays cheap
    code = (
        "import sys, bll, bll.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.stdout.strip() == "[]"


def _rhs_full_formula(rho, th, u, w, scenario, aux, tf, eta):
    """nsf._rhs as it was before the eta0 == 0 skip: the bulk-viscosity terms
    eta div U (stresses) and eta (div U)^2 (dissipation) always evaluated."""
    g = scenario.grid
    dx, dz = g.dx, g.dz
    eps = scenario.eps
    eos = scenario.eos
    E, p, c2, mu = tf.E, tf.p, tf.c2, tf.mu
    spec_h = (E + p) / rho

    dp = p - aux.p_hat[None, :]
    dr = rho - aux.rho_hat[None, :]
    dE = E - aux.E_hat[None, :]

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
    FE_z[:, 0] = -aux.kap_b * 2.0 * (th[:, 0] - aux.wall_b) / dz
    FE_z[:, -1] = -aux.kap_t * 2.0 * (aux.wall_t - th[:, -1]) / dz

    d_rho = -((gr._xnext(Fm_x) - Fm_x) / dx + (Fm_z[:, 1:] - Fm_z[:, :-1]) / dz)
    d_E = -((gr._xnext(FE_x) - FE_x) / dx + (FE_z[:, 1:] - FE_z[:, :-1]) / dz)

    adv_u, adv_w = advect_velocity(g, u, w)
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
    if aux.dGx is not None:
        du += aux.dGx / (eps * dx)
    dw = np.zeros_like(w)
    dw[:, 1:-1] = (
        adv_w[:, 1:-1]
        - jp_z / (eps * eps * rho_fz * dz)
        + aux.dGz / (eps * dz) * (1.0 - aux.rho_hat_f[None, :] / rho_fz)
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


def _moving_state(eos):
    """A scenario with x-varying walls and gravity, and a moving state on it."""
    g = Grid(16, 8)
    X, Z = g.cell_mesh()
    wall = 0.2 + 0.05 * np.cos(2 * np.pi * g.x_centers)
    T0 = ScalarField(g, wall[:, None] * (1 - Z) - 0.2 * Z + 0.1 * np.sin(2 * np.pi * X) * np.sin(np.pi * Z) ** 2)
    sc = _scenario(g, eos=eos, G=gravity_potential(g, 1.0), theta_b_bottom=wall, theta_b_top=-0.2, T0=T0)
    state = build_initial_nsf(sc)
    rng = np.random.default_rng(4)
    w = 0.1 * rng.standard_normal((16, 9))
    w[:, 0] = w[:, -1] = 0.0
    return sc, state.rho.values, state.theta.values, 0.1 * rng.standard_normal((16, 8)), w


def test_rhs_without_bulk_viscosity_matches_full_formula_bitwise() -> None:
    sc, rho, th, u, w = _moving_state(IDEAL)
    assert IDEAL.eta0 == 0.0
    tf = nsf._thermo(rho, th, IDEAL)
    assert tf.eta is None
    got = nsf._rhs(rho, th, u, w, sc, sc.reference(), tf)
    want = _rhs_full_formula(rho, th, u, w, sc, sc.reference(), tf, _eta(th, IDEAL))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.max(np.abs(got[2])) > 0.0 and np.max(np.abs(got[1])) > 0.0


def test_bulk_viscosity_still_acts_when_eta0_positive() -> None:
    bulk = EosParams(eta0=0.5)
    sc, rho, th, u, w = _moving_state(bulk)
    sc0, *_ = _moving_state(IDEAL)
    tf = nsf._thermo(rho, th, bulk)
    got = nsf._rhs(rho, th, u, w, sc, sc.reference(), tf)
    want = _rhs_full_formula(rho, th, u, w, sc, sc.reference(), tf, tf.eta)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    without = nsf._rhs(rho, th, u, w, sc0, sc0.reference(), nsf._thermo(rho, th, IDEAL))
    assert np.array_equal(got[0], without[0])  # mass has no viscous term
    assert not np.allclose(got[1], without[1], rtol=0.0, atol=1e-12)
    assert not np.allclose(got[2], without[2], rtol=0.0, atol=1e-12)
    assert cfl_dt(build_initial_nsf(sc), sc) <= cfl_dt(build_initial_nsf(sc0), sc0)
