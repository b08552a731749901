"""Limit-solver tests: closures, steady states, frame equivalence, balance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bll.ob
from bll.errors import CompatibilityError, DomainError, ShapeError, StabilityError
from bll.grid import Grid, ScalarField, Staggering, VectorField, div, mean
from bll.ob import (
    T_FRAME,
    THETA_FRAME,
    ObScenario,
    boundary_heat_flux,
    build_initial_ob,
    gravity_potential,
    recover_density_deviation,
    run_ob,
    step_ob,
    transform_frame,
)
from bll.thermo import EosParams

IDEAL = EosParams()


def _scenario(g, **kw):
    kw.setdefault("eos", IDEAL)
    return ObScenario(grid=g, **kw)


def _linear_profile(g, bottom, top=0.0):
    """T-frame initial data compatible with constant-in-time walls."""
    if np.isscalar(bottom):
        bottom = np.full(g.nx, float(bottom))
    vals = bottom[:, None] * (1.0 - g.z_centers)[None, :] + top * g.z_centers[None, :]
    return ScalarField(g, vals)


def _apply_center_dirichlet(vals, g, c, bb, bt):
    ghost_b = (8.0 * bb - 6.0 * vals[:, 0] + vals[:, 1]) / 3.0
    ghost_t = (8.0 * bt - 6.0 * vals[:, -1] + vals[:, -2]) / 3.0
    padded = np.concatenate([ghost_b[:, None], vals, ghost_t[:, None]], axis=1)
    lap = (
        (np.roll(vals, -1, axis=0) - 2 * vals + np.roll(vals, 1, axis=0)) / g.dx ** 2
        + (padded[:, 2:] - 2 * vals + padded[:, :-2]) / g.dz ** 2
    )
    return vals - c * lap


def test_gravity_potential_mean_free() -> None:
    g = Grid(16, 12)
    G = gravity_potential(g, 2.5)
    assert abs(mean(G)) <= 1e-13
    assert G.values[0, 0] > 0.0  # below mid-height the potential is positive


def test_scenario_rejects_biased_potential() -> None:
    g = Grid(8, 8)
    with pytest.raises(DomainError):
        _scenario(g, G=ScalarField(g, np.ones((8, 8))))


def test_ob_time_parameters_reject_nan_and_inf() -> None:
    g = Grid(8, 8)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(DomainError, match="dt must be finite"):
            _scenario(g, dt=bad)
        with pytest.raises(DomainError, match="t_end must be finite"):
            _scenario(g, t_end=bad)
        with pytest.raises(DomainError, match="snapshot_dt must be finite"):
            run_ob(_scenario(g, t_end=0.002), snapshot_dt=bad)


def test_step_rejects_unknown_frame() -> None:
    g = Grid(8, 8)
    sc = _scenario(g, dt=0.01, t_end=0.01)
    state = build_initial_ob(sc)
    state.frame = "X"
    with pytest.raises(ShapeError, match="unknown frame 'X'"):
        step_ob(state, sc, sc.dt)


def test_build_initial_rejects_incompatible_trace() -> None:
    g = Grid(8, 16)
    sc = _scenario(g, theta_b_bottom=1.0)
    with pytest.raises(CompatibilityError):
        build_initial_ob(sc)


def test_build_initial_projects_velocity() -> None:
    g = Grid(16, 16)
    rng = np.random.default_rng(0)
    U0 = VectorField(g, rng.standard_normal((16, 16)), rng.standard_normal((16, 17)))
    sc = _scenario(g, U0=U0)
    state = build_initial_ob(sc)
    assert np.max(np.abs(div(state.U).values)) <= 1e-11
    assert np.all(state.U.w[:, 0] == 0.0)
    assert np.all(state.U.w[:, -1] == 0.0)


def test_frame_transform_roundtrip() -> None:
    g = Grid(8, 8)
    sc = _scenario(g, lambda_override=0.37)
    rng = np.random.default_rng(1)
    state = build_initial_ob(sc)
    state.temp.values[:] = rng.standard_normal((8, 8))
    back = transform_frame(transform_frame(state, sc), sc)
    assert back.frame == T_FRAME
    assert np.max(np.abs(back.temp.values - state.temp.values)) <= 1e-14
    th = transform_frame(state, sc)
    assert abs(mean(th.temp) - (1 - 0.37) * mean(state.temp)) <= 1e-14


def test_recover_density_deviation_ideal_gas() -> None:
    g = Grid(8, 8)
    G = gravity_potential(g, 1.0)
    sc = _scenario(g, G=G)
    temp = ScalarField(g, 0.3 * np.ones((8, 8)))
    r = recover_density_deviation(temp, sc)
    # ideal gas at (1,1): p_rho = p_theta = 1, so r = G + mean(T) - T = G
    assert np.max(np.abs(r.values - G.values)) <= 1e-13
    assert abs(mean(r)) <= 1e-13


def test_tframe_step_satisfies_discrete_equation() -> None:
    # the affine closure must solve (I - c lap) T' = T + dt A + lam (m' - m)
    # with the Theta_B walls, exactly.
    g = Grid(16, 12)
    lam = 0.4
    sc = _scenario(g, theta_b_bottom=0.2, lambda_override=lam, dt=0.01,
                   T0=_linear_profile(g, 0.2))
    state = build_initial_ob(sc)
    dt = 0.01
    new = step_ob(state, sc, dt)
    coeffs = sc.coefficients()
    c = dt * coeffs.kappa_bar / (sc.rho_bar * coeffs.c_p)
    dm = mean(new.temp) - mean(state.temp)
    wb = np.full(16, 0.2)
    wt = np.zeros(16)
    lhs = _apply_center_dirichlet(new.temp.values, g, c, wb, wt)
    rhs = state.temp.values + lam * dm  # U = 0, no advection or source
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_thetaframe_step_satisfies_moving_trace() -> None:
    g = Grid(16, 12)
    lam = 0.55
    sc = _scenario(g, theta_b_bottom=0.2, lambda_override=lam, dt=0.01,
                   T0=_linear_profile(g, 0.2))
    state = build_initial_ob(sc, frame=THETA_FRAME)
    dt = 0.01
    new = step_ob(state, sc, dt)
    coeffs = sc.coefficients()
    c = dt * coeffs.kappa_bar / (sc.rho_bar * coeffs.c_p)
    shift = lam / (1.0 - lam) * mean(new.temp)
    wb = np.full(16, 0.2) - shift
    wt = np.zeros(16) - shift
    lhs = _apply_center_dirichlet(new.temp.values, g, c, wb, wt)
    assert np.max(np.abs(lhs - state.temp.values)) <= 1e-13


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.4, 0.9])
def test_constant_wall_relaxation(lam) -> None:
    # constant walls c and no gravity: T relaxes to c, Theta to (1 - lam) c.
    g = Grid(16, 8)
    c_wall = 0.5
    eos = EosParams(kappa0=0.5)
    bump = ScalarField.from_function(g, lambda x, z: c_wall + 0.8 * z * (1 - z) * np.cos(2 * np.pi * x))
    sc = ObScenario(
        grid=g, eos=eos, theta_b_bottom=c_wall, theta_b_top=c_wall,
        T0=bump, lambda_override=lam, dt=0.05, t_end=8.0,
    )
    traj = run_ob(sc, frame=THETA_FRAME)
    final = traj.states[-1]
    assert np.max(np.abs(final.temp.values - (1.0 - lam) * c_wall)) <= 1e-8
    # and the constant state is an exact discrete fixed point
    again = step_ob(final, sc, sc.dt)
    assert np.max(np.abs(again.temp.values - final.temp.values)) <= 1e-13

    traj_t = run_ob(sc, frame=T_FRAME)
    assert np.max(np.abs(traj_t.states[-1].temp.values - c_wall)) <= 1e-8


def test_heat_balance_identity_is_exact_per_step() -> None:
    # conservative advection and the quadratic-flux pairing make
    # (1 - lam) |Omega| dm/dt equal the scheme's wall flux to rounding.
    g = Grid(16, 12)
    eos = EosParams(kappa0=0.25)
    wb = 0.3 * (1.0 + 0.5 * np.cos(2 * np.pi * g.x_centers))
    sc = ObScenario(
        grid=g, eos=eos, G=gravity_potential(g, 1.0),
        theta_b_bottom=wb, T0=_linear_profile(g, wb),
        dt=2e-3, t_end=0.05,
    )
    coeffs = sc.coefficients()
    lam = coeffs.lam
    state = build_initial_ob(sc)
    for _ in range(10):
        new = step_ob(state, sc, sc.dt)
        dm = mean(new.temp) - mean(state.temp)
        flux = boundary_heat_flux(new.temp.values, g, wb, np.zeros(16), coeffs.kappa_bar)
        lhs = (1.0 - lam) * g.volume * dm / sc.dt
        assert abs(lhs - flux / (sc.rho_bar * coeffs.c_p)) <= 1e-11 * max(1.0, abs(lhs))
        state = new
    assert np.max(np.abs(div(state.U).values)) <= 1e-10


def test_lambda_zero_trace_is_classical() -> None:
    g = Grid(8, 8)
    eos = EosParams(kappa0=0.25)
    sc = ObScenario(
        grid=g, eos=eos, theta_b_bottom=0.4, T0=_linear_profile(g, 0.4),
        lambda_override=0.0, dt=5e-3, t_end=0.1,
    )
    traj = run_ob(sc)
    assert np.max(np.abs(traj.trace.Lambda)) == 0.0
    assert np.all(np.isfinite(traj.trace.s24_residual))


def test_ramp_balance_residual_second_order_in_h() -> None:
    # spatially constant walls ramping in time; the residual at the final
    # step shrinks at second order under z refinement.
    res = []
    for nz in (8, 16, 32):
        g = Grid(4, nz)
        eos = EosParams(kappa0=0.5)
        sc = ObScenario(
            grid=g, eos=eos,
            theta_b_bottom=lambda t: 0.2 * t, theta_b_top=0.0,
            dt=2e-5, t_end=0.1,
        )
        traj = run_ob(sc)
        res.append(abs(traj.trace.s24_residual[-1]))
    r1 = np.log2(res[0] / res[1])
    r2 = np.log2(res[1] / res[2])
    assert r2 >= 1.7, (res, r1, r2)


def test_ramp_balance_residual_first_order_in_dt() -> None:
    res = []
    for dt in (4e-3, 2e-3, 1e-3):
        g = Grid(4, 64)
        eos = EosParams(kappa0=0.5)
        sc = ObScenario(
            grid=g, eos=eos,
            theta_b_bottom=lambda t: 0.2 * t, theta_b_top=0.0,
            dt=dt, t_end=0.1,
        )
        traj = run_ob(sc)
        res.append(abs(traj.trace.s24_residual[-1]))
    rates = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.all(rates >= 0.9), (res, rates)


def test_frame_equivalence_is_exact_to_rounding() -> None:
    # the buoyancy difference between the frames is an exact discrete
    # gradient and the scalar closures are algebraically equivalent, so the
    # two formulations produce the same trajectory up to rounding.
    def gap(nx, nz, dt, lam):
        g = Grid(nx, nz)
        wb = 0.3 * (1.0 + 0.4 * np.cos(2 * np.pi * g.x_centers))
        eos = EosParams(kappa0=0.05)
        sc = ObScenario(
            grid=g, eos=eos, G=gravity_potential(g, 1.0),
            theta_b_bottom=wb, T0=_linear_profile(g, wb),
            dt=dt, t_end=0.08, lambda_override=lam,
        )
        traj_t = run_ob(sc, frame=T_FRAME)
        traj_th = run_ob(sc, frame=THETA_FRAME)
        mapped = transform_frame(traj_t.states[-1], sc)
        d_temp = np.max(np.abs(mapped.temp.values - traj_th.states[-1].temp.values))
        d_u = np.max(np.abs(traj_t.states[-1].U.u - traj_th.states[-1].U.u))
        d_w = np.max(np.abs(traj_t.states[-1].U.w - traj_th.states[-1].U.w))
        return d_temp + d_u + d_w

    assert gap(16, 8, 4e-3, None) <= 1e-12
    assert gap(16, 8, 4e-3, 0.7) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    lam=st.floats(0.0, 0.9),
    rate=st.floats(0.05, 1.0),
    kappa0=st.floats(0.05, 1.0),
)
def test_property_frame_equivalence_under_ramp(lam, rate, kappa0) -> None:
    # 50 steps of a ramped bottom wall under gravity: the mapped T-frame
    # state is the Theta-frame state to rounding for any coupling weight.
    g = Grid(4, 16)
    sc = ObScenario(
        grid=g, eos=EosParams(kappa0=kappa0), G=gravity_potential(g, 1.0),
        theta_b_bottom=lambda t: rate * t, dt=1e-3, t_end=0.05, lambda_override=lam,
    )
    final_t = run_ob(sc, frame=T_FRAME).states[-1]
    final_th = run_ob(sc, frame=THETA_FRAME).states[-1]
    mapped = transform_frame(final_t, sc)
    assert np.max(np.abs(mapped.temp.values - final_th.temp.values)) <= 1e-11
    assert np.max(np.abs(final_t.U.u - final_th.U.u)) <= 1e-11
    assert np.max(np.abs(final_t.U.w - final_th.U.w)) <= 1e-11


def test_run_ob_evaluates_coefficients_once(monkeypatch) -> None:
    calls = []
    inner = bll.ob.ob_coefficients

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(bll.ob, "ob_coefficients", counted)
    g = Grid(8, 8)
    for frame in (T_FRAME, THETA_FRAME):
        calls.clear()
        sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=0.2,
                       T0=_linear_profile(g, 0.2), dt=0.01, t_end=0.05)
        run_ob(sc, frame=frame)
        assert len(calls) == 1, frame


def test_manufactured_solution_orders() -> None:
    # forced heat problem with zero walls and no flow; implicit Euler in
    # time, second order in space.
    nu_scale = EosParams(kappa0=0.5)

    def make(nx, nz, dt, t_end, lam):
        g = Grid(nx, nz)
        coeffs = ObScenario(grid=g, eos=nu_scale).coefficients()
        nu_T = coeffs.kappa_bar / (1.0 * coeffs.c_p)

        def exact(t, X, Z):
            return np.sin(t) * (1.0 + np.cos(2 * np.pi * X)) * np.sin(np.pi * Z) ** 2

        def source(t, X, Z):
            s = np.sin(np.pi * Z) ** 2
            c2 = np.cos(2 * np.pi * X)
            # laplacian of sin^2(pi z) is 2 pi^2 cos(2 pi z)
            lap = (1.0 + c2) * 2 * np.pi ** 2 * np.cos(2 * np.pi * Z) - c2 * 4 * np.pi ** 2 * s
            dtdt = np.cos(t) * (1.0 + c2) * s
            mean_rate = np.cos(t) * 0.5
            return dtdt - nu_T * np.sin(t) * lap - lam * mean_rate

        sc = ObScenario(
            grid=g, eos=nu_scale, dt=dt, t_end=t_end,
            lambda_override=lam, temp_source=source,
        )
        traj = run_ob(sc)
        X, Z = g.cell_mesh()
        return np.max(np.abs(traj.states[-1].temp.values - exact(t_end, X, Z)))

    lam = 0.4
    e_dt = [make(16, 16, dt, 0.4, lam) for dt in (4e-2, 2e-2)]
    assert np.log2(e_dt[0] / e_dt[1]) >= 0.85, e_dt
    e_h = [make(n, n, 5e-4, 0.1, lam) for n in (12, 24)]
    assert np.log2(e_h[0] / e_h[1]) >= 1.7, e_h


def test_cfl_guard_raises() -> None:
    g = Grid(8, 8)
    U0 = VectorField(g, np.full((8, 8), 50.0), np.zeros((8, 9)))
    sc = _scenario(g, U0=U0, dt=0.1, t_end=0.2)
    with pytest.raises(StabilityError):
        run_ob(sc)


def test_run_ob_snapshot_cadence_and_validation() -> None:
    g = Grid(8, 8)
    sc = _scenario(g, dt=0.01, t_end=0.1)
    traj = run_ob(sc, snapshot_dt=0.05)
    assert traj.times == pytest.approx([0.0, 0.05, 0.1])
    with pytest.raises(DomainError):
        run_ob(sc, snapshot_dt=0.003)
    sc_bad = _scenario(g, dt=0.03, t_end=0.1)
    with pytest.raises(DomainError):
        run_ob(sc_bad)


def test_convection_starts_from_heated_bottom() -> None:
    g = Grid(32, 16)
    wb = 0.5 * (1.0 + 0.5 * np.cos(2 * np.pi * g.x_centers))
    eos = EosParams(kappa0=0.05)
    sc = ObScenario(
        grid=g, eos=eos, G=gravity_potential(g, 1.0),
        theta_b_bottom=wb, T0=_linear_profile(g, wb),
        dt=2e-3, t_end=0.2,
    )
    traj = run_ob(sc)
    final = traj.states[-1]
    assert np.max(np.abs(final.U.u)) > 1e-4
    assert np.max(np.abs(div(final.U).values)) <= 1e-10
    assert np.max(np.abs(traj.trace.Lambda)) > 0.0
