"""Limit-solver tests: closures, steady states, frame equivalence, balance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bll.ob
from bll.errors import ClosureError, CompatibilityError, DivergenceError, DomainError, ShapeError, StabilityError
from bll.grid import (
    Grid,
    ScalarField,
    Staggering,
    VectorField,
    advect_velocity,
    center_to_xface,
    div,
    grad,
    helmholtz_solve,
    helmholtz_solve_zface,
    mean,
    poisson_solve,
    xface_to_center,
    zface_to_center,
)
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
from bll.thermo import EosParams, transport

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_scenario_rejects_non_finite_potential(bad) -> None:
    # Checked before the mean-free check, which would report an inf G as a
    # biased one and let a NaN G through to fail late in the solver.
    g = Grid(8, 8)
    G = gravity_potential(g, 1.0)
    G.values[3, 2] = bad
    with pytest.raises(DomainError, match="^G must be finite$"):
        _scenario(g, G=G)


def test_ob_time_parameters_reject_nan_and_inf() -> None:
    g = Grid(8, 8)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(DomainError, match="dt must be finite"):
            _scenario(g, dt=bad)
        with pytest.raises(DomainError, match="t_end must be finite"):
            _scenario(g, t_end=bad)
        with pytest.raises(DomainError, match="snapshot_dt must be finite"):
            run_ob(_scenario(g, t_end=0.002), snapshot_dt=bad)


@pytest.mark.parametrize("name", ["rho_bar", "theta_bar"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
def test_scenario_rejects_bad_reference_state(name, bad) -> None:
    with pytest.raises(DomainError, match=f"{name} must be finite and positive"):
        _scenario(Grid(8, 8), **{name: bad})


def test_run_ob_rejects_t_end_below_one_step() -> None:
    # t_end / dt rounds to 0 steps, within the multiple-of-dt tolerance.
    with pytest.raises(DomainError, match="positive integer multiple of dt"):
        run_ob(_scenario(Grid(8, 8), dt=1e-3, t_end=1e-13))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_scenario_rejects_non_finite_walls(bad) -> None:
    g = Grid(8, 8)
    row = np.zeros(8)
    row[3] = bad
    for wall in ("theta_b_bottom", "theta_b_top"):
        for value in (bad, row, lambda t: bad * (1.0 + t)):
            with pytest.raises(DomainError, match=f"{wall} must be finite"):
                _scenario(g, **{wall: value})
    # A callable wall is checked at t = 0 only.
    ramp = _scenario(g, theta_b_bottom=lambda t: 0.2 * t if t < 1.0 else bad)
    assert np.all(ramp.wall_values(0.5)[0] == 0.1)


def test_step_rejects_non_positive_dt() -> None:
    g = Grid(8, 8)
    sc = _scenario(g, dt=0.01, t_end=0.01)
    state = build_initial_ob(sc)
    for bad in (0.0, -0.01, float("nan")):
        with pytest.raises(DomainError, match="dt must be finite and positive"):
            step_ob(state, sc, bad)


def test_step_rejects_unknown_frame() -> None:
    g = Grid(8, 8)
    sc = _scenario(g, dt=0.01, t_end=0.01)
    state = build_initial_ob(sc)
    state.frame = "X"
    with pytest.raises(ShapeError, match="unknown frame 'X'"):
        step_ob(state, sc, sc.dt)


@pytest.mark.parametrize("start", [build_initial_ob, run_ob], ids=["build_initial_ob", "run_ob"])
def test_unknown_frame_is_rejected_by_name(start) -> None:
    sc = _scenario(Grid(8, 8), dt=0.01, t_end=0.01)
    with pytest.raises(ShapeError, match="unknown frame 'X'"):
        start(sc, "X")


def _nan_T0(g):
    T0 = ScalarField.zeros(g)
    T0.values[3, 2] = np.nan
    return {"T0": T0}


def _inf_U0(g):
    U0 = VectorField.zeros(g)
    U0.u[1, 4] = np.inf
    return {"U0": U0}


@pytest.mark.parametrize("initial, name", [(_nan_T0, "T0"), (_inf_U0, "U0")], ids=["nan_T0", "inf_U0"])
def test_scenario_rejects_non_finite_initial_field(initial, name) -> None:
    g = Grid(8, 8)
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        _scenario(g, **initial(g))


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


def test_step_ob_runs_the_cfl_guard() -> None:
    # step_ob rejects the step run_ob rejects, with the same message, and
    # takes a step under the bound.
    g = Grid(8, 8)
    U0 = VectorField(g, np.full((8, 8), 50.0), np.zeros((8, 9)))
    sc = _scenario(g, U0=U0, dt=0.1, t_end=0.2)
    state = build_initial_ob(sc)
    with pytest.raises(StabilityError, match=r"dt=1\.000e-01 exceeds 1\.250e-03") as stepped:
        step_ob(state, sc, 0.1)
    with pytest.raises(StabilityError) as run:
        run_ob(sc)
    assert str(stepped.value) == str(run.value)
    assert step_ob(state, sc, 1e-3).t == 1e-3


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_run_ob_names_the_first_non_finite_step(frame) -> None:
    # The source turns NaN from t = 0.005 on, so the step that starts there,
    # the sixth, is the first with a NaN temperature.
    g = Grid(6, 8)

    def source(t, X, Z):
        return np.full_like(X, np.nan if t > 0.0045 else 0.1)

    sc = _scenario(g, T0=ScalarField.zeros(g), dt=1e-3, t_end=0.01, temp_source=source)
    with pytest.raises(DivergenceError, match="^non-finite fields$") as err:
        run_ob(sc, frame=frame)
    assert err.value.step == 6
    assert err.value.time == sum([1e-3] * 6)  # run_ob's t, accumulated step by step


def test_run_ob_catches_a_nan_in_w_alone(monkeypatch) -> None:
    # max(|u|, nan) is |u| in Python, so a NaN confined to w once passed
    # both checks and surfaced a step later.
    step, calls = bll.ob._step, []

    def poisoned(*args):
        u, w, temp, Pi, hist = step(*args)
        calls.append(None)
        if len(calls) == 3:
            w[2, 4] = np.nan
        return u, w, temp, Pi, hist

    monkeypatch.setattr(bll.ob, "_step", poisoned)
    g = Grid(6, 8)
    with pytest.raises(DivergenceError, match="^non-finite fields$") as err:
        run_ob(_scenario(g, dt=1e-3, t_end=0.01))
    assert err.value.step == 3


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


def _reference_step(state, sc, dt):
    """The OB step as written on the public field API (helmholtz_solve,
    helmholtz_solve_zface, poisson_solve, div, grad) before the array kernel."""
    g, lam = sc.grid, sc.lam_effective()
    k = lam / (1.0 - lam)
    coeffs = sc.coefficients()
    nu = float(transport(sc.theta_bar, sc.eos)[0]) / sc.rho_bar
    gG = grad(sc.G)
    if state.frame == T_FRAME:
        buoy = -coeffs.alpha * state.temp.values
    else:
        temp_equiv = ScalarField(g, state.temp.values + k * mean(state.temp))
        buoy = recover_density_deviation(temp_equiv, sc).values / sc.rho_bar

    adv_u, adv_w = advect_velocity(g, state.U.u, state.U.w)
    bz = np.zeros_like(gG.w)
    bz[:, 1:-1] = 0.5 * (buoy[:, 1:] + buoy[:, :-1]) * gG.w[:, 1:-1]
    F_u = adv_u + center_to_xface(buoy) * gG.u
    F_w = adv_w + bz
    F_w[:, 0] = 0.0
    F_w[:, -1] = 0.0
    if state.rhs_hist is not None:
        Fu_eff = 1.5 * F_u - 0.5 * state.rhs_hist[0]
        Fw_eff = 1.5 * F_w - 0.5 * state.rhs_hist[1]
    else:
        Fu_eff, Fw_eff = F_u, F_w
    ustar = helmholtz_solve(
        ScalarField(g, state.U.u + dt * Fu_eff, Staggering.XFACE), dt * nu
    ).values
    wstar = helmholtz_solve_zface(ScalarField(g, state.U.w + dt * Fw_eff, Staggering.ZFACE), dt * nu).values
    rhs = div(VectorField(g, ustar, wstar))
    rhs.values /= dt
    phi, _ = poisson_solve(rhs)
    gphi = grad(phi)
    w = wstar - dt * gphi.w
    w[:, 0] = 0.0
    w[:, -1] = 0.0
    U = VectorField(g, ustar - dt * gphi.u, w)

    vals = state.temp.values
    fx = U.u * center_to_xface(vals)
    fz = np.zeros_like(U.w)
    fz[:, 1:-1] = U.w[:, 1:-1] * 0.5 * (vals[:, 1:] + vals[:, :-1])
    A = -((np.roll(fx, -1, axis=0) - fx) / g.dx + (fz[:, 1:] - fz[:, :-1]) / g.dz)
    A += (sc.theta_bar * coeffs.alpha / coeffs.c_p) * (
        xface_to_center(U.u * gG.u) + zface_to_center(U.w * gG.w)
    )
    if sc.temp_source is not None:
        A += sc.temp_source(state.t, *g.cell_mesh())
    A_eff = A if state.rhs_hist is None else 1.5 * A - 0.5 * state.rhs_hist[2]
    c = dt * coeffs.kappa_bar / (sc.rho_bar * coeffs.c_p)
    wb, wt = sc.wall_values(state.t + dt)
    temp = helmholtz_solve(ScalarField(g, vals + dt * A_eff), c, wb, wt)
    if lam != 0.0:
        tframe = state.frame == T_FRAME
        unit = helmholtz_solve(ScalarField(g, np.ones((g.nx, g.nz))), c) if tframe else (
            helmholtz_solve(ScalarField.zeros(g), c, 1.0, 1.0)
        )
        denom = 1.0 - lam * mean(unit) if tframe else 1.0 + k * mean(unit)
        if tframe:
            m_prev = mean(state.temp)
            q = lam * ((mean(temp) - lam * mean(unit) * m_prev) / denom - m_prev)
        else:
            q = -k * (mean(temp) / denom)
        temp = ScalarField(g, temp.values + q * unit.values)
    Pi = ScalarField(g, sc.rho_bar * phi.values)
    return bll.ob.ObState(U, temp, Pi, state.t + dt, state.frame, (F_u, F_w, A))


def _reference_flux_cubic(vals, grid, wall_bottom, wall_top):
    """The trace's outward flux integral with the one-sided cubic stencil
    (wall value and three cell centers), one state at a time."""
    c0, c1, c2, c3 = (-46.0 / 15.0, 15.0 / 4.0, -5.0 / 6.0, 3.0 / 20.0)
    dz = grid.dz
    dn_bottom = (c0 * wall_bottom + c1 * vals[:, 0] + c2 * vals[:, 1] + c3 * vals[:, 2]) / dz
    dn_top = -(c0 * wall_top + c1 * vals[:, -1] + c2 * vals[:, -2] + c3 * vals[:, -3]) / dz
    return grid.dx * float((dn_top - dn_bottom).sum())


def _reference_trace_row(prev, state, sc, dt):
    """(t, fint(T), Lambda, flux, residual) of the pre-kernel trace, plus the
    rolling (mean, cubic flux, source mean) of state."""
    g, coeffs, lam = sc.grid, sc.coefficients(), sc.lam_effective()
    M = mean(state.temp)
    vals = state.temp.values
    if state.frame == THETA_FRAME:
        M, vals = M / (1.0 - lam), vals + lam / (1.0 - lam) * M
    wb, wt = sc.wall_values(state.t)
    fc = _reference_flux_cubic(vals, g, wb, wt)
    sm = 0.0 if sc.temp_source is None else float(np.mean(sc.temp_source(state.t, *g.cell_mesh())))
    if prev is None:
        return None, (M, fc, sm)
    dm_dt = (M - prev[0]) / dt
    nu_T = coeffs.kappa_bar / (sc.rho_bar * coeffs.c_p)
    resid = (1.0 - lam) * g.volume * dm_dt - nu_T * 0.5 * (fc + prev[1]) - g.volume * 0.5 * (sm + prev[2])
    flux = boundary_heat_flux(vals, g, wb, wt, coeffs.kappa_bar)
    return (state.t, M, lam * sc.rho_bar * coeffs.c_p * dm_dt, flux, resid), (M, fc, sm)


def _potential(g, name):
    """The potentials of the three grad-G branches: none (G = 0), z-only
    (gravity) and x-varying (gravity plus a mean-free cosine in x)."""
    if name == "zero":
        return None
    G = gravity_potential(g, 1.5)
    if name == "x_varying":
        G = ScalarField(g, G.values + 0.1 * np.cos(2 * np.pi * g.x_centers)[:, None])
    return G


# (frame, lam, potential); the gravity cases keep their ids frame-lam.
_REFERENCE_CASES = [
    pytest.param(frame, lam, potential, id="-".join([frame, str(lam)] + ([potential] if potential != "gravity" else [])))
    for potential in ("gravity", "zero", "x_varying")
    for frame in (T_FRAME, THETA_FRAME)
    for lam in (0.0, None)
]


@pytest.mark.parametrize(("frame", "lam", "potential"), _REFERENCE_CASES)
def test_run_ob_matches_public_api_reference_bitwise(frame, lam, potential) -> None:
    # run_ob steps raw arrays through the per-run plan, which skips the
    # terms of an identically zero component of grad G; its snapshots,
    # trace, and the public step_ob must equal the field-API step exactly
    # for no potential, a z-only one and an x-varying one.
    g = Grid(8, 12)
    rng = np.random.default_rng(11)
    U0 = VectorField(g, 0.1 * rng.standard_normal((8, 12)), 0.1 * rng.standard_normal((8, 13)))
    T0 = ScalarField.from_function(g, lambda x, z: 0.3 * np.sin(np.pi * z) ** 2 * np.cos(2 * np.pi * x))
    shape = 1.0 + 0.3 * np.cos(2 * np.pi * g.x_centers)
    sc = ObScenario(
        grid=g, eos=EosParams(kappa0=0.2), G=_potential(g, potential),
        theta_b_bottom=lambda t: 0.5 * t * shape, theta_b_top=0.0, T0=T0, U0=U0,
        dt=2e-3, t_end=0.04, lambda_override=lam,
        temp_source=lambda t, X, Z: 0.5 * np.cos(2 * np.pi * X) * np.sin(np.pi * Z) * (1.0 + t),
    )
    plan = bll.ob._StepPlan(sc, frame == T_FRAME, sc.dt)
    assert (plan.gx is not None, plan.gz is not None) == {
        "zero": (False, False), "gravity": (False, True), "x_varying": (True, True)
    }[potential]
    traj = run_ob(sc, frame=frame, snapshot_dt=0.01)

    state = build_initial_ob(sc, frame)
    _, roll = _reference_trace_row(None, state, sc, sc.dt)
    stepped = step_ob(state, sc, sc.dt)
    want_states, rows = [state], []
    for n in range(1, 21):
        state = _reference_step(state, sc, sc.dt)
        row, roll = _reference_trace_row(roll, state, sc, sc.dt)
        rows.append(row)
        if n % 5 == 0:
            want_states.append(state)
        if n == 1:
            for got, want in zip(
                (stepped.temp.values, stepped.U.u, stepped.U.w, stepped.Pi.values, *stepped.rhs_hist),
                (state.temp.values, state.U.u, state.U.w, state.Pi.values, *state.rhs_hist),
            ):
                assert np.array_equal(got, want)
            assert stepped.t == state.t
        elif n == 2:
            stepped = step_ob(stepped, sc, sc.dt)
            assert np.array_equal(stepped.temp.values, state.temp.values)
            assert np.array_equal(stepped.U.u, state.U.u)
    assert np.max(np.abs(state.U.u)) > 1e-3  # the flow moves
    assert traj.times == [s.t for s in want_states]
    for got, want in zip(traj.states, want_states):
        assert got.frame == want.frame
        for a, b in ((got.temp, want.temp), (got.Pi, want.Pi)):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(got.U.u, want.U.u)
        assert np.array_equal(got.U.w, want.U.w)
    want_trace = np.array(rows).T
    tr = traj.trace
    for k, col in enumerate((tr.t, tr.mean_T, tr.Lambda, tr.flux, tr.s24_residual)):
        assert np.array_equal(col, want_trace[k]), k


@pytest.mark.parametrize("nx", [4, 16, 64])
@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_trace_recomputes_exactly_from_snapshots(frame, nx) -> None:
    # run_ob forms its trace per block of recorded wall rows; every row must
    # equal the row recomputed from the two snapshots around its step, across
    # more steps than one block, with a moving x-varying wall and a source.
    g = Grid(nx, 8)
    shape = 1.0 + 0.3 * np.cos(2 * np.pi * g.x_centers)
    T0 = ScalarField.from_function(g, lambda x, z: 0.2 * np.sin(np.pi * z) * np.cos(2 * np.pi * x))
    sc = ObScenario(
        grid=g, eos=EosParams(kappa0=0.2), G=gravity_potential(g, 1.5),
        theta_b_bottom=lambda t: 4.0 * t * shape, theta_b_top=0.0, T0=T0,
        dt=1e-3, t_end=0.3,
        temp_source=lambda t, X, Z: 0.5 * np.cos(2 * np.pi * X) * np.sin(np.pi * Z) * (1.0 + t),
    )
    n_steps = 300
    assert n_steps > bll.ob._TRACE_BLOCK
    traj = run_ob(sc, frame=frame, snapshot_dt=sc.dt)
    assert len(traj.states) == n_steps + 1
    assert traj.trace.dtype == np.rec.fromrecords([(0.0,) * 5], names=bll.ob.TRACE_COLUMNS).dtype

    _, roll = _reference_trace_row(None, traj.states[0], sc, sc.dt)
    rows = []
    for state in traj.states[1:]:
        row, roll = _reference_trace_row(roll, state, sc, sc.dt)
        rows.append(row)
    want = np.array(rows).T
    tr = traj.trace
    assert np.all(np.diff(tr.mean_T) != 0.0) and np.any(tr.s24_residual != 0.0)
    for k, name in enumerate(bll.ob.TRACE_COLUMNS):
        assert np.array_equal(tr[name], want[k]), name


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_run_ob_evaluates_source_once_per_step_time(frame) -> None:
    # The source at each step time serves both that time's trace row and the
    # step from it: 10 steps touch 11 times, and the result is the step_ob loop's.
    g = Grid(6, 10)
    calls = []

    def source(t, X, Z):
        calls.append(t)
        return 0.4 * np.cos(2 * np.pi * X) * np.sin(np.pi * Z) * (1.0 + t)

    sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=lambda t: 0.3 * t,
                   T0=ScalarField.zeros(g), dt=1e-3, t_end=0.01, temp_source=source)
    traj = run_ob(sc, frame=frame)
    assert len(calls) == 11
    assert len(set(calls)) == 11

    state = build_initial_ob(sc, frame)
    for _ in range(10):
        state = step_ob(state, sc, sc.dt)
    final = traj.states[-1]
    assert final.t == state.t
    assert np.max(np.abs(state.temp.values)) > 0.0
    for got, want in ((final.temp, state.temp), (final.Pi, state.Pi)):
        assert np.array_equal(got.values, want.values)
    assert np.array_equal(final.U.u, state.U.u)
    assert np.array_equal(final.U.w, state.U.w)


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_run_ob_builds_static_walls_once_per_run(frame, monkeypatch) -> None:
    # A wall that is not a callable of t becomes its (nx,) array once per
    # run, however many steps it takes, and a zero one is not checked again
    # per step; a callable wall is evaluated once per step time.  The run
    # stays the step_ob loop's bit for bit.
    g = Grid(6, 10)
    builds, times = [], []
    inner = bll.grid._wall_array
    monkeypatch.setattr(bll.grid, "_wall_array", lambda value, nx: builds.append(value) or inner(value, nx))

    def bottom(t):
        times.append(t)
        return 0.3 * t

    def run(top, t_end):
        sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=bottom, theta_b_top=top,
                       T0=_linear_profile(g, 0.0, top), dt=1e-3, t_end=t_end)
        builds.clear()
        times.clear()
        traj = run_ob(sc, frame=frame)
        return sc, traj, sum(value is top for value in builds), len(builds), len(times)

    short, long = run(0.1, 0.01), run(0.1, 0.02)
    assert long[2] == short[2]  # the static top wall: no build per step
    assert long[4] - short[4] == 10  # the callable bottom wall: once per step
    zero_short, zero_long = run(0.0, 0.01), run(0.0, 0.02)
    # per step only the bottom wall's build and the solve's check of it
    assert zero_long[3] - zero_short[3] == 20

    sc, traj = long[:2]
    monkeypatch.undo()
    state = build_initial_ob(sc, frame)
    for _ in range(20):
        state = step_ob(state, sc, sc.dt)
    final = traj.states[-1]
    assert final.t == state.t
    for got, want in ((final.temp, state.temp), (final.Pi, state.Pi)):
        assert np.array_equal(got.values, want.values)
    assert np.array_equal(final.U.u, state.U.u)
    assert np.array_equal(final.U.w, state.U.w)


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_run_ob_binds_operators_and_closure_once_per_run(frame, monkeypatch) -> None:
    # The z-operators are looked up and the closure's denominator formed once
    # per run, however many steps it takes, as the static walls are built.
    g = Grid(6, 10)
    lookups, denominators = [], []
    zop, denominator = bll.grid._zop, bll.ob._closure_denominator
    monkeypatch.setattr(bll.grid, "_zop", lambda *a, **kw: lookups.append(a) or zop(*a, **kw))
    monkeypatch.setattr(bll.ob, "_closure_denominator", lambda *a: denominators.append(a) or denominator(*a))

    def run(t_end):
        sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=lambda t: 0.3 * t,
                       T0=ScalarField.zeros(g), dt=1e-3, t_end=t_end)
        lookups.clear()
        denominators.clear()
        traj = run_ob(sc, frame=frame)
        assert np.max(np.abs(traj.states[-1].U.w)) > 0.0  # the steps did run
        return len(lookups), len(denominators)

    short, long = run(0.01), run(0.02)
    assert short == long
    assert short[1] == 1


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_degenerate_closure_raises_before_any_step(frame, monkeypatch) -> None:
    g = Grid(6, 10)
    sc = _scenario(g, dt=1e-3, t_end=0.01)
    state = build_initial_ob(sc, frame)
    classical = _scenario(g, dt=1e-3, t_end=0.01, lambda_override=0.0)
    steps = []
    monkeypatch.setattr(bll.ob, "_closure_denominator", lambda *a: 1e-13)
    # Without the non-local coupling there is no closure to degenerate.
    assert step_ob(build_initial_ob(classical, frame), classical, classical.dt).t == classical.dt
    monkeypatch.setattr(bll.ob, "_step", lambda *a: steps.append(a))
    with pytest.raises(ClosureError, match="degenerate scalar closure, denominator 1.000e-13"):
        run_ob(sc, frame=frame)
    with pytest.raises(ClosureError, match="degenerate scalar closure"):
        step_ob(state, sc, sc.dt)
    assert steps == []


def _fields(state):
    """The arrays of an OB state: U.u, U.w, temp and Pi."""
    return state.U.u, state.U.w, state.temp.values, state.Pi.values


def _flowing_scenario(g, seed, rate, **kw):
    """A flowing state under gravity with a moving x-varying bottom wall."""
    rng = np.random.default_rng(seed)
    U0 = VectorField(g, 0.1 * rng.standard_normal((g.nx, g.nz)), 0.1 * rng.standard_normal((g.nx, g.nz + 1)))
    T0 = ScalarField.from_function(g, lambda x, z: 0.3 * np.sin(np.pi * z) ** 2 * np.cos(2 * np.pi * (x + 0.1 * seed)))
    shape = 1.0 + 0.3 * np.cos(2 * np.pi * g.x_centers)
    return ObScenario(
        grid=g, eos=EosParams(kappa0=0.2), G=gravity_potential(g, 1.5),
        theta_b_bottom=lambda t: rate * t * shape, theta_b_top=0.0, T0=T0, U0=U0, dt=2e-3, **kw,
    )


def test_state_copy_carries_the_ab2_history() -> None:
    g = Grid(8, 12)
    sc = _flowing_scenario(g, 1, 0.5, t_end=0.04)
    state = step_ob(build_initial_ob(sc), sc, sc.dt)
    copied = state.copy()
    assert len(copied.rhs_hist) == 3
    for a, b in zip(copied.rhs_hist, state.rhs_hist):
        assert np.array_equal(a, b) and not np.shares_memory(a, b)
    got, want = step_ob(copied, sc, sc.dt), step_ob(state, sc, sc.dt)
    assert np.max(np.abs(want.U.u)) > 1e-3
    for a, b in zip(_fields(got), _fields(want)):
        assert np.array_equal(a, b)


def _corrupt(state, what):
    """state with one defect: another grid's fields, or one non-finite entry."""
    if what == "grid":
        g = Grid(8, 16)
        return build_initial_ob(_scenario(g, dt=0.01, t_end=0.01))
    if what == "Lx":
        g = Grid(4, 32, Lx=2.0)
        return build_initial_ob(_scenario(g, dt=0.01, t_end=0.01))
    state = state.copy()
    if what == "temp":
        state.temp.values[1, 2] = np.nan
    elif what == "U.w":
        state.U.w[2, 3] = np.inf
    elif what == "rhs_hist[2]":
        state.rhs_hist[2][0, 0] = -np.inf
    elif what == "hist_shape":
        state.rhs_hist = state.rhs_hist[:2] + (np.zeros((3, 3)),)
    return state


@pytest.mark.parametrize(
    ("what", "error", "match"),
    [
        ("grid", ShapeError, r"state grid Grid\(nx=8, nz=16, Lx=1.0\) does not match the scenario grid Grid\(nx=4,"),
        ("Lx", ShapeError, r"Lx=2.0\) does not match the scenario grid Grid\(nx=4, nz=32, Lx=1.0\)"),
        ("hist_shape", ShapeError, "rhs_hist must hold three arrays"),
        ("temp", DomainError, "state temp must be finite"),
        ("U.w", DomainError, r"state U\.w must be finite"),
        ("rhs_hist[2]", DomainError, r"state rhs_hist\[2\] must be finite"),
    ],
)
def test_step_ob_rejects_incompatible_or_non_finite_state(what, error, match) -> None:
    g = Grid(4, 32)
    sc = _scenario(g, G=gravity_potential(g, 1.0), theta_b_bottom=lambda t: 0.2 * t, dt=1e-3, t_end=0.01)
    state = step_ob(build_initial_ob(sc), sc, sc.dt)
    with pytest.raises(error, match=match):
        step_ob(_corrupt(state, what), sc, sc.dt)
    assert step_ob(state, sc, sc.dt).t == 2 * sc.dt  # the intact state still steps


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_plans_on_one_grid_share_no_work_array(frame, monkeypatch) -> None:
    # Two runs on one Grid share its cached z-operators.  Run A steps
    # through run_ob while plan B takes one step in the middle of each of
    # A's steps: inside A's scalar solve, where A builds its moving wall,
    # after A's spectrum is formed and before A's phi is read.  Both equal
    # the same runs done one after the other, bit for bit, at every step.
    # A work array cached on an operator or on the grid would be
    # overwritten under A.
    g = Grid(8, 12)
    sc_a = _flowing_scenario(g, 1, 0.5, t_end=0.04)
    sc_b = _flowing_scenario(g, 2, -0.3, t_end=0.04)
    want_a, want_b = run_ob(sc_a, frame, snapshot_dt=sc_a.dt), run_ob(sc_b, frame, snapshot_dt=sc_b.dt)
    assert not np.array_equal(want_a.states[-1].temp.values, want_b.states[-1].temp.values)

    plan = bll.ob._StepPlan(sc_b, frame == T_FRAME, sc_b.dt)
    walls_at = bll.ob._wall_schedule(sc_b)
    start = build_initial_ob(sc_b, frame)
    b = {"state": (start.U.u, start.U.w, start.temp.values, mean(start.temp), None), "t": 0.0, "in_a": False}
    got_b = [start]
    wall_array, step = bll.grid._wall_array, bll.ob._step

    def step_b():
        u, w, temp, m, hist = b["state"]
        u, w, temp, Pi, hist = step(plan, u, w, temp, m, hist, None, walls_at(b["t"] + sc_b.dt)[1])
        b["state"], b["t"] = (u, w, temp, bll.grid._mean(temp), hist), b["t"] + sc_b.dt
        got_b.append(bll.ob.ObState(VectorField(g, u, w), ScalarField(g, temp), ScalarField(g, Pi), b["t"], frame))

    def step_a(*args):
        b["in_a"] = True
        out = step(*args)
        b["in_a"] = False
        return out

    def interleaved(value, nx):
        # Within A's step, only A's scalar solve builds a wall.
        if b["in_a"]:
            b["in_a"] = False
            step_b()
        return wall_array(value, nx)

    monkeypatch.setattr(bll.ob, "_step", step_a)
    monkeypatch.setattr(bll.grid, "_wall_array", interleaved)
    got_a = run_ob(sc_a, frame, snapshot_dt=sc_a.dt)
    monkeypatch.undo()
    assert len(got_b) == len(want_b.states) == 21
    for got, want in zip(got_a.states + got_b, want_a.states + want_b.states):
        assert got.t == want.t
        for x, y in zip(_fields(got), _fields(want)):
            assert np.array_equal(x, y)
    for name in bll.ob.TRACE_COLUMNS:
        assert np.array_equal(got_a.trace[name], want_a.trace[name])


def test_run_ob_snapshots_and_history_share_no_memory() -> None:
    # Every step allocates what it returns: no snapshot array of a run, and
    # no array of a step_ob state or its AB2 history, is a view of another.
    g = Grid(6, 10)
    sc = _flowing_scenario(g, 3, 0.5, t_end=0.02)
    traj = run_ob(sc, snapshot_dt=sc.dt)
    assert len(traj.states) == 11
    arrays = [a for s in traj.states for a in (s.U.u, s.U.w, s.temp.values, s.Pi.values)]
    state = build_initial_ob(sc)
    for _ in range(3):
        state = step_ob(state, sc, sc.dt)
        arrays += [state.U.u, state.U.w, state.temp.values, state.Pi.values, *state.rhs_hist]
    for i, a in enumerate(arrays):
        for other in arrays[i + 1:]:
            assert not np.shares_memory(a, other)


def _assert_run_is_the_step_ob_loop_bytewise(traj):
    """A run_ob trajectory with a snapshot at every step against a hand loop
    of step_ob, which always takes the full path: the bytes (so the sign of
    each zero) of every field at every step and of every trace column.
    Returns the final state."""
    sc = traj.scenario
    state = build_initial_ob(sc, traj.frame)
    _, roll = _reference_trace_row(None, state, sc, sc.dt)
    want_states, rows = [state], []
    for _ in range(len(traj.trace)):
        state = step_ob(state, sc, sc.dt)
        row, roll = _reference_trace_row(roll, state, sc, sc.dt)
        want_states.append(state)
        rows.append(row)
    assert traj.times == [s.t for s in want_states]
    for got, want in zip(traj.states, want_states):
        for a, b in zip(_fields(got), _fields(want)):
            assert a.tobytes() == b.tobytes()
    want_trace = np.array(rows).T
    for k, name in enumerate(bll.ob.TRACE_COLUMNS):
        assert np.ascontiguousarray(traj.trace[name]).tobytes() == want_trace[k].tobytes(), name
    return traj.states[-1]


def _velocity_operators(g):
    """The wall closures of the z-operators cached on g that only the
    momentum half builds."""
    return {key[2] for key in g._zops} & {"mirror", "zface"}


@pytest.mark.parametrize("source", [None, "x_varying"])
@pytest.mark.parametrize("lam", [None, 0.0])
@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
@pytest.mark.parametrize("shape", [(4, 32), (8, 12)])
def test_run_ob_at_rest_is_the_step_ob_loop_bytewise(shape, frame, lam, source) -> None:
    # With G = 0 and a zero projected start U stays exactly 0, so run_ob
    # skips the momentum half and the scalar advection; step_ob does not.
    # A moving x-varying wall and a source drive the temperature.
    g = Grid(*shape)
    wave = 1.0 + 0.3 * np.cos(2 * np.pi * g.x_centers)
    sc = ObScenario(
        grid=g, eos=EosParams(kappa0=0.2), theta_b_bottom=lambda t: 0.5 * t * wave, theta_b_top=0.0,
        dt=2e-3, t_end=0.04, lambda_override=lam,
        temp_source=None if source is None else (
            lambda t, X, Z: 0.5 * np.cos(2 * np.pi * X) * np.sin(np.pi * Z) * (1.0 + t)
        ),
    )
    traj = run_ob(sc, frame=frame, snapshot_dt=sc.dt)
    assert _velocity_operators(g) == set()  # the run built no momentum half
    final = _assert_run_is_the_step_ob_loop_bytewise(traj)
    assert np.max(np.abs(final.temp.values)) > 1e-3
    assert np.max(np.abs(final.U.u)) == np.max(np.abs(final.U.w)) == 0.0


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
@pytest.mark.parametrize("start", ["flowing_without_G", "still_under_gravity"])
def test_run_ob_off_rest_takes_the_full_path(start, frame) -> None:
    # Negative controls: a nonzero U0 without G, and gravity acting on an
    # x-varying T0 from U0 = 0.  Both move, so neither run is at rest.
    g = Grid(8, 12)
    rng = np.random.default_rng(5)
    T0 = ScalarField.from_function(g, lambda x, z: 0.3 * np.sin(np.pi * z) ** 2 * np.cos(2 * np.pi * x))
    if start == "flowing_without_G":
        kw = dict(U0=VectorField(g, 0.1 * rng.standard_normal((8, 12)), 0.1 * rng.standard_normal((8, 13))))
    else:
        kw = dict(G=gravity_potential(g, 1.5), T0=T0)
    sc = ObScenario(grid=g, eos=EosParams(kappa0=0.2), theta_b_bottom=lambda t: 0.5 * t, dt=2e-3, t_end=0.04, **kw)
    traj = run_ob(sc, frame=frame, snapshot_dt=sc.dt)
    assert _velocity_operators(g) == {"mirror", "zface"}
    final = _assert_run_is_the_step_ob_loop_bytewise(traj)
    assert np.max(np.abs(final.U.u)) > 0.0


@pytest.mark.parametrize("frame", [T_FRAME, THETA_FRAME])
def test_run_ob_at_rest_builds_no_projection(frame) -> None:
    # Without U0 the start is the +0.0 zeros that projecting zeros gives, so
    # no _Projection is built and no pinned Poisson operator is cached.
    g = Grid(8, 12)
    sc = ObScenario(grid=g, eos=EosParams(kappa0=0.2), theta_b_bottom=lambda t: 0.5 * t, dt=2e-3, t_end=0.01)
    run_ob(sc, frame=frame)
    assert {key[2] for key in g._zops} & {"pinned", "mirror", "zface"} == set()
    start = build_initial_ob(sc, frame)
    zeros = ObScenario(grid=g, eos=sc.eos, theta_b_bottom=sc.theta_b_bottom, U0=VectorField.zeros(g))
    projected = build_initial_ob(zeros, frame)
    assert "pinned" in {key[2] for key in g._zops}  # the explicit zeros were projected
    for a, b in ((start.U.u, projected.U.u), (start.U.w, projected.U.w)):
        assert a.tobytes() == b.tobytes()
