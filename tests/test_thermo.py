from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bll import thermo

from bll.errors import DomainError, StabilityError
from bll.thermo import (
    EosParams,
    check_hypotheses,
    check_limit_identities,
    energy_dtheta,
    entropy,
    entropy_derivatives,
    gibbs_residual,
    internal_energy,
    ob_coefficients,
    pressure,
    pressure_derivatives,
    rho_e,
    sound_speed_squared,
    theta_from_rho_e,
    transport,
)

IDEAL = EosParams()
STIFF = EosParams(p_inf=1.0)
RAD = EosParams(a=1.0)
FULL = EosParams(p_inf=1.0, a=1.0)
CORNERS = [IDEAL, STIFF, RAD, FULL]


def fd_partials(f, rho, theta, h=1e-7):
    """Central-difference oracle for (df/drho, df/dtheta)."""
    hr = h * max(abs(rho), 1.0)
    ht = h * max(abs(theta), 1.0)
    d_rho = (f(rho + hr, theta) - f(rho - hr, theta)) / (2 * hr)
    d_theta = (f(rho, theta + ht) - f(rho, theta - ht)) / (2 * ht)
    return d_rho, d_theta


def log_grid():
    pts = np.geomspace(0.1, 10.0, 10)
    return np.meshgrid(pts, pts, indexing="ij")


def test_pressure_ideal_gas_reduces_to_rho_theta() -> None:
    assert pressure(2.0, 3.0, IDEAL) == pytest.approx(6.0, abs=1e-14)


def test_pressure_vanishing_density_leaves_radiation_part() -> None:
    assert pressure(1e-12, 2.0, IDEAL) == pytest.approx(0.0, abs=1e-10)
    assert pressure(1e-12, 2.0, RAD) == pytest.approx(16.0 / 3.0, rel=1e-10)


def test_pressure_stiffened_unit_point() -> None:
    assert pressure(1.0, 1.0, STIFF) == pytest.approx(2.0, abs=1e-14)


def test_internal_energy_ideal_monoatomic() -> None:
    assert internal_energy(2.0, 3.0, IDEAL) == pytest.approx(4.5, abs=1e-14)


def test_entropy_reference_values() -> None:
    assert entropy(1.0, 1.0, IDEAL) == pytest.approx(0.0, abs=1e-14)
    assert entropy(1.0, np.exp(2.0 / 3.0), IDEAL) == pytest.approx(1.0, rel=1e-14)


def test_pressure_derivatives_ideal_unit_point() -> None:
    p_r, p_t = pressure_derivatives(1.0, 1.0, IDEAL)
    assert p_r == pytest.approx(1.0, abs=1e-14)
    assert p_t == pytest.approx(1.0, abs=1e-14)


def test_pressure_derivatives_stiffened_unit_point() -> None:
    p_r, p_t = pressure_derivatives(1.0, 1.0, STIFF)
    assert p_r == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert p_t == pytest.approx(1.0, abs=1e-14)


def test_entropy_drho_matches_maxwell_by_hand() -> None:
    s_r, _ = entropy_derivatives(2.0, 1.0, IDEAL)
    assert s_r == pytest.approx(-0.5, abs=1e-14)


def test_derivatives_against_finite_difference_oracle() -> None:
    RR, TT = log_grid()
    for eos in CORNERS:
        for rho, theta in zip(RR.ravel(), TT.ravel()):
            p_r, p_t = pressure_derivatives(rho, theta, eos)
            o_r, o_t = fd_partials(lambda r, t: pressure(r, t, eos), rho, theta)
            scale = max(1.0, abs(p_r), abs(p_t))
            assert p_r == pytest.approx(o_r, rel=1e-6, abs=1e-6 * scale)
            assert p_t == pytest.approx(o_t, rel=1e-6, abs=1e-6 * scale)
            s_r, s_t = entropy_derivatives(rho, theta, eos)
            o_r, o_t = fd_partials(lambda r, t: entropy(r, t, eos), rho, theta)
            scale = max(1.0, abs(s_r), abs(s_t))
            assert s_r == pytest.approx(o_r, rel=1e-6, abs=1e-6 * scale)
            assert s_t == pytest.approx(o_t, rel=1e-6, abs=1e-6 * scale)
            e_t = energy_dtheta(rho, theta, eos)
            _, o_t = fd_partials(lambda r, t: internal_energy(r, t, eos), rho, theta)
            assert e_t == pytest.approx(o_t, rel=1e-6, abs=1e-6)


def test_maxwell_relation_analytic_on_grid() -> None:
    RR, TT = log_grid()
    for eos in CORNERS:
        s_r, _ = entropy_derivatives(RR, TT, eos)
        _, p_t = pressure_derivatives(RR, TT, eos)
        resid = s_r + p_t / RR ** 2
        scale = np.maximum(np.abs(s_r), 1.0)
        assert np.max(np.abs(resid) / scale) <= 1e-10


def test_gibbs_residual_small_on_grid() -> None:
    RR, TT = log_grid()
    for eos in CORNERS:
        assert gibbs_residual(RR, TT, eos) <= 1e-6


def test_gibbs_residual_negative_control() -> None:
    assert gibbs_residual(1.0, 1.0, IDEAL, s0_gradient=1.0) > 0.1


def test_transport_values() -> None:
    mu, eta, kappa = transport(1.0, EosParams(mu0=1.0, eta0=0.5, kappa0=1.0, beta=6.5))
    assert mu == pytest.approx(2.0)
    assert eta == pytest.approx(1.0)
    assert kappa == pytest.approx(2.0)
    _, _, kappa = transport(2.0, EosParams(kappa0=1.0, beta=3.0))
    assert kappa == pytest.approx(9.0)


def test_ob_coefficients_ideal_gas_closed_form() -> None:
    c = ob_coefficients(1.0, 1.0, IDEAL)
    assert c.alpha == pytest.approx(1.0, abs=1e-14)
    assert c.c_p == pytest.approx(2.5, abs=1e-14)
    assert c.lam == pytest.approx(0.4, abs=1e-14)


def test_ob_coefficients_ideal_gas_theta_dependence() -> None:
    c = ob_coefficients(1.0, 2.0, IDEAL)
    assert c.alpha == pytest.approx(0.5, abs=1e-14)
    assert c.c_p == pytest.approx(2.5, abs=1e-14)
    assert c.lam == pytest.approx(0.4, abs=1e-14)


def test_ob_coefficients_stiffened_alpha() -> None:
    c = ob_coefficients(1.0, 1.0, STIFF)
    assert c.alpha == pytest.approx(3.0 / 8.0, rel=1e-14)


def test_ob_coefficients_partials_match_fd_oracle() -> None:
    for eos in CORNERS:
        c = ob_coefficients(1.3, 0.8, eos)
        o_r, o_t = fd_partials(lambda r, t: pressure(r, t, eos), 1.3, 0.8)
        assert c.p_rho == pytest.approx(o_r, rel=1e-6)
        assert c.p_theta == pytest.approx(o_t, rel=1e-6)


def test_limit_identities_vanish_on_grid_all_corners() -> None:
    RR, TT = log_grid()
    for eos in CORNERS:
        for rho, theta in zip(RR.ravel(), TT.ravel()):
            r26, r27, r29 = check_limit_identities(rho, theta, eos)
            assert abs(r26) <= 1e-10
            assert abs(r27) <= 1e-10
            assert abs(r29) <= 1e-10


def test_lambda_in_unit_interval_on_grid() -> None:
    RR, TT = log_grid()
    for eos in CORNERS:
        for rho, theta in zip(RR.ravel(), TT.ravel()):
            c = ob_coefficients(rho, theta, eos)
            assert 0.0 < c.lam < 1.0


def test_ob_coefficients_rejects_lambda_at_one() -> None:
    # radiation-dominated reference: lam rounds to 1, the closure degenerates
    with pytest.raises(StabilityError):
        ob_coefficients(1e-3, 1e6, RAD)


def test_sound_speed_ideal_unit_point() -> None:
    assert sound_speed_squared(1.0, 1.0, IDEAL) == pytest.approx(5.0 / 3.0, rel=1e-14)


def test_theta_recovery_roundtrip() -> None:
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.3, 3.0, size=50)
    theta = rng.uniform(0.3, 3.0, size=50)
    for eos in CORNERS:
        E = rho_e(rho, theta, eos)
        back = theta_from_rho_e(rho, E, eos, theta_guess=np.full_like(rho, 1.0))
        assert np.max(np.abs(back - theta)) <= 1e-12


def test_theta_recovery_rejects_energy_below_cold_floor() -> None:
    with pytest.raises(DomainError):
        theta_from_rho_e(1.0, 1.0, EosParams(p_inf=10.0))


def test_theta_recovery_raises_when_newton_does_not_converge() -> None:
    # from the ideal-gas guess ~7e9, Newton on the quartic shrinks theta by
    # 3/4 per step and is still near 2e2 after 60 steps; the root is ~1
    with pytest.raises(DomainError):
        theta_from_rho_e(np.array([1e-10]), np.array([1.0]), RAD)


def test_hypothesis_report_full_eos_passes_main_checks() -> None:
    rep = check_hypotheses(FULL)
    for name in ("HTS", "w10", "w11", "w16"):
        assert rep[name].passed, name


def test_hypothesis_report_w11_fails_for_ideal_gas() -> None:
    rep = check_hypotheses(IDEAL)
    assert not rep["w11"].passed
    assert rep["w11"].witness is not None


def test_hypothesis_report_third_law_always_fails() -> None:
    for eos in CORNERS:
        assert not check_hypotheses(eos)["w14"].passed


def test_hypothesis_report_beta_flag() -> None:
    rep = check_hypotheses(EosParams(beta=5.0))
    assert not rep["w16"].passed


def test_hypothesis_report_l5b_constants_fitted() -> None:
    rep = check_hypotheses(FULL)
    assert rep["L5b"].passed
    assert "lower" in rep["L5b"].detail


def test_eos_params_validation() -> None:
    with pytest.raises(DomainError):
        EosParams(p_inf=-1.0)
    with pytest.raises(DomainError):
        EosParams(mu0=0.0)


@pytest.mark.parametrize(
    "name, bad",
    [(name, math.inf) for name in ("p_inf", "a", "mu0", "eta0", "kappa0", "beta", "s0")]
    + [("s0", math.nan), ("s0", -math.inf)],
)
def test_eos_params_reject_non_finite(name, bad) -> None:
    with pytest.raises(DomainError, match="must be finite"):
        EosParams(**{name: bad})


def test_thermo_point_validation() -> None:
    with pytest.raises(DomainError, match="must be > 0"):
        ob_coefficients(-1.0, 1.0, IDEAL)
    with pytest.raises(DomainError, match="non-finite"):
        ob_coefficients(1.0, float("nan"), IDEAL)
    with pytest.raises(DomainError):
        pressure(1.0, -2.0, IDEAL)


@given(
    rho=st.floats(0.05, 20.0),
    theta=st.floats(0.05, 20.0),
    p_inf=st.floats(0.0, 2.0),
    a=st.floats(0.0, 2.0),
)
@settings(max_examples=200, deadline=None)
def test_property_maxwell_and_lambda(rho, theta, p_inf, a) -> None:
    eos = EosParams(p_inf=p_inf, a=a)
    s_r, _ = entropy_derivatives(rho, theta, eos)
    _, p_t = pressure_derivatives(rho, theta, eos)
    assert abs(s_r + p_t / rho ** 2) <= 1e-10 * max(1.0, abs(s_r))
    c = ob_coefficients(rho, theta, eos)
    assert 0.0 < c.lam < 1.0


@given(z=st.floats(1e-3, 1e3), p_inf=st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_property_w10_combination_exact(z, p_inf) -> None:
    eos = EosParams(p_inf=p_inf)
    P = z + p_inf * z ** (5.0 / 3.0)
    Pp = 1.0 + (5.0 / 3.0) * p_inf * z ** (2.0 / 3.0)
    assert ((5.0 / 3.0) * P - Pp * z) / z == pytest.approx(2.0 / 3.0, rel=1e-12)


# (public function, the same function through its unchecked kernel).
KERNEL_PAIRS = [
    (pressure, thermo._pressure),
    (internal_energy, thermo._internal_energy),
    (entropy, thermo._entropy),
    (rho_e, thermo._rho_e),
    (pressure_derivatives, thermo._pressure_derivatives),
    (entropy_derivatives, thermo._entropy_derivatives),
    (energy_dtheta, thermo._energy_dtheta),
    (sound_speed_squared, thermo._sound_speed_squared),
    (lambda r, t, eos: transport(t, eos), lambda r, t, eos: thermo._transport(t, eos)),
]


@st.composite
def _states(draw):
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    positive = st.floats(1e-3, 1e3)
    return draw(arrays(float, shape, elements=positive)), draw(arrays(float, shape, elements=positive))


@given(
    state=_states(),
    p_inf=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    a=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    bad=st.sampled_from([0.0, -1.0, float("nan"), float("inf")]),
)
@settings(max_examples=100, deadline=None)
def test_property_kernels_equal_public_functions_bitwise(state, p_inf, a, bad) -> None:
    rho, theta = state
    eos = EosParams(p_inf=p_inf, a=a)
    bad_theta = theta.copy()
    bad_theta.flat[-1] = bad
    for public, kernel in KERNEL_PAIRS:
        got, want = kernel(rho, theta, eos), public(rho, theta, eos)
        if isinstance(want, tuple):
            assert all(np.array_equal(k, p) for k, p in zip(got, want, strict=True))
        else:
            assert np.array_equal(got, want)
        with pytest.raises(DomainError):
            public(rho, bad_theta, eos)
    bad_rho = rho.copy()
    bad_rho.flat[0] = bad
    for public, _ in KERNEL_PAIRS[:-1]:
        with pytest.raises(DomainError):
            public(bad_rho, theta, eos)


# Frozen copies of the kernel formulas with every term evaluated, also when its
# coefficient is 0: the kernels skip those terms and must stay bit-identical to
# these.  The closed forms are those of _closure and _rho_e (one cbrt, products
# of theta); the ideal gas's sound speed is its own closed form 5 theta / 3.
def _full_pressure(rho, theta, eos):
    t4 = theta * theta * theta * theta
    return rho * theta + eos.p_inf * (rho * np.cbrt(rho) ** 2) + (eos.a / 3.0) * t4


def _full_pressure_derivatives(rho, theta, eos):
    p_rho = theta + (5.0 / 3.0) * eos.p_inf * np.cbrt(rho) ** 2
    p_theta = rho + (4.0 * eos.a / 3.0) * (theta * theta * theta)
    return p_rho, p_theta


def _full_energy_dtheta(rho, theta, eos):
    return 1.5 + 4.0 * eos.a * (theta * theta * theta) / rho


def _full_sound_speed_squared(rho, theta, eos):
    if not (eos.p_inf or eos.a):
        return (5.0 / 3.0) * theta
    p_rho, p_theta = _full_pressure_derivatives(rho, theta, eos)
    return p_rho + theta * p_theta ** 2 / (rho ** 2 * _full_energy_dtheta(rho, theta, eos))


def _full_entropy(rho, theta, eos):
    return 1.5 * np.log(theta) - np.log(rho) + eos.s0 + (4.0 * eos.a / 3.0) * (theta * theta * theta) / rho


def _full_rho_e(rho, theta, eos):
    t4 = theta * theta * theta * theta
    return 1.5 * rho * theta + 1.5 * eos.p_inf * (rho * np.cbrt(rho) ** 2) + eos.a * t4


def _full_internal_energy(rho, theta, eos):
    return _full_rho_e(rho, theta, eos) / rho


def _full_entropy_derivatives(rho, theta, eos):
    s_rho = -1.0 / rho - (4.0 * eos.a / 3.0) * theta ** 3 / rho ** 2
    s_theta = 1.5 / theta + 4.0 * eos.a * theta ** 2 / rho
    return s_rho, s_theta


def _full_P(Z, eos):
    return Z + eos.p_inf * Z ** (5.0 / 3.0)


def _full_P_prime(Z, eos):
    return 1.0 + (5.0 / 3.0) * eos.p_inf * Z ** (2.0 / 3.0)


def _full_theta_from_rho_e_linear(rho, E, eos):
    return (E - 1.5 * eos.p_inf * (rho * np.cbrt(rho) ** 2)) / (1.5 * rho)


# (kernel, frozen formula) over (rho, theta, eos).
FROZEN_PAIRS = [
    (thermo._pressure, _full_pressure),
    (thermo._internal_energy, _full_internal_energy),
    (thermo._entropy, _full_entropy),
    (thermo._rho_e, _full_rho_e),
    (thermo._pressure_derivatives, _full_pressure_derivatives),
    (thermo._entropy_derivatives, _full_entropy_derivatives),
    (thermo._energy_dtheta, _full_energy_dtheta),
    (thermo._sound_speed_squared, _full_sound_speed_squared),
    (lambda r, t, eos: thermo._P(r, eos), lambda r, t, eos: _full_P(r, eos)),
    (lambda r, t, eos: thermo._P_prime(r, eos), lambda r, t, eos: _full_P_prime(r, eos)),
]


def _same(got, want):
    return np.shape(got) == np.shape(want) and np.array_equal(got, want)


@given(
    state=_states(),
    p_inf=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    a=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    scalar=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_property_kernels_equal_frozen_formulas_bitwise(state, p_inf, a, scalar) -> None:
    # skipping a term whose coefficient is 0 must not change a bit or a shape
    rho, theta = state
    if scalar:
        rho, theta = np.asarray(rho.flat[0]), np.asarray(theta.flat[0])
    eos = EosParams(p_inf=p_inf, a=a)
    for kernel, frozen in FROZEN_PAIRS:
        got, want = kernel(rho, theta, eos), frozen(rho, theta, eos)
        if isinstance(want, tuple):
            assert all(_same(k, f) for k, f in zip(got, want, strict=True))
        else:
            assert _same(got, want)
    if a == 0.0:
        E = _full_rho_e(rho, theta, eos)
        assert _same(theta_from_rho_e(rho, E, eos), _full_theta_from_rho_e_linear(rho, E, eos))


# The closure in its Z form, P(Z) = Z + p_inf Z^{5/3} with Z = rho theta^{-3/2},
# as an oracle independent of _closure: name -> (value, scale), where scale sums
# the absolute values of the Z form's own terms.  Those cancel in dp/dtheta at
# large Z, so the Z form is only good to rounding of scale, not of the value.
def _z_form(rho, theta, eos):
    Z = rho * theta ** -1.5
    P, P_prime = _full_P(Z, eos), _full_P_prime(Z, eos)
    p = theta ** 2.5 * P + (eos.a / 3.0) * theta ** 4
    e = 1.5 * theta ** 2.5 * P / rho + eos.a * theta ** 4 / rho
    p_rho = theta * P_prime
    terms = (2.5 * theta ** 1.5 * P, -1.5 * rho * P_prime, (4.0 * eos.a / 3.0) * theta ** 3)
    p_theta, scale = sum(terms), sum(np.abs(t) for t in terms)
    e_theta = 1.5 + 4.0 * eos.a * theta ** 3 / rho
    c2 = p_rho + theta * p_theta ** 2 / (rho ** 2 * e_theta)
    c2_scale = p_rho + theta * (np.abs(p_theta) + scale) ** 2 / (rho ** 2 * e_theta)
    return {
        "p": (p, p), "e": (e, e), "p_rho": (p_rho, p_rho), "p_theta": (p_theta, scale),
        "e_theta": (e_theta, e_theta), "c2": (c2, c2_scale),
    }


# A kernel agrees with the Z form within Z_FORM_ULPS units of rounding of the
# Z form's scale (the worst seen over [1e-3, 1e3]^2 is about 8).
Z_FORM_ULPS = 32


@given(
    state=_states(),
    p_inf=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    a=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
@settings(max_examples=200, deadline=None)
def test_property_kernels_match_z_form_to_rounding_of_its_terms(state, p_inf, a) -> None:
    rho, theta = state
    eos = EosParams(p_inf=p_inf, a=a)
    p_rho, p_theta = thermo._pressure_derivatives(rho, theta, eos)
    got = {
        "p": thermo._pressure(rho, theta, eos),
        "e": thermo._internal_energy(rho, theta, eos),
        "p_rho": p_rho,
        "p_theta": p_theta,
        "e_theta": thermo._energy_dtheta(rho, theta, eos),
        "c2": thermo._sound_speed_squared(rho, theta, eos),
    }
    for name, (want, scale) in _z_form(rho, theta, eos).items():
        err = np.max(np.abs(got[name] - want) / scale)
        assert err <= Z_FORM_ULPS * np.finfo(float).eps, (name, err)


@pytest.mark.parametrize("eos", [EosParams(p_inf=1.0), EosParams(p_inf=5.0, a=0.1)],
                         ids=["stiffened", "full"])
def test_pressure_theta_derivative_exact_to_rounding_at_large_z(eos) -> None:
    # dp/dtheta = rho + (4a/3) theta^3 exactly: no cancellation of Z terms
    Z, theta = np.meshgrid(np.geomspace(1e-2, 1e6, 97), np.geomspace(1e-2, 1e2, 97), indexing="ij")
    rho = Z * theta ** 1.5
    _, p_theta = pressure_derivatives(rho, theta, eos)
    r, t = rho.astype(np.longdouble), theta.astype(np.longdouble)
    exact = r + (4 * np.longdouble(eos.a) / 3) * t ** 3
    assert float(np.max(np.abs(p_theta - exact) / exact)) <= 1e-15


def test_returned_arrays_never_alias_the_inputs() -> None:
    # the ideal gas's p_rho and p_theta are theta and rho themselves inside
    # the closure; the public functions hand out new arrays
    rho, theta = np.linspace(0.5, 2.0, 5), np.linspace(1.0, 3.0, 5)
    rho0, theta0 = rho.copy(), theta.copy()
    for out in (*pressure_derivatives(rho, theta, IDEAL), pressure(rho, theta, IDEAL),
                energy_dtheta(rho, theta, IDEAL), sound_speed_squared(rho, theta, IDEAL)):
        out[...] = -1.0
    assert np.array_equal(rho, rho0) and np.array_equal(theta, theta0)


def test_theta_recovery_warm_start_agrees_with_cold_start() -> None:
    # a guess within 1% of the root (the previous RK stage in nsf) converges
    # to the cold-start root to rounding
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.3, 3.0, size=200)
    theta = rng.uniform(0.3, 3.0, size=200)
    for eos in (RAD, FULL):
        E = rho_e(rho, theta, eos)
        cold = theta_from_rho_e(rho, E, eos)
        guess = theta * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=200))
        warm = theta_from_rho_e(rho, E, eos, theta_guess=guess)
        assert np.max(np.abs(warm - cold) / cold) <= 1e-14
