"""Gas model: pressure/energy/entropy closure, transport laws, and the
derived Oberbeck-Boussinesq coefficients.

The closure family is

    p(rho, theta) = theta^{5/2} P(Z) + (a/3) theta^4,   Z = rho / theta^{3/2},
    P(Z) = Z + p_inf Z^{5/3},

with monoatomic internal energy e = (3/2) theta^{5/2} P(Z) / rho + a theta^4 / rho
and entropy s = S(Z) + (4a/3) theta^3 / rho, S(Z) = -log Z + s0.  For this P
the combination (5/3 P - P' Z)/Z equals 2/3 exactly, which forces S'(Z) = -1/Z.

All derivatives are analytic closed forms; finite differences appear only in
test oracles (gibbs_residual).  Every function is vectorized over rho/theta.

Each formula lives in one unchecked kernel; the public function of the same
name is _check_state plus the kernel, for states not yet validated.  p and
its derivatives, de/dtheta and c^2 come from one kernel, _closure, in the
closed forms P reduces to: they need no Z, and dp/dtheta = rho + (4a/3)
theta^3 carries no cancellation.  No kernel of the closure takes a
fractional power: _powers forms rho^{2/3} and rho^{5/3} as cbrt(rho)^2 and
rho cbrt(rho)^2, theta^3 and theta^4 as products, and _closure, _rho_e and
the cold floor of theta_from_rho_e all read them from there.  The
compressible stage calls _powers once and hands the result to _closure and
_rho_e; it forms rho's pair (_rho_powers) once, for the cold floor of its
theta recovery (_theta_from_rho_e, the kernel behind theta_from_rho_e) and
for that _powers.  A kernel skips the p_inf and a terms when their coefficient is 0
(adding 0.0 leaves a finite value unchanged), so the ideal gas pays no
rho^{5/3} and no theta^4.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import DomainError, StabilityError

__all__ = [
    "EosParams",
    "ObCoefficients",
    "HypothesisReport",
    "pressure",
    "internal_energy",
    "entropy",
    "rho_e",
    "pressure_derivatives",
    "entropy_derivatives",
    "energy_dtheta",
    "sound_speed_squared",
    "theta_from_rho_e",
    "transport",
    "ob_coefficients",
    "check_hypotheses",
    "check_limit_identities",
    "gibbs_residual",
]


@dataclass(frozen=True)
class EosParams:
    """Closure parameters of the gas model and its transport laws."""

    p_inf: float = 0.0
    a: float = 0.0
    mu0: float = 1e-2
    eta0: float = 0.0
    kappa0: float = 1e-2
    beta: float = 6.5
    s0: float = 0.0

    def __post_init__(self):
        if not (self.p_inf >= 0 and self.a >= 0 and self.eta0 >= 0 and self.beta >= 0):
            raise DomainError("p_inf, a, eta0, beta must be >= 0")
        if not (self.mu0 > 0 and self.kappa0 > 0):
            raise DomainError("mu0 and kappa0 must be > 0")
        if not np.isfinite(astuple(self)).all():
            raise DomainError(f"EOS parameters must be finite, got {self}")


@dataclass(frozen=True)
class ObCoefficients:
    """Limit-system coefficients at a reference state (rho_bar, theta_bar).

    alpha: thermal expansion; c_p: specific heat at constant pressure;
    lam: non-local mixing weight, in (0,1); remaining fields cache the
    partial derivatives and kappa(theta_bar) used alongside them.
    """

    rho_bar: float
    theta_bar: float
    alpha: float
    c_p: float
    lam: float
    p_rho: float
    p_theta: float
    e_theta: float
    s_rho: float
    s_theta: float
    kappa_bar: float


def _check_state(rho, theta):
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(theta))):
        raise DomainError("non-finite thermodynamic state")
    if np.any(rho <= 0) or np.any(theta <= 0):
        raise DomainError("rho and theta must be > 0")
    return rho, theta


def _finite_positive(x):
    """Whether every entry of the array x is finite and > 0, by one min and
    one max (a NaN propagates through both and fails); true when x is empty."""
    return x.size == 0 or bool(x.min() > 0 and x.max() < np.inf)


def _rho_powers(rho):
    """(rho^{2/3}, rho^{5/3}) as cbrt(rho)^2 and rho cbrt(rho)^2."""
    r23 = np.cbrt(rho) ** 2
    return r23, rho * r23


def _powers(rho, theta, eos, rho_powers=None):
    """The closure's powers, by one cbrt and products: (rho^{2/3}, rho^{5/3})
    when p_inf > 0 and (theta^3, theta^4) when a > 0, each pair None when its
    coefficient is 0.  rho_powers, when given, is _rho_powers(rho) already
    formed, and no cbrt is taken."""
    rp = (_rho_powers(rho) if rho_powers is None else rho_powers) if eos.p_inf else None
    if not eos.a:
        return rp, None
    t3 = theta * theta * theta
    return rp, (t3, t3 * theta)


def _closure(rho, theta, eos, powers=None):
    """(p, p_rho, p_theta, e_theta, c^2) in the closed forms of P(Z) = Z +
    p_inf Z^{5/3}: p = rho theta + p_inf rho^{5/3} + (a/3) theta^4, p_rho =
    theta + (5/3) p_inf rho^{2/3}, p_theta = rho + (4a/3) theta^3 (the Z
    terms cancel, as in w10), e_theta = 3/2 + 4a theta^3 / rho and c^2 =
    p_rho + theta p_theta^2 / (rho^2 e_theta); powers is _powers(rho, theta,
    eos) when the caller holds it.  The ideal gas returns the inputs
    themselves as p_rho = theta and p_theta = rho, and e_theta = 1.5."""
    p = rho * theta
    if not (eos.p_inf or eos.a):
        return p, theta, rho, 1.5, (5.0 / 3.0) * theta
    rp, tp = _powers(rho, theta, eos) if powers is None else powers
    p_rho, p_theta, e_theta = theta, rho, 1.5
    if rp:
        r23, r53 = rp
        p += eos.p_inf * r53
        p_rho = theta + (5.0 / 3.0) * eos.p_inf * r23
    if tp:
        t3, t4 = tp
        p += (eos.a / 3.0) * t4
        p_theta = rho + (4.0 * eos.a / 3.0) * t3
        e_theta = 1.5 + 4.0 * eos.a * t3 / rho
    c2 = p_rho + theta * p_theta ** 2 / (rho ** 2 * e_theta)
    return p, p_rho, p_theta, e_theta, c2


def _fresh(x, rho, theta):
    """x as a new array of the broadcast shape of rho and theta."""
    return np.broadcast_to(x, np.broadcast(rho, theta).shape).copy()


def _pressure(rho, theta, eos):
    """p = theta^{5/2} P(Z) + (a/3) theta^4."""
    return _closure(rho, theta, eos)[0]


def _internal_energy(rho, theta, eos):
    """e = (3/2) theta^{5/2} P(Z) / rho + a theta^4 / rho, per unit mass."""
    return _rho_e(rho, theta, eos) / rho


def _entropy(rho, theta, eos):
    """s = -log Z + s0 + (4a/3) theta^3 / rho, per unit mass, with -log Z
    = 1.5 log theta - log rho: two logs and products, no powers."""
    s = 1.5 * np.log(theta) - np.log(rho) + eos.s0
    return s + (4.0 * eos.a / 3.0) * (theta * theta * theta) / rho if eos.a else s


def _rho_e(rho, theta, eos, powers=None):
    """Volumetric internal energy rho*e = (3/2) rho theta + (3/2) p_inf
    rho^{5/3} + a theta^4; the conserved quantity of the heat balance."""
    E = 1.5 * rho * theta
    rp, tp = _powers(rho, theta, eos) if powers is None else powers
    if rp:
        E += 1.5 * eos.p_inf * rp[1]
    if tp:
        E += eos.a * tp[1]
    return E


def _pressure_derivatives(rho, theta, eos):
    """(dp/drho, dp/dtheta) = (theta P'(Z), rho + (4a/3) theta^3)."""
    _, p_rho, p_theta, _, _ = _closure(rho, theta, eos)
    return _fresh(p_rho, rho, theta), _fresh(p_theta, rho, theta)


def _entropy_derivatives(rho, theta, eos):
    """(ds/drho, ds/dtheta); consistent with Gibbs and the Maxwell relation."""
    s_rho, s_theta = -1.0 / rho, 1.5 / theta
    if eos.a:
        s_rho = s_rho - (4.0 * eos.a / 3.0) * theta ** 3 / rho ** 2
        s_theta = s_theta + 4.0 * eos.a * theta ** 2 / rho
    return s_rho, s_theta


def _energy_dtheta(rho, theta, eos):
    """de/dtheta = 3/2 + 4a theta^3 / rho."""
    return _fresh(_closure(rho, theta, eos)[3], rho, theta)


def _sound_speed_squared(rho, theta, eos):
    """Adiabatic sound speed squared: p_rho + theta p_theta^2 / (rho^2 e_theta)."""
    return _fresh(_closure(rho, theta, eos)[4], rho, theta)


def _mu(theta, eos):
    return eos.mu0 * (1.0 + theta)


def _eta(theta, eos):
    return eos.eta0 * (1.0 + theta)


def _kappa(theta, eos, scale=1.0):
    """kappa0 (1 + theta^beta), times scale (a constant factor the caller
    folds into kappa0)."""
    kappa = theta ** eos.beta
    kappa += 1.0
    kappa *= eos.kappa0 * scale
    return kappa


def _transport(theta, eos):
    return _mu(theta, eos), _eta(theta, eos), _kappa(theta, eos)


def _checked(kernel):
    """The public form of a (rho, theta, eos) kernel: _check_state, then the kernel."""

    def public(rho, theta, eos):
        return kernel(*_check_state(rho, theta), eos)

    public.__name__ = public.__qualname__ = kernel.__name__[1:]
    public.__doc__ = kernel.__doc__
    return public


pressure = _checked(_pressure)
internal_energy = _checked(_internal_energy)
entropy = _checked(_entropy)
rho_e = _checked(_rho_e)
pressure_derivatives = _checked(_pressure_derivatives)
entropy_derivatives = _checked(_entropy_derivatives)
energy_dtheta = _checked(_energy_dtheta)
sound_speed_squared = _checked(_sound_speed_squared)


def theta_from_rho_e(rho, E, eos, theta_guess=None):
    """Invert rho*e = E for theta at given rho.

    Linear when a == 0; otherwise Newton on the strictly increasing map
    theta -> (3/2) rho theta + a theta^4 (monotone, so the root is unique),
    started from theta_guess if given (a nearby theta converges in 2-3 steps,
    not about 7), raising DomainError when 60 Newton steps do not converge.
    R = E - (3/2) p_inf rho^{5/3} (rho^{5/3} as rho cbrt(rho)^2) must be
    finite and > 0 (one min and one max), else DomainError; rho itself is
    not checked.  Each Newton step forms theta^3 as a product.  An empty
    input returns empty.
    """
    rho = np.asarray(rho, dtype=float)
    return _theta_from_rho_e(
        rho, np.asarray(E, dtype=float), eos, theta_guess, _rho_powers(rho) if eos.p_inf else None
    )


def _theta_from_rho_e(rho, E, eos, theta_guess, rho_powers):
    """theta_from_rho_e on float arrays, with rho_powers = _rho_powers(rho)
    formed by the caller (None when p_inf == 0), so that a caller that needs
    the powers again, as the compressible stage's _thermo does, takes one
    cbrt."""
    R = E - 1.5 * eos.p_inf * rho_powers[1] if eos.p_inf else E
    if not _finite_positive(R):
        raise DomainError("internal energy below the cold-pressure floor")
    rho15 = 1.5 * rho
    if eos.a == 0.0:
        return R / rho15
    theta = np.maximum(R / rho15 if theta_guess is None else theta_guess, 1e-30)
    for _ in range(60):
        t3 = theta * theta * theta
        f = rho15 * theta + eos.a * (t3 * theta) - R
        df = rho15 + 4.0 * eos.a * t3
        step = f / df
        theta = np.maximum(theta - step, 0.5 * theta)
        if np.abs(step).max(initial=0.0) <= 1e-14 * theta.max(initial=0.0):
            return theta
    raise DomainError("Newton inversion of rho*e for theta did not converge")


def transport(theta, eos):
    """(mu, eta, kappa) = (mu0(1+theta), eta0(1+theta), kappa0(1+theta^beta))."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)) or np.any(theta <= 0):
        raise DomainError("theta must be finite and > 0")
    return _transport(theta, eos)


def ob_coefficients(rho_bar, theta_bar, eos):
    """Evaluate the limit-system coefficients at the reference state.

    alpha = (1/rho_bar) p_theta / p_rho,
    c_p   = e_theta + theta_bar alpha p_theta / rho_bar,
    lam   = theta_bar alpha p_theta / (rho_bar c_p).
    """
    rho, theta = _check_state(rho_bar, theta_bar)
    p_rho, p_theta, e_th = (float(x) for x in _closure(rho, theta, eos)[1:4])
    if p_rho <= 0 or e_th <= 0:
        raise StabilityError(
            f"thermodynamic stability fails at ({rho_bar}, {theta_bar}): "
            f"p_rho={p_rho}, e_theta={e_th}"
        )
    alpha = p_theta / (rho_bar * p_rho)
    if alpha <= 0:
        raise StabilityError(f"thermal expansion alpha={alpha} not positive")
    c_p = e_th + theta_bar * alpha * p_theta / rho_bar
    lam = theta_bar * alpha * p_theta / (rho_bar * c_p)
    if not 0.0 < lam < 1.0:
        raise StabilityError(f"mixing weight lambda={lam} outside (0, 1)")
    s_rho, s_theta = _entropy_derivatives(rho, theta, eos)
    kappa_bar = _kappa(theta, eos)
    return ObCoefficients(
        rho_bar=float(rho_bar),
        theta_bar=float(theta_bar),
        alpha=alpha,
        c_p=c_p,
        lam=lam,
        p_rho=p_rho,
        p_theta=p_theta,
        e_theta=e_th,
        s_rho=float(s_rho),
        s_theta=float(s_theta),
        kappa_bar=float(kappa_bar),
    )


def check_limit_identities(rho_bar, theta_bar, eos):
    """Residuals (r26, r27, r29) of the three closure identities; each must be 0.

    r26: the coefficient multiplying the density mismatch in the limit
         entropy balance,
         -s_theta p_rho/p_theta - s_rho (c_p rho_bar/(theta_bar alpha p_theta) - 1);
    r27: [s_rho p_theta/p_rho - s_theta] kappa/c_p + kappa/theta_bar
         (the bracket evaluates to -kappa(theta_bar)/theta_bar);
    r29: rho_bar (s_rho - s_theta p_rho/p_theta) (theta_bar alpha / c_p) + 1.
    """
    c = ob_coefficients(rho_bar, theta_bar, eos)
    r26 = -c.s_theta * (c.p_rho / c.p_theta) - c.s_rho * (
        c.c_p * c.rho_bar / (c.theta_bar * c.alpha * c.p_theta) - 1.0
    )
    r27 = (c.s_rho * c.p_theta / c.p_rho - c.s_theta) * c.kappa_bar / c.c_p + c.kappa_bar / c.theta_bar
    r29 = c.rho_bar * (c.s_rho - c.s_theta * c.p_rho / c.p_theta) * (c.theta_bar * c.alpha / c.c_p) + 1.0
    return float(r26), float(r27), float(r29)


def gibbs_residual(rho, theta, eos, s0_gradient=0.0):
    """Max-abs relative residual of the Gibbs relation via central differences.

    Checks theta ds/dtheta = de/dtheta and theta ds/drho = de/drho - p/rho^2
    with finite-difference derivatives (step 1e-6 * scale).  s0_gradient is a
    negative-control hook: it adds a spurious rho-linear term to the entropy.
    """
    rho, theta = _check_state(rho, theta)

    def s_fn(r, t):
        return entropy(r, t, eos) + s0_gradient * r

    hr = 1e-6 * np.maximum(np.abs(rho), 1.0)
    ht = 1e-6 * np.maximum(np.abs(theta), 1.0)
    ds_dr = (s_fn(rho + hr, theta) - s_fn(rho - hr, theta)) / (2 * hr)
    ds_dt = (s_fn(rho, theta + ht) - s_fn(rho, theta - ht)) / (2 * ht)
    de_dr = (internal_energy(rho + hr, theta, eos) - internal_energy(rho - hr, theta, eos)) / (2 * hr)
    de_dt = (internal_energy(rho, theta + ht, eos) - internal_energy(rho, theta - ht, eos)) / (2 * ht)
    p = pressure(rho, theta, eos)
    r1 = theta * ds_dt - de_dt
    r2 = theta * ds_dr - (de_dr - p / rho ** 2)
    scale1 = np.maximum(np.abs(de_dt), 1.0)
    scale2 = np.maximum(np.abs(de_dr) + np.abs(p) / rho ** 2, 1.0)
    return float(np.max(np.maximum(np.abs(r1) / scale1, np.abs(r2) / scale2)))


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    detail: str
    witness: tuple | None = None


@dataclass
class HypothesisReport:
    """Per-hypothesis pass/fail results with witness points and fitted constants."""

    checks: list[HypothesisCheck] = field(default_factory=list)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            out.append(f"{c.name:8s} {status}  {c.detail}")
        return out


# P and P' of Z itself, for the structure checks w10 and w11 only.
def _P(Z, eos):
    return Z + eos.p_inf * Z ** (5.0 / 3.0) if eos.p_inf else Z


def _P_prime(Z, eos):
    return 1.0 + (5.0 / 3.0) * eos.p_inf * Z ** (2.0 / 3.0) if eos.p_inf else np.ones_like(Z)


# check_hypotheses samples _HYP_N log-spaced points per axis over these ranges.
_HYP_Z_RANGE = _HYP_THETA_RANGE = (1e-2, 1e2)
_HYP_N = 64


def check_hypotheses(eos):
    """Evaluate the constitutive hypotheses on a log-sampled (Z, theta) grid.

    HTS (p_rho > 0, e_theta > 0) and the w10 structure are hard requirements
    of the solvers; the asymptotic-pressure condition (w11 needs p_inf > 0),
    the third law (w14, never satisfied by S = -log Z), and beta > 6 (w16)
    are reported but not fatal.  The rho*e bounds (L5b) are reported with
    fitted constants.
    """
    Z = np.geomspace(*_HYP_Z_RANGE, _HYP_N)
    th = np.geomspace(*_HYP_THETA_RANGE, _HYP_N)
    ZZ, TT = np.meshgrid(Z, th, indexing="ij")
    RR = ZZ * TT ** 1.5

    report = HypothesisReport()

    p_rho, _ = pressure_derivatives(RR, TT, eos)
    e_th = energy_dtheta(RR, TT, eos)
    hts_ok = bool(np.all(p_rho > 0) and np.all(e_th > 0))
    worst = None
    if not hts_ok:
        i = np.unravel_index(np.argmin(np.minimum(p_rho, e_th)), RR.shape)
        worst = (float(RR[i]), float(TT[i]))
    report.checks.append(
        HypothesisCheck(
            "HTS",
            hts_ok,
            f"min p_rho={np.min(p_rho):.3e}, min e_theta={np.min(e_th):.3e}",
            worst,
        )
    )

    # w10: P(0)=0, P'>0, and (5/3 P - P'Z)/Z == 2/3 for this family.
    comb = (5.0 / 3.0 * _P(Z, eos) - _P_prime(Z, eos) * Z) / Z
    w10_ok = (
        _P(0.0, eos) == 0.0
        and bool(np.all(_P_prime(Z, eos) > 0))
        and bool(np.max(np.abs(comb - 2.0 / 3.0)) <= 1e-12)
    )
    report.checks.append(
        HypothesisCheck(
            "w10",
            w10_ok,
            f"max |5/3 P - P'Z)/Z - 2/3| = {np.max(np.abs(comb - 2.0 / 3.0)):.2e}",
        )
    )

    # w11: P(Z)/Z^{5/3} decreasing with a positive limit p_inf > 0.
    ratio = _P(Z, eos) / Z ** (5.0 / 3.0)
    decreasing = bool(np.all(np.diff(ratio) <= 1e-12 * np.abs(ratio[:-1])))
    w11_ok = decreasing and eos.p_inf > 0
    report.checks.append(
        HypothesisCheck(
            "w11",
            w11_ok,
            f"P/Z^(5/3) decreasing={decreasing}, limit p_inf={eos.p_inf}"
            + ("" if w11_ok else " (limit not > 0)"),
            (float(Z[-1]), float(ratio[-1])) if not w11_ok else None,
        )
    )

    # w14 third law: S(Z) -> 0 as Z -> infinity; -log Z + s0 diverges instead.
    S_tail = -np.log(Z[-1]) + eos.s0
    report.checks.append(
        HypothesisCheck(
            "w14",
            False,
            f"S(Z) = -log Z + s0 -> -inf; S({Z[-1]:.1e}) = {S_tail:.3f}",
            (float(Z[-1]), float(S_tail)),
        )
    )

    # w16 transport bounds; the linear/power forms satisfy the two-sided
    # envelopes by construction, so only beta > 6 can fail.
    w16_ok = eos.beta > 6.0
    report.checks.append(
        HypothesisCheck("w16", w16_ok, f"beta={eos.beta} (requires beta > 6)")
    )

    # L5b: fitted constants for rho^{5/3} + theta^4 <~ rho e <~ 1 + rho^{5/3} + theta^4.
    re = rho_e(RR, TT, eos)
    c_lo = float(np.min(re / (RR ** (5.0 / 3.0) + TT ** 4)))
    c_hi = float(np.max(re / (1.0 + RR ** (5.0 / 3.0) + TT ** 4)))
    report.checks.append(
        HypothesisCheck(
            "L5b",
            c_lo > 0 and np.isfinite(c_hi),
            f"fitted constants: lower {c_lo:.3e}, upper {c_hi:.3e}",
        )
    )
    return report
