"""Compressible flow integrator at finite scaling parameter eps.

Advances (rho, theta, U) of the scaled system: conservative continuity,
primitive-velocity momentum with the 1/eps^2 pressure gradient and 1/eps
potential force, and the conservative internal-energy balance
d_t(rho e) + div(rho e U) + div q = eps^2 S:grad U - p div U with Fourier flux
q = -kappa(theta) grad theta, Dirichlet temperature walls and no-slip
velocity.  Time stepping is explicit SSP-RK2 under an acoustic CFL bound, so
the cost of a run grows like 1/eps.

Flux dissipation is Rusanov-type but acts on deviations from a discrete
hydrostatic reference (rho_hat, theta_hat): theta_hat is the exact steady
state of the discrete conduction operator, and rho_hat satisfies the discrete
face balance p_hat_{k+1} - p_hat_k = eps rho_hat_f (G_{k+1} - G_k) with the
column mass pinned to rho_bar, all faces and the mass row solved together by
one damped Newton iteration.  The reference is then an exact fixed point of
the whole scheme, dissipation never acts on the equilibrium stratification,
and the potential force enters z-momentum in the balanced form
G' (1 - rho_hat_f / rho_f).  Jumps split into an acoustic part (from the
pressure jump, dissipated at |u| + c/eps) and a material part (dissipated at
|u|); the acoustic energy jump is weighted by the specific enthalpy.  The
two rates are applied as the two-term flux central - (c/(2 eps)) j_ac -
(|u|/2) j, which equals the split form in exact arithmetic.  An
x-varying wall gets the column between the x-mean wall temperatures: it is
still in discrete face balance, which keeps the scheme consistent, and the
Fourier wall flux keeps the per-x walls.  An x-varying potential gets zero
profiles, and the scheme reduces to the plain form.

Validation runs at the public entry points, which also reject a state built
on another grid (ShapeError) or at another eps (CompatibilityError), and in
the positivity guard after every stage (one min and one max per array).
run_nsf steps raw arrays x = (rho, theta, u, w) through the kernels _step,
_cfl_bound and _log_row and builds an NsfState only for a snapshot; step_nsf,
cfl_dt and ballistic_energy unpack their validated state once and call the
same kernels.  A run evaluates each state's thermodynamics once and shares
it between the log row, the CFL bound (once per step) and the next step's
first stage: rho*e is thermo's _rho_e and p, c^2 and e_theta its _closure,
both on one _powers (one cbrt and products of theta), so the stage forms no
gas-model formula of its own.  Each stage starts the Newton recovery of
theta at the previous stage's theta and forms the cbrt of its density once,
for the recovery's cold floor and the _thermo that follows.  A run binds one
grid._Advection (step_nsf one per call).  An exactly x-invariant run
(_x_strip) steps x and the reference cut to 4 columns under the caller's
scenario, and tiles its log rows and snapshots back to full width, bit for
bit the full-width run; one at rest in x is a column, stepping only its
z-terms (the rule and its + 0.0 operands are in _x_strip's docstring).

The stage kernel _rhs is written for the number of array passes.  One
routine, _face_fluxes, forms the face fluxes of both directions on their
neighbour-pair stencils (_xfaces, periodic, and _zfaces), and one
_divergence turns them into rates.  Interior z-face quantities live in
grid's z-face layout (column k holds face k, column 0 the bottom wall face,
the top wall face a separate (nx,) row), so
every z-neighbour stencil is one flat pass over the C-contiguous buffer
(_zfaces, _zcenters), its spare entries finite neighbour pairs; a temporary
with no other reader is updated in place, as are the stage updates of
_step.  Every grid, eps and wall factor is a per-scenario constant on
_NsfAux that the stage multiplies by, and each face density divides once,
as the common denominator of the pressure gradient, the viscous term and
the potential force.  The results therefore differ from the plain formulas
(every factor divided where it appears) by rounding only, and the discrete
reference at rest still gives exactly zero mass and momentum rates.
scipy is imported only by the continuum oracle hydrostatic_stationary_1d.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import grid as gr
from .errors import (
    CompatibilityError,
    DivergenceError,
    DomainError,
    ShapeError,
    StabilityError,
    require_positive,
)
from .grid import (
    Grid,
    ScalarField,
    Staggering,
    VectorField,
    center_to_xface,
    laplace_dirichlet,
    mean,
    xface_to_center,
    zface_to_center,
)
from .thermo import (
    _check_state,
    _closure,
    _entropy,
    _eta,
    _finite_positive,
    _kappa,
    _mu,
    _powers,
    _rho_e,
    _rho_powers,
    _theta_from_rho_e,
    pressure_derivatives,
    transport,
)

__all__ = [
    "NsfScenario",
    "NsfState",
    "NsfTrajectory",
    "LOG_COLUMNS",
    "build_initial_nsf",
    "step_nsf",
    "cfl_dt",
    "run_nsf",
    "ballistic_energy",
    "hydrostatic_stationary_1d",
    "discrete_hydrostatic_reference",
]


def _require_static_walls(scenario):
    """Raise DomainError naming the wall of scenario whose Theta_B is a
    callable of t: the compressible solver takes static wall data only."""
    for name in ("theta_b_bottom", "theta_b_top"):
        if callable(getattr(scenario, name)):
            raise DomainError(
                f"{name} is time-dependent; compressible runs need static Theta_B "
                "(time-dependent wall data is only supported by the incompressible solver)"
            )


@dataclass
class NsfScenario:
    grid: Grid
    eos: object
    eps: float
    rho_bar: float = 1.0
    theta_bar: float = 1.0
    G: ScalarField | None = None
    theta_b_bottom: object = 0.0
    theta_b_top: object = 0.0
    cfl: float = 0.4
    t_end: float = 1.0
    T0: ScalarField | None = None
    U0: VectorField | None = None

    def __post_init__(self):
        _require_static_walls(self)
        require_positive(self.rho_bar, "rho_bar")
        require_positive(self.theta_bar, "theta_bar")
        if not 0.0 < self.eps <= 1.0:
            raise DomainError(f"eps must lie in (0, 1], got {self.eps}")
        if self.G is None:
            self.G = ScalarField.zeros(self.grid)
        if not np.isfinite(self.G.values).all():
            raise DomainError("G must be finite")
        if abs(mean(self.G)) > 1e-12:
            raise DomainError(f"potential G must be mean-free, got mean {mean(self.G):.3e}")
        require_positive(self.t_end, "t_end")
        if not 0.0 < self.cfl <= 1.0:
            raise DomainError("cfl must lie in (0, 1]")
        gr._require_finite_walls(self.wall_values())
        gr._require_finite_initial(self.T0, self.U0)
        wb, wt = self.wall_theta()
        if np.min(wb) <= 0 or np.min(wt) <= 0:
            raise DomainError(
                f"eps={self.eps:g} too large: wall temperature theta_bar + eps Theta_B loses positivity"
            )
        self._aux = None

    def wall_values(self):
        """Theta_B wall data as (nx,) arrays."""
        nx = self.grid.nx
        return gr._wall_array(self.theta_b_bottom, nx), gr._wall_array(self.theta_b_top, nx)

    def wall_theta(self):
        """Physical wall temperatures theta_bar + eps Theta_B as (nx,) arrays."""
        wb, wt = self.wall_values()
        return self.theta_bar + self.eps * wb, self.theta_bar + self.eps * wt

    def reference(self):
        """Cached discrete reference and per-scenario flux stencils."""
        if self._aux is None:
            self._aux = _build_reference(self)
        return self._aux


@dataclass
class NsfState:
    rho: ScalarField
    theta: ScalarField
    U: VectorField
    t: float
    eps: float

    def __post_init__(self):
        for name, vals in (("rho", self.rho.values), ("theta", self.theta.values)):
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
                raise DomainError(f"{name} must be finite and strictly positive")

    def copy(self):
        return NsfState(self.rho.copy(), self.theta.copy(), self.U.copy(), self.t, self.eps)


def _fields(state, scenario):
    """x = (rho, theta, u, w) of state; ShapeError unless every field lives
    on scenario's grid, CompatibilityError unless state was built at
    scenario's eps, DomainError unless rho and theta are finite and > 0."""
    gr._require_grid(scenario.grid, (state.rho, state.theta, state.U))
    if state.eps != scenario.eps:
        raise CompatibilityError(
            f"state eps={state.eps!r} does not match the scenario eps={scenario.eps!r}"
        )
    rho, th = _check_state(state.rho.values, state.theta.values)
    return rho, th, state.U.u, state.U.w


# Columns of run_nsf's per-step log: time, total mass, ballistic energy, the
# entropy integral, and the step size taken (0 for the initial row).
LOG_COLUMNS = ("t", "mass", "ballistic_energy", "entropy_proxy", "dt")


@dataclass
class NsfTrajectory:
    scenario: NsfScenario
    times: list
    states: list
    log: np.recarray  # one record per state, the initial one included; fields LOG_COLUMNS
    steps: int
    wall_seconds: float


@dataclass
class _NsfAux:
    """Hydrostatic reference profiles plus cached wall and potential stencils;
    balanced tells whether the scheme has a reference (the potential is
    z-only).  _rhs's per-scenario invariants: the full-shape *_xz profiles;
    in the z-face layout (column k >= 1 holds face k, column 0 a finite
    spare), dGz_eps = (G_k - G_{k-1}) / (eps dz) and the face densities
    rho_hat_f_xz; the x-varying potential force dGx_eps = (G_i - G_{i-1}) /
    (eps dx), None when G is z-only; the bottom x-face wall temperature
    corner_b and the top wall row's viscosity mu_corner_t; the wall
    conduction factors kap_b2/kap_t2 = -2 kappa(wall) / dz; and the grid and
    eps constants the stage multiplies by instead of dividing: inv_dx,
    inv_dz, half_inv_eps = 1/(2 eps), pg_x/pg_z = 1/(eps^2 dx), 1/(eps^2
    dz), and the signed divergence scales div_x/div_z = -1/dx, -1/dz;
    _cfl_bound's cfl_acoustic = (1/dx + 1/dz)/eps and cfl_diffusive =
    4 (1/dx^2 + 1/dz^2).  rho_hat_f is the (nz-1,) interior-face profile.
    column marks a strip whose x-terms are all zero (_x_strip)."""

    rho_hat: np.ndarray
    theta_hat: np.ndarray
    balanced: bool
    wall_b: np.ndarray
    wall_t: np.ndarray
    kap_b2: np.ndarray
    kap_t2: np.ndarray
    dGx_eps: np.ndarray | None
    rho_hat_f: np.ndarray
    rho_hat_xz: np.ndarray
    rho_hat_f_xz: np.ndarray
    p_hat_xz: np.ndarray
    E_hat_xz: np.ndarray
    dGz_eps: np.ndarray
    corner_b: np.ndarray
    mu_corner_t: np.ndarray
    inv_dx: float
    inv_dz: float
    half_inv_eps: float
    pg_x: float
    pg_z: float
    div_x: float
    div_z: float
    cfl_acoustic: float
    cfl_diffusive: float
    column: bool = False


def _conduction_profile(grid, eos, gb, gt):
    """Exact steady state of the discrete conduction operator: interior faces
    carry kappa at the face-averaged temperature, wall fluxes use the mirror
    form 2 kappa(g) (theta_0 - g)/dz.  Picard iteration: each pass solves
    the frozen-kappa operator, the z-solver with kappa as face weights.  The
    walls are constant, so only the kx = 0 mode carries data, and the
    operator is built on the narrowest grid (4 columns) of the same nz.  The
    iteration converges linearly, a few percent per pass when kappa spans
    decades between the walls, so it may take up to 2,000 passes."""
    scale = max(abs(gb), abs(gt))
    if abs(gt - gb) <= 1e-14 * scale:
        return np.full(grid.nz, 0.5 * (gb + gt))
    column = Grid(4, grid.nz)
    th = gb + (gt - gb) * grid.z_centers
    for _ in range(2000):
        faces = transport(np.concatenate([[gb], 0.5 * (th[:-1] + th[1:]), [gt]]), eos)[2]
        new = gr._ZOperator(column, 1.0, "mirror", a=0.0, faces=faces).solve(None, gb, gt)[0]
        done = np.max(np.abs(new - th)) <= 1e-13 * scale
        th = new
        if done:
            return th
    raise DomainError("discrete conduction profile did not converge")


def _balanced_density(grid, eos, theta_hat, G_prof, eps, rho_bar):
    """rho solving the nz - 1 face balances p(rho_{k+1}, theta_{k+1}) -
    p(rho_k, theta_k) = eps (rho_k + rho_{k+1})/2 dG_k together with the mass
    row dz sum(rho) = rho_bar: damped Newton from rho = rho_bar on the
    bidiagonal-plus-mass-row Jacobian."""
    nz = grid.nz
    half_dG = 0.5 * eps * np.diff(G_prof)
    k = np.arange(nz - 1)
    jac = np.zeros((nz, nz))
    jac[-1] = grid.dz
    res = np.empty(nz)
    rho = np.full(nz, float(rho_bar))
    last = np.inf
    for _ in range(60):
        with np.errstate(over="ignore", invalid="ignore"):  # caught as a non-finite iterate
            p, p_rho = _closure(rho, theta_hat, eos)[:2]
            res[:-1] = (p[1:] - p[:-1]) - half_dG * (rho[:-1] + rho[1:])
            res[-1] = float(np.sum(rho)) * grid.dz - rho_bar
            jac[k, k] = -p_rho[:-1] - half_dG
            jac[k, k + 1] = p_rho[1:] - half_dG
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                break
            rho = np.maximum(rho - step, 0.5 * rho)
        if not np.all(np.isfinite(rho)):
            break
        size = np.max(np.abs(step)) / np.max(rho)
        # converged, or stalled at the rounding floor that a stiff p sets
        if size <= 1e-15 or last <= size <= 1e-10:
            return rho
        last = size
    raise DomainError("hydrostatic face balance did not converge")


def _z_only(Gv):
    return float(np.max(np.abs(Gv - Gv[:1, :]))) <= 1e-12 * max(1.0, float(np.max(np.abs(Gv))))


def _flat(wall):
    return float(np.ptp(wall)) <= 1e-13


def _is_column(scenario):
    """Whether the stationary state is a z-profile: the potential is z-only and
    each wall temperature theta_bar + eps Theta_B is constant."""
    wb, wt = scenario.wall_theta()
    return _z_only(scenario.G.values) and _flat(wb) and _flat(wt)


def _build_reference(scenario):
    """The reference column whenever the potential is z-only, between wb[0]
    for a flat wall (a mean may round off its value) and the x-mean for an
    x-varying one; zero profiles otherwise."""
    g = scenario.grid
    eos = scenario.eos
    wb, wt = scenario.wall_theta()
    Gv = scenario.G.values
    balanced = _z_only(Gv)
    if balanced:
        gb, gt = (float(w[0]) if _flat(w) else float(np.mean(w)) for w in (wb, wt))
        theta_hat = _conduction_profile(g, eos, gb, gt)
        rho_hat = _balanced_density(g, eos, theta_hat, Gv[0], scenario.eps, scenario.rho_bar)
        p_hat, E_hat = _closure(rho_hat, theta_hat, eos)[0], _rho_e(rho_hat, theta_hat, eos)
    else:
        theta_hat = np.full(g.nz, scenario.theta_bar)
        rho_hat = p_hat = E_hat = np.zeros(g.nz)
    eps, dx, dz = scenario.eps, g.dx, g.dz
    dGx = gr._xdiff_prev(Gv)
    rho_hat_f = 0.5 * (rho_hat[1:] + rho_hat[:-1])
    dGz_eps = _zfaces(np.subtract, Gv)
    dGz_eps /= eps * dz
    return _NsfAux(
        rho_hat=rho_hat,
        theta_hat=theta_hat,
        balanced=balanced,
        wall_b=wb,
        wall_t=wt,
        kap_b2=transport(wb, eos)[2] * (-2.0 / dz),
        kap_t2=transport(wt, eos)[2] * (-2.0 / dz),
        dGx_eps=dGx / (eps * dx) if dGx.any() else None,
        rho_hat_f=rho_hat_f,
        rho_hat_xz=np.tile(rho_hat, (g.nx, 1)),
        rho_hat_f_xz=np.tile(np.concatenate([rho_hat_f[:1], rho_hat_f]), (g.nx, 1)),
        p_hat_xz=np.tile(p_hat, (g.nx, 1)),
        E_hat_xz=np.tile(E_hat, (g.nx, 1)),
        dGz_eps=dGz_eps,
        corner_b=center_to_xface(wb),
        mu_corner_t=_mu(center_to_xface(wt), eos),
        inv_dx=1.0 / dx,
        inv_dz=1.0 / dz,
        half_inv_eps=0.5 / eps,
        pg_x=1.0 / (eps * eps * dx),
        pg_z=1.0 / (eps * eps * dz),
        div_x=-1.0 / dx,
        div_z=-1.0 / dz,
        cfl_acoustic=(1.0 / dx + 1.0 / dz) / eps,
        cfl_diffusive=4.0 * (1.0 / dx ** 2 + 1.0 / dz ** 2),
    )


def discrete_hydrostatic_reference(scenario):
    """(rho_hat, theta_hat) z-profiles: the exact discrete stationary state
    the scheme is balanced around.  Needs a z-only potential and per-wall
    constant Theta_B."""
    if not _is_column(scenario):
        raise ShapeError(
            "discrete reference needs a z-only potential and per-wall-constant Theta_B"
        )
    aux = scenario.reference()
    return aux.rho_hat.copy(), aux.theta_hat.copy()


def hydrostatic_stationary_1d(scenario):
    """Continuum stationary profiles (rho(z), theta(z)) at the cell centers.

    theta inverts the Kirchhoff integral K(theta) = kappa0 (theta +
    theta^{beta+1}/(beta+1)), which is linear in z between the wall
    temperatures.  rho integrates p(rho, theta(z))' = eps rho G'(z) with an
    augmented mass variable, shooting the bottom density so the column mass
    is rho_bar from the bracket [0.7, 1.4] rho_bar, halved and doubled up to
    12 times.  Independent of the flux discretization: scipy (imported here
    only) quadrature-grade ODE integration against a spline of the potential.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq
    if not _is_column(scenario):
        raise ShapeError("hydrostatic profiles need a z-only potential and per-wall-constant Theta_B")
    eos = scenario.eos
    eps = scenario.eps
    wb, wt = scenario.wall_theta()
    gb, gt = float(wb[0]), float(wt[0])
    Gv = scenario.G.values
    zc = scenario.grid.z_centers

    def K(th):
        return eos.kappa0 * (th + th ** (eos.beta + 1.0) / (eos.beta + 1.0))

    if abs(gt - gb) <= 1e-14 * max(abs(gb), abs(gt)):
        dK = 0.0
        theta_of = lambda z: 0.5 * (gb + gt) + 0.0 * z
    else:
        dK = K(gt) - K(gb)
        ths = np.linspace(gb, gt, 1025)
        zs = (K(ths) - K(gb)) / dK
        zs[0], zs[-1] = 0.0, 1.0
        theta_of = CubicSpline(zs, ths)
    g_spline = CubicSpline(zc, Gv[0])
    g_prime = g_spline.derivative()

    def rhs(z, y):
        th = float(theta_of(z))
        p_r, p_th = pressure_derivatives(np.asarray(y[0]), np.asarray(th), eos)
        th_prime = dK / _kappa(th, eos)
        return [(eps * y[0] * float(g_prime(z)) - float(p_th) * th_prime) / float(p_r), y[0]]

    @cache  # the bracket ends and the root are integrated once each
    def column(b):
        sol = solve_ivp(rhs, (0.0, 1.0), [b, 0.0], rtol=1e-11, atol=1e-13, dense_output=True)
        if not sol.success:
            raise DomainError(f"hydrostatic integration failed: {sol.message}")
        return sol

    def mass_gap(b):
        return column(b).y[1, -1] - scenario.rho_bar

    lo, hi = 0.7 * scenario.rho_bar, 1.4 * scenario.rho_bar
    for _ in range(13):  # the first bracket and up to 12 widenings
        if mass_gap(lo) * mass_gap(hi) <= 0:
            break
        lo *= 0.5
        hi *= 2.0
    else:
        raise DomainError("hydrostatic mass shooting failed to bracket")
    b, info = brentq(mass_gap, lo, hi, xtol=1e-14, rtol=1e-12, full_output=True, disp=False)
    if not info.converged:
        raise DomainError(f"hydrostatic mass shooting did not converge: {info.flag}")
    rho_prof = column(b).sol(zc)[0]
    return rho_prof, np.asarray(theta_of(zc), dtype=float) + np.zeros_like(zc)


def build_initial_nsf(scenario):
    """Well-prepared state at finite eps: the density deviation is recovered
    from the temperature deviation and the potential by the limit-system
    relation r0 = (rho_bar G + p_theta fint(T0) - p_theta T0) / p_rho, so r0
    is mean-free and the column mass is rho_bar |Omega|.

    rho = rho_bar + eps r0, theta = theta_bar + eps T0, U = U0.  Raises when
    eps is too large for the prescribed deviations to keep rho, theta > 0.
    """
    g = scenario.grid
    T0 = scenario.T0 if scenario.T0 is not None else ScalarField.zeros(g)
    U0 = scenario.U0 if scenario.U0 is not None else VectorField.zeros(g)
    if T0.stag != Staggering.CENTER:
        raise ShapeError("T0 must be center-staggered")
    p_r, p_th = pressure_derivatives(
        np.asarray(scenario.rho_bar), np.asarray(scenario.theta_bar), scenario.eos
    )
    m = mean(T0)
    r0 = (scenario.rho_bar * scenario.G.values + float(p_th) * (m - T0.values)) / float(p_r)
    rho = scenario.rho_bar + scenario.eps * r0
    th = scenario.theta_bar + scenario.eps * T0.values
    if np.any(rho <= 0) or np.any(th <= 0):
        raise DomainError(
            f"eps={scenario.eps:g} too large: initial fields lose positivity"
        )
    return NsfState(ScalarField(g, rho), ScalarField(g, th), U0.copy(), 0.0, scenario.eps)


# Thermo and transport fields of one checked (rho, theta), shared within a
# stage; e_theta is the float 1.5 when eos.a == 0, and eta is None when
# eos.eta0 == 0, and the bulk-viscosity terms are skipped.
_Thermo = namedtuple("_Thermo", "E p c2 e_theta mu eta")


def _thermo(rho, th, eos, rho_powers=None):
    """Stage thermodynamics: p, c^2 and e_theta from thermo's _closure and E
    from _rho_e, both on one _powers, each bit for bit what the public
    functions return.  rho_powers, when given, is _rho_powers(rho), which
    the stage's theta recovery has formed."""
    powers = _powers(rho, th, eos, rho_powers)
    p, _, _, e_theta, c2 = _closure(rho, th, eos, powers)
    eta = _eta(th, eos) if eos.eta0 else None
    return _Thermo(_rho_e(rho, th, eos, powers), p, c2, e_theta, _mu(th, eos), eta)


def _zfaces(ufunc, a):
    """ufunc(a[:, k], a[:, k-1]) of a center array a in the z-face layout:
    column k >= 1 holds interior face k, one flat pass over the buffer.
    Column 0, the bottom wall face, holds spare pairs across x-columns and,
    at [0, 0], a copy of [0, 1], so every entry is a finite neighbour pair."""
    out = np.empty(a.shape)
    flat = out.reshape(-1)
    ufunc(gr._zhi(a), gr._zlo(a), out=flat[1:])
    flat[0] = flat[1]
    return out


def _zcenters(ufunc, f, top):
    """ufunc(f[:, k+1], f[:, k]) at the centers of a z-face-layout array f
    whose top wall face is the (nx,) row (or scalar) top."""
    out = np.empty(f.shape)
    ufunc(gr._zhi(f), gr._zlo(f), out=gr._zlo(out))
    ufunc(top, f[:, -1], out=out[:, -1])
    return out


def _rusanov(central, half_u, j_ac, j):
    """The two-term Rusanov flux central - j_ac - (|u|/2) j, finished in
    central; j_ac is the acoustic jump already scaled by c/(2 eps), and j is
    spent."""
    central -= j_ac
    j *= half_u
    central -= j
    return central


def _xfaces(ufunc, a):
    """ufunc(a[i], a[i-1]) of a center array a at the x-faces along the
    periodic x axis: face i sits between centers i-1 and i."""
    out = gr._xprev(a)
    ufunc(a, out, out=out)
    return out


def _face_fluxes(faces, vel, rho, th, tf, devs, spec_h, aux, eos, inv_d):
    """(rho_f, jp, Fm, FE, th_sum) at one direction's faces, of stencil faces
    (_xfaces or _zfaces) and normal velocity vel: face density, jump of the
    pressure deviation (devs: p, rho, rho e minus the reference), mass flux,
    energy flux (Rusanov plus Fourier) and the neighbours' theta sum.
    Dissipation at |vel| + c/eps on the acoustic jump jp/c^2 and at |vel| on
    the rest of the jump j is, exactly, (c/(2 eps)) jp/c^2 + (|vel|/2) j."""
    rho_f = faces(np.add, rho)
    rho_f *= 0.5
    jp, jr, jE = (faces(np.subtract, d) for d in devs)
    half_v = np.abs(vel)
    half_v *= 0.5
    c_f = faces(np.add, tf.c2)
    c_f *= 0.5
    np.sqrt(c_f, out=c_f)
    jr_ac = np.divide(jp, c_f, out=c_f)
    jr_ac *= aux.half_inv_eps
    jE_ac = faces(np.add, spec_h)
    jE_ac *= 0.5
    jE_ac *= jr_ac
    Fm = _rusanov(vel * rho_f, half_v, jr_ac, jr)
    FE = faces(np.add, tf.E)
    FE *= 0.5
    FE *= vel
    _rusanov(FE, half_v, jE_ac, jE)
    th_sum = faces(np.add, th)
    cond = _kappa(0.5 * th_sum, eos, inv_d)
    cond *= faces(np.subtract, th)
    FE -= cond
    return rho_f, jp, Fm, FE, th_sum


def _divergence(Fx, Fz, top, aux):
    """-div F at the centers of x-face fluxes Fx and z-face-layout fluxes Fz
    whose top wall face is the (nx,) row (or scalar) top; Fx None (a
    column's) leaves out the x part, which is -0.0 there."""
    d = _zcenters(np.subtract, Fz, top)
    d *= aux.div_z
    if Fx is not None:
        div_x = gr._xdiff_next(Fx)
        div_x *= aux.div_x
        d += div_x
    return d


def _rhs(rho, th, u, w, scenario, aux, tf, advect):
    """Semi-discrete right-hand side for (rho, rho e, u, w); tf is the
    _Thermo of (rho, th) and advect the run's grid._Advection.  Every other
    temporary is fresh, and is updated in place once it has no other
    reader; no input is written.  On a column (aux.column) the x-terms are
    not formed and du is None."""
    eos = scenario.eos
    column = aux.column
    inv_dx, inv_dz = aux.inv_dx, aux.inv_dz
    E, p, mu, eta = tf.E, tf.p, tf.mu, tf.eta
    spec_h = E + p
    spec_h /= rho
    devs = (p - aux.p_hat_xz, rho - aux.rho_hat_xz, E - aux.E_hat_xz)

    # z faces in the z-face layout (column 0 the bottom wall face, the top
    # one a separate row).
    wf = w[:, :-1].copy()
    rho_fz, jp_z, Fm_z, FE_z, _ = _face_fluxes(_zfaces, wf, rho, th, tf, devs, spec_h, aux, eos, inv_dz)
    Fm_z[:, 0] = 0.0  # no mass flux through the walls
    # Wall faces: Fourier flux against the Dirichlet wall value.
    np.subtract(th[:, 0], aux.wall_b, out=FE_z[:, 0])
    FE_z[:, 0] *= aux.kap_b2
    FE_top = aux.wall_t - th[:, -1]
    FE_top *= aux.kap_t2

    # Newton stress in d = 2: S = mu (grad U + grad U^T - div U I) + eta div U I.
    # A column's Dxx, and the x part of dw's viscous sum, are the float +0.0,
    # kept as the first operand (+0.0 + -0.0 is +0.0); Dxx_zz -= Dzz then
    # makes a fresh 0.0 - Dzz.
    adv_u, adv_w = advect(None if column else u, w)
    Dzz = _zcenters(np.subtract, wf, w[:, -1])
    Dzz *= inv_dz
    Dxx = 0.0
    if not column:
        Dxx = gr._xdiff_next(u)
        Dxx *= inv_dx
    divU = Dxx + Dzz
    Dxx_zz = Dxx
    Dxx_zz -= Dzz
    Sxx = mu * Dxx_zz
    Szz = -Sxx  # mu (Dzz - Dxx), bit for bit up to the sign of a zero
    if eta is not None:
        bulk = eta * divU
        Sxx += bulk
        Szz += bulk
    # eps^2 S : grad U >= 0 cell-wise.
    diss = np.multiply(Dxx_zz, Dxx_zz, out=Dxx_zz)

    du = Fm_x = FE_x = None
    visc = 0.0
    if not column:
        rho_fx, jp_x, Fm_x, FE_x, th_pairs = _face_fluxes(_xfaces, u, rho, th, tf, devs, spec_h, aux, eos, inv_dx)
        # Shear at the corners; the top wall corners are their own row.
        shear = _zfaces(np.subtract, u)
        shear *= inv_dz
        shear[:, 0] = u[:, 0] * (2.0 * inv_dz)
        shear_x = gr._xdiff_prev(wf)
        shear_x *= inv_dx
        shear += shear_x
        shear_top = u[:, -1] * (-2.0 * inv_dz)
        shear_x = gr._xdiff_prev(w[:, -1])
        shear_x *= inv_dx
        shear_top += shear_x
        # x-pairs first: keeps the average bitwise equal under x-mirroring.
        th_corner = _zfaces(np.add, th_pairs)
        th_corner *= 0.25
        th_corner[:, 0] = aux.corner_b
        Sxz = _mu(th_corner, eos)
        Sxz *= shear
        Sxz_top = aux.mu_corner_t * shear_top

        # Each face density divides once: du = adv_u + (div S - jp / (eps^2
        # dx)) / rho_f.
        visc = gr._xdiff_prev(Sxx)
        visc *= inv_dx
        visc_z = _zcenters(np.subtract, Sxz, Sxz_top)
        visc_z *= inv_dz
        visc += visc_z
        jp_x *= aux.pg_x
        visc -= jp_x
        visc /= rho_fx
        du = adv_u
        du += visc
        if aux.dGx_eps is not None:
            du += aux.dGx_eps
        visc = gr._xdiff_next(Sxz)
        visc *= inv_dx

        # The shear square is corner-averaged.
        sh2 = np.multiply(shear, shear, out=shear)
        sh2_pairs = gr._xnext(sh2)
        sh2_pairs += sh2
        sh2_top = shear_top * shear_top
        sh2_pairs_top = gr._xnext(sh2_top)
        sh2_pairs_top += sh2_top
        sh2_c = _zcenters(np.add, sh2_pairs, sh2_pairs_top)
        sh2_c *= 0.25
        diss += sh2_c
    d_rho = _divergence(Fm_x, Fm_z, 0.0, aux)
    d_E = _divergence(FE_x, FE_z, FE_top, aux)

    # dw adds the balanced potential force G' (rho_f - rho_hat_f) / rho_f,
    # which is exactly zero where rho_f = rho_hat_f.
    visc_z = _zfaces(np.subtract, Szz)
    visc_z *= inv_dz
    visc += visc_z
    jp_z *= aux.pg_z
    visc -= jp_z
    buoy = np.subtract(rho_fz, aux.rho_hat_f_xz, out=jp_z)
    buoy *= aux.dGz_eps
    visc += buoy
    visc /= rho_fz
    dw = np.zeros(w.shape)
    np.add(adv_w[:, 1:-1], visc[:, 1:], out=dw[:, 1:-1])

    diss *= mu
    if eta is not None:
        bulk = eta * divU
        bulk *= divU
        diss += bulk
    diss *= scenario.eps * scenario.eps
    diss -= p * divU
    d_E += diss
    return d_rho, d_E, du, dw


def _theta_of(rho, E, t, scenario, theta_guess, rho_powers):
    """theta of a stage's (rho, rho*e), started from theta_guess, or
    DivergenceError; rho_powers is _rho_powers(rho) (None when p_inf == 0),
    which the stage's _thermo reads again."""
    if not _finite_positive(rho):
        raise DivergenceError("density lost positivity", time=t)
    try:
        th = _theta_from_rho_e(rho, E, scenario.eos, theta_guess, rho_powers)
    except DomainError as exc:
        raise DivergenceError(f"energy left the admissible range: {exc}", time=t) from exc
    if not _finite_positive(th):
        raise DivergenceError("temperature lost positivity", time=t)
    return th


def _cfl_bound(x, scenario, aux, tf):
    """cfl / max of (|u| + c/eps)/dx + (|w| + c/eps)/dz + 2 max(2 mu + eta,
    kappa/e_theta) / rho (1/dx^2 + 1/dz^2) over the centres of x = (rho,
    theta, u, w): c/eps summed over both directions once, and the diffusive
    max halved inside and doubled in the constant."""
    rho, th, u, w = x
    rate = np.sqrt(tf.c2)
    rate *= aux.cfl_acoustic
    if not aux.column:
        adv = gr._xnext(u)
        adv += u
        np.abs(adv, out=adv)
        adv *= 0.5 * aux.inv_dx
        rate += adv
    adv = np.add(w[:, 1:], w[:, :-1])
    np.abs(adv, out=adv)
    adv *= 0.5 * aux.inv_dz
    rate += adv
    kappa = _kappa(th, scenario.eos, 0.5)
    kappa /= tf.e_theta
    visc = tf.mu if tf.eta is None else tf.mu + 0.5 * tf.eta
    diff = np.maximum(visc, kappa, out=kappa)
    diff /= rho
    diff *= aux.cfl_diffusive
    rate += diff
    return scenario.cfl / float(np.max(rate))


def cfl_dt(state, scenario):
    """Largest stable step at this state: acoustic/advective transport rates
    plus explicit-diffusion rates, scaled by the scenario safety factor.
    Validates the state; run_nsf evaluates the same bound once per step."""
    x = _fields(state, scenario)
    return _cfl_bound(x, scenario, scenario.reference(), _thermo(x[0], x[1], scenario.eos))


def _step(x, t, dt, scenario, aux, tf, bound, advect):
    """SSP-RK2 step of size dt from x = (rho, theta, u, w) at time t, with
    _Thermo tf, CFL bound bound, reference aux and the run's _Advection.
    Returns the new x and _rho_powers of its density (None when p_inf == 0),
    formed once for the theta recovery and the next _thermo."""
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} rejected at t={t:.4g}: stability bound {bound:.3e}; "
            f"retry with dt <= {bound:.3e}"
        )
    r0, th0, u0, w0 = x

    # The stages finish in the fresh rates: x0 + dt k, then
    # 0.5 ((x0 + x1) + dt k) in the first stage's arrays.  A column's rate
    # of u is None: its u is not stepped, and stays u0.
    stage0 = (r0, tf.E, u0, w0)
    stage1 = _rhs(r0, th0, u0, w0, scenario, aux, tf, advect)
    for x0, k in zip(stage0, stage1):
        if k is not None:
            k *= dt
            k += x0
    r1, E1, u1, w1 = stage1
    eos = scenario.eos
    rp1 = _rho_powers(r1) if eos.p_inf else None
    th1 = _theta_of(r1, E1, t + dt, scenario, th0, rp1)

    rates = _rhs(r1, th1, u1, w1, scenario, aux, _thermo(r1, th1, eos, rp1), advect)
    for x0, x1, k in zip(stage0, stage1, rates):
        if k is not None:
            k *= dt
            x1 += x0
            x1 += k
            x1 *= 0.5
    r2, E2, u2, w2 = stage1
    rp2 = _rho_powers(r2) if eos.p_inf else None
    return (r2, _theta_of(r2, E2, t + dt, scenario, th1, rp2), u0 if u2 is None else u2, w2), rp2


def step_nsf(state, scenario, dt):
    """One SSP-RK2 step of size dt.

    Validates dt and the state, then rejects dt above the stability bound
    (the error message carries the suggested step); raises a divergence
    error when a stage loses positivity.
    """
    require_positive(dt, "dt")
    x = _fields(state, scenario)
    aux = scenario.reference()
    tf = _thermo(x[0], x[1], scenario.eos)
    x = _step(x, state.t, dt, scenario, aux, tf, _cfl_bound(x, scenario, aux, tf), gr._Advection(scenario.grid))[0]
    return _snapshot(x, state.t + dt, scenario)


def _theta_tilde(scenario, theta_tilde):
    """Checked values of theta_tilde; None means the harmonic wall extension."""
    g = scenario.grid
    wb, wt = scenario.wall_theta()
    if theta_tilde is None:
        theta_tilde = laplace_dirichlet(g, wb, wt)
    vals = theta_tilde.values
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise DomainError("theta_tilde must be finite and strictly positive")
    tol = max(1e-8, 4.0 * g.dz ** 2 * float(np.max(np.abs(vals))))
    gap = gr._wall_trace_gap(vals, wb, wt)
    if gap > tol:
        raise CompatibilityError(
            f"theta_tilde wall trace differs from theta_bar + eps Theta_B by {gap:.3e}"
        )
    return vals


def ballistic_energy(state, scenario, theta_tilde=None):
    """Integral of eps^2 rho |u|^2 / 2 + rho e - theta~ rho s.

    theta_tilde defaults to the harmonic extension of the wall temperatures;
    a supplied center field must be positive and carry the wall trace
    (checked by quadratic extrapolation, tolerance O(dz^2))."""
    x = _fields(state, scenario)
    E = _rho_e(x[0], x[1], scenario.eos)
    return _log_row(x, state.t, scenario, E, _theta_tilde(scenario, theta_tilde), 0.0)[2]


def _log_row(x, t, scenario, E, theta_tilde, dt, column=False):
    """The LOG_COLUMNS row of x = (rho, theta, u, w) at time t, reached by a
    step dt; E is rho*e of x, and a column's u.u term, +0.0, is left out.
    A strip (fewer rows than the grid) has its row 0 tiled to the full width
    before the theta_tilde term and the sums, which then see the bytes of
    the full-width run."""
    rho, th, u, w = x
    s = _entropy(rho, th, scenario.eos)
    kin = zface_to_center(w * w)
    if not column:
        kin += xface_to_center(u * u)
    dens = 0.5 * rho
    dens *= kin
    dens *= scenario.eps ** 2
    dens += E
    nx = scenario.grid.nx
    if rho.shape[0] != nx:
        rho, s, dens = (np.repeat(a[:1], nx, axis=0) for a in (rho, s, dens))
    bound = theta_tilde * rho
    bound *= s
    dens -= bound
    s *= rho
    cv = scenario.grid.cell_volume
    return t, float(np.sum(rho)) * cv, float(np.sum(dens)) * cv, float(np.sum(s)) * cv, dt


def _snapshot(x, t, scenario):
    """The NsfState of x at time t on scenario's grid, a strip's row 0 tiled
    to the full width; a full-width x, never written once stepped, is
    shared.  rho and theta passed the stage guard: __post_init__ is skipped."""
    g = scenario.grid
    rho, th, u, w = (a if a.shape[0] == g.nx else np.repeat(a[:1], g.nx, axis=0) for a in x)
    state = object.__new__(NsfState)
    state.rho, state.theta, state.U = ScalarField(g, rho), ScalarField(g, th), VectorField(g, u, w)
    state.t, state.eps = t, scenario.eps
    return state


# The _NsfAux fields that hold one row per x-column; the others are z-profiles
# and scalars, which a strip shares.
_X_ROWS = ("wall_b", "wall_t", "kap_b2", "kap_t2", "rho_hat_xz", "rho_hat_f_xz",
           "p_hat_xz", "E_hat_xz", "dGz_eps", "corner_b", "mu_corner_t")


def _rows_equal(a):
    """Whether every row of a (every entry of a 1-d a) is bytewise equal to
    the first: -0.0 differs from +0.0."""
    bits = a.view(np.uint64)
    return bool((bits == bits[:1]).all())


def _x_strip(scenario, x):
    """(x, aux, grid) to step from x: the scenario's reference and grid, or
    all three cut to 4 columns (dx and dz kept) when the run is x-invariant:
    nx > 4 and every row of G, of the initial rho, theta, u and w, and of
    the wall arrays is bytewise row 0.  The scheme then keeps every row
    bytewise equal: an x-difference of equal neighbours is +0.0, an
    x-average is the neighbours' value, and max, min and the Newton stop
    test see the same values on the strip.  The scenario is not cut.

    The strip is a column (aux.column) when its u is also bytewise +0.0;
    its G, being x-invariant, gives no x-force (dGx_eps is None).  Every
    x-term of the stage is then an exact zero: the x-face fluxes and their
    divergence, Dxx, the shear and its corner stress and dissipation, the
    u half of the advection and the whole rate of u, whose +0.0 keeps u
    +0.0 at every step.  _rhs, _step, _cfl_bound and _log_row skip them,
    and u is not stepped.  A skipped zero that was the first operand of a
    sum is kept, since +0.0 + -0.0 is +0.0: divU = Dzz + 0.0, Dxx - Dzz =
    0.0 - Dzz, dw's viscous sum visc_z + 0.0, and the advection's
    w d_z w + 0.0 before its negation; a skipped -0.0 first operand (the x
    part of a divergence) or a +0.0 added to a sum that is never -0.0 (the
    kinetic, shear-square and CFL |u| terms) drops out exactly."""
    g, aux = scenario.grid, scenario.reference()
    if g.nx <= 4 or not all(map(_rows_equal, (scenario.G.values, aux.wall_b, aux.wall_t) + x)):
        return x, aux, g
    cut = {name: getattr(aux, name)[:4] for name in _X_ROWS}
    strip = replace(aux, column=not x[2].view(np.uint64).any(), **cut)
    return tuple(a[:4] for a in x), strip, Grid(4, g.nz, 4 * g.dx)


def run_nsf(scenario, snapshot_dt=None, initial=None):
    """Integrate to t_end; returns the trajectory with snapshots and the
    conservation log.

    Steps adapt to the CFL bound, evaluated once per step, and are clamped to
    land exactly on snapshot times, the multiples of snapshot_dt after the
    start, and t_end.  The acoustic bound makes the step count scale like
    1/eps; steps and wall_seconds report the cost.  An initial state must
    live on the scenario's grid (else ShapeError) and carry its eps (else
    CompatibilityError), as for every entry point that takes a state."""
    if snapshot_dt is not None:
        require_positive(snapshot_dt, "snapshot_dt")
    if initial is not None:
        _fields(initial, scenario)
    state = initial.copy() if initial is not None else build_initial_nsf(scenario)
    theta_tilde = _theta_tilde(scenario, None)
    t_end, t = scenario.t_end, state.t
    times, states = [t], [state]
    x, aux, grid = _x_strip(scenario, (state.rho.values, state.theta.values, state.U.u, state.U.w))
    tf = _thermo(x[0], x[1], scenario.eos)
    rows = [_log_row(x, t, scenario, tf.E, theta_tilde, 0.0, aux.column)]
    next_snap = snapshot_dt if snapshot_dt is not None else np.inf
    while next_snap <= t + 1e-12:  # a late start: the first multiple after it
        next_snap += snapshot_dt
    advect = gr._Advection(grid)
    started = time.perf_counter()
    steps = 0
    while t < t_end - 1e-12:
        bound = _cfl_bound(x, scenario, aux, tf)
        dt = min(bound, min(next_snap, t_end) - t)
        if dt <= 1e-14:
            raise StabilityError(f"time step collapsed at t={t:.4g}")
        x, rho_powers = _step(x, t, dt, scenario, aux, tf, bound, advect)
        t += dt
        tf = _thermo(x[0], x[1], scenario.eos, rho_powers)
        steps += 1
        rows.append(_log_row(x, t, scenario, tf.E, theta_tilde, dt, aux.column))
        at_snap = t >= next_snap - 1e-12
        if at_snap or t >= t_end - 1e-12:
            times.append(t)
            states.append(_snapshot(x, t, scenario))
            if at_snap:
                next_snap += snapshot_dt
    log = np.rec.fromrecords(rows, names=LOG_COLUMNS)
    return NsfTrajectory(scenario, times, states, log, steps, time.perf_counter() - started)
