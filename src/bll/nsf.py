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
run_nsf steps raw arrays x = (rho, theta, u, w) through the kernels _step
and _cfl_bound, logs them through a _LogRecorder and builds an NsfState only
for a snapshot; step_nsf, cfl_dt and ballistic_energy unpack their validated
state once and call the same kernels.  A run evaluates each state's
thermodynamics once and shares it between the log, the CFL bound (once per
step) and the next step's first stage: rho*e is thermo's _rho_e and p, c^2
and e_theta its _closure, both on one _powers (one cbrt and products of
theta), so the stage forms no gas-model formula of its own.  Each stage starts the Newton recovery of
theta at the previous stage's theta and forms the cbrt of its density once,
for the recovery's cold floor and the _thermo that follows.

A run binds one _StagePlan (step_nsf one per call): the stage's work
arrays, stacked into blocks so that one ufunc serves several fields, and
three rotating rate sets, so that a step allocates no stage array; its
docstring has the layout and the rotation.  An exactly x-invariant run
(_x_strip) steps x and the reference cut to one row under the caller's
scenario and tiles its snapshots back to full width, bit for bit the
full-width run; one at rest in x is a column, stepping only its z-terms
(the rule and its + 0.0 operands are in _x_strip's docstring).  Its log is
formed on that row, as _LogRecorder's docstring says.

The stage kernel _rhs is written for the number of ufunc calls.  One
routine, _face_fluxes, forms the face fluxes of both directions.  Every
grid, eps and wall factor is a per-scenario constant on _NsfAux that the
stage multiplies by, and each face density divides once, as the common
denominator of the pressure gradient, the viscous term and the potential
force.  The results therefore differ from the plain formulas (every factor
divided where it appears) by rounding only, and the discrete reference at
rest still gives exactly zero mass and momentum rates.  scipy is imported
only by the continuum oracle hydrostatic_stationary_1d.
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
    corner_b and its top counterpart corner_t; the wall
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
    corner_t: np.ndarray
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
    dGz_eps = np.empty_like(Gv)  # z-face layout, the wall column a finite spare
    np.subtract(Gv[:, 1:], Gv[:, :-1], out=dGz_eps[:, 1:])
    dGz_eps[:, 0] = dGz_eps[:, 1]
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
        corner_t=center_to_xface(wt),
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


def _xprev_pairs(a, out):
    """(a[i], a[i-1], out[i]) row-slice triples along axis -2, the previous
    row periodic: a ufunc over each writes ufunc(a[i], a[i-1]) to out[i].
    A one-row a is its own neighbour."""
    pairs = [(a[..., :1, :], a[..., -1:, :], out[..., :1, :])]
    if a.shape[-2] > 1:
        pairs.append((a[..., 1:, :], a[..., :-1, :], out[..., 1:, :]))
    return pairs


def _xnext_pairs(a, out):
    """(a[i+1], a[i], out[i]) row-slice triples along axis -2, periodic."""
    pairs = [(a[..., :1, :], a[..., -1:, :], out[..., -1:, :])]
    if a.shape[-2] > 1:
        pairs.append((a[..., 1:, :], a[..., :-1, :], out[..., :-1, :]))
    return pairs


def _each(ufunc, pairs):
    for a, b, out in pairs:
        ufunc(a, b, out=out)


class _Faces:
    """One direction's face buffers of a _StagePlan, in the z-face layout
    for z: the halved neighbour sums of [rho, rho e, theta, c^2, h], the
    jumps of [p, rho, rho e] deviations and theta, the flux pair [F_m, F_E]
    and |vel| / 2.  The plan binds the (hi, lo, out) triples of their
    stencils, sum_pairs and jump_pairs: the flat pair (z) or the periodic
    row pairs (x) of its blocks."""

    def __init__(self, name, shape):
        self.name = name
        self.sums, self.jumps, self.F = np.empty((5,) + shape), np.empty((4,) + shape), np.empty((2,) + shape)
        self.half_v = np.empty(shape)
        self.rho_E_f, self.th_f, self.c_f, self.h_f = self.sums[:2], self.sums[2], self.sums[3], self.sums[4]
        self.acoustic = self.sums[3:]  # [jr_ac, jE_ac] once c_f and h_f are spent
        self.jp, self.material, self.jth = self.jumps[0], self.jumps[1:3], self.jumps[3]
        self.FE = self.F[1]


class _Rates:
    """One rate/state set of a _StagePlan: the pair [d rho, d(rho e)],
    returned as its two halves, du and dw, with the views the stage writes."""

    def __init__(self, shape):
        rows, nz = shape
        self.pair, self.du, self.dw = np.empty((2,) + shape), np.empty(shape), np.zeros((rows, nz + 1))
        self.d_rho, self.d_E = self.pair
        self.pair_lo, self.pair_top = self.pair.reshape(-1)[:-1], self.pair[:, :, -1]
        self.dw_in = self.dw[:, 1:-1]


class _StagePlan:
    """What every stage of one run shares, bound once: the run's
    grid._Advection, every temporary of _rhs and _step, and the views their
    stencils read and write.  Arrays have one row per x-column stepped: the
    grid's nx, or 1 on an x-invariant strip (_x_strip).

    Layout.  The inputs of one stencil are stacked into one C-contiguous
    block, so one ufunc does the work of several: the centre block [p, rho,
    rho e, theta, c^2, h] (h = (rho e + p) / rho), the deviation block
    [p - p_hat, rho - rho_hat, rho e - E_hat, theta] (theta minus a zero
    row), and each direction's flux pair [F_m, F_E] (_Faces).  z-face
    quantities live in grid's z-face layout (column k holds face k, column
    0 the bottom wall face, the top wall face a separate row), so a z
    stencil is one ufunc over two offset flat views of a block: one np.add
    over the centre block from rho on gives the five z-face sums, one
    np.subtract over the deviation block the four jumps, and one over the
    flux pair, closed by the top row, the rate pair [d rho, d(rho e)].  The
    flat pairs that reach across an x-row or a block land in column 0, as
    finite spares that are overwritten or never read; the deviation block
    and Szz sit one entry into a buffer whose first entry is a fixed zero,
    so their flat pair covers entry 0 too.  An x stencil pairs each row with
    its periodic neighbour along axis -2; a one-row array is its own.

    Rotation.  Three rate sets (_Rates) take the stages' rates, each updated
    into its stage's state in place by _step: stage 1 writes `out`, stage 2
    `k2`, and the step's result stays in stage 1's set, so the next step's
    stage 1 writes the other state set, `spare`.  A step therefore allocates
    no stage array; a state kept past the next step (_snapshot) is a copy.
    A plan serves one run, or one step_nsf call, and no other."""

    def __init__(self, scenario, aux, rows, advect=None):
        nz = scenario.grid.nz
        shape = (rows, nz)
        self.advect = gr._Advection(scenario.grid, rows) if advect is None else advect
        self.eps2 = scenario.eps * scenario.eps
        self.out, self.k2, self.spare = _Rates(shape), _Rates(shape), _Rates(shape)
        self.x0 = np.empty((2,) + shape)  # [rho, rho e] of a step's start
        self.x0_rows = self.x0.reshape(2 * rows, nz)

        self.centre = centre = np.empty((6,) + shape)
        self.centre_in, self.centre_dev, self.h = centre[:5].reshape(5 * rows, nz), centre[:4], centre[5]
        self.th_bottom, self.th_top = centre[3, :, 0], centre[3, :, -1]
        dev = np.zeros(1 + 4 * rows * nz)
        self.dev = dev[1:].reshape((4,) + shape)
        self.ref = np.stack([aux.p_hat_xz, aux.rho_hat_xz, aux.E_hat_xz, np.zeros(shape)])
        n, flat = rows * nz, centre.reshape(-1)
        self.z, self.x = z, x = _Faces("z", shape), _Faces("x", shape)
        z.sum_pairs = [(flat[n:], flat[n - 1:-1], z.sums.reshape(-1))]
        z.jump_pairs = [(dev[1:], dev[:-1], z.jumps.reshape(-1))]
        x.sum_pairs, x.jump_pairs = _xprev_pairs(centre[1:], x.sums), _xprev_pairs(self.dev, x.jumps)
        self.Fz_hi, self.Fz_lo, self.Fz_top = z.F.reshape(-1)[1:], z.F.reshape(-1)[:-1], z.F[:, :, -1]
        self.Fm_bottom, self.FE_bottom = z.F[0, :, 0], z.F[1, :, 0]
        self.top = np.zeros((2, rows))  # the top wall faces of [F_m, F_E]
        self.FE_top = self.top[1]
        self.div_x = np.empty((2,) + shape)
        self.div_x_pairs = _xnext_pairs(x.F, self.div_x)

        # Stresses and dissipation at the centres, Szz after a fixed zero.
        self.Dzz, self.Dxx, self.divU, self.diss, self.Sxx, self.bulk, self.pdiv = np.empty((7,) + shape)
        Szz = np.zeros(1 + n)
        self.Szz = Szz[1:].reshape(shape)
        self.visc = np.empty(shape)  # dw's viscous sum, z-face layout
        self.Szz_pairs = [(Szz[1:], Szz[:-1], self.visc.reshape(-1))]
        self.visc_hi = self.visc[:, 1:]
        # The corner (x-face, z-face) stencils in the w layout, wall rows included.
        corners = (rows, nz + 1)
        self.shear, self.shear_x, self.Sxz, self.sh2_pairs = np.empty((4,) + corners)
        self.shear_in, self.shear_b, self.shear_t = self.shear[:, 1:-1], self.shear[:, 0], self.shear[:, -1]
        self.th_corner = np.empty(corners)
        self.th_corner[:, 0] = aux.corner_b
        self.th_corner[:, -1] = aux.corner_t
        self.th_corner_in = self.th_corner[:, 1:-1]
        self.th_f_hi, self.th_f_lo = x.th_f[:, 1:], x.th_f[:, :-1]
        self.visc_u, self.visc_uz, self.visc_x, self.sh2_c = np.empty((4,) + shape)
        self.Sxx_pairs = _xprev_pairs(self.Sxx, self.visc_u)
        self.Sxz_hi, self.Sxz_lo = self.Sxz[:, 1:], self.Sxz[:, :-1]
        self.Sxz_pairs = _xnext_pairs(self.Sxz_lo, self.visc_x)
        self.sh2_next = _xnext_pairs(self.shear, self.sh2_pairs)
        self.sh2_hi, self.sh2_lo = self.sh2_pairs[:, 1:], self.sh2_pairs[:, :-1]
        self.two_inv_dz, self.neg_two_inv_dz = 2.0 * aux.inv_dz, -2.0 * aux.inv_dz


def _face_fluxes(f, vel, aux, eos, inv_d):
    """The flux pair [F_m, F_E] (f.F) at the faces of one direction's
    _Faces f, whose stencil reads the plan's centre and deviation blocks,
    at normal velocity vel: mass flux and energy flux, Rusanov plus Fourier.
    f.sums keeps the face density rho_f, f.jumps the jump of the pressure
    deviation jp, and f.th_f the neighbours' theta mean.  Dissipation at
    |vel| + c/eps on the acoustic jump jp/c^2 and at |vel| on the rest of
    the jump j is, exactly, (c/(2 eps)) jp/c^2 + (|vel|/2) j: the flux is
    central - [jr_ac, h_f jr_ac] - (|vel|/2) [jr, jE], jr_ac = (c_f/(2 eps))
    jp/c_f^2 formed in c_f, and jE_ac in h_f."""
    _each(np.add, f.sum_pairs)
    f.sums *= 0.5
    _each(np.subtract, f.jump_pairs)
    half_v = np.abs(vel, out=f.half_v)
    half_v *= 0.5
    jr_ac = np.sqrt(f.c_f, out=f.c_f)
    np.divide(f.jp, jr_ac, out=jr_ac)
    jr_ac *= aux.half_inv_eps
    f.h_f *= jr_ac
    F = np.multiply(f.rho_E_f, vel, out=f.F)
    F -= f.acoustic
    f.material *= half_v
    F -= f.material
    cond = _kappa(f.th_f, eos, inv_d)
    cond *= f.jth
    f.FE -= cond
    return F


def _rhs(rho, th, u, w, scenario, aux, tf, plan):
    """Semi-discrete right-hand side (d_rho, d_E, du, dw) for (rho, rho e,
    u, w), in plan's arrays: d_rho and d_E are the halves of one rate pair.
    tf is the _Thermo of (rho, th) and plan the run's _StagePlan (a bare
    grid._Advection binds a fresh one around it, for one call).  No input
    is written.  On a column (aux.column) the x-terms are not formed and du
    is None."""
    if not isinstance(plan, _StagePlan):
        plan = _StagePlan(scenario, aux, rho.shape[0], plan)
    out = plan.out
    eos = scenario.eos
    column = aux.column
    inv_dx, inv_dz = aux.inv_dx, aux.inv_dz
    E, p, mu, eta = tf.E, tf.p, tf.mu, tf.eta
    np.concatenate((p, rho, E, th, tf.c2), out=plan.centre_in)
    np.add(E, p, out=plan.h)
    plan.h /= rho
    np.subtract(plan.centre_dev, plan.ref, out=plan.dev)

    # z faces; the wall faces carry no mass flux and the Fourier flux
    # against the Dirichlet wall value.
    z = plan.z
    _face_fluxes(z, w[:, :-1], aux, eos, inv_dz)
    plan.Fm_bottom.fill(0.0)
    np.subtract(plan.th_bottom, aux.wall_b, out=plan.FE_bottom)
    plan.FE_bottom *= aux.kap_b2
    FE_top = np.subtract(aux.wall_t, plan.th_top, out=plan.FE_top)
    FE_top *= aux.kap_t2
    rates = out.pair
    np.subtract(plan.Fz_hi, plan.Fz_lo, out=out.pair_lo)
    np.subtract(plan.top, plan.Fz_top, out=out.pair_top)
    rates *= aux.div_z

    # Newton stress in d = 2: S = mu (grad U + grad U^T - div U I) + eta div U I.
    # A column's Dxx, and the x part of dw's viscous sum, are the float +0.0,
    # kept as an operand (+0.0 + -0.0 is +0.0).
    adv_u, adv_w = plan.advect(None if column else u, w, (out.du, out.dw))
    Dzz = np.subtract(w[:, 1:], w[:, :-1], out=plan.Dzz)
    Dzz *= inv_dz
    Dxx = 0.0
    if not column:
        Dxx = plan.Dxx
        _each(np.subtract, _xnext_pairs(u, Dxx))
        Dxx *= inv_dx
    divU = np.add(Dxx, Dzz, out=plan.divU)
    Dxx_zz = np.subtract(Dxx, Dzz, out=plan.diss)
    Sxx = np.multiply(mu, Dxx_zz, out=plan.Sxx)
    Szz = np.negative(Sxx, out=plan.Szz)  # mu (Dzz - Dxx), bit for bit up to the sign of a zero
    if eta is not None:
        bulk = np.multiply(eta, divU, out=plan.bulk)
        Sxx += bulk
        Szz += bulk
    # eps^2 S : grad U >= 0 cell-wise.
    diss = np.multiply(Dxx_zz, Dxx_zz, out=Dxx_zz)

    du = None
    visc_x = 0.0
    if not column:
        x = plan.x
        _face_fluxes(x, u, aux, eos, inv_dx)
        # Shear at the corners, wall rows included.
        shear = plan.shear
        np.subtract(u[:, 1:], u[:, :-1], out=plan.shear_in)
        plan.shear_in *= inv_dz
        np.multiply(u[:, 0], plan.two_inv_dz, out=plan.shear_b)
        np.multiply(u[:, -1], plan.neg_two_inv_dz, out=plan.shear_t)
        _each(np.subtract, _xprev_pairs(w, plan.shear_x))
        plan.shear_x *= inv_dx
        shear += plan.shear_x
        # x-pairs first: keeps the average bitwise equal under x-mirroring;
        # the x-face theta means are the halved pairs.
        np.add(plan.th_f_hi, plan.th_f_lo, out=plan.th_corner_in)
        plan.th_corner_in *= 0.5
        Sxz = np.multiply(_mu(plan.th_corner, eos), shear, out=plan.Sxz)

        # Each face density divides once: du = adv_u + (div S - jp / (eps^2
        # dx)) / rho_f.
        visc = plan.visc_u
        _each(np.subtract, plan.Sxx_pairs)
        visc *= inv_dx
        visc_z = np.subtract(plan.Sxz_hi, plan.Sxz_lo, out=plan.visc_uz)
        visc_z *= inv_dz
        visc += visc_z
        x.jp *= aux.pg_x
        visc -= x.jp
        visc /= x.sums[0]
        du = adv_u
        du += visc
        if aux.dGx_eps is not None:
            du += aux.dGx_eps
        visc_x = plan.visc_x
        _each(np.subtract, plan.Sxz_pairs)
        visc_x *= inv_dx

        # The shear square is corner-averaged.
        np.multiply(shear, shear, out=shear)
        _each(np.add, plan.sh2_next)
        sh2_c = np.add(plan.sh2_hi, plan.sh2_lo, out=plan.sh2_c)
        sh2_c *= 0.25
        diss += sh2_c
        _each(np.subtract, plan.div_x_pairs)
        plan.div_x *= aux.div_x
        rates += plan.div_x

    # dw adds the balanced potential force G' (rho_f - rho_hat_f) / rho_f,
    # which is exactly zero where rho_f = rho_hat_f.
    visc = plan.visc
    _each(np.subtract, plan.Szz_pairs)
    visc *= inv_dz
    visc += visc_x
    z.jp *= aux.pg_z
    visc -= z.jp
    rho_fz = z.sums[0]
    buoy = np.subtract(rho_fz, aux.rho_hat_f_xz, out=z.jp)
    buoy *= aux.dGz_eps
    visc += buoy
    visc /= rho_fz
    out.dw_in += plan.visc_hi

    diss *= mu
    if eta is not None:
        bulk = np.multiply(eta, divU, out=plan.bulk)
        bulk *= divU
        diss += bulk
    diss *= plan.eps2
    diss -= np.multiply(p, divU, out=plan.pdiv)
    out.d_E += diss
    return out.d_rho, out.d_E, du, adv_w


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


def _step(x, t, dt, scenario, aux, tf, bound, plan):
    """SSP-RK2 step of size dt from x = (rho, theta, u, w) at time t, with
    _Thermo tf, CFL bound bound, reference aux and the run's _StagePlan.
    Returns the new x, in the plan's arrays, and _rho_powers of its density
    (None when p_inf == 0), formed once for the theta recovery and the next
    _thermo."""
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} rejected at t={t:.4g}: stability bound {bound:.3e}; "
            f"retry with dt <= {bound:.3e}"
        )
    r0, th0, u0, w0 = x

    # The stages finish in their rates, [rho, rho e] as one pair: x0 + dt k,
    # then 0.5 ((x0 + x1) + dt k) in the first stage's arrays.  A column's
    # rate of u is None: its u is not stepped, and stays u0.
    np.concatenate((r0, tf.E), out=plan.x0_rows)
    stage0 = (plan.x0, u0, w0)
    held = plan.out
    d_rho, _, du, dw = _rhs(r0, th0, u0, w0, scenario, aux, tf, plan)
    stage1 = (d_rho.base, du, dw)
    for x0, k in zip(stage0, stage1):
        if k is not None:
            k *= dt
            k += x0
    (r1, E1), u1, w1 = stage1
    eos = scenario.eos
    rp1 = _rho_powers(r1) if eos.p_inf else None
    th1 = _theta_of(r1, E1, t + dt, scenario, th0, rp1)

    plan.out = plan.k2
    d_rho, _, du, dw = _rhs(r1, th1, u1, w1, scenario, aux, _thermo(r1, th1, eos, rp1), plan)
    plan.out, plan.spare = plan.spare, held
    for x0, x1, k in zip(stage0, stage1, (d_rho.base, du, dw)):
        if k is not None:
            k *= dt
            x1 += x0
            x1 += k
            x1 *= 0.5
    (r2, E2), u2, w2 = stage1
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
    plan = _StagePlan(scenario, aux, scenario.grid.nx)
    x = _step(x, state.t, dt, scenario, aux, tf, _cfl_bound(x, scenario, aux, tf), plan)[0]
    return _snapshot(x, state.t + dt, scenario)


def _theta_tilde(scenario, theta_tilde):
    """Checked values of theta_tilde; None means the harmonic wall extension."""
    g = scenario.grid
    wb, wt = scenario.wall_theta()
    if theta_tilde is None:
        theta_tilde = laplace_dirichlet(g, wb, wt)
    if theta_tilde.grid != g or theta_tilde.stag != Staggering.CENTER:
        raise ShapeError(f"theta_tilde must be a CENTER field on the scenario grid {g}, "
                         f"got a {theta_tilde.stag.name} field on {theta_tilde.grid}")
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
    a supplied center field must live on the scenario's grid and be
    positive and carry the wall trace (checked by quadratic extrapolation,
    tolerance O(dz^2))."""
    x = _fields(state, scenario)
    log = _LogRecorder(scenario, _theta_tilde(scenario, theta_tilde), x, steps=1)
    log.record(state.t, 0.0, x, _rho_e(x[0], x[1], scenario.eos))
    return float(log.finish().ballistic_energy[0])


# Steps that one block of run_nsf's log holds at most, and the bytes its
# state buffers take at most (a block always holds one step).
_LOG_BLOCK, _LOG_BYTES = 256, 256 * 1024


class _LogRecorder:
    """run_nsf's LOG_COLUMNS log, recorded per step and formed per block.

    Block layout: step j of a block copies t and dt into column j of times
    (2, slots), and rho, theta, w, E = rho e and u into slot j of the
    buffers x, each (slots, rows, nz) (w: nz + 1), rows being the stepped
    width: the grid's nx, or 1 on an x-invariant strip.  A column has no u
    buffer: its u is +0.0, and so is its u^2 term.  A block holds at most
    _LOG_BLOCK steps and about _LOG_BYTES of buffers, so a full-width run
    keeps small blocks.  A filled block becomes log rows in one vectorised
    pass with the per-state arithmetic element for element: the density
    eps^2 rho |u|^2 / 2 + E - theta~ rho s, |u|^2 the centre averages of
    w^2 and u^2, and rho s.  Each integral sums one slot's contiguous
    rows * nz entries, numpy's pairwise sum of the same elements as a sum
    over one state.

    The one-row rule: a strip forms its log on its row and on row 0 of
    theta_tilde, which is bytewise x-invariant for a strip's x-constant
    walls (laplace_dirichlet's closed form), so each integral is nx
    cell_volume times a row sum.  A full-width log is cell_volume times the
    sum, and ballistic_energy forms a block of one state."""

    def __init__(self, scenario, theta_tilde, x, column=False, steps=_LOG_BLOCK):
        g, (rows, nz) = scenario.grid, x[0].shape
        self.scenario, self.theta_tilde = scenario, theta_tilde[:rows]
        self.scale = g.cell_volume if rows == g.nx else g.nx * g.cell_volume
        slots = max(1, min(steps, _LOG_BLOCK, _LOG_BYTES // (8 * rows * (5 * nz + 1))))
        self.times = np.empty((2, slots))
        # rho, theta, w, E and, unless the strip is a column, u.
        self.x = [np.empty((slots, rows, n)) for n in (nz, nz, nz + 1, nz, nz)[: 4 if column else 5]]
        self.blocks, self.filled = [], 0

    def record(self, t, dt, x, E):
        """Store the state x = (rho, theta, u, w) at time t, reached by a
        step dt, with its rho e."""
        j = self.filled
        self.times[:, j] = t, dt
        for buf, a in zip(self.x, (x[0], x[1], x[3], E, x[2])):
            buf[j] = a
        self.filled += 1
        if self.filled == self.times.shape[1]:
            self._form()

    def _form(self):
        n = self.filled
        rho, th, w, E, *u = (a[:n] for a in self.x)
        s = _entropy(rho, th, self.scenario.eos)
        w2 = w * w
        kin = (w2[..., 1:] + w2[..., :-1]) * 0.5
        for u2 in (v * v for v in u):
            kin += (np.roll(u2, -1, axis=1) + u2) * 0.5
        dens = 0.5 * rho * kin * self.scenario.eps ** 2 + E - self.theta_tilde * rho * s
        sums = [a.reshape(n, -1).sum(axis=1) * self.scale for a in (rho, dens, rho * s)]
        self.blocks.append(np.array([self.times[0, :n], *sums, self.times[1, :n]]))
        self.filled = 0

    def finish(self):
        """The log, once every state is recorded."""
        if self.filled:
            self._form()
        return np.rec.fromarrays(np.concatenate(self.blocks, axis=1), names=LOG_COLUMNS)


def _snapshot(x, t, scenario):
    """The NsfState of a copy of x at time t on scenario's grid, a strip's
    row tiled to the full width.  rho and theta passed the stage guard:
    __post_init__ is skipped."""
    g = scenario.grid
    rho, th, u, w = (a.copy() if a.shape[0] == g.nx else np.repeat(a, g.nx, axis=0) for a in x)
    state = object.__new__(NsfState)
    state.rho, state.theta, state.U = ScalarField(g, rho), ScalarField(g, th), VectorField(g, u, w)
    state.t, state.eps = t, scenario.eps
    return state


# The _NsfAux fields that hold one row per x-column; the others are z-profiles
# and scalars, which a strip shares.
_X_ROWS = ("wall_b", "wall_t", "kap_b2", "kap_t2", "rho_hat_xz", "rho_hat_f_xz",
           "p_hat_xz", "E_hat_xz", "dGz_eps", "corner_b", "corner_t")


def _x_strip(scenario, x):
    """(x, aux) to step from x: x and the scenario's reference, or both cut
    to their first row when the run is x-invariant: every row of G, of the
    initial rho, theta, u and w, and of the wall arrays is bytewise row 0.
    The scheme then keeps every row bytewise equal, and a one-row periodic
    array is its own x-neighbour: an x-difference of equal neighbours is
    +0.0, an x-average is the neighbours' value, and max, min and the
    Newton stop test see the same values on the row.  The scenario is not
    cut.

    The strip is a column (aux.column) when its u is also bytewise +0.0;
    its G, being x-invariant, gives no x-force (dGx_eps is None).  Every
    x-term of the stage is then an exact zero: the x-face fluxes and their
    divergence, Dxx, the shear and its corner stress and dissipation, the
    u half of the advection and the whole rate of u, whose +0.0 keeps u
    +0.0 at every step.  _rhs, _step, _cfl_bound and _LogRecorder skip them,
    and u is not stepped.  A skipped zero that was the first operand of a
    sum is kept, since +0.0 + -0.0 is +0.0: divU = Dzz + 0.0, Dxx - Dzz =
    0.0 - Dzz, dw's viscous sum visc_z + 0.0, and the advection's
    0.0 + w d_z w before its negation; a skipped -0.0 first operand (the x
    part of a divergence) or a +0.0 added to a sum that is never -0.0 (the
    kinetic, shear-square and CFL |u| terms) drops out exactly."""
    aux = scenario.reference()
    if not all(map(gr._rows_equal, (scenario.G.values, aux.wall_b, aux.wall_t) + x)):
        return x, aux
    cut = {name: getattr(aux, name)[:1] for name in _X_ROWS}
    strip = replace(aux, column=not x[2].view(np.uint64).any(), **cut)
    return tuple(a[:1] for a in x), strip


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
    x, aux = _x_strip(scenario, (state.rho.values, state.theta.values, state.U.u, state.U.w))
    tf = _thermo(x[0], x[1], scenario.eos)
    log = _LogRecorder(scenario, theta_tilde, x, aux.column)
    log.record(t, 0.0, x, tf.E)
    next_snap = snapshot_dt if snapshot_dt is not None else np.inf
    while next_snap <= t + 1e-12:  # a late start: the first multiple after it
        next_snap += snapshot_dt
    plan = _StagePlan(scenario, aux, x[0].shape[0])
    started = time.perf_counter()
    steps = 0
    while t < t_end - 1e-12:
        bound = _cfl_bound(x, scenario, aux, tf)
        dt = min(bound, min(next_snap, t_end) - t)
        if dt <= 1e-14:
            raise StabilityError(f"time step collapsed at t={t:.4g}")
        x, rho_powers = _step(x, t, dt, scenario, aux, tf, bound, plan)
        t += dt
        tf = _thermo(x[0], x[1], scenario.eos, rho_powers)
        steps += 1
        log.record(t, dt, x, tf.E)
        at_snap = t >= next_snap - 1e-12
        if at_snap or t >= t_end - 1e-12:
            times.append(t)
            states.append(_snapshot(x, t, scenario))
            if at_snap:
                next_snap += snapshot_dt
    return NsfTrajectory(scenario, times, states, log.finish(), steps, time.perf_counter() - started)
