"""Staggered grid on the periodic strip T^1 x (0,1): fields, operators,
and direct elliptic solves.

MAC layout, arrays indexed [i, k] = (x, z):
  cell centers   (nx, nz)   at ((i+1/2) dx, (k+1/2) dz)
  x-faces        (nx, nz)   at (i dx, (k+1/2) dz), periodic in x
  z-faces        (nx, nz+1) at ((i+1/2) dx, k dz); k = 0 and nz are the walls

Ghost conventions at the z walls: the explicit operators (grad, div) use the
reflection ghosts, Dirichlet scalar ghost = 2 g_wall - g_int and Neumann
ghost = g_int; tangential no-slip mirror u_ghost = -u_int; the wall-normal
velocity w is stored exactly zero on the wall faces.  The implicit Dirichlet
solve (helmholtz_solve) upgrades center fields to the quadratic-extrapolation
ghost, whose conservative wall flux is the one-sided quadratic derivative,
while x-face fields keep the mirror convention.

The elliptic solves are direct: rfft in x, then one z-tridiagonal system per
Fourier mode, all through the one z-solver _ZOperator.  Each operator is
inverted once per mode, so a solve is one batched matmul; the constant-
coefficient ones are cached on their Grid, (nx/2+1) nz^2 doubles each, 0.27 MB
at 64x32, and the face-weighted ones (the NSF conduction profile) are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Staggering",
    "Grid",
    "ScalarField",
    "VectorField",
    "DirichletZ",
    "NeumannZ",
    "mean",
    "grad",
    "div",
    "center_to_xface",
    "xface_to_center",
    "zface_to_center",
    "advect_velocity",
    "poisson_solve",
    "helmholtz_solve",
    "helmholtz_solve_zface",
    "laplace_dirichlet",
]


class Staggering(IntEnum):
    CENTER = 0
    XFACE = 1
    ZFACE = 2


@dataclass(frozen=True)
class Grid:
    nx: int
    nz: int
    Lx: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.nz < 4:
            raise ShapeError("grid needs nx >= 4 and nz >= 4")
        if self.Lx <= 0:
            raise ShapeError("Lx must be positive")

    @property
    def dx(self):
        return self.Lx / self.nx

    @property
    def dz(self):
        return 1.0 / self.nz

    @property
    def volume(self):
        return self.Lx * 1.0

    @property
    def cell_volume(self):
        return self.dx * self.dz

    @cached_property
    def x_centers(self):
        return (np.arange(self.nx) + 0.5) * self.dx

    @cached_property
    def z_centers(self):
        return (np.arange(self.nz) + 0.5) * self.dz

    @cached_property
    def x_faces(self):
        return np.arange(self.nx) * self.dx

    @cached_property
    def z_faces(self):
        return np.arange(self.nz + 1) * self.dz

    def shape_of(self, stag):
        if stag == Staggering.ZFACE:
            return (self.nx, self.nz + 1)
        return (self.nx, self.nz)

    def cell_mesh(self):
        return np.meshgrid(self.x_centers, self.z_centers, indexing="ij")

    @cached_property
    def _cell_mesh(self):
        """cell_mesh() built once and read-only, for per-step source hooks."""
        X, Z = self.cell_mesh()
        X.flags.writeable = Z.flags.writeable = False
        return X, Z

    @cached_property
    def _zops(self):
        """Inverted z-operators of this grid, keyed by (a, c, wall)."""
        return {}


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray
    stag: Staggering = Staggering.CENTER

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape_of(self.stag):
            raise ShapeError(
                f"values shape {self.values.shape} does not match "
                f"{self.stag.name} staggering on {self.grid.nx}x{self.grid.nz}"
            )

    def copy(self):
        return ScalarField(self.grid, self.values.copy(), self.stag)

    @classmethod
    def zeros(cls, grid, stag=Staggering.CENTER):
        return cls(grid, np.zeros(grid.shape_of(stag)), stag)

    @classmethod
    def from_function(cls, grid, fn):
        X, Z = grid.cell_mesh()
        return cls(grid, fn(X, Z), Staggering.CENTER)


@dataclass
class VectorField:
    grid: Grid
    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.u.shape != self.grid.shape_of(Staggering.XFACE):
            raise ShapeError(f"u shape {self.u.shape} not x-face staggered")
        if self.w.shape != self.grid.shape_of(Staggering.ZFACE):
            raise ShapeError(f"w shape {self.w.shape} not z-face staggered")

    def copy(self):
        return VectorField(self.grid, self.u.copy(), self.w.copy())

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nx, grid.nz)), np.zeros((grid.nx, grid.nz + 1)))


@dataclass(frozen=True)
class DirichletZ:
    """Dirichlet wall values; scalars or per-x arrays of length nx."""

    bottom: object = 0.0
    top: object = 0.0


@dataclass(frozen=True)
class NeumannZ:
    """Homogeneous Neumann walls."""


def _wall_array(value, nx):
    if isinstance(value, float):
        return np.full(nx, value)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(nx, float(arr))
    if arr.shape != (nx,):
        raise ShapeError(f"wall value shape {arr.shape} incompatible with nx={nx}")
    return arr


def _require_finite_walls(walls):
    """Raise DomainError naming theta_b_bottom or theta_b_top when that wall
    of the (bottom, top) pair of wall arrays is not finite."""
    for name, arr in zip(("theta_b_bottom", "theta_b_top"), walls):
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite, got {arr}")


def _xprev(a):
    """a[i-1] at every i along the periodic x axis, as two slice copies."""
    out = np.empty_like(a)
    out[1:] = a[:-1]
    out[0] = a[-1]
    return out


def _xnext(a):
    """a[i+1] at every i along the periodic x axis, as two slice copies."""
    out = np.empty_like(a)
    out[:-1] = a[1:]
    out[-1] = a[0]
    return out


def _mean(vals):
    """float(np.mean(vals)) bit for bit (the same pairwise sum and division),
    without np.mean's wrapper."""
    return float(vals.sum()) / vals.size


def mean(f):
    """Volume-weighted average over the domain; exact for constants."""
    if f.stag != Staggering.CENTER:
        raise ShapeError("mean is defined for center-staggered fields")
    return _mean(f.values)


def grad(f, bc=NeumannZ()):
    """Gradient of a center field onto the faces (second-order centered)."""
    if f.stag != Staggering.CENTER:
        raise ShapeError("grad expects a center-staggered field")
    g = f.grid
    vals = f.values
    gx = (vals - _xprev(vals)) / g.dx
    gz = np.zeros((g.nx, g.nz + 1))
    gz[:, 1:-1] = (vals[:, 1:] - vals[:, :-1]) / g.dz
    if isinstance(bc, DirichletZ):
        gb = _wall_array(bc.bottom, g.nx)
        gt = _wall_array(bc.top, g.nx)
        gz[:, 0] = 2.0 * (vals[:, 0] - gb) / g.dz
        gz[:, -1] = 2.0 * (gt - vals[:, -1]) / g.dz
    elif isinstance(bc, NeumannZ):
        pass
    else:
        raise ShapeError(f"unsupported z boundary spec {bc!r}")
    return VectorField(g, gx, gz)


def div(v):
    """Divergence of a face vector field onto cell centers."""
    g = v.grid
    dudx = (_xnext(v.u) - v.u) / g.dx
    dwdz = (v.w[:, 1:] - v.w[:, :-1]) / g.dz
    return ScalarField(g, dudx + dwdz, Staggering.CENTER)


def center_to_xface(vals):
    """Average center values onto x-faces (periodic)."""
    return 0.5 * (vals + _xprev(vals))


def xface_to_center(u):
    return 0.5 * (u + _xnext(u))


def zface_to_center(w):
    return 0.5 * (w[:, 1:] + w[:, :-1])


def _pad_mirror_z(u):
    """Tangential no-slip ghosts: u_ghost = -u_interior."""
    return np.concatenate([-u[:, :1], u, -u[:, -1:]], axis=1)


def advect_velocity(grid, u, w):
    """-(U . grad) U at the faces, centered second order.

    u is x-face staggered, w z-face staggered; tangential ghosts are no-slip
    mirrors and the wall rows of the w component stay zero.
    """
    dx, dz = grid.dx, grid.dz
    ur = _xnext(u)
    dudx = (ur - _xprev(u)) / (2 * dx)
    up = _pad_mirror_z(u)
    dudz = (up[:, 2:] - up[:, :-2]) / (2 * dz)
    wl = _xprev(w)
    # x-neighbor pairs are summed first so mirroring the data in x commutes
    # with the stencil bit for bit (pair sums only ever swap operands).
    w_at_x = 0.25 * ((w[:, :-1] + wl[:, :-1]) + (w[:, 1:] + wl[:, 1:]))
    adv_u = -(u * dudx + w_at_x * dudz)

    dwdx = (_xnext(w) - wl) / (2 * dx)
    adv_w = np.zeros(w.shape)
    u_at_z = 0.25 * ((u[:, :-1] + ur[:, :-1]) + (u[:, 1:] + ur[:, 1:]))
    dwdz = (w[:, 2:] - w[:, :-2]) / (2 * dz)
    adv_w[:, 1:-1] = -(u_at_z * dwdx[:, 1:-1] + w[:, 1:-1] * dwdz)
    return adv_u, adv_w


class _ZOperator:
    """a - c lap as one real z-tridiagonal matrix per rfft x-mode, inverted
    once; a solve applies the inverses in one batched matmul.  wall is the z
    closure: 'pinned' (Neumann ghost f0, the singular kx = 0 mode pinned in
    its first cell), 'extrapolate' (Dirichlet, quadratic-extrapolation ghost
    (8g - 6 f0 + f1)/3), 'mirror' (Dirichlet, no-slip ghost 2g - f0) or
    'zface' (the interior z-faces, wall faces held at zero).  faces (centre
    closures only) weights the nz + 1 z-faces, walls included, so that the z
    part is d/dz (faces d/dz); each weight scales its face's flux and its
    wall's ghost term.  None means unit weights."""

    def __init__(self, grid, c, wall, a=1.0, faces=None):
        self.grid = grid
        m, n = grid.nx // 2 + 1, grid.nz - 1 if wall == "zface" else grid.nz
        # Discrete symbols k~^2 >= 0 of -d^2/dx^2 for the rfft modes.
        kx2 = 2.0 * (1.0 - np.cos(2.0 * np.pi * np.arange(m) / grid.nx)) / grid.dx ** 2
        inv_dz2 = 1.0 / grid.dz ** 2
        s = np.ones(n + 1) if faces is None else np.asarray(faces, dtype=float)
        sw = s[[0, -1]]
        k, ends = np.arange(n), [0, -1]
        mat = np.zeros((m, n, n))
        mat[:, k, k] = a + c * ((s[:-1] + s[1:]) * inv_dz2 + kx2[:, None])
        mat[:, k[1:], k[:-1]] = mat[:, k[:-1], k[1:]] = -c * s[1:-1] * inv_dz2
        self.wall_coef = None
        if wall == "pinned":
            mat[:, ends, ends] -= c * sw * inv_dz2
            mat[0, 0, 0], mat[0, 0, 1], mat[0, 1, 0] = 1.0, 0.0, 0.0
        elif wall == "mirror":
            mat[:, ends, ends] += c * sw * inv_dz2
            self.wall_coef = 2.0 * c * sw * inv_dz2
        elif wall == "extrapolate":
            mat[:, ends, ends] += 2.0 * c * sw * inv_dz2
            mat[:, 0, 1] -= c * sw[0] * inv_dz2 / 3.0
            mat[:, -1, -2] -= c * sw[1] * inv_dz2 / 3.0
            self.wall_coef = (8.0 / 3.0) * c * sw * inv_dz2
        self.inv = np.linalg.inv(mat)
        if wall == "pinned":
            self.inv[0, 0, 0] = 0.0  # the pinned cell stays zero whatever the data

    def solve(self, vals, bottom=0.0, top=0.0):
        """Solution for real data vals (None: zero data); bottom and top are
        the wall values of the Dirichlet closures."""
        nx = self.grid.nx
        m, n = self.inv.shape[:2]
        rhs = np.zeros((m, n), dtype=complex) if vals is None else np.fft.rfft(vals, axis=0)
        if self.wall_coef is not None:
            for row, value, coef in zip((0, -1), (bottom, top), self.wall_coef):
                # A zero wall adds nothing; a scalar zero is not even expanded.
                if isinstance(value, (int, float)) and value == 0:
                    continue
                wall = _wall_array(value, nx)
                if wall.any():
                    rhs[:, row] += coef * np.fft.rfft(wall)
        # Real and imaginary parts ride as two right-hand-side columns.
        x = np.matmul(self.inv, np.ascontiguousarray(rhs).view(float).reshape(m, n, 2))
        return np.fft.irfft(x.view(complex).reshape(m, n), n=nx, axis=0)

    @cached_property
    def unit_source(self):
        """Response to a unit right-hand side with zero walls."""
        return ScalarField(self.grid, self.solve(np.ones((self.grid.nx, self.grid.nz))))

    @cached_property
    def unit_wall(self):
        """Response to a zero right-hand side with unit walls."""
        return ScalarField(self.grid, self.solve(None, 1.0, 1.0))

    @cached_property
    def unit_source_mean(self):
        return mean(self.unit_source)

    @cached_property
    def unit_wall_mean(self):
        return mean(self.unit_wall)


def _zop(grid, c, wall, a=1.0):
    """The inverted operator a - c lap with the given wall closure, cached on
    the grid so that it lives as long as the grid does."""
    key = (a, c, wall)
    op = grid._zops.get(key)
    if op is None:
        op = grid._zops[key] = _ZOperator(grid, c, wall, a)
    return op


def _poisson(vals, grid):
    """poisson_solve on the array of a center field: (phi, removed mean)."""
    if not np.isfinite(vals).all():
        raise DomainError("non-finite right-hand side")
    removed = _mean(vals)
    phi = _zop(grid, -1.0, "pinned", a=0.0).solve(vals - removed)
    phi -= _mean(phi)
    return phi, removed


def poisson_solve(rhs):
    """Solve lap(phi) = rhs - mean(rhs) with periodic x, homogeneous Neumann z.

    Returns (phi, removed_mean); phi has zero mean.  Direct method: rfft in x,
    the cached inverse in z per mode; the singular constant mode is pinned and the
    mean subtracted afterwards.
    """
    if rhs.stag != Staggering.CENTER:
        raise ShapeError("poisson_solve expects a center-staggered field")
    phi, removed = _poisson(rhs.values, rhs.grid)
    return ScalarField(rhs.grid, phi, Staggering.CENTER), removed


def helmholtz_solve(f, c, bc=DirichletZ(0.0, 0.0)):
    """Solve (I - c lap) g = f with periodic x and Dirichlet z walls.

    Center fields use the quadratic-extrapolation wall ghost; x-face fields
    (tangential velocity at the same z heights) use the mirror ghost.
    """
    if not c > 0:
        raise DomainError("helmholtz_solve needs c > 0")
    if f.stag == Staggering.ZFACE:
        raise ShapeError("use helmholtz_solve_zface for z-face fields")
    if not isinstance(bc, DirichletZ):
        raise ShapeError("helmholtz_solve supports Dirichlet z walls")
    wall = "mirror" if f.stag == Staggering.XFACE else "extrapolate"
    vals = _zop(f.grid, c, wall).solve(f.values, bc.bottom, bc.top)
    return ScalarField(f.grid, vals, f.stag)


def helmholtz_solve_zface(f, c):
    """Solve (I - c lap) w = f on interior z-faces with w = 0 on the walls.

    f is z-face staggered; its wall rows are ignored.  Returns a z-face field
    with exactly zero wall rows.
    """
    if not c > 0:
        raise DomainError("helmholtz_solve_zface needs c > 0")
    if f.stag != Staggering.ZFACE:
        raise ShapeError("helmholtz_solve_zface expects a z-face field")
    g = f.grid
    out = np.zeros((g.nx, g.nz + 1))
    out[:, 1:-1] = _zop(g, c, "zface").solve(f.values[:, 1:-1])
    return ScalarField(g, out, Staggering.ZFACE)


def laplace_dirichlet(grid, bottom, top):
    """Harmonic extension of wall data: lap(h) = 0, h = bottom/top on the walls.

    Uses the quadratic-extrapolation wall ghost, matching helmholtz_solve on
    center fields.  For per-wall-constant data the result is the linear blend
    bottom + (top - bottom) z sampled at the cell centers.
    """
    vals = _zop(grid, 1.0, "extrapolate", a=0.0).solve(None, bottom, top)
    return ScalarField(grid, vals, Staggering.CENTER)
