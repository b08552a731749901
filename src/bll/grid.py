"""Staggered grid on the periodic strip T^1 x (0,1): fields, operators,
and direct elliptic solves.

MAC layout, arrays indexed [i, k] = (x, z):
  cell centers   (nx, nz)   at ((i+1/2) dx, (k+1/2) dz)
  x-faces        (nx, nz)   at (i dx, (k+1/2) dz), periodic in x
  z-faces        (nx, nz+1) at ((i+1/2) dx, k dz); k = 0 and nz are the walls

Arrays are C-contiguous, so the z-neighbours of a[i, k] are the next and
previous entries of its flat buffer.  A z-stencil is one ufunc over two
offset flat views (a.reshape(-1)[n:] and [:-n]) instead of nx strided
rows; the pairs that reach across the end of an x-column are spare entries
that the caller overwrites or never reads.  The NSF kernel keeps interior
z-face quantities in the z-face layout, an (nx, nz) array whose column k
holds face k (column 0 the bottom wall face) with the top wall face as a
separate (nx,) row, so that centre -> face and face -> centre stencils are
such flat passes too (nsf._StagePlan).

Ghost conventions at the z walls: grad is the homogeneous-Neumann gradient
(ghost = g_int, so its wall rows are zero); tangential no-slip mirror
u_ghost = -u_int; the wall-normal velocity w is stored exactly zero on the
wall faces.  The Dirichlet reflection ghost 2 g_wall - g_int survives in the
NSF wall Fourier flux.  The implicit Dirichlet solve (helmholtz_solve) uses
the quadratic-extrapolation ghost on center fields, whose conservative wall
flux is the one-sided quadratic derivative, while x-face fields keep the
mirror convention.

The elliptic solves are direct, all through the one z-solver _ZOperator: a
real-DFT matrix in x (Grid._dft, rfft and irfft as dense matrices), then one
z-tridiagonal system per Fourier mode.  Each operator is inverted once per
mode, so a solve is three matrix products; the constant-coefficient ones are
cached on their Grid, (nx/2+1) nz^2 doubles each (0.27 MB at 64x32, 2.1 MB
at 128x64, 17 MB at 256x128), and the face-weighted ones (the NSF conduction
profile) are not.  An operator keeps the DFT matrices, (nx, nz) and its unit
responses as plain arrays, never its Grid, so reference counting alone frees
the cache with the grid, not a later cyclic collection.  Any future cache on
a Grid or a scenario (say an acoustic operator on scenario.reference()) must
likewise never refer back to its owner.  The DFT matrices cost O(nx^2) per
column and hold 2 (nx/2+1) nx doubles each (66 KiB for both at nx = 64); at
bll's grids that beats the FFT's per-call overhead, and the two break even
near 128x64, so an FFT path comes back only with a workload whose nx needs
it.  A solve writes into caller-owned arrays when given them (out, and work
from _ZOperator.workspace()); the solvers' per-run plans own those, never
the operator, which its Grid caches for every run.  Likewise advect_velocity
is a thin wrapper over _Advection, the stencil bound to its work arrays, of
which each run holds one.
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
        if not 0.0 < self.Lx < np.inf:
            raise ShapeError(f"Lx must be finite and positive, got {self.Lx}")

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

    @cached_property
    def _dft(self):
        """Real-DFT matrices in x, (forward, inverse), m = nx//2 + 1 modes.

        forward (2m, nx) maps real columns to their rfft real parts stacked
        over the imaginary parts.  inverse (nx, 2m) is irfft on spectra stored
        mode by mode as (real, imaginary) pairs: it counts every mode twice
        (itself and its conjugate) except mode 0 and, for even nx, the Nyquist
        mode, whose imaginary parts it ignores.
        """
        nx = self.nx
        m = nx // 2 + 1
        # Angles from the exact integer phase jk mod nx.
        theta = (2.0 * np.pi / nx) * (np.outer(np.arange(m), np.arange(nx)) % nx)
        cos, sin = np.cos(theta), np.sin(theta)
        ends = [0, -1] if nx % 2 == 0 else [0]
        real = np.full(m, 2.0 / nx)
        real[ends] = 1.0 / nx
        imag = real.copy()
        imag[ends] = 0.0
        pairs = np.stack([real[:, None] * cos, -imag[:, None] * sin], axis=1)
        fwd = np.concatenate([cos, -sin])
        inverse = pairs.reshape(2 * m, nx).T.copy()
        fwd.flags.writeable = inverse.flags.writeable = False
        return fwd, inverse


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


def _require_finite_initial(T0, U0):
    """Raise DomainError naming T0 or U0 when that initial field (None when
    absent) holds a NaN or an inf."""
    if T0 is not None and not np.isfinite(T0.values).all():
        raise DomainError("T0 must be finite")
    if U0 is not None and not (np.isfinite(U0.u).all() and np.isfinite(U0.w).all()):
        raise DomainError("U0 must be finite")


def _require_grid(grid, fields):
    """Raise ShapeError naming both grids unless every field lives on grid."""
    for f in fields:
        if f.grid != grid:
            raise ShapeError(f"state grid {f.grid} does not match the scenario grid {grid}")


def _rows_equal(a):
    """Whether every row of a (every entry of a 1-d a) is bytewise equal to
    the first: -0.0 differs from +0.0."""
    bits = a.view(np.uint64)
    return bool((bits == bits[:1]).all())


def _wall_trace_gap(vals, wall_bottom, wall_top):
    """Largest gap between the wall data and the quadratic extrapolation
    1.5 v0 - 0.5 v1 of the center values vals to each wall."""
    gap_b = np.max(np.abs(1.5 * vals[:, 0] - 0.5 * vals[:, 1] - wall_bottom))
    gap_t = np.max(np.abs(1.5 * vals[:, -1] - 0.5 * vals[:, -2] - wall_top))
    return max(float(gap_b), float(gap_t))


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


# The periodic x-differences and face averages finish in the neighbour copy,
# in place, so each allocates one array and makes no temporary.


def _xdiff_prev(a):
    """a - a[i-1] along the periodic x axis."""
    out = _xprev(a)
    np.subtract(a, out, out=out)
    return out


def _xdiff_next(a):
    """a[i+1] - a along the periodic x axis."""
    out = _xnext(a)
    out -= a
    return out


def _mean(vals):
    """float(np.mean(vals)) bit for bit (the same pairwise sum and division),
    without np.mean's wrapper."""
    return float(vals.sum()) / vals.size


def _const(x):
    """x as a read-only 0-d float array.  A ufunc broadcasts it like the
    float x, to the same bits, without converting the float again on every
    call: 0.26 against 0.4-0.56 us for a 4x32 multiply."""
    c = np.array(x, dtype=float)
    c.flags.writeable = False
    return c


def mean(f):
    """Volume-weighted average over the domain; exact for constants."""
    if f.stag != Staggering.CENTER:
        raise ShapeError("mean is defined for center-staggered fields")
    return _mean(f.values)


def grad(f):
    """Gradient of a center field onto the faces (second-order centered),
    with homogeneous Neumann walls: the wall rows of the z component are zero."""
    if f.stag != Staggering.CENTER:
        raise ShapeError("grad expects a center-staggered field")
    g = f.grid
    vals = f.values
    gx = _xdiff_prev(vals) / g.dx
    gz = np.zeros((g.nx, g.nz + 1))
    gz[:, 1:-1] = (vals[:, 1:] - vals[:, :-1]) / g.dz
    return VectorField(g, gx, gz)


def div(v):
    """Divergence of a face vector field onto cell centers."""
    g = v.grid
    dudx = _xdiff_next(v.u) / g.dx
    dwdz = (v.w[:, 1:] - v.w[:, :-1]) / g.dz
    return ScalarField(g, dudx + dwdz, Staggering.CENTER)


def center_to_xface(vals):
    """Average center values onto x-faces (periodic)."""
    out = _xprev(vals)
    out += vals
    out *= 0.5
    return out


def xface_to_center(u):
    out = _xnext(u)
    out += u
    out *= 0.5
    return out


def zface_to_center(w):
    out = np.add(w[:, 1:], w[:, :-1])
    out *= 0.5
    return out


def _pad_x(pad, a):
    """Copy a into the rows 1..nx of pad, (nx + 2, ...), and its periodic
    ghosts a[-1] and a[0] into the first and last rows, so that pad[:-2] and
    pad[2:] are a's previous and next x-neighbours, each one contiguous
    slice."""
    pad[1:-1] = a
    pad[0] = a[-1]
    pad[-1] = a[0]


class _Advection:
    """-(U . grad) U at the faces, centered second order, bound to one grid
    with its work arrays and the views its stencils read: x-ghost-padded
    copies of u and w (_pad_x), the z-differences and the pair sums.  A
    call returns fresh (adv_u, adv_w), or writes them into out, a caller's
    pair of arrays of their shapes holding finite values, and otherwise
    writes only the object's own arrays, so an object serves one run (or
    one call) and no other.  rows, when given, replaces the grid's nx: a
    one-row x-invariant strip is its own periodic x-neighbour.

    u is x-face staggered, w z-face staggered; tangential ghosts are no-slip
    mirrors and the wall rows of the w component stay zero.  u None stands
    for an exactly zero u under an x-invariant w, where every u term is
    +0.0: the call returns (None, -(0.0 + w d_z w)), the +0.0 kept as that
    term's first operand, bit for bit the full call's adv_w.
    """

    def __init__(self, grid, rows=None):
        nx, nz = grid.nx if rows is None else rows, grid.nz
        self.two_dx, self.two_dz = _const(2 * grid.dx), _const(2 * grid.dz)
        self.quarter = _const(0.25)
        self.u_pad, self.w_pad = np.empty((nx + 2, nz)), np.empty((nx + 2, nz + 1))
        self.u_prev, self.u_next = self.u_pad[:-2], self.u_pad[2:]
        self.w_prev, self.w_next = self.w_pad[:-2], self.w_pad[2:]
        self.dudz = np.empty((nx, nz))
        self.dudz_inner = self.dudz.reshape(-1)[1:-1]
        self.dudz_bottom, self.dudz_top = self.dudz[:, 0], self.dudz[:, -1]
        self.top = np.empty(nx)
        self.w_pairs, self.w_at_x = np.empty((nx, nz + 1)), np.empty((nx, nz))
        self.w_pairs_lo, self.w_pairs_hi = self.w_pairs[:, :-1], self.w_pairs[:, 1:]
        self.u_pairs = np.empty((nx, nz))
        self.u_pairs_lo, self.u_pairs_hi = self.u_pairs[:, :-1], self.u_pairs[:, 1:]
        # The first and last entries of dwdz, wall entries that its flat
        # pass never writes, stay finite zeros.
        self.dwdx, self.dwdz = np.empty((nx, nz + 1)), np.zeros((nx, nz + 1))
        self.dwdz_inner = self.dwdz.reshape(-1)[1:-1]

    def __call__(self, u, w, out=None):
        adv_u, adv_w = (None, np.zeros(w.shape)) if out is None else out
        adv_u = None if u is None else self._u_terms(u, w, adv_u, adv_w)
        # adv_w in the w layout, its z-difference one flat pass over the
        # buffer; the wall rows are set to zero last.
        dwdz, flat_w = self.dwdz, w.reshape(-1)
        np.subtract(flat_w[2:], flat_w[:-2], out=self.dwdz_inner)
        dwdz /= self.two_dz
        dwdz *= w
        np.add(0.0 if u is None else adv_w, dwdz, out=adv_w)
        np.negative(adv_w, out=adv_w)
        adv_w[:, 0] = 0.0
        adv_w[:, -1] = 0.0
        return adv_u, adv_w

    def _u_terms(self, u, w, adv_u, adv_w):
        """adv_u, written into adv_u (fresh when None), and u d_x w written
        into the interior rows of adv_w."""
        _pad_x(self.u_pad, u)
        _pad_x(self.w_pad, w)
        u_next, w_prev = self.u_next, self.w_prev
        adv_u = np.subtract(u_next, self.u_prev, out=adv_u)
        adv_u /= self.two_dx
        # z-differences two rows apart as one flat pass; the no-slip mirror
        # ghosts -u are folded into the wall differences exactly.
        dudz, flat_u = self.dudz, u.reshape(-1)
        np.subtract(flat_u[2:], flat_u[:-2], out=self.dudz_inner)
        np.add(u[:, 1], u[:, 0], out=self.dudz_bottom)
        # (numpy 2.4's np.negative, in place on a strided column, reads it
        # as if it were contiguous, so the top wall's sum is a row first.)
        top = np.add(u[:, -1], u[:, -2], out=self.top)
        np.negative(top, out=self.dudz_top)
        dudz /= self.two_dz
        dwdx = np.subtract(self.w_next, w_prev, out=self.dwdx)
        dwdx /= self.two_dx
        # x-neighbor pairs are summed first, once over the whole array, so
        # mirroring the data in x commutes with the stencil bit for bit (pair
        # sums only ever swap operands).
        np.add(w_prev, w, out=self.w_pairs)
        w_at_x = np.add(self.w_pairs_lo, self.w_pairs_hi, out=self.w_at_x)
        w_at_x *= self.quarter
        w_at_x *= dudz
        adv_u *= u
        adv_u += w_at_x
        np.negative(adv_u, out=adv_u)
        np.add(u_next, u, out=self.u_pairs)
        np.add(self.u_pairs_lo, self.u_pairs_hi, out=adv_w[:, 1:-1])
        adv_w *= self.quarter
        adv_w *= dwdx
        return adv_u


def advect_velocity(grid, u, w):
    """-(U . grad) U at the faces, centered second order.

    u is x-face staggered, w z-face staggered; tangential ghosts are no-slip
    mirrors and the wall rows of the w component stay zero.  A thin wrapper
    that binds a _Advection for one call; the solvers hold theirs per run.
    """
    return _Advection(grid)(u, w)


class _ZOperator:
    """a - c lap as one real z-tridiagonal matrix per rfft x-mode, inverted
    once.  A solve maps its data to the modes with the grid's forward DFT
    matrix, applies the inverses in one batched matmul (a mode's real and
    imaginary parts share its inverse) and maps back with the inverse DFT
    matrix, O(nx^2 + (nx/2+1) n) per z-column of n unknowns.  wall is the z
    closure: 'pinned' (Neumann ghost f0, the singular kx = 0 mode pinned in
    its first cell), 'extrapolate' (Dirichlet, quadratic-extrapolation ghost
    (8g - 6 f0 + f1)/3), 'mirror' (Dirichlet, no-slip ghost 2g - f0) or
    'zface' (the interior z-faces, wall faces held at zero).  faces (centre
    closures only) weights the nz + 1 z-faces, walls included, so that the z
    part is d/dz (faces d/dz); each weight scales its face's flux and its
    wall's ghost term.  None means unit weights."""

    def __init__(self, grid, c, wall, a=1.0, faces=None):
        self.nx, self.nz, self.dft = grid.nx, grid.nz, grid._dft  # not the grid (module docstring)
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
        # The per-mode inverses, each transposed, so that a solve multiplies
        # the data rows from the left.
        self.inv_t = np.linalg.inv(mat).transpose(0, 2, 1).copy()
        if wall == "pinned":
            self.inv_t[0, 0, 0] = 0.0  # the pinned cell stays zero whatever the data

    def workspace(self):
        """Fresh work arrays for solve: the spectrum (2m, n) with its view by
        mode (m, 2, n), one wall's spectrum (2m,), and the per-mode solutions
        (m, 2, n) with their view as a spectrum (2m, n)."""
        m, n = self.inv_t.shape[:2]
        rhs, modes = np.empty((2 * m, n)), np.empty((m, 2, n))
        return rhs, rhs.reshape(2, m, n).transpose(1, 0, 2), np.empty(2 * m), modes, modes.reshape(2 * m, n)

    def solve(self, vals, bottom=0.0, top=0.0, out=None, work=None):
        """Solution for real data vals (None: zero data); bottom and top are
        the wall values of the Dirichlet closures.  The solution is written
        to out (nx, n) and the intermediates to work (from workspace()), each
        allocated when None; the data are read before out is written, so out
        may be vals."""
        fwd, inverse = self.dft
        rhs, rhs_by_mode, wall_rhs, modes, spectrum = self.workspace() if work is None else work
        if vals is None:
            rhs.fill(0.0)
        else:
            np.matmul(fwd, vals, out=rhs)
        if self.wall_coef is not None:
            for row, value, coef in zip((0, -1), (bottom, top), self.wall_coef):
                # A zero wall adds nothing; a scalar zero is not even expanded.
                if isinstance(value, (int, float)) and value == 0:
                    continue
                wall = _wall_array(value, self.nx)
                if wall.any():
                    np.matmul(fwd, wall, out=wall_rhs)
                    wall_rhs *= coef
                    rhs[:, row] += wall_rhs
        # Mode k's real and imaginary parts are two rows against its inverse.
        np.matmul(rhs_by_mode, self.inv_t, out=modes)
        return np.matmul(inverse, spectrum, out=out)

    @cached_property
    def unit_source(self):
        """Response to a unit right-hand side with zero walls, (nx, nz)."""
        return self.solve(np.ones((self.nx, self.nz)))

    @cached_property
    def unit_wall(self):
        """Response to a zero right-hand side with unit walls, (nx, nz)."""
        return self.solve(None, 1.0, 1.0)


def _zop(grid, c, wall, a=1.0):
    """The inverted operator a - c lap with the given wall closure, cached on
    the grid so that it lives as long as the grid does."""
    key = (a, c, wall)
    op = grid._zops.get(key)
    if op is None:
        op = grid._zops[key] = _ZOperator(grid, c, wall, a)
    return op


def _poisson_op(grid):
    """The pinned operator -lap of poisson_solve, cached on the grid."""
    return _zop(grid, -1.0, "pinned", a=0.0)


def _poisson(vals, op, out=None, work=None):
    """poisson_solve on the array of a center field, with the grid's
    _poisson_op op: (phi, removed mean).  phi is written to out and the
    solve's intermediates to work, each allocated when None (see
    _ZOperator.solve)."""
    if not np.isfinite(vals).all():
        raise DomainError("non-finite right-hand side")
    removed = _mean(vals)
    phi = np.subtract(vals, removed, out=out)
    op.solve(phi, out=phi, work=work)
    phi -= _mean(phi)
    return phi, removed


def poisson_solve(rhs):
    """Solve lap(phi) = rhs - mean(rhs) with periodic x, homogeneous Neumann z.

    Returns (phi, removed_mean); phi has zero mean.  Direct method: the real-DFT
    matrix in x, the cached inverse in z per mode; the singular constant mode is
    pinned and the mean subtracted afterwards.
    """
    if rhs.stag != Staggering.CENTER:
        raise ShapeError("poisson_solve expects a center-staggered field")
    phi, removed = _poisson(rhs.values, _poisson_op(rhs.grid))
    return ScalarField(rhs.grid, phi, Staggering.CENTER), removed


def helmholtz_solve(f, c, bottom=0.0, top=0.0):
    """Solve (I - c lap) g = f with periodic x and Dirichlet z walls g =
    bottom / top, each a scalar or a per-x array of length nx.

    Center fields use the quadratic-extrapolation wall ghost; x-face fields
    (tangential velocity at the same z heights) use the mirror ghost.
    """
    if not c > 0:
        raise DomainError("helmholtz_solve needs c > 0")
    if f.stag == Staggering.ZFACE:
        raise ShapeError("use helmholtz_solve_zface for z-face fields")
    wall = "mirror" if f.stag == Staggering.XFACE else "extrapolate"
    vals = _zop(f.grid, c, wall).solve(f.values, bottom, top)
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
    center fields.  Walls bytewise constant along x take the closed form, the
    linear blend bottom + (top - bottom) z at the cell centers, which is the
    exact discrete solution: every row is bytewise equal and no operator is
    built.  Other wall data go through the solve.
    """
    walls = _wall_array(bottom, grid.nx), _wall_array(top, grid.nx)
    if all(map(_rows_equal, walls)):
        b, t = (float(w[0]) for w in walls)
        vals = np.tile(b + (t - b) * grid.z_centers, (grid.nx, 1))
    else:
        vals = _zop(grid, 1.0, "extrapolate", a=0.0).solve(None, *walls)
    return ScalarField(grid, vals, Staggering.CENTER)
