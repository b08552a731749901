from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bll.cli import _write_table
from bll.diagnostics import compare_modified_vs_naive, sweep
from bll.errors import DomainError, ShapeError
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
)
from bll.grid import (
    _wall_array,
    _xdiff_next,
    _xdiff_prev,
    _zhi,
    _zlo,
    _ZOperator,
    _zop,
)
from bll.nsf import NsfScenario, build_initial_nsf, run_nsf, step_nsf
from bll.ob import THETA_FRAME, ObScenario, build_initial_ob, gravity_potential, run_ob, step_ob
from bll.thermo import EosParams


def _ghost_pad_z(vals, walls, nx):
    """(nx, nz+2) array with the reflection ghost rows in z: homogeneous
    Neumann when walls is None, else Dirichlet with walls = (bottom, top)."""
    if walls is None:
        bottom = vals[:, :1]
        top = vals[:, -1:]
    else:
        bottom = (2.0 * _wall_array(walls[0], nx))[:, None] - vals[:, :1]
        top = (2.0 * _wall_array(walls[1], nx))[:, None] - vals[:, -1:]
    return np.concatenate([bottom, vals, top], axis=1)


def laplacian(f, walls):
    """Oracle: five-point Laplacian of a center field, periodic in x, with
    the reflection ghosts in z (walls as in _ghost_pad_z)."""
    g = f.grid
    vals = f.values
    padded = _ghost_pad_z(vals, walls, g.nx)
    d2x = (np.roll(vals, -1, axis=0) - 2.0 * vals + np.roll(vals, 1, axis=0)) / g.dx ** 2
    d2z = (padded[:, 2:] - 2.0 * padded[:, 1:-1] + padded[:, :-2]) / g.dz ** 2
    return ScalarField(g, d2x + d2z, Staggering.CENTER)


def random_fields(grid, seed=0):
    rng = np.random.default_rng(seed)
    f = ScalarField(grid, rng.standard_normal((grid.nx, grid.nz)))
    w = rng.standard_normal((grid.nx, grid.nz + 1))
    w[:, 0] = 0.0
    w[:, -1] = 0.0
    v = VectorField(grid, rng.standard_normal((grid.nx, grid.nz)), w)
    return f, v


def test_grid_spacings_and_validation() -> None:
    g = Grid(8, 4, Lx=2.0)
    assert g.dx == pytest.approx(0.25)
    assert g.dz == pytest.approx(0.25)
    with pytest.raises(ShapeError):
        Grid(2, 8)


@pytest.mark.parametrize("Lx", [float("nan"), float("inf"), -1.0, 0.0])
def test_grid_rejects_bad_width(Lx) -> None:
    with pytest.raises(ShapeError, match="Lx must be finite and positive"):
        Grid(8, 4, Lx=Lx)


def test_field_shape_validation() -> None:
    g = Grid(8, 4)
    with pytest.raises(ShapeError):
        ScalarField(g, np.zeros((8, 5)))
    with pytest.raises(ShapeError):
        VectorField(g, np.zeros((8, 4)), np.zeros((8, 4)))


def test_mean_examples() -> None:
    g = Grid(16, 8)
    assert mean(ScalarField(g, np.full((16, 8), 3.25))) == pytest.approx(3.25, abs=0)
    f = ScalarField.from_function(g, lambda x, z: np.sin(2 * np.pi * x))
    assert abs(mean(f)) <= 1e-14
    f = ScalarField.from_function(g, lambda x, z: z)
    assert mean(f) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    nx=st.integers(4, 40),
    nz=st.integers(4, 40),
    fortran=st.booleans(),
)
def test_mean_is_bitwise_np_mean(data, nx, nz, fortran) -> None:
    # mean skips np.mean's wrapper but must keep its pairwise sum and division.
    elements = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
    vals = data.draw(arrays(np.float64, (nx, nz), elements=elements))
    if fortran:
        vals = np.asfortranarray(vals)
    got = mean(ScalarField(Grid(nx, nz), vals))
    assert type(got) is float
    assert got == float(np.mean(vals))
    assert np.float64(got).tobytes() == np.mean(vals).tobytes()


@pytest.mark.parametrize("nz", [8, 9])  # a centre and a z-face shape
@pytest.mark.parametrize("nx", [4, 5, 64])
def test_periodic_x_stencils_match_roll_formulas_bitwise(nx, nz) -> None:
    rng = np.random.default_rng(nx * 100 + nz)
    a = rng.standard_normal((nx, nz)) * np.exp(rng.uniform(-20.0, 20.0, (nx, nz)))
    prev, nxt = np.roll(a, 1, axis=0), np.roll(a, -1, axis=0)
    for got, want in (
        (_xdiff_prev(a), a - prev),
        (_xdiff_next(a), nxt - a),
        (center_to_xface(a), 0.5 * (a + prev)),
        (xface_to_center(a), 0.5 * (a + nxt)),
        (_xdiff_prev(a[:, 0]), a[:, 0] - prev[:, 0]),  # a wall row
        (center_to_xface(a[:, 0]), 0.5 * (a[:, 0] + prev[:, 0])),
    ):
        assert got.shape == want.shape and np.array_equal(got, want)


def _roll_advection(u, w):
    """advect_velocity's stencil written with np.roll and a ghost-padded u."""
    nx, nz = u.shape
    dx, dz = 1.0 / nx, 1.0 / nz
    ur, ul, wr, wl = (np.roll(a, s, axis=0) for a in (u, w) for s in (-1, 1))
    up = np.concatenate([-u[:, :1], u, -u[:, -1:]], axis=1)
    w_at_x = 0.25 * ((w[:, :-1] + wl[:, :-1]) + (w[:, 1:] + wl[:, 1:]))
    want_u = -(u * ((ur - ul) / (2 * dx)) + w_at_x * ((up[:, 2:] - up[:, :-2]) / (2 * dz)))
    u_at_z = 0.25 * ((u[:, :-1] + ur[:, :-1]) + (u[:, 1:] + ur[:, 1:]))
    want_w = np.zeros_like(w)
    want_w[:, 1:-1] = -(
        u_at_z * ((wr - wl) / (2 * dx))[:, 1:-1] + w[:, 1:-1] * ((w[:, 2:] - w[:, :-2]) / (2 * dz))
    )
    return want_u, want_w


@pytest.mark.parametrize("nx", [4, 5, 64])
def test_advect_velocity_matches_roll_formulas_bitwise(nx) -> None:
    nz = 9
    rng = np.random.default_rng(nx)
    u = rng.standard_normal((nx, nz))
    w = rng.standard_normal((nx, nz + 1))
    w[:, [0, -1]] = 0.0
    want_u, want_w = _roll_advection(u, w)
    adv_u, adv_w = advect_velocity(Grid(nx, nz), u, w)
    assert np.array_equal(adv_u, want_u)
    assert np.array_equal(adv_w, want_w)


@given(nx=st.integers(4, 12), nz=st.integers(4, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_property_flat_z_shifts_match_slice_formulas(nx, nz, seed) -> None:
    # ufunc(_zhi(a, n), _zlo(a, n)) pairs a[i, k] with a[i, k - n] on the
    # center (nz) and the z-face (nz + 1) layouts, written where the pair's
    # upper or lower entry sits; advect_velocity, built on these shifts,
    # equals its roll formula at every size, including the row lengths
    # whose strides numpy loops over differently
    rng = np.random.default_rng(seed)
    for cols in (nz, nz + 1):
        a = rng.uniform(0.5, 2.0, (nx, cols))
        for n in (1, 2):
            for ufunc in (np.add, np.subtract):
                want = ufunc(a[:, n:], a[:, :-n])
                up, down = np.full(a.shape, np.nan), np.full(a.shape, np.nan)
                ufunc(_zhi(a, n), _zlo(a, n), out=_zhi(up, n))
                ufunc(_zhi(a, n), _zlo(a, n), out=_zlo(down, n))
                assert np.array_equal(up[:, n:], want)
                assert np.array_equal(down[:, :-n], want)
                assert np.isfinite(up.reshape(-1)[n:]).all() and np.isfinite(down.reshape(-1)[:-n]).all()
    u = rng.standard_normal((nx, nz))
    w = rng.standard_normal((nx, nz + 1))
    w[:, [0, -1]] = 0.0
    adv_u, adv_w = advect_velocity(Grid(nx, nz), u, w)
    want_u, want_w = _roll_advection(u, w)
    assert np.array_equal(adv_u, want_u)
    assert np.array_equal(adv_w, want_w)


@pytest.mark.parametrize("nx", [4, 5, 64])
def test_advect_velocity_wall_z_differences_match_padded_ghosts_bitwise(nx) -> None:
    # The z-difference of u folds the no-slip mirror ghosts -u into its wall
    # rows; it must equal the difference over the padded array bit for bit,
    # on data whose magnitudes span many decades.
    nz = 4
    rng = np.random.default_rng(10 + nx)
    u = rng.standard_normal((nx, nz)) * np.exp(rng.uniform(-30.0, 30.0, (nx, nz)))
    w = np.zeros((nx, nz + 1))
    w[:, 1:-1] = rng.standard_normal((nx, nz - 1))
    dz = 1.0 / nz
    up = np.concatenate([-u[:, :1], u, -u[:, -1:]], axis=1)
    wl = np.roll(w, 1, axis=0)
    w_at_x = 0.25 * ((w[:, :-1] + wl[:, :-1]) + (w[:, 1:] + wl[:, 1:]))
    dudx = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2.0 / nx)
    want_u = -(u * dudx + w_at_x * ((up[:, 2:] - up[:, :-2]) / (2 * dz)))
    adv_u, _ = advect_velocity(Grid(nx, nz), u, w)
    assert np.array_equal(adv_u, want_u)


def test_grad_of_constant_is_zero() -> None:
    g = Grid(8, 8)
    v = grad(ScalarField(g, np.full((8, 8), 2.0)))
    assert np.all(v.u == 0.0)
    assert np.all(v.w == 0.0)


def test_div_grad_equals_laplacian_all_cells() -> None:
    g = Grid(16, 12)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.standard_normal((16, 12)))
    lhs = div(grad(f)).values
    rhs = laplacian(f, None).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_laplacian_interior_second_order() -> None:
    errs = []
    for n in (16, 32):
        g = Grid(2 * n, n)
        f = ScalarField.from_function(g, lambda x, z: np.sin(2 * np.pi * x) * z * (1 - z))
        exact = ScalarField.from_function(
            g,
            lambda x, z: -4 * np.pi ** 2 * np.sin(2 * np.pi * x) * z * (1 - z)
            - 2 * np.sin(2 * np.pi * x),
        )
        num = laplacian(f, (0.0, 0.0))
        errs.append(np.max(np.abs(num.values[:, 1:-1] - exact.values[:, 1:-1])))
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.9


def test_discrete_duality_grad_div() -> None:
    g = Grid(12, 10)
    f, v = random_fields(g, seed=5)
    gf = grad(f)
    lhs = np.sum(gf.u * v.u) + np.sum(gf.w * v.w)
    rhs = -np.sum(f.values * div(v).values)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def _dense_operator(g, c, wall, a, faces=None):
    """Oracle: a - c lap on the whole strip as one dense matrix over the
    unknowns [i, k] (row-major), each z closure written from its ghost value
    as a sum of weighted face fluxes (faces: the nz + 1 z-face weights, None
    for ones), and the weights of the wall values in the first/last z row."""
    n = g.nz - 1 if wall == "zface" else g.nz
    s = np.ones(n + 1) if faces is None else faces
    # Interior faces: s_f (f_k - f_{k-1}) enters rows k - 1 and k.
    dzz = np.zeros((n, n))
    for f in range(1, n):
        dzz[f - 1, f - 1] -= s[f]
        dzz[f - 1, f] += s[f]
        dzz[f, f] -= s[f]
        dzz[f, f - 1] += s[f]
    wall_weight = np.zeros(2)
    # Wall faces: s_w (ghost - f_end) with the closure's ghost.
    for end, nxt in ((0, 1), (-1, -2)):
        sw = s[end]
        if wall == "mirror":  # ghost 2g - f0
            dzz[end, end] -= 2.0 * sw
            wall_weight[end] = 2.0 * sw
        elif wall == "extrapolate":  # ghost (8g - 6 f0 + f1)/3
            dzz[end, end] -= 3.0 * sw
            dzz[end, nxt] += sw / 3.0
            wall_weight[end] = 8.0 / 3.0 * sw
        elif wall == "zface":  # the wall value is held at zero
            dzz[end, end] -= sw
        # pinned: ghost f0, the wall flux vanishes
    dxx = -2.0 * np.eye(g.nx) + np.roll(np.eye(g.nx), 1, axis=1) + np.roll(np.eye(g.nx), -1, axis=1)
    lap = np.kron(dxx, np.eye(n)) / g.dx ** 2 + np.kron(np.eye(g.nx), dzz) / g.dz ** 2
    return a * np.eye(g.nx * n) - c * lap, c * wall_weight / g.dz ** 2


@pytest.mark.parametrize(
    "nx, nz, Lx",
    [(4, 32, 1.0), (64, 32, 1.0), (16, 128, 1.0), (5, 12, 1.0), (6, 16, 2.5)],
    ids=["4-32", "64-32", "16-128", "5-12", "6-16-Lx2.5"],
)
def test_zoperator_solve_matches_dense_reference(nx, nz, Lx) -> None:
    g = Grid(nx, nz, Lx)
    rng = np.random.default_rng(nx + nz)
    bottom, top = rng.standard_normal(nx), rng.standard_normal(nx)
    weights = rng.uniform(0.5, 2.0, nz + 1)
    for wall, c, a, faces in (
        ("pinned", -1.0, 0.0, None),
        ("extrapolate", 0.05, 1.0, None),
        ("extrapolate", 1.0, 0.0, None),
        ("mirror", 0.05, 1.0, None),
        ("zface", 0.05, 1.0, None),
        ("mirror", 0.05, 1.0, weights),
        ("mirror", 1.0, 0.0, weights),
        ("extrapolate", 0.05, 1.0, weights),
        ("pinned", -1.0, 0.0, weights),
    ):
        n = nz - 1 if wall == "zface" else nz
        vals = rng.standard_normal((nx, n))
        mat, wall_coef = _dense_operator(g, c, wall, a, faces)
        rhs = vals.copy()
        rhs[:, 0] += wall_coef[0] * bottom
        rhs[:, -1] += wall_coef[1] * top
        if wall == "pinned":
            # Zero-mean data; the kx = 0 mode is pinned by sum_i f[i, 0] = 0.
            vals -= vals.mean()
            rhs = vals.copy()
            mat[0] = 0.0
            mat[0, ::n] = 1.0
            rhs[0, 0] = 0.0
        ref = np.linalg.solve(mat, rhs.ravel()).reshape(nx, n)
        got = _ZOperator(g, c, wall, a, faces).solve(vals, bottom, top)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (wall, a, faces is None)


@pytest.mark.parametrize("nx", range(4, 10))
def test_dft_matrices_match_numpy_fft(nx) -> None:
    g = Grid(nx, 4)
    m = nx // 2 + 1
    fwd, inverse = g._dft
    assert fwd.shape == (2 * m, nx) and inverse.shape == (nx, 2 * m)
    assert g._dft is g._dft
    rng = np.random.default_rng(nx)
    v = rng.standard_normal((nx, 3))
    spec = np.fft.rfft(v, axis=0)
    scale = np.max(np.abs(spec))
    got = fwd @ v
    assert np.max(np.abs(got[:m] - spec.real)) <= 1e-14 * scale
    assert np.max(np.abs(got[m:] - spec.imag)) <= 1e-14 * scale
    # Any spectrum, stored as (real, imaginary) pairs mode by mode; irfft
    # drops the imaginary parts of mode 0 and of an even nx's Nyquist mode.
    X = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    want = np.fft.irfft(X, n=nx, axis=0)
    pairs = np.stack([X.real, X.imag], axis=1).reshape(2 * m, 3)
    assert np.max(np.abs(inverse @ pairs - want)) <= 1e-14 * np.max(np.abs(X))
    assert not inverse[:, 1].any()
    assert inverse[:, -1].any() == (nx % 2 == 1)
    # Round trip through the rfft layout.
    back = inverse @ np.stack([got[:m], got[m:]], axis=1).reshape(2 * m, 3)
    assert np.max(np.abs(back - v)) <= 1e-14 * np.max(np.abs(v))


_DETERMINISM_SCRIPT = """
import sys
import numpy as np
from bll.grid import Grid, ScalarField, _zop
from bll.ob import ObScenario, gravity_potential, run_ob
from bll.thermo import EosParams

g = Grid(4, 32)
T0 = ScalarField.from_function(g, lambda x, z: 0.2 * (1 - z) + 0.05 * np.sin(np.pi * z) * np.cos(2 * np.pi * x))
sc = ObScenario(grid=g, eos=EosParams(kappa0=0.5), G=gravity_potential(g, 1.0),
                theta_b_bottom=0.2, T0=T0, dt=1e-3, t_end=0.02)
final = run_ob(sc).states[-1]
rng = np.random.default_rng(3)
big = Grid(64, 32)
x = _zop(big, 0.01, "extrapolate").solve(rng.standard_normal((64, 32)), rng.standard_normal(64), 0.5)
with open(sys.argv[1], "wb") as fh:
    for arr in (final.temp.values, final.U.u, final.U.w, final.Pi.values, x):
        fh.write(arr.tobytes())
"""


def test_solves_are_byte_identical_across_blas_threads(tmp_path) -> None:
    # The x-transforms and per-mode inverses are BLAS products: their bytes
    # must not depend on how many threads BLAS runs.
    outs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.bin"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT, str(path)], env=env, check=True)
        outs.append(path.read_bytes())
    assert len(outs[0]) == 8 * (3 * 4 * 32 + 4 * 33 + 64 * 32)
    assert outs[0] == outs[1]


def test_z_operators_are_cached_per_grid() -> None:
    g = Grid(8, 8)
    op = _zop(g, 0.1, "extrapolate")
    assert _zop(g, 0.1, "extrapolate") is op
    assert _zop(g, 0.1, "mirror") is not op
    assert _zop(Grid(8, 8), 0.1, "extrapolate") is not op
    assert op.unit_source is op.unit_source
    ones = ScalarField(g, np.ones((8, 8)))
    assert np.array_equal(op.unit_source, helmholtz_solve(ones, 0.1).values)
    walls = helmholtz_solve(ScalarField.zeros(g), 0.1, 1.0, 1.0)
    assert np.array_equal(op.unit_wall, walls.values)


def _ob_column(g):
    # Asymmetric walls, so the mean moves and the two targets of
    # compare_modified_vs_naive differ (no coincidence warning).
    T0 = ScalarField.from_function(g, lambda x, z: 0.5 * (1.0 - z) ** 2)
    return ObScenario(g, EosParams(), G=gravity_potential(g, 1.0), theta_b_bottom=0.5,
                      theta_b_top=0.0, dt=1e-3, t_end=0.004, T0=T0)


def _step_ob(g):
    sc = _ob_column(g)
    return step_ob(build_initial_ob(sc), sc, sc.dt)


def _nsf_column(g):
    return NsfScenario(g, EosParams(), 0.2, G=gravity_potential(g, 1.0), theta_b_bottom=0.2,
                       theta_b_top=-0.2, t_end=0.004)


def _step_nsf(g):
    sc = _nsf_column(g)
    return step_nsf(build_initial_nsf(sc), sc, 1e-4)


_RUNS = {
    "run_ob": lambda g: run_ob(_ob_column(g)),
    "run_ob_theta": lambda g: run_ob(_ob_column(g), THETA_FRAME),
    "run_nsf": lambda g: run_nsf(_nsf_column(g)),
    "sweep": lambda g: sweep(_ob_column(g), [0.2], snapshot_dt=0.002),
    "compare": lambda g: compare_modified_vs_naive(_ob_column(g), 0.2, snapshot_dt=0.002),
    "step_ob": _step_ob,
    "step_nsf": _step_nsf,
}


@pytest.mark.parametrize("run", list(_RUNS))
def test_grid_and_its_cache_die_with_the_last_reference(run) -> None:
    # Nothing a run caches on its grid (the z-operators, their unit
    # responses, the DFT matrices) refers back to the grid, so reference
    # counting alone frees the grid once the caller drops the results.
    gc.disable()
    try:
        g = Grid(8, 8)
        ref = weakref.ref(g)
        result = _RUNS[run](g)
        assert g._zops or run == "step_nsf"  # every other run caches operators
        del g, result
        assert ref() is None
    finally:
        gc.enable()


def test_zoperator_scalar_zero_walls_match_zero_arrays() -> None:
    # A scalar zero wall is skipped without being expanded to an array; the
    # solution is the one the zero arrays give, bit for bit.
    g = Grid(8, 12)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((8, 12))
    zeros = np.zeros(8)
    for wall in ("extrapolate", "mirror"):
        op = _zop(g, 0.1, wall)
        want = op.solve(vals, zeros, zeros)
        assert np.array_equal(op.solve(vals), want)
        assert np.array_equal(op.solve(vals, 0, 0.0), want)
        wb = rng.standard_normal(8)
        assert np.array_equal(op.solve(vals, wb, 0.0), op.solve(vals, wb, zeros))
        assert np.array_equal(op.solve(vals, 0.25, 0.0), op.solve(vals, np.full(8, 0.25), zeros))


@pytest.mark.parametrize("nx", [4, 5, 8])
def test_zoperator_buffered_solve_matches_allocating_bitwise(nx) -> None:
    # One workspace serves every solve of an operator: reused across data,
    # walls and a None right-hand side, written into a strided out or into
    # the data array itself, the solve equals the allocating one bit for bit
    # for all four closures with zero, scalar and per-x walls.
    nz = 9
    g = Grid(nx, nz)
    rng = np.random.default_rng(40 + nx)
    for wall, c, a in (("pinned", -1.0, 0.0), ("extrapolate", 0.05, 1.0), ("mirror", 0.05, 1.0), ("zface", 0.05, 1.0)):
        op = _ZOperator(g, c, wall, a)
        n = nz - 1 if wall == "zface" else nz
        work = op.workspace()
        for walls in ((0.0, 0.0), (0.3, -1.25), (rng.standard_normal(nx), rng.standard_normal(nx))):
            for vals in (rng.standard_normal((nx, n)), None):
                want = op.solve(vals, *walls)
                assert np.array_equal(op.solve(vals, *walls, work=work), want), wall
                padded = np.full((nx, n + 2), np.nan)
                got = op.solve(vals, *walls, out=padded[:, 1:-1], work=work)
                assert got.base is padded and np.array_equal(padded[:, 1:-1], want), wall
                assert np.isnan(padded[:, [0, -1]]).all()
                if vals is not None:
                    data = vals.copy()
                    assert np.array_equal(op.solve(data, *walls, out=data, work=work), want), wall


def test_poisson_zero_rhs() -> None:
    g = Grid(8, 8)
    phi, m = poisson_solve(ScalarField.zeros(g))
    assert np.max(np.abs(phi.values)) <= 1e-14
    assert m == 0.0


def test_poisson_roundtrip_discrete_operator() -> None:
    g = Grid(32, 16)
    f = ScalarField.from_function(g, lambda x, z: np.cos(2 * np.pi * x) * np.cos(np.pi * z))
    rhs = laplacian(f, None)
    phi, _ = poisson_solve(rhs)
    target = f.values - np.mean(f.values)
    assert np.max(np.abs(phi.values - target)) <= 1e-10


def test_poisson_reports_removed_mean() -> None:
    g = Grid(8, 8)
    rhs = ScalarField(g, np.full((8, 8), 1.5))
    phi, m = poisson_solve(rhs)
    assert m == pytest.approx(1.5)
    assert np.max(np.abs(phi.values)) <= 1e-12


def test_poisson_then_grad_then_div_reproduces_rhs() -> None:
    g = Grid(24, 20)
    rng = np.random.default_rng(9)
    rhs = ScalarField(g, rng.standard_normal((24, 20)))
    phi, m = poisson_solve(rhs)
    back = div(grad(phi)).values
    assert np.max(np.abs(back - (rhs.values - m))) <= 1e-10


def test_poisson_continuum_convergence_second_order() -> None:
    errs = []
    for n in (16, 32):
        g = Grid(2 * n, n)
        exact = ScalarField.from_function(
            g, lambda x, z: np.cos(2 * np.pi * x) * np.cos(np.pi * z)
        )
        rhs = ScalarField.from_function(
            g,
            lambda x, z: -(4 * np.pi ** 2 + np.pi ** 2)
            * np.cos(2 * np.pi * x)
            * np.cos(np.pi * z),
        )
        phi, _ = poisson_solve(rhs)
        errs.append(np.max(np.abs(phi.values - (exact.values - np.mean(exact.values)))))
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_helmholtz_trivial_and_constant() -> None:
    g = Grid(8, 8)
    out = helmholtz_solve(ScalarField.zeros(g), 0.3, 0.0, 0.0)
    assert np.max(np.abs(out.values)) <= 1e-14
    ones = ScalarField(g, np.ones((8, 8)))
    out = helmholtz_solve(ones, 0.7, 1.0, 1.0)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-12


def _apply_center_dirichlet(vals, g, c, bb, bt):
    """(I - c lap) with the quadratic-extrapolation wall ghosts."""
    ghost_b = (8.0 * bb - 6.0 * vals[:, 0] + vals[:, 1]) / 3.0
    ghost_t = (8.0 * bt - 6.0 * vals[:, -1] + vals[:, -2]) / 3.0
    padded = np.concatenate([ghost_b[:, None], vals, ghost_t[:, None]], axis=1)
    lap = (
        (np.roll(vals, -1, axis=0) - 2 * vals + np.roll(vals, 1, axis=0)) / g.dx ** 2
        + (padded[:, 2:] - 2 * vals + padded[:, :-2]) / g.dz ** 2
    )
    return vals - c * lap


def test_helmholtz_roundtrip_discrete_operator() -> None:
    g = Grid(32, 16)
    gstar = ScalarField.from_function(g, lambda x, z: np.sin(2 * np.pi * x) * np.sin(np.pi * z))
    c = 0.05
    zero = np.zeros(32)
    f = ScalarField(g, _apply_center_dirichlet(gstar.values, g, c, zero, zero))
    out = helmholtz_solve(f, c, 0.0, 0.0)
    assert np.max(np.abs(out.values - gstar.values)) <= 1e-10


def test_helmholtz_xface_roundtrip_mirror_operator() -> None:
    g = Grid(32, 16)
    u = ScalarField.from_function(g, lambda x, z: np.cos(2 * np.pi * x) * z * (1 - z)).values
    c = 0.05
    padded = np.concatenate([-u[:, :1], u, -u[:, -1:]], axis=1)
    lap = (
        (np.roll(u, -1, axis=0) - 2 * u + np.roll(u, 1, axis=0)) / g.dx ** 2
        + (padded[:, 2:] - 2 * u + padded[:, :-2]) / g.dz ** 2
    )
    f = ScalarField(g, u - c * lap, Staggering.XFACE)
    out = helmholtz_solve(f, c, 0.0, 0.0)
    assert np.max(np.abs(out.values - u)) <= 1e-10


def test_helmholtz_x_dependent_wall_values() -> None:
    g = Grid(32, 16)
    rng = np.random.default_rng(2)
    f = ScalarField(g, rng.standard_normal((32, 16)))
    bb = 0.5 + 0.25 * np.cos(2 * np.pi * g.x_centers)
    bt = -0.1 * np.ones(32)
    c = 0.02
    out = helmholtz_solve(f, c, bb, bt)
    resid = _apply_center_dirichlet(out.values, g, c, bb, bt) - f.values
    assert np.max(np.abs(resid)) <= 1e-10


def test_helmholtz_conservative_flux_is_quadratic_stencil() -> None:
    # summing (I - c lap) g = f over cells: (mean(g) - mean(f)) |Omega| / c
    # must equal the boundary integral of the one-sided quadratic derivative.
    g = Grid(16, 24)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.standard_normal((16, 24)))
    bb = 0.3 * np.sin(2 * np.pi * g.x_centers)
    bt = np.full(16, -0.2)
    c = 0.03
    out = helmholtz_solve(f, c, bb, bt).values
    lhs = (np.mean(out) - np.mean(f.values)) * g.volume / c
    dn_b = (-8 * bb / 3 + 3 * out[:, 0] - out[:, 1] / 3) / g.dz
    dn_t = (8 * bt / 3 - 3 * out[:, -1] + out[:, -2] / 3) / g.dz
    rhs = g.dx * np.sum(dn_t - dn_b)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_helmholtz_continuum_convergence_second_order() -> None:
    c = 0.1
    errs = []
    for n in (16, 32):
        g = Grid(2 * n, n)
        exact = ScalarField.from_function(
            g, lambda x, z: np.sin(2 * np.pi * x) * np.sin(np.pi * z)
        )
        f = ScalarField.from_function(
            g,
            lambda x, z: (1 + c * (4 * np.pi ** 2 + np.pi ** 2))
            * np.sin(2 * np.pi * x)
            * np.sin(np.pi * z),
        )
        out = helmholtz_solve(f, c, 0.0, 0.0)
        errs.append(np.max(np.abs(out.values - exact.values)))
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_helmholtz_zface_roundtrip() -> None:
    g = Grid(16, 12)
    X = g.x_centers[:, None]
    Zf = g.z_faces[None, :]
    wstar = np.sin(2 * np.pi * X) * np.sin(np.pi * Zf)
    wstar[:, 0] = 0.0
    wstar[:, -1] = 0.0
    c = 0.04
    lap = np.zeros_like(wstar)
    lap[:, 1:-1] = (
        (np.roll(wstar, -1, axis=0) - 2 * wstar + np.roll(wstar, 1, axis=0))[:, 1:-1] / g.dx ** 2
        + (wstar[:, 2:] - 2 * wstar[:, 1:-1] + wstar[:, :-2]) / g.dz ** 2
    )
    f = ScalarField(g, wstar - c * lap, Staggering.ZFACE)
    out = helmholtz_solve_zface(f, c)
    assert np.max(np.abs(out.values - wstar)) <= 1e-10
    assert np.all(out.values[:, 0] == 0.0)
    assert np.all(out.values[:, -1] == 0.0)


def test_helmholtz_parameter_validation() -> None:
    g = Grid(8, 8)
    with pytest.raises(DomainError):
        helmholtz_solve(ScalarField.zeros(g), -1.0)
    with pytest.raises(DomainError):
        helmholtz_solve(ScalarField.zeros(g), float("nan"))
    with pytest.raises(DomainError):
        helmholtz_solve_zface(ScalarField.zeros(g, Staggering.ZFACE), float("nan"))
    with pytest.raises(ShapeError):
        helmholtz_solve(ScalarField.zeros(g, Staggering.ZFACE), 0.1)


def test_profile_csv(tmp_path) -> None:
    # Profiles are written by the shared table writer: header row, then one
    # row per sample.
    _write_table(tmp_path, "profile", ["z", "rho"], [np.array([0.0, 0.5]), np.array([1.0, 2.0])],
                 ("csv",))
    lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "z,rho"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0]
    assert not (tmp_path / "profile.dat").exists()
