from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bll.cli import _write_table
from bll.errors import DomainError, ShapeError
from bll.grid import (
    DirichletZ,
    Grid,
    NeumannZ,
    ScalarField,
    Staggering,
    VectorField,
    div,
    grad,
    helmholtz_solve,
    helmholtz_solve_zface,
    mean,
    poisson_solve,
)
from bll.grid import _wall_array, _ZOperator, _zop


def _ghost_pad_z(vals, bc, nx):
    """(nx, nz+2) array with the reflection ghost rows of the z boundary spec."""
    if isinstance(bc, NeumannZ):
        bottom = vals[:, :1]
        top = vals[:, -1:]
    else:
        bottom = (2.0 * _wall_array(bc.bottom, nx))[:, None] - vals[:, :1]
        top = (2.0 * _wall_array(bc.top, nx))[:, None] - vals[:, -1:]
    return np.concatenate([bottom, vals, top], axis=1)


def laplacian(f, bc):
    """Oracle: five-point Laplacian of a center field, periodic in x, with
    the reflection ghosts in z."""
    g = f.grid
    vals = f.values
    padded = _ghost_pad_z(vals, bc, g.nx)
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


def test_grad_of_constant_is_zero() -> None:
    g = Grid(8, 8)
    v = grad(ScalarField(g, np.full((8, 8), 2.0)), NeumannZ())
    assert np.all(v.u == 0.0)
    assert np.all(v.w == 0.0)


def test_div_grad_equals_laplacian_all_cells() -> None:
    g = Grid(16, 12)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.standard_normal((16, 12)))
    for bc in (NeumannZ(), DirichletZ(0.7, -0.2)):
        lhs = div(grad(f, bc)).values
        rhs = laplacian(f, bc).values
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
        num = laplacian(f, DirichletZ(0.0, 0.0))
        errs.append(np.max(np.abs(num.values[:, 1:-1] - exact.values[:, 1:-1])))
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.9


def test_discrete_duality_grad_div() -> None:
    g = Grid(12, 10)
    f, v = random_fields(g, seed=5)
    gf = grad(f, NeumannZ())
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


@pytest.mark.parametrize("nx, nz", [(4, 32), (64, 32), (16, 128)])
def test_zoperator_solve_matches_dense_reference(nx, nz) -> None:
    g = Grid(nx, nz)
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


def test_z_operators_are_cached_per_grid() -> None:
    g = Grid(8, 8)
    op = _zop(g, 0.1, "extrapolate")
    assert _zop(g, 0.1, "extrapolate") is op
    assert _zop(g, 0.1, "mirror") is not op
    assert _zop(Grid(8, 8), 0.1, "extrapolate") is not op
    assert op.unit_source is op.unit_source
    ones = ScalarField(g, np.ones((8, 8)))
    assert np.array_equal(op.unit_source.values, helmholtz_solve(ones, 0.1).values)
    walls = helmholtz_solve(ScalarField.zeros(g), 0.1, DirichletZ(1.0, 1.0))
    assert np.array_equal(op.unit_wall.values, walls.values)


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


def test_poisson_zero_rhs() -> None:
    g = Grid(8, 8)
    phi, m = poisson_solve(ScalarField.zeros(g))
    assert np.max(np.abs(phi.values)) <= 1e-14
    assert m == 0.0


def test_poisson_roundtrip_discrete_operator() -> None:
    g = Grid(32, 16)
    f = ScalarField.from_function(g, lambda x, z: np.cos(2 * np.pi * x) * np.cos(np.pi * z))
    rhs = laplacian(f, NeumannZ())
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
    back = div(grad(phi, NeumannZ())).values
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
    out = helmholtz_solve(ScalarField.zeros(g), 0.3, DirichletZ(0.0, 0.0))
    assert np.max(np.abs(out.values)) <= 1e-14
    ones = ScalarField(g, np.ones((8, 8)))
    out = helmholtz_solve(ones, 0.7, DirichletZ(1.0, 1.0))
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
    out = helmholtz_solve(f, c, DirichletZ(0.0, 0.0))
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
    out = helmholtz_solve(f, c, DirichletZ(0.0, 0.0))
    assert np.max(np.abs(out.values - u)) <= 1e-10


def test_helmholtz_x_dependent_wall_values() -> None:
    g = Grid(32, 16)
    rng = np.random.default_rng(2)
    f = ScalarField(g, rng.standard_normal((32, 16)))
    bb = 0.5 + 0.25 * np.cos(2 * np.pi * g.x_centers)
    bt = -0.1 * np.ones(32)
    c = 0.02
    out = helmholtz_solve(f, c, DirichletZ(bb, bt))
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
    out = helmholtz_solve(f, c, DirichletZ(bb, bt)).values
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
        out = helmholtz_solve(f, c, DirichletZ(0.0, 0.0))
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
