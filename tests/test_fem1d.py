import hashlib

import numpy as np
import pytest
import scipy.linalg

from randstep.fem1d import (
    LOAD_POINTS,
    NONLINEARITY_POINTS,
    Mesh,
    TriDiag,
    _element_values,
    _qsum,
    assemble_mass,
    assemble_nonlinearity,
    assemble_nonlinearity_jacobian,
    assemble_stiffness,
    l2_error,
    l2_project,
    load_vector,
    tridiag_solve,
)
from randstep.pde_solver import forcing_energy
from randstep.problems import (
    SawtoothSpec,
    TruncatedPowerSpec,
    b_trunc,
    b_trunc_prime,
    pde_exact,
    semilinear_heat_problem,
)
from randstep.rand_nodes import TimeGrid

from oracles import dense


def dense_gauss_solve(a, b):
    """Hand-rolled dense elimination with partial pivoting (test oracle)."""
    a = a.copy()
    b = b.copy()
    n = len(b)
    for i in range(n):
        p = i + int(np.argmax(np.abs(a[i:, i])))
        a[[i, p]] = a[[p, i]]
        b[[i, p]] = b[[p, i]]
        for r in range(i + 1, n):
            f = a[r, i] / a[i, i]
            a[r, i:] -= f * a[i, i:]
            b[r] -= f * b[i]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def test_mass_entries():
    assert np.allclose(assemble_mass(Mesh(1)).diag, [1.0 / 3.0], rtol=1e-14)
    m3 = assemble_mass(Mesh(3))
    assert np.allclose(m3.diag, 1.0 / 6.0, rtol=1e-14)
    assert np.allclose(m3.sub, 1.0 / 24.0, rtol=1e-14)
    assert np.array_equal(m3.sub, m3.sup)


def test_mass_row_sums():
    mesh = Mesh(9)
    sums = dense(assemble_mass(mesh)).sum(axis=1)
    # hats partition unity away from the boundary rows
    assert np.allclose(sums[1:-1], mesh.spacing, rtol=1e-14)


def test_stiffness_entries():
    assert np.allclose(assemble_stiffness(Mesh(1)).diag, [4.0], rtol=1e-14)
    mesh = Mesh(7)
    s = assemble_stiffness(mesh)
    assert np.allclose(s.diag, 2.0 / mesh.spacing, rtol=1e-14)
    assert np.allclose(s.sub, -1.0 / mesh.spacing, rtol=1e-14)


def test_stiffness_kills_constants_interior():
    mesh = Mesh(9)
    out = assemble_stiffness(mesh).matvec(np.ones(9))
    assert np.allclose(out[1:-1], 0.0, atol=1e-12)


def test_spd_cholesky():
    for mesh in (Mesh(5), Mesh(31)):
        for mat in (assemble_mass(mesh), assemble_stiffness(mesh)):
            np.linalg.cholesky(dense(mat))  # raises if not SPD


def test_generalized_eigenvalue_pi_squared():
    mesh = Mesh(31)
    s = dense(assemble_stiffness(mesh))
    m = dense(assemble_mass(mesh))
    smallest = scipy.linalg.eigh(s, m, eigvals_only=True)[0]
    assert abs(smallest - np.pi**2) / np.pi**2 < 0.005


def test_tridiag_solve_identity():
    m = 6
    eye = TriDiag(np.zeros(m - 1), np.ones(m), np.zeros(m - 1))
    rhs = np.arange(1.0, m + 1)
    assert np.array_equal(tridiag_solve(eye, rhs), rhs)


def test_tridiag_solve_inverse_consistency():
    mesh = Mesh(12)
    mass = assemble_mass(mesh)
    v = np.random.default_rng(0).normal(size=12)
    x = tridiag_solve(mass, mass.matvec(v))
    assert np.abs(x - v).max() < 1e-12 * max(1.0, np.abs(v).max())


def test_tridiag_solve_vs_dense_oracle():
    rng = np.random.default_rng(42)
    for m in (8, 17, 33, 64):
        sub = rng.uniform(0.1, 0.9, m - 1)
        diag = rng.uniform(2.5, 4.0, m)  # diagonally dominant SPD
        a = TriDiag(sub, diag, sub.copy())
        rhs = rng.normal(size=m)
        x = tridiag_solve(a, rhs)
        oracle = dense_gauss_solve(dense(a), rhs)
        assert np.abs(x - oracle).max() < 1e-10


def test_tridiag_solve_residual_bound():
    rng = np.random.default_rng(3)
    mesh = Mesh(40)
    a = assemble_mass(mesh).plus(assemble_stiffness(mesh), scale=0.01)
    rhs = rng.normal(size=40)
    x = tridiag_solve(a, rhs)
    eps = np.finfo(float).eps
    assert np.abs(a.matvec(x) - rhs).max() <= 1e3 * eps * np.abs(rhs).max()


def test_batched_tridiag_solve_equals_each_block():
    # one dgtsv on the block-diagonal system must give every block the
    # bits of its own dgtsv call, for batched bands and for shared bands
    rng = np.random.default_rng(11)
    r, m = 6, 17
    sub = rng.uniform(0.1, 0.9, (r, m - 1))
    sup = rng.uniform(0.1, 0.9, (r, m - 1))
    diag = rng.uniform(1.0, 4.0, (r, m))
    rhs = rng.normal(size=(r, m))
    x = tridiag_solve(TriDiag(sub, diag, sup), rhs)
    shared = tridiag_solve(TriDiag(sub[0], diag[0], sup[0]), rhs)
    for i in range(r):
        own = scipy.linalg.lapack.dgtsv(sub[i], diag[i], sup[i], rhs[i])[3]
        assert np.array_equal(x[i], own)
        own = scipy.linalg.lapack.dgtsv(sub[0], diag[0], sup[0], rhs[i])[3]
        assert np.array_equal(shared[i], own)


def test_batched_assembly_equals_single_rows():
    spec = TruncatedPowerSpec(cap=0.8, power=4.0)
    mesh = Mesh(13)
    c = np.random.default_rng(9).normal(size=(2, 3, 13))
    b = lambda u: b_trunc(spec, u)
    nv = assemble_nonlinearity(mesh, b, c)
    jac = assemble_nonlinearity_jacobian(mesh, lambda u: b_trunc_prime(spec, u), c)
    err = l2_error(mesh, c, lambda x: np.sin(np.pi * x))
    mass = assemble_mass(mesh)
    for i in np.ndindex(2, 3):
        assert np.array_equal(nv[i], assemble_nonlinearity(mesh, b, c[i]))
        one = assemble_nonlinearity_jacobian(mesh, lambda u: b_trunc_prime(spec, u), c[i])
        for band in ("sub", "diag", "sup"):
            assert np.array_equal(getattr(jac, band)[i], getattr(one, band))
        assert err[i] == l2_error(mesh, c[i], lambda x: np.sin(np.pi * x))
        assert np.array_equal(mass.matvec(c)[i], mass.matvec(c[i]))


def test_tridiag_singular_system_raises():
    # rank-deficient [[1, 1], [1, 1]] hits a zero pivot in the elimination
    a = TriDiag(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        tridiag_solve(a, np.array([1.0, 2.0]))


def test_projection_identity_on_basis():
    mesh = Mesh(7)

    def hat(j):
        def f(x):
            return np.maximum(0.0, 1.0 - np.abs(x - j * mesh.spacing) / mesh.spacing)

        return f

    for j in (1, 4, 7):
        coeffs = l2_project(mesh, hat(j))
        unit = np.zeros(7)
        unit[j - 1] = 1.0
        assert np.abs(coeffs - unit).max() < 1e-12


def test_projection_of_zero():
    assert np.array_equal(l2_project(Mesh(5), lambda x: np.zeros_like(x)), np.zeros(5))


def test_projection_convergence_order():
    errors = []
    hs = []
    for m in (15, 31, 63):
        mesh = Mesh(m)
        proj = l2_project(mesh, lambda x: np.sin(np.pi * x))
        errors.append(l2_error(mesh, proj, lambda x: np.sin(np.pi * x)))
        hs.append(mesh.spacing)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_projection_beats_interpolation():
    mesh = Mesh(21)
    fn = lambda x: np.sin(np.pi * x)
    proj_err = l2_error(mesh, l2_project(mesh, fn), fn)
    nodes = np.arange(1, 22) * mesh.spacing
    interp_err = l2_error(mesh, fn(nodes), fn)
    assert proj_err <= interp_err


def test_error_norms_closed_forms():
    mesh = Mesh(40)
    zero = np.zeros(40)
    assert abs(l2_error(mesh, zero, lambda x: np.sin(np.pi * x)) - 1 / np.sqrt(2)) < 1e-6


def test_error_of_elementwise_linear_exact():
    # interpolant of a piecewise-linear function with grid-aligned kink:
    # the error vanishes to quadrature precision
    mesh = Mesh(7)
    nodes = np.arange(1, 8) * mesh.spacing
    field = np.minimum(nodes, 1.0 - nodes)

    def exact(x):
        return np.minimum(x, 1.0 - x)

    assert l2_error(mesh, field, exact) < 1e-15


def test_discrete_norm_matches_quadrature():
    # sqrt(c^T M c) equals the L2 norm of the P1 function exactly
    mesh = Mesh(11)
    c = np.random.default_rng(5).normal(size=11)
    mass_norm = np.sqrt(c @ assemble_mass(mesh).matvec(c))
    quad_norm = l2_error(mesh, c, lambda x: np.zeros_like(x))
    assert abs(mass_norm - quad_norm) < 1e-14


def test_nonlinearity_linear_reduces_to_mass():
    mesh = Mesh(9)
    c = np.random.default_rng(1).normal(size=9)
    nv = assemble_nonlinearity(mesh, lambda u: u, c)
    assert np.abs(nv - assemble_mass(mesh).matvec(c)).max() < 1e-14


def test_nonlinearity_constant_gives_h():
    mesh = Mesh(9)
    c = np.random.default_rng(2).normal(size=9)
    nv = assemble_nonlinearity(mesh, lambda u: np.ones_like(u), c)
    assert np.allclose(nv, mesh.spacing, rtol=1e-14)


def test_nonlinearity_jacobian_vs_central_differences():
    spec = TruncatedPowerSpec(cap=0.8, power=4.0)
    mesh = Mesh(9)
    c = np.random.default_rng(7).normal(size=9)
    jac = dense(assemble_nonlinearity_jacobian(mesh, lambda u: b_trunc_prime(spec, u), c))
    eps = 1e-6
    fd = np.zeros((9, 9))
    for j in range(9):
        cp, cm = c.copy(), c.copy()
        cp[j] += eps
        cm[j] -= eps
        fd[:, j] = (
            assemble_nonlinearity(mesh, lambda u: b_trunc(spec, u), cp)
            - assemble_nonlinearity(mesh, lambda u: b_trunc(spec, u), cm)
        ) / (2 * eps)
    assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-6


def test_load_vector_constant():
    mesh = Mesh(10)
    load = load_vector(mesh, lambda x: np.ones_like(x))
    assert np.allclose(load, mesh.spacing, rtol=1e-14)


def test_constant_results_are_broadcast():
    # fn may return a constant: the same bits as its array of ones
    mesh = Mesh(10)
    c = np.random.default_rng(4).normal(size=(2, 10))
    load = load_vector(mesh, lambda x: 1.0)
    assert np.array_equal(load, load_vector(mesh, lambda x: np.ones_like(x)))
    nv = assemble_nonlinearity(mesh, lambda u: 1.0, c)
    assert np.array_equal(nv, assemble_nonlinearity(mesh, np.ones_like, c))
    jac = assemble_nonlinearity_jacobian(mesh, lambda u: 1.0, c)
    ones = assemble_nonlinearity_jacobian(mesh, np.ones_like, c)
    for band in ("sub", "diag", "sup"):
        assert np.array_equal(getattr(jac, band), getattr(ones, band))


@pytest.mark.parametrize("quad_points", [2, 3, 4])
def test_qsum_adds_like_the_element_major_sum(quad_points):
    # the bit identity of the quadrature-major kernels rests on numpy
    # summing a short trailing axis in point order
    rng = np.random.default_rng(quad_points)
    values = rng.normal(size=(3, 5, quad_points, 64)) * 10.0 ** rng.integers(
        -8, 8, size=(3, 5, quad_points, 64))
    w = rng.uniform(size=(3, quad_points))
    element_major = np.swapaxes(values, -1, -2)
    sums = _qsum(values, w)
    assert sums.shape == (3, 3, 5, 64)
    for i in range(3):
        assert np.array_equal(sums[i], (element_major * w[i]).sum(axis=-1))


def test_element_values_are_quadrature_major():
    mesh = Mesh(5)
    c = np.random.default_rng(6).normal(size=(2, 5))
    vals = _element_values(mesh, c, 3)
    assert vals.shape == (2, 3, 6)
    # the mid Gauss point of a 3-point rule is the element's midpoint
    c_ext = np.concatenate([np.zeros((2, 1)), c, np.zeros((2, 1))], axis=1)
    assert np.allclose(vals[:, 1], 0.5 * (c_ext[:, :-1] + c_ext[:, 1:]), rtol=1e-15)


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(0)
    with pytest.raises(ValueError):
        TriDiag(np.zeros(3), np.ones(3), np.zeros(2))


def test_error_norms_keep_nan():
    # a NaN in the field must surface as a NaN error, not be clipped to 0
    mesh = Mesh(7)
    f = np.zeros(7)
    f[3] = np.nan
    assert np.isnan(l2_error(mesh, f, lambda x: np.sin(np.pi * x)))
    batch = l2_error(mesh, np.stack([f, np.zeros(7)]), lambda x: np.sin(np.pi * x))
    assert np.isnan(batch[0]) and batch[1] > 0.0
    # an exact field still gives exactly 0
    assert l2_error(mesh, np.zeros(7), lambda x: 0.0 * x) == 0.0


def kernel_digests():
    """sha256 of every FEM kernel's output on a batched (3, 31) field."""
    mesh = Mesh(31)
    saw = SawtoothSpec(3)
    bspec = TruncatedPowerSpec(cap=2.0, power=3.0)
    problem = semilinear_heat_problem(saw, bspec)
    # the field crosses the cap, so both branches of b and b' are taken
    field = 2.0 * np.random.default_rng(9).standard_normal((3, 31))
    t = np.array([0.1, 0.45, 0.8])[:, None, None]
    jac = assemble_nonlinearity_jacobian(mesh, lambda u: b_trunc_prime(bspec, u), field)
    outputs = {
        "load_vector": load_vector(mesh, lambda x: problem.forcing(t, x)),
        "assemble_nonlinearity": assemble_nonlinearity(
            mesh, lambda u: b_trunc(bspec, u), field),
        "jacobian.sub": jac.sub,
        "jacobian.diag": jac.diag,
        "jacobian.sup": jac.sup,
        "l2_error": l2_error(mesh, field, lambda x: pde_exact(saw, t, x)),
        "forcing_energy": np.float64(forcing_energy(problem, mesh, TimeGrid(20))),
    }
    assert outputs["load_vector"].shape == (3, 31)
    assert outputs["l2_error"].shape == (3,)
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in outputs.items()}


# the Gauss rule each kernel integrates with
KERNEL_RULE = {
    "load_vector": LOAD_POINTS,
    "assemble_nonlinearity": NONLINEARITY_POINTS,
    "jacobian.sub": NONLINEARITY_POINTS,
    "jacobian.diag": NONLINEARITY_POINTS,
    "jacobian.sup": NONLINEARITY_POINTS,
    "l2_error": LOAD_POINTS,
    "forcing_energy": LOAD_POINTS,
}

PINNED_KERNEL_BITS = {
    2: {
        "assemble_nonlinearity":
            "34f61911e709781b4ea12053d88f7ca6563b32361bdcbe060d3a0152bca80151",
        "jacobian.sub":
            "affcd7bced21614d3a2ad4d41593ce766212bdb58f5da7c3a6bff213ea78f9fc",
        "jacobian.diag":
            "54d02dceb6d488b98c0636cf4b68d961f12d8f00108e004eb699b8e41afd390c",
        "jacobian.sup":
            "affcd7bced21614d3a2ad4d41593ce766212bdb58f5da7c3a6bff213ea78f9fc",
    },
    4: {
        "load_vector":
            "58f658b3aca4fca7b998ea0ecdda81d146ae7eb98656d671113a378b6df8f7c0",
        "l2_error":
            "e74c9b62acafbdc5cc52359a27216aa464ed1557bdfaa43a0515270fd5f5b31c",
        "forcing_energy":
            "f424f51cfdcf253377b4c92d369ab5bcd72a23f2e76ee58a1bb23a0cf21e1187",
    },
}


@pytest.mark.parametrize("quad_points", [2, 4])
def test_fem_kernel_bits_are_pinned(quad_points):
    # every bit of the kernels on the quad_points-point rule, so a change of
    # their layout or summation order shows here before it reaches a golden
    pinned = PINNED_KERNEL_BITS[quad_points]
    assert set(pinned) == {k for k, q in KERNEL_RULE.items() if q == quad_points}
    digests = kernel_digests()
    assert {k: digests[k] for k in pinned} == pinned
