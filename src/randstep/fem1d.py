"""Uniform P1 finite elements on (0, 1) with homogeneous Dirichlet ends.

All operators are symmetric tridiagonal (the mass and stiffness matrices,
and the Jacobian of the monotone nonlinearity), stored as a diagonal and
one off-diagonal band; solves go through LAPACK's tridiagonal elimination.
Fields, bands and right-hand sides may carry leading batch axes (one row
per replica); every batch row gets exactly the bits it would get alone.
Exact entries on a uniform mesh with spacing h:

    mass       diag 2h/3, off-diagonal h/6
    stiffness  diag 2/h,  off-diagonal -1/h
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

#: Gauss points per element of loads, projections, L2 errors and the
#: forcing energy.
LOAD_POINTS = 4

#: Gauss points per element of the nonlinearity and its Jacobian.
NONLINEARITY_POINTS = 2


@lru_cache(maxsize=None)
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1]; numpy.polynomial loads on first use."""
    return np.polynomial.legendre.leggauss(points)


@lru_cache(maxsize=None)
def _gauss_01(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to the unit interval."""
    nodes, weights = _gauss_legendre(points)
    return 0.5 * (nodes + 1.0), 0.5 * weights


@dataclass(frozen=True)
class _HatRule:
    """Unit Gauss points s and the weights against the hats 1-s and s."""

    s: np.ndarray  # (q, 1)
    one_minus_s: np.ndarray  # (q, 1)
    hats: np.ndarray  # (2, q): w (1-s), w s
    products: np.ndarray  # (3, q): w (1-s)^2, w s^2, w s (1-s)


@lru_cache(maxsize=None)
def _hat_rule(points: int) -> _HatRule:
    s, w = _gauss_01(points)
    return _HatRule(s[:, None], (1.0 - s)[:, None], np.stack([w * (1.0 - s), w * s]),
                    np.stack([w * (1.0 - s) ** 2, w * s**2, w * s * (1.0 - s)]))


@dataclass(frozen=True)
class Mesh:
    """m interior nodes i*h, h = 1/(m+1); the ends carry no unknowns."""

    interior_nodes: int

    def __post_init__(self):
        if self.interior_nodes < 1:
            raise ValueError("need at least one interior node")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.interior_nodes + 1)


@dataclass
class TriDiag:
    """Symmetric tridiagonal matrix stored as its diagonal (m) and its
    off-diagonal band (m-1), which lies both below and above the diagonal.

    Bands with leading batch axes hold one matrix per batch row.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if self.off.shape[-1:] != (self.diag.shape[-1] - 1,):
            raise ValueError("band lengths must be m, m-1")

    def __getitem__(self, rows) -> "TriDiag":
        """The matrices of the batch rows ``rows``."""
        return TriDiag(self.diag[rows], self.off[rows])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with x along its last axis; batch axes broadcast."""
        y = self.diag * x
        y[..., :-1] += self.off * x[..., 1:]
        y[..., 1:] += self.off * x[..., :-1]
        return y

    def plus(self, other: "TriDiag", scale: float = 1.0) -> "TriDiag":
        return TriDiag(self.diag + scale * other.diag, self.off + scale * other.off)


def assemble_mass(mesh: Mesh) -> TriDiag:
    m, h = mesh.interior_nodes, mesh.spacing
    return TriDiag(np.full(m, 2.0 * h / 3.0), np.full(m - 1, h / 6.0))


def assemble_stiffness(mesh: Mesh) -> TriDiag:
    m, h = mesh.interior_nodes, mesh.spacing
    return TriDiag(np.full(m, 2.0 / h), np.full(m - 1, -1.0 / h))


def tridiag_solve(matrix: TriDiag, rhs: np.ndarray) -> np.ndarray:
    """Solve matrix @ x = rhs by LAPACK tridiagonal elimination (dgtsv).

    A batch (rhs of shape (..., m), bands broadcasting against it) is
    solved as one block-diagonal system of size (batch * m).  The
    couplings between blocks are zero, so the elimination of every block
    performs exactly the operations of its own solve.
    """
    # imported here, not at module level: scipy.linalg is most of the
    # package's import time, and only this solve uses it
    from scipy.linalg import lapack

    rhs = np.asarray(rhs, dtype=float)
    if matrix.diag.shape[-1] == 1:
        if np.any(matrix.diag == 0.0):
            raise np.linalg.LinAlgError("singular 1x1 system")
        return rhs / matrix.diag
    shape = max(rhs.shape, matrix.diag.shape, key=len)
    # rows sub, diag, sup, rhs; each block's last sub/sup entry stays 0.
    # dgtsv overwrites its sub and sup rows, so each gets its own copy of off
    system = np.zeros((4,) + shape)
    system[0:3:2, ..., :-1] = matrix.off
    system[1] = matrix.diag
    system[3] = rhs
    flat = system.reshape(4, -1)
    _, _, _, x, info = lapack.dgtsv(flat[0, :-1], flat[1], flat[2, :-1], flat[3],
                                    True, True, True, True)
    if info > 0:
        raise np.linalg.LinAlgError(f"zero pivot in tridiagonal solve (row {info})")
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dgtsv")
    return x.reshape(shape)


def _padded(field) -> np.ndarray:
    """(..., m+2) coefficients with the zero end values of the Dirichlet problem."""
    c = np.asarray(field, dtype=float)
    c_ext = np.zeros(c.shape[:-1] + (c.shape[-1] + 2,))
    c_ext[..., 1:-1] = c
    return c_ext


def _element_values(mesh: Mesh, field, points: int) -> np.ndarray:
    """P1 values at the Gauss points, quadrature-major: shape (..., q, m+1).

    Two points broadcast over the point axis; more write each point's row
    into one array, which is faster on a sweep's blocks of fields at four
    points, with the same bits.
    """
    rule = _hat_rule(points)
    c_ext = _padded(field)
    left, right = c_ext[..., None, :-1], c_ext[..., None, 1:]
    if points <= 2:
        return left * rule.one_minus_s + right * rule.s
    values = np.empty(c_ext.shape[:-1] + (points, c_ext.shape[-1] - 1))
    for j in range(points):
        row = values[..., j : j + 1, :]
        np.multiply(left, rule.one_minus_s[j], out=row)
        row += right * rule.s[j]
    return values


def _qsum(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row i of the (k, ..., m+1) result is v0*w[i, 0] + v1*w[i, 1] + ... over
    the q slices v_j = values[..., j, :], added in point order: the order, and
    so the bits, of numpy's element-major (v * w[i]).sum(axis=-1)."""
    # the k weight sets on the outermost axis keep every product contiguous
    w = w.reshape(w.shape[:1] + (1,) * (values.ndim - 1) + w.shape[1:])
    total = values[..., 0, :] * w[..., 0]
    for j in range(1, w.shape[-1]):
        total += values[..., j, :] * w[..., j]
    return total


def _at_points(fn: Callable, points: np.ndarray) -> np.ndarray:
    """fn(points) as floats, broadcast against the points (fn may return a constant)."""
    vals = np.asarray(fn(points), dtype=float)
    if vals.shape != points.shape:
        vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, points.shape))
    return vals


def _hat_moments(mesh: Mesh, values: np.ndarray, points: int) -> np.ndarray:
    """(int g psi_i dx)_i from g's (..., q, m+1) values at the Gauss points."""
    rule = _hat_rule(points)
    h = mesh.spacing
    left, right = h * _qsum(values, rule.hats)
    return right[..., :-1] + left[..., 1:]


def _element_points(mesh: Mesh, s: np.ndarray) -> np.ndarray:
    """Physical quadrature points per element; shape (q, m+1)."""
    e = np.arange(mesh.interior_nodes + 1)
    return (e + s[:, None]) * mesh.spacing


def _weighted_sum(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum of w * values (..., q, m+1) over both axes, by the element-major
    (..., m+1, q) @ w whose bits the error norms keep (BLAS adds out of order)."""
    return (np.ascontiguousarray(np.swapaxes(values, -1, -2)) @ w).sum(axis=-1)


def load_vector(mesh: Mesh, fn: Callable) -> np.ndarray:
    """(int fn psi_i dx)_i by per-element LOAD_POINTS-point Gauss quadrature.

    ``fn`` must accept the (q, m+1) array of quadrature points in [0, 1]
    (Gauss point by element); leading axes of its result (say one per
    time) carry over to the load, and a constant result is broadcast.
    """
    s, _ = _gauss_01(LOAD_POINTS)
    vals = _at_points(fn, _element_points(mesh, s))
    return _hat_moments(mesh, vals, LOAD_POINTS)


def l2_project(mesh: Mesh, fn: Callable) -> np.ndarray:
    """Nodal coefficients c of the orthogonal projection onto the P1 space,
    from M c = load; the implied boundary values are zero."""
    return tridiag_solve(assemble_mass(mesh), load_vector(mesh, fn))


def l2_error(mesh: Mesh, field, exact: Callable):
    """Composite-Gauss L2 norm of (u_h - exact) over (0, 1), LOAD_POINTS
    points per element.

    A field with leading batch axes gives an array of norms; ``exact``
    may return leading axes that broadcast against them.
    """
    s, w = _gauss_01(LOAD_POINTS)
    x = _element_points(mesh, s)
    diff = _element_values(mesh, field, LOAD_POINTS) - np.asarray(exact(x), dtype=float)
    diff *= diff
    sq = mesh.spacing * _weighted_sum(diff, w)
    # clips tiny negative round-off in the quadrature sums; NaN stays NaN
    return np.sqrt(np.where(sq <= 0.0, 0.0, sq))


def assemble_nonlinearity(mesh: Mesh, b: Callable, field, values=None) -> np.ndarray:
    """(int b(u_h) psi_i dx)_i with NONLINEARITY_POINTS-point Gauss per element;
    ``values`` may hold the field's P1 values at those points, computed once
    for both kernels at one field."""
    if values is None:
        values = _element_values(mesh, field, NONLINEARITY_POINTS)
    bu = _at_points(b, values)
    return _hat_moments(mesh, bu, NONLINEARITY_POINTS)


def assemble_nonlinearity_jacobian(mesh: Mesh, b_prime: Callable, field,
                                   values=None) -> TriDiag:
    """Exact derivative of the quadrature-evaluated nonlinearity vector;
    ``values`` as for ``assemble_nonlinearity``."""
    rule = _hat_rule(NONLINEARITY_POINTS)
    if values is None:
        values = _element_values(mesh, field, NONLINEARITY_POINTS)
    bp = _at_points(b_prime, values)
    h = mesh.spacing
    w_ll, w_rr, w_lr = h * _qsum(bp, rule.products)
    return TriDiag(w_rr[..., :-1] + w_ll[..., 1:], w_lr[..., 1:-1])
