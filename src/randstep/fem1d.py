"""Uniform P1 finite elements on (0, 1) with homogeneous Dirichlet ends.

All operators are tridiagonal; solves go through LAPACK's tridiagonal
elimination.  Fields, bands and right-hand sides may carry leading batch
axes (one row per replica); every batch row gets exactly the bits it
would get alone.  Exact entries on a uniform mesh with spacing h:

    mass       diag 2h/3, off-diagonal h/6
    stiffness  diag 2/h,  off-diagonal -1/h
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_HAT_CACHE: dict[int, "_HatRule"] = {}


def _gauss_01(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to the unit interval."""
    try:
        return _GAUSS_CACHE[points]
    except KeyError:
        nodes, weights = np.polynomial.legendre.leggauss(points)
        rule = (0.5 * (nodes + 1.0), 0.5 * weights)
        _GAUSS_CACHE[points] = rule
        return rule


@dataclass(frozen=True)
class _HatRule:
    """Unit Gauss points s and the weights against the hats 1-s and s."""

    s: np.ndarray
    one_minus_s: np.ndarray
    left: np.ndarray  # w (1-s)
    right: np.ndarray  # w s
    left_left: np.ndarray  # w (1-s)^2
    right_right: np.ndarray  # w s^2
    left_right: np.ndarray  # w s (1-s)


def _hat_rule(points: int) -> _HatRule:
    try:
        return _HAT_CACHE[points]
    except KeyError:
        s, w = _gauss_01(points)
        rule = _HatRule(
            s, 1.0 - s, w * (1.0 - s), w * s, w * (1.0 - s) ** 2, w * s**2,
            w * s * (1.0 - s),
        )
        _HAT_CACHE[points] = rule
        return rule


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

    def node(self, i: int) -> float:
        if not 1 <= i <= self.interior_nodes:
            raise IndexError(f"node index {i} outside 1..{self.interior_nodes}")
        return i * self.spacing

    def interior_points(self) -> np.ndarray:
        return np.arange(1, self.interior_nodes + 1) * self.spacing


@dataclass
class TriDiag:
    """Tridiagonal matrix stored as (sub, diag, sup) bands.

    Bands with leading batch axes hold one matrix per batch row.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        m = self.diag.shape[-1]
        if self.sub.shape[-1:] != (m - 1,) or self.sup.shape[-1:] != (m - 1,):
            raise ValueError("band lengths must be m-1, m, m-1")

    @property
    def size(self) -> int:
        return self.diag.shape[-1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product with x along its last axis; batch axes broadcast."""
        y = self.diag * x
        if self.size > 1:
            y[..., :-1] += self.sup * x[..., 1:]
            y[..., 1:] += self.sub * x[..., :-1]
        return y

    def plus(self, other: "TriDiag", scale: float = 1.0) -> "TriDiag":
        return TriDiag(
            self.sub + scale * other.sub,
            self.diag + scale * other.diag,
            self.sup + scale * other.sup,
        )

    def to_dense(self) -> np.ndarray:
        dense = np.diag(self.diag)
        if self.size > 1:
            dense += np.diag(self.sub, -1) + np.diag(self.sup, 1)
        return dense


@dataclass
class DiscreteField:
    """Nodal values of a P1 function; implied boundary values are zero."""

    coefficients: np.ndarray


def _coeffs(field) -> np.ndarray:
    return np.asarray(getattr(field, "coefficients", field), dtype=float)


def _sqrt_clip(value):
    # clips tiny negative round-off in the quadrature sums; NaN stays NaN
    if np.ndim(value):
        return np.sqrt(np.where(value <= 0.0, 0.0, value))
    return 0.0 if value <= 0.0 else float(np.sqrt(value))


def assemble_mass(mesh: Mesh) -> TriDiag:
    m, h = mesh.interior_nodes, mesh.spacing
    return TriDiag(
        np.full(m - 1, h / 6.0), np.full(m, 2.0 * h / 3.0), np.full(m - 1, h / 6.0)
    )


def assemble_stiffness(mesh: Mesh) -> TriDiag:
    m, h = mesh.interior_nodes, mesh.spacing
    return TriDiag(
        np.full(m - 1, -1.0 / h), np.full(m, 2.0 / h), np.full(m - 1, -1.0 / h)
    )


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
    m = matrix.size
    if m == 1:
        if np.any(matrix.diag == 0.0):
            raise np.linalg.LinAlgError("singular 1x1 system")
        return rhs / matrix.diag
    shape = max(rhs.shape, matrix.diag.shape, key=len)
    # rows sub, diag, sup, rhs; each block's last sub/sup entry stays 0
    system = np.zeros((4,) + shape)
    system[0, ..., :-1] = matrix.sub
    system[1] = matrix.diag
    system[2, ..., :-1] = matrix.sup
    system[3] = rhs
    flat = system.reshape(4, -1)
    _, _, _, x, info = lapack.dgtsv(flat[0, :-1], flat[1], flat[2, :-1], flat[3],
                                    True, True, True, True)
    if info > 0:
        raise np.linalg.LinAlgError(f"zero pivot in tridiagonal solve (row {info})")
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dgtsv")
    return x.reshape(shape)


def _element_values(mesh: Mesh, field, quad_points: int) -> np.ndarray:
    """P1 values on every element at the Gauss points; shape (..., m+1, q)."""
    rule = _hat_rule(quad_points)
    c = _coeffs(field)
    # the zero end values of the Dirichlet problem pad the coefficients
    c_ext = np.zeros(c.shape[:-1] + (c.shape[-1] + 2, 1))
    c_ext[..., 1:-1, 0] = c
    return c_ext[..., :-1, :] * rule.one_minus_s + c_ext[..., 1:, :] * rule.s


def _hat_moments(mesh: Mesh, values: np.ndarray, quad_points: int) -> np.ndarray:
    """(int g psi_i dx)_i from g's values at the Gauss points of every element."""
    rule = _hat_rule(quad_points)
    h = mesh.spacing
    left = h * (values * rule.left).sum(axis=-1)
    right = h * (values * rule.right).sum(axis=-1)
    return right[..., :-1] + left[..., 1:]


def _element_points(mesh: Mesh, s: np.ndarray) -> np.ndarray:
    """Physical quadrature points per element; shape (m+1, q)."""
    e = np.arange(mesh.interior_nodes + 1)[:, None]
    return (e + s[None, :]) * mesh.spacing


def load_vector(mesh: Mesh, fn: Callable, quad_points: int = 4) -> np.ndarray:
    """(int fn psi_i dx)_i by per-element Gauss quadrature.

    ``fn`` must accept the (m+1, q) array of quadrature points in [0, 1];
    leading axes of its result (say one per time) carry over to the load.
    """
    s, _ = _gauss_01(quad_points)
    vals = np.asarray(fn(_element_points(mesh, s)), dtype=float)
    return _hat_moments(mesh, vals, quad_points)


def l2_project(mesh: Mesh, fn: Callable, quad_points: int = 4) -> DiscreteField:
    """Orthogonal projection onto the P1 space: solve M c = load."""
    mass = assemble_mass(mesh)
    return DiscreteField(tridiag_solve(mass, load_vector(mesh, fn, quad_points)))


def l2_error(mesh: Mesh, field, exact: Callable, quad_points: int = 4):
    """Composite-Gauss L2 norm of (u_h - exact) over (0, 1).

    A field with leading batch axes gives an array of norms; ``exact``
    may return leading axes that broadcast against them.
    """
    s, w = _gauss_01(quad_points)
    x = _element_points(mesh, s)
    diff = _element_values(mesh, field, quad_points) - np.asarray(exact(x), dtype=float)
    return _sqrt_clip(mesh.spacing * (diff * diff @ w).sum(axis=-1))


def h1_seminorm_error(
    mesh: Mesh, field, exact_prime: Callable, quad_points: int = 4
) -> float:
    """Composite-Gauss H1 seminorm of (u_h - exact); takes d(exact)/dx."""
    s, w = _gauss_01(quad_points)
    c = _coeffs(field)
    c_ext = np.concatenate(([0.0], c, [0.0]))
    slope = (c_ext[1:] - c_ext[:-1]) / mesh.spacing
    x = _element_points(mesh, s)
    diff = slope[:, None] - np.asarray(exact_prime(x), dtype=float)
    return _sqrt_clip(mesh.spacing * float((diff * diff @ w).sum()))


def assemble_nonlinearity(
    mesh: Mesh, b: Callable, field, quad_points: int = 2
) -> np.ndarray:
    """(int b(u_h) psi_i dx)_i with 2-point Gauss per element."""
    bu = np.asarray(b(_element_values(mesh, field, quad_points)), dtype=float)
    return _hat_moments(mesh, bu, quad_points)


def assemble_nonlinearity_jacobian(
    mesh: Mesh, b_prime: Callable, field, quad_points: int = 2
) -> TriDiag:
    """Exact derivative of the quadrature-evaluated nonlinearity vector."""
    rule = _hat_rule(quad_points)
    bp = np.asarray(b_prime(_element_values(mesh, field, quad_points)), dtype=float)
    h = mesh.spacing
    w_ll = h * (bp * rule.left_left).sum(axis=-1)
    w_rr = h * (bp * rule.right_right).sum(axis=-1)
    w_lr = h * (bp * rule.left_right).sum(axis=-1)
    diag = w_rr[..., :-1] + w_ll[..., 1:]
    off = w_lr[..., 1:-1]
    return TriDiag(off, diag, off.copy())
