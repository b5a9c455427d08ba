"""Benchmark problems: sawtooth data, the Prothero-Robinson ODE, and the
manufactured semilinear heat equation.

The sawtooth functions are crafted so that every equidistant grid with
step size k = 2^-n, n < K, samples them only at their zeros: a
deterministic method sees a constant where the data oscillates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode_solver import OdeProblem
from .pde_solver import PdeProblem


#: Largest sawtooth exponent: interval indices below 2^53 are exact as
#: float64, beyond it g(1) rounds to p instead of 0 (at 63, int64 overflows).
MAX_EXPONENT = 53


@dataclass(frozen=True)
class SawtoothSpec:
    """Piecewise-linear zigzag with half-period 2^-exponent on [0, 1]."""

    exponent: int

    def __post_init__(self):
        if not 1 <= self.exponent <= MAX_EXPONENT:
            raise ValueError(
                f"sawtooth exponent must be in 1..{MAX_EXPONENT}, got {self.exponent}"
            )

    @property
    def half_period(self) -> float:
        return 2.0 ** (-self.exponent)


@dataclass(frozen=True)
class ProtheroRobinsonSpec:
    lam: float
    sawtooth: SawtoothSpec

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")


@dataclass(frozen=True)
class TruncatedPowerSpec:
    """Odd power |x|^(power-2) x, linearly continued outside |x| <= cap."""

    cap: float
    power: float

    def __post_init__(self):
        if not (np.isfinite(self.cap) and self.cap > 0):
            raise ValueError(f"cap must be finite and positive, got {self.cap}")
        if not (np.isfinite(self.power) and self.power >= 2):
            raise ValueError(f"power must be finite and at least 2, got {self.power}")
        try:  # math.pow raises where the power overflows
            lipschitz = (float(self.power) - 1.0) * math.pow(self.cap, self.power - 2.0)
        except OverflowError:
            lipschitz = math.inf
        if not math.isfinite(lipschitz):
            raise ValueError(
                f"the Lipschitz constant (power-1)*cap^(power-2) must be finite, "
                f"got cap {self.cap} and power {self.power}"
            )


def _interval_index(t, exponent: int):
    """Index i of [i*p, (i+1)*p) containing t, and the local coordinate.

    t is a float or an array of times; the results have its shape.
    t*2^exponent is an exact float scaling, so grid-aligned inputs pick
    their interval bit-exactly; i is clamped to the last interval at t=1.
    """
    t = np.asarray(t)
    if not (t.min() >= 0.0 and t.max() <= 1.0):  # NaN fails both
        raise ValueError(f"t outside [0, 1]: min {float(t.min())}, max {float(t.max())}")
    scaled = t * (1 << exponent)
    i = np.minimum(scaled.astype(np.int64), (1 << exponent) - 1)
    return i, scaled - i


def _g_and_parity(spec: SawtoothSpec, t):
    """(g(t), i mod 2) for the interval i of t; floats or arrays.

    g is p*frac on even intervals and p*(1 - frac) on odd ones; |frac - 1|
    is exactly 1 - frac for frac in [0, 1], so one expression serves both.
    """
    i, frac = _interval_index(t, spec.exponent)
    odd = i & 1
    return spec.half_period * abs(frac - odd), odd


def sawtooth_g(spec: SawtoothSpec, t):
    """g with g(i*p) = p for odd i, 0 for even i, affine in between."""
    return _g_and_parity(spec, t)[0]


def sawtooth_gdot(spec: SawtoothSpec, t):
    """Representation of dg/dt: +1 on even intervals, -1 on odd ones.

    The value at t = 1 is taken from the last half-open interval.
    """
    i, _ = _interval_index(t, spec.exponent)
    return 1.0 - 2.0 * (i & 1)


def pr_freeze(spec: ProtheroRobinsonSpec, t):
    """g(t) and g'(t), the time dependence of f, stacked on a last axis.

    t is a float or an array; the interval of t is looked up once.
    """
    g, odd = _g_and_parity(spec.sawtooth, t)
    return np.stack([g, 1.0 - 2.0 * odd], axis=-1)


def pr_rhs(spec: ProtheroRobinsonSpec, frozen, x):
    """f(t, x) = lam*(x - g(t)) + g'(t); the exact solution is u = g.

    ``frozen`` is ``pr_freeze(spec, t)`` and x of t's shape: only the
    state-dependent arithmetic runs, however often f is evaluated at t.
    """
    return spec.lam * (x - frozen[..., 0]) + frozen[..., 1]


def pde_w(spec: SawtoothSpec, t):
    """w with w(i*P) = i*P^2 for odd i, 0 for even i, affine in between.

    t is a float or an array of times; the result is an array of its shape.
    """
    j, frac = _interval_index(t, spec.exponent)
    p2 = spec.half_period * spec.half_period
    # even j: rising toward w((j+1)P) = (j+1)P^2; odd j: falling from
    # w(jP) = jP^2 to zero
    return np.where(j & 1, j * p2 * (1.0 - frac), (j + 1) * p2 * frac)


def pde_wdot(spec: SawtoothSpec, t):
    """a.e. derivative of w: i*P on [(i-1)P, iP) for odd i, -(i-1)P for even."""
    j, _ = _interval_index(t, spec.exponent)
    p = spec.half_period
    return np.where(j & 1, -j * p, (j + 1) * p)


def b_trunc(spec: TruncatedPowerSpec, x):
    """b(x) = |x|^(power-2) x capped: R^(power-2) x for |x| > R.

    Continuous, nondecreasing, globally Lipschitz with constant
    (power-1) R^(power-2).  Accepts scalars or arrays.
    """
    return np.minimum(np.abs(x), spec.cap) ** (spec.power - 2.0) * x


def b_trunc_prime(spec: TruncatedPowerSpec, x):
    """One-sided derivative of b; the outer value R^(power-2) at |x| = R."""
    ax = np.abs(x)
    inner = (spec.power - 1.0) * ax ** (spec.power - 2.0)
    outer = spec.cap ** (spec.power - 2.0)
    return np.where(ax < spec.cap, inner, outer)


def pde_initial(x):
    """u0(x) = pi^-2 sin(pi x)."""
    return np.sin(np.pi * x) / np.pi**2


def pde_exact(spec: SawtoothSpec, t, x):
    """u(t, x) = (x^2 - x^3) w(t) + pi^-2 sin(pi x); t may be an array
    that broadcasts against x."""
    return (x**2 - x**3) * pde_w(spec, t) + np.sin(np.pi * x) / np.pi**2


def pde_forcing(spec: SawtoothSpec, bspec: TruncatedPowerSpec, t, x):
    """Forcing manufactured so u_t - u_xx + b(u) = f with the u above;
    t may be an array that broadcasts against x."""
    w = pde_w(spec, t)
    wdot = pde_wdot(spec, t)
    bump = x**2 - x**3
    u = bump * w + np.sin(np.pi * x) / np.pi**2
    return bump * wdot - (2.0 - 6.0 * x) * w + np.sin(np.pi * x) + b_trunc(bspec, u)


def prothero_robinson_problem(spec: ProtheroRobinsonSpec) -> OdeProblem:
    """Scalar stiff benchmark; one-sided constant nu = max(lam, 0)."""
    lam = spec.lam
    saw = spec.sawtooth

    def jacobian(frozen, x):
        return lam

    def exact(t):
        return sawtooth_g(saw, t)

    return OdeProblem(
        # closures look pr_rhs up per call, so a wrapper on the module sees it
        rhs=lambda frozen, x: pr_rhs(spec, frozen, x),
        initial_value=sawtooth_g(saw, 0.0),
        jacobian=jacobian,
        one_sided_constant=max(lam, 0.0),
        exact=exact,
        freeze=lambda t: pr_freeze(spec, t),
        affine=True,
    )


def time_integral_problem() -> OdeProblem:
    """State-independent f(t, x) = t: the scheme degenerates to the
    randomized Riemann sum for u(t) = t^2/2."""

    return OdeProblem(
        rhs=lambda t, x: t,
        initial_value=0.0,
        jacobian=lambda t, x: 0.0,
        one_sided_constant=0.0,
        exact=lambda t: 0.5 * t * t,
        affine=True,
    )


def semilinear_heat_problem(
    saw: SawtoothSpec, bspec: TruncatedPowerSpec
) -> PdeProblem:
    """Manufactured heat benchmark u_t - u_xx + b(u) = f on (0,1)^2.

    With the H^1 seminorm as the V-norm the diffusion part is monotone
    with constant 1, and the nondecreasing b only adds to it.
    """
    return PdeProblem(
        forcing=lambda t, x: pde_forcing(saw, bspec, t, x),
        nonlinearity=lambda u: b_trunc(bspec, u),
        nonlinearity_prime=lambda u: b_trunc_prime(bspec, u),
        initial=pde_initial,
        exact=lambda t, x: pde_exact(saw, t, x),
    )
