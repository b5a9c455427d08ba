import math

import numpy as np
import pytest

from randstep.problems import (
    ProtheroRobinsonSpec,
    SawtoothSpec,
    TruncatedPowerSpec,
    b_trunc,
    b_trunc_prime,
    pde_exact,
    pde_forcing,
    pde_initial,
    pde_w,
    pde_wdot,
    pr_freeze,
    pr_rhs,
    prothero_robinson_problem,
    sawtooth_g,
    sawtooth_gdot,
)

SAW = SawtoothSpec(6)
P = SAW.half_period


def test_sawtooth_node_values():
    assert sawtooth_g(SAW, 0.0) == 0.0
    assert sawtooth_g(SAW, P) == P
    assert sawtooth_g(SAW, 2 * P) == 0.0
    assert sawtooth_g(SAW, P / 2) == P / 2
    assert sawtooth_g(SAW, 1.0) == 0.0  # 2^K even


def test_sawtooth_derivative_values():
    assert sawtooth_gdot(SAW, 0.0) == 1.0
    assert sawtooth_gdot(SAW, P) == -1.0
    for t in (0.1 * P, 0.5 * P, 0.9 * P):
        assert sawtooth_gdot(SAW, t) == 1.0
    # value at t = 1 extends the last half-open interval (odd index)
    assert sawtooth_gdot(SAW, 1.0) == -1.0


def test_sawtooth_domain_errors():
    with pytest.raises(ValueError):
        sawtooth_g(SAW, -0.01)
    with pytest.raises(ValueError):
        sawtooth_gdot(SAW, 1.01)


def test_sawtooth_lipschitz():
    rng = np.random.default_rng(0)
    ts = rng.uniform(0, 1, 300)
    ss = rng.uniform(0, 1, 300)
    for t, s in zip(ts, ss):
        assert abs(sawtooth_g(SAW, t) - sawtooth_g(SAW, s)) <= abs(t - s) + 1e-15


def test_gdot_integrates_to_g():
    # midpoint rule on a fine grid aligned with the kinks
    m = 4 * 2**6
    h = 1.0 / m
    acc = 0.0
    for j in range(m):
        acc += h * sawtooth_gdot(SAW, (j + 0.5) * h)
        t = (j + 1) * h
        assert abs(acc - sawtooth_g(SAW, t)) < 1e-12


def test_fooling_property():
    # any coarser dyadic grid samples only zeros of g and +1 of gdot
    for n in range(1, SAW.exponent):
        k = 2.0**-n
        for j in range(2**n + 1):
            assert sawtooth_g(SAW, j * k) == 0.0
        for j in range(2**n):
            assert sawtooth_gdot(SAW, j * k) == 1.0


def pr_f(spec, t, x):
    """f(t, x) of Prothero-Robinson through its frozen time dependence."""
    return pr_rhs(spec, pr_freeze(spec, t), x)


def test_pr_rhs_values():
    spec = ProtheroRobinsonSpec(2.0, SAW)
    assert pr_f(spec, 0.0, 1.0) == 3.0  # 2*(1-0) + 1
    rng = np.random.default_rng(1)
    for t in rng.uniform(0, 1, 50):
        # solution property f(t, g(t)) = g'(t)
        assert pr_f(spec, t, sawtooth_g(SAW, t)) == sawtooth_gdot(SAW, t)
    # one-sided constant: (f(t,x)-f(t,y))(x-y) = lam (x-y)^2
    x, y, t = 0.3, -1.2, 0.5
    assert math.isclose(
        (pr_f(spec, t, x) - pr_f(spec, t, y)) * (x - y), 2.0 * (x - y) ** 2
    )


def edge_case_times(rng):
    """Grid points, both ends, points just below breakpoints, random times."""
    return np.concatenate([
        np.arange(65) / 64.0,
        np.nextafter(np.arange(1, 65) * P, 0.0),
        rng.uniform(0.0, 1.0, 200),
    ])


def test_array_arguments_match_scalar_calls_bitwise():
    rng = np.random.default_rng(3)
    t = edge_case_times(rng)
    x = rng.normal(size=t.size)
    spec = ProtheroRobinsonSpec(-1000.0, SAW)
    for fn, args in (
        (sawtooth_g, (SAW, t)),
        (sawtooth_gdot, (SAW, t)),
        (pr_f, (spec, t, x)),
    ):
        batch = fn(*args)
        single = [fn(*(a if not isinstance(a, np.ndarray) else a[j] for a in args))
                  for j in range(t.size)]
        assert batch.tolist() == [float(v) for v in single], fn.__name__
    for bad in (np.array([0.5, -1e-300]), np.array([1.0 + 2**-52]), np.array([np.nan])):
        with pytest.raises(ValueError):
            sawtooth_g(SAW, bad)


@pytest.mark.parametrize("lam", [2.0, -1000.0])
def test_frozen_rhs_matches_rhs_bitwise(lam):
    # the edge-case times, frozen as a whole, one at a time and as a
    # (steps, rows) block the way solve freezes them, then subset as
    # Newton does
    rng = np.random.default_rng(3)
    t = edge_case_times(rng)
    x = rng.normal(size=t.size)
    spec = ProtheroRobinsonSpec(lam, SAW)
    problem = prothero_robinson_problem(spec)
    freeze, rhs_frozen = problem.freeze, problem.rhs
    expected = lam * (x - sawtooth_g(SAW, t)) + sawtooth_gdot(SAW, t)
    assert rhs_frozen(freeze(t), x).tolist() == expected.tolist()
    for j in (0, 64, 65, 128, 300):
        assert rhs_frozen(freeze(t[j]), x[j]) == expected[j]
    nodes = np.stack([t, t[::-1]])  # (R, N), as solve gets them
    states, values = np.stack([x, x[::-1]]), np.stack([expected, expected[::-1]])
    frozen = freeze(nodes.T)
    assert frozen.shape == (t.size, 2, 2)
    keep = np.array([False, True])
    for n, at in enumerate(frozen):
        assert rhs_frozen(at, states[:, n]).tolist() == values[:, n].tolist()
        assert rhs_frozen(at[keep], states[keep, n]).tolist() == values[keep, n].tolist()


def test_prothero_robinson_rejects_non_finite_lambda():
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ProtheroRobinsonSpec(lam, SAW)


def test_sawtooth_exponent_limit():
    # up to 2^53 intervals the local coordinate is exact: g(1) = 0 and
    # g'(1) = -1 as on every coarser sawtooth
    top = SawtoothSpec(53)
    assert sawtooth_g(top, 1.0) == 0.0 and sawtooth_gdot(top, 1.0) == -1.0
    assert sawtooth_g(top, np.array([1.0, 0.5])).tolist() == [0.0, 0.0]
    for exponent in (0, 54, 63, 70):
        with pytest.raises(ValueError, match="1..53"):
            SawtoothSpec(exponent)


PSAW = SawtoothSpec(5)
PP = PSAW.half_period


def test_pde_w_node_values():
    assert pde_w(PSAW, 0.0) == 0.0
    assert pde_w(PSAW, PP) == PP**2
    assert pde_w(PSAW, 2 * PP) == 0.0
    assert pde_w(PSAW, 3 * PP) == 3 * PP**2


def test_pde_wdot_values():
    for t in (0.0, 0.5 * PP):
        assert pde_wdot(PSAW, t) == PP  # i = 1 odd
    assert pde_wdot(PSAW, 1.5 * PP) == -PP  # i = 2 even: -(i-1)P


def test_wdot_integrates_over_period():
    # fundamental theorem over one full period [0, 2P]
    m = 64
    h = 2 * PP / m
    acc = 0.0
    for j in range(m):
        acc += h * pde_wdot(PSAW, (j + 0.5) * h)
    assert abs(acc - pde_w(PSAW, 2 * PP)) < 1e-15
    assert pde_w(PSAW, 2 * PP) == 0.0


def test_w_lipschitz():
    rng = np.random.default_rng(3)
    for t, s in zip(rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)):
        assert abs(pde_w(PSAW, t) - pde_w(PSAW, s)) <= abs(t - s) + 1e-15


BSPEC = TruncatedPowerSpec(cap=10.0, power=4.0)


def test_truncated_power_values():
    assert b_trunc(BSPEC, 2.0) == 8.0
    assert b_trunc(BSPEC, 20.0) == 2000.0  # R^2 * x = 100 * 20
    for x in (0.5, 5.0, 50.0):
        assert b_trunc(BSPEC, -x) == -b_trunc(BSPEC, x)


def test_truncated_power_derivative():
    assert b_trunc_prime(BSPEC, 2.0) == 3.0 * 4.0
    assert b_trunc_prime(BSPEC, 20.0) == 100.0
    # outer (one-sided) value at the kink
    assert b_trunc_prime(BSPEC, 10.0) == 100.0
    assert b_trunc_prime(BSPEC, 9.999999) == pytest.approx(3 * 9.999999**2)


def test_b_monotone_and_lipschitz():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-30, 30, 1000)
    ys = rng.uniform(-30, 30, 1000)
    lip = (BSPEC.power - 1.0) * BSPEC.cap ** (BSPEC.power - 2.0)
    bx, by = b_trunc(BSPEC, xs), b_trunc(BSPEC, ys)
    assert np.all((bx - by) * (xs - ys) >= 0.0)
    assert np.all(np.abs(bx - by) <= lip * np.abs(xs - ys) * (1 + 1e-12))


def test_b_vectorized():
    xs = np.array([-20.0, -2.0, 0.0, 2.0, 20.0])
    assert np.array_equal(b_trunc(BSPEC, xs), [-2000.0, -8.0, 0.0, 8.0, 2000.0])


def test_pde_boundary_and_initial():
    for t in (0.0, 0.31, 1.0):
        assert pde_exact(PSAW, t, 0.0) == 0.0
        assert abs(pde_exact(PSAW, t, 1.0)) < 1e-16
    xs = np.linspace(0, 1, 11)
    assert np.array_equal(pde_exact(PSAW, 0.0, xs), pde_initial(xs))  # w(0) = 0


def test_manufactured_solution_identity():
    # u_t - u_xx + b(u) - f must vanish with analytic derivatives:
    # u_t = (x^2 - x^3) w'(t), u_xx = (2 - 6x) w(t) - sin(pi x)
    rng = np.random.default_rng(20)
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        x = float(rng.uniform(0, 1))
        w = pde_w(PSAW, t)
        wd = pde_wdot(PSAW, t)
        u = (x**2 - x**3) * w + math.sin(math.pi * x) / math.pi**2
        u_t = (x**2 - x**3) * wd
        u_xx = (2.0 - 6.0 * x) * w - math.sin(math.pi * x)
        resid = u_t - u_xx + b_trunc(BSPEC, u) - pde_forcing(PSAW, BSPEC, t, x)
        assert abs(resid) < 1e-12


def test_benchmark_jacobians_match_finite_differences():
    from randstep.problems import prothero_robinson_problem, time_integral_problem

    sqrt_eps = math.sqrt(np.finfo(float).eps)
    for problem in (
        prothero_robinson_problem(ProtheroRobinsonSpec(2.0, SAW)),
        time_integral_problem(),
    ):
        for t, x in ((0.13, 0.7), (0.5, -2.0), (0.96, 3.1)):
            c = problem.freeze(t)
            dx = sqrt_eps * (1.0 + abs(x))
            fd = (problem.rhs(c, x + dx) - problem.rhs(c, x)) / dx
            assert abs(problem.jacobian(c, x) - fd) <= 10 * sqrt_eps * (1 + abs(fd))


def test_spec_validation():
    with pytest.raises(ValueError):
        SawtoothSpec(0)
    with pytest.raises(ValueError):
        TruncatedPowerSpec(cap=-1.0, power=4.0)
    with pytest.raises(ValueError):
        TruncatedPowerSpec(cap=1.0, power=1.5)
    # finite cap and power whose Lipschitz constant (p-1) R^(p-2) overflows:
    # b_trunc_prime raised OverflowError inside the sweep
    for cap, power in ((1e300, 4.0), (10.0, 1e6)):
        with pytest.raises(ValueError, match="Lipschitz"):
            TruncatedPowerSpec(cap=cap, power=power)
