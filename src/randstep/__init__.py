"""Randomized backward Euler time stepping for ODEs and parabolic PDEs
with time-irregular right-hand sides, plus a Monte Carlo convergence
harness."""

__version__ = "0.1.0"
