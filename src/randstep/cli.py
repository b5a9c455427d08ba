"""Command-line frontend: solver sweeps, diagnostics, and figure tables.

Every subcommand echoes its resolved configuration before computing,
writes CSV (and optionally an SVG chart) and exits 0 on success, 1 on
usage errors, failed allocations and dead worker processes, 2 on
numerical failures.  The environment variable RANDSTEP_SEED overrides
--seed when set.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import os
import re
import sys
import warnings
from concurrent.futures import BrokenExecutor

from . import harness, report
from .harness import ErrorMode, ExperimentSpec
from .ode_solver import NonConvergence, StepRestrictionViolated, StepScheme
from .rand_nodes import DEFAULT_MASTER_SEED

SEED_ENV_VAR = "RANDSTEP_SEED"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1000 and -1.5 as values, not -1e3
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage errors must exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return tuple(range(lo, hi + 1))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_schemes(text: str) -> tuple[StepScheme, ...]:
    try:
        return tuple(StepScheme.parse(tok) for tok in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_common(sub):
    sub.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_MASTER_SEED,
        help=f"master seed (default {DEFAULT_MASTER_SEED}; "
        f"env {SEED_ENV_VAR} overrides)",
    )
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=harness.default_workers(),
        help="worker processes, each marching one lockstep batch of step sizes "
        "at a time (default: available cores)",
    )
    sub.add_argument(
        "--error-mode",
        choices=["final", "max"],
        default="final",
        help="error functional for rate fits and plots (default final)",
    )
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--svg", default=None, help="optional SVG chart path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="randstep",
        description="Randomized implicit time stepping benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ode = subs.add_parser("ode", help="ODE Monte Carlo sweep")
    ode.add_argument(
        "--problem",
        required=True,
        choices=["prothero-robinson", "time-integral"],
    )
    ode.add_argument("--scheme", required=True, type=_parse_schemes,
                     help="comma list from rbe,be,rfe")
    ode.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="stiffness parameter of prothero-robinson (default 2)")
    ode.add_argument("--K", type=int, default=None,
                     help="sawtooth exponent of prothero-robinson in 1..53, "
                     "half period 2^-K (default 10)")
    ode.add_argument("--n", required=True, type=_parse_range,
                     help="step exponents lo:hi, k = 2^-n")
    ode.add_argument("--mc", type=int, default=200,
                     help="Monte Carlo replicas (default 200)")
    _add_common(ode)

    pde = subs.add_parser("pde", help="PDE Monte Carlo sweep")
    pde.add_argument("--problem", required=True, choices=["semilinear-heat"])
    pde.add_argument("--scheme", required=True, type=_parse_schemes,
                     help="comma list from rbe,be")
    pde.add_argument("--K", type=int, default=7,
                     help="oscillation exponent in 1..53, half period 2^-K (default 7)")
    pde.add_argument("--R", type=float, default=10.0,
                     help="truncation cap of the nonlinearity (default 10)")
    pde.add_argument("--ptilde", type=float, default=4.0,
                     help="power of the nonlinearity (default 4)")
    pde.add_argument("--dof", type=int, default=127,
                     help="interior degrees of freedom (default 127)")
    pde.add_argument("--n", required=True, type=_parse_range,
                     help="step exponents lo:hi, k = 2^-n")
    pde.add_argument("--mc", type=int, default=50,
                     help="Monte Carlo replicas (default 50)")
    _add_common(pde)

    res = subs.add_parser("residual", help="local-residual scaling study")
    res.add_argument("--lambda", dest="lam", type=float, default=2.0,
                     help="stiffness parameter (default 2)")
    res.add_argument("--K", type=int, default=8,
                     help="sawtooth exponent in 1..53 (default 8)")
    res.add_argument("--n", required=True, type=_parse_range,
                     help="step exponents lo:hi")
    res.add_argument("--mc", type=int, default=1000,
                     help="Monte Carlo replicas (default 1000)")
    res.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                     help=f"master seed (default {DEFAULT_MASTER_SEED}; "
                     f"env {SEED_ENV_VAR} overrides)")
    res.add_argument("--out", required=True, help="output CSV path")

    rates = subs.add_parser("rates", help="fit a convergence rate from a CSV")
    rates.add_argument("--in", dest="table", required=True,
                       help="error-table CSV produced by ode/pde/fig*")
    rates.add_argument("--scheme", required=True, help="scheme token to fit")
    rates.add_argument("--window", required=True, type=_parse_range,
                       help="exponent window lo:hi")
    rates.add_argument("--error-mode", choices=["final", "max"], default="final")
    rates.add_argument("--out", required=True, help="output CSV path")

    for name, figure in harness.FIGURES.items():
        fig = subs.add_parser(name, help=figure.title)
        fig.add_argument("--scale", choices=["desk", "paper"], default="desk",
                         help="desk: reduced grids and replica counts (minutes); "
                         "paper: full-size grids and replica counts (slow)")
        if figure.fits_rates:
            fig.add_argument("--rates-out", default=None,
                             help="optional rate-fit CSV path")
        _add_common(fig)

    return parser


def _resolve_seed(args) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    return args.seed


#: The settings each ode problem reads, with their defaults.
ODE_SETTINGS = {"prothero-robinson": dict(lam=2.0, K=10), "time-integral": {}}


def _ode_settings(args) -> dict:
    """The ode settings the problem reads, defaults filled in; a setting
    given for a problem that does not read it is refused."""
    defaults = ODE_SETTINGS[args.problem]
    settings = {}
    for name, flag in (("lam", "--lambda"), ("K", "--K")):
        value = getattr(args, name)
        if name in defaults:
            settings[name] = defaults[name] if value is None else value
        elif value is not None:
            raise ValueError(f"{args.problem} does not read {flag}")
    return settings


def _check_outputs(args):
    """Raise, before any compute, the OSError that writing an output path
    would raise for want of a writable directory, naming the path."""
    for path in filter(None, (args.out, getattr(args, "svg", None),
                              getattr(args, "rates_out", None))):
        parent = os.path.dirname(path) or os.curdir
        try:
            os.stat(parent)
            code = (errno.ENOTDIR if not os.path.isdir(parent) else
                    0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES)
        except OSError as err:
            code = err.errno
        if code:
            raise OSError(code, os.strerror(code), path)


def _echo(config: dict) -> None:
    print("config:", " ".join(f"{k}={v}" for k, v in config.items()), flush=True)


def _write_outputs(table, args, fits=None):
    harness.write_error_csv(table, args.out)
    print(f"wrote {args.out}")
    rates_out = getattr(args, "rates_out", None)
    if rates_out:
        harness.write_rate_csv(fits, rates_out)
        print(f"wrote {rates_out}")
    if args.svg:
        mode = ErrorMode(args.error_mode)
        report.emit_svg_loglog(table, args.svg, mode)
        print(f"wrote {args.svg}")


#: glibc's malloc options M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and the
#: values the program sets for its process (see ``_keep_freed_heap``).
_MALLOPT = ((-3, 32 * 2**20), (-1, 64 * 2**20))


def _keep_freed_heap():
    """Have glibc keep freed heap memory for reuse, where it has mallopt.

    A sweep allocates and frees the same block-sized numpy temporaries
    (loads, Newton fields, error values) for every block of steps.  With
    glibc's adaptive thresholds the heap top they leave is returned to
    the system after each block and faulted in again by the next: 15,000
    minor page faults per pde-heat sweep (2-core Xeon: 0.26 against
    0.22 s), where fixed thresholds of 32 and 64 MiB leave 15.  This is
    the program's choice for its own process; forked pool workers
    inherit it, and ``harness.run_mc`` called as a library leaves the
    caller's allocator alone.  Where there is no mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for option, value in _MALLOPT:
        mallopt(option, value)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    # one line per warning, for the program's run only
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"randstep: warning: {message}\n"
    try:
        _check_outputs(args)
        return _dispatch(args)
    except (NonConvergence, StepRestrictionViolated, harness.ExperimentError) as err:
        print(f"randstep: numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"randstep: error: {err}", file=sys.stderr)
        return 1
    except BrokenExecutor as err:
        print(f"randstep: error: a worker process died: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"randstep: error: out of memory: {str(err) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


def _dispatch(args) -> int:
    command = args.command

    if command in ("ode", "pde"):
        seed = _resolve_seed(args)
        settings = (_ode_settings(args) if command == "ode"
                    else dict(cap=args.R, power=args.ptilde, mesh_dof=args.dof, K=args.K))
        spec = ExperimentSpec(
            problem=args.problem,
            schemes=args.scheme,
            step_exponents=args.n,
            mc_replicas=args.mc,
            master_seed=seed,
            **{"sawtooth_exponent" if k == "K" else k: v for k, v in settings.items()},
        )
        _echo(
            dict(problem=args.problem, scheme=",".join(s.value for s in args.scheme),
                 **settings, n=f"{args.n[0]}:{args.n[-1]}", mc=args.mc,
                 seed=seed, error_mode=args.error_mode, workers=args.workers)
        )
        table = harness.run_mc(spec, workers=args.workers)
        _write_outputs(table, args)
        return 0

    if command == "residual":
        seed = _resolve_seed(args)
        spec = ExperimentSpec(problem="prothero-robinson", schemes=(),
                              step_exponents=args.n, mc_replicas=args.mc,
                              master_seed=seed, lam=args.lam, sawtooth_exponent=args.K)
        _echo(dict(problem="prothero-robinson", lam=args.lam, K=args.K,
                   n=f"{args.n[0]}:{args.n[-1]}", mc=args.mc, seed=seed))
        rows = harness.residual_study(spec)
        harness.write_residual_csv(rows, args.out)
        print(f"wrote {args.out}")
        return 0

    if command == "rates":
        _echo(dict(table=args.table, scheme=args.scheme,
                   window=f"{args.window[0]}:{args.window[-1]}",
                   error_mode=args.error_mode))
        table = harness.read_error_csv(args.table)
        fit = harness.fit_rate(
            table,
            args.scheme,
            (args.window[0], args.window[-1]),
            ErrorMode(args.error_mode),
        )
        harness.write_rate_csv({(args.scheme, "window"): fit}, args.out)
        print(
            f"scheme {args.scheme}: slope {fit.slope:.4f} over "
            f"n in {fit.window[0]}..{fit.window[1]} (residual {fit.residual:.3g})"
        )
        print(f"wrote {args.out}")
        return 0

    seed = _resolve_seed(args)
    _echo(dict(figure=command, scale=args.scale, seed=seed,
               error_mode=args.error_mode, workers=args.workers))
    fits_rates = harness.FIGURES[command].fits_rates
    table, result = harness.reproduce_figure(command, args.scale, seed, args.workers,
                                             ErrorMode(args.error_mode))
    for key, value in result.items():
        if fits_rates:
            scheme, name = key
            print(
                f"{scheme} {name}-resolution slope: {value.slope:.4f} "
                f"(n in {value.window[0]}..{value.window[1]})"
            )
        else:
            print(f"{key}: {value}")
    _write_outputs(table, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
