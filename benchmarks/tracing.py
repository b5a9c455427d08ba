"""Counters and spans around the randstep layers, installed from outside.

Each wrapper is bound where its name is looked up at call time.  A
module function is replaced in every randstep module that holds it:
``harness`` binds ``solve``, ``pde_solve`` and ``l2_error`` by name,
``pde_solver`` binds the ``fem1d`` functions, and the problem closures
look up ``pr_rhs``, ``sawtooth_g`` and ``pde_forcing`` as module globals.
``NodeStream`` and ``TriDiag`` methods are patched on the class, and the
``exact`` and nonlinearity callbacks on each problem the factories
return (``b_trunc`` is also called inside ``pde_forcing``, so its global
would mix forcing and Newton calls).

Fine boundaries only count calls and sum inclusive and self time; the
coarse ones (``run_mc``/``residual_study`` and each ``solve``/``pde_solve``)
also record a span.  Self time is inclusive time minus the time spent in
wrapped callees.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

class Tracer:
    def __init__(self):
        self.stats = {}  # key -> [calls, inclusive s, self s]
        self.counts = Counter()  # work counted from arguments and results
        self.group_time = defaultdict(float)  # outermost calls of a group only
        self.spans = []  # [id, parent, name, start, end]
        self._group_depth = Counter()
        self._child_time = []  # one accumulator per active wrapped call
        self._open_spans = []
        self._undo = []

    def _stat(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def wrap(self, key, fn, span=False, group=None, after=None):
        """``fn`` counted under ``key``; ``after(counts, args, result)`` adds work."""
        clock = time.perf_counter
        child_time = self._child_time
        depth = self._group_depth
        stat = self._stat(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span:
                self._open(key)
            if group:
                depth[group] += 1
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        self.group_time[group] += elapsed
                if span:
                    self._close()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def count_only(self, key, fn):
        """``fn`` with its calls counted; its time stays with the caller."""
        stat = self._stat(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _open(self, name):
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(len(self.spans))
        self.spans.append([len(self.spans), parent, name, time.perf_counter(), None])

    def _close(self):
        self.spans[self._open_spans.pop()][4] = time.perf_counter()

    @contextlib.contextmanager
    def root_span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace ``original`` wherever a randstep module holds it."""
        for name, module in list(sys.modules.items()):
            if name != "randstep" and not name.startswith("randstep."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def function(self, module, attr, key, count_only=False, **opts):
        if not hasattr(module, attr):
            raise AttributeError(f"{module.__name__}.{attr} is gone; update the tracer")
        original = getattr(module, attr)
        if count_only:
            self._rebind(original, self.count_only(key, original))
        else:
            self._rebind(original, self.wrap(key, original, **opts))

    def method(self, cls, attr, key, **opts):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(key, original, **opts))
        self._undo.append((cls, attr, original))

    def factory(self, module, attr, callbacks):
        """Wrap the ``callbacks`` (attribute, key, group) of each built problem."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def build(*args, **kwargs):
            problem = original(*args, **kwargs)
            for name, key, group in callbacks:
                setattr(problem, name, self.wrap(key, getattr(problem, name), group=group))
            return problem

        self._rebind(original, build)

    def install(self):
        from randstep import fem1d, harness, ode_solver, pde_solver, problems, rand_nodes

        self.method(rand_nodes.NodeStream, "__init__", "rand_nodes.stream")
        self.method(rand_nodes.NodeStream, "taus", "rand_nodes.taus",
                    after=lambda c, a, r: c.update({"rand_nodes.draws": len(r)}))

        self.function(problems, "pr_rhs", "problems.rhs")
        # two calls per rhs evaluation: counting alone keeps tracing cheaper
        self.function(problems, "sawtooth_g", "problems.sawtooth_g", count_only=True)
        self.function(problems, "sawtooth_gdot", "problems.sawtooth_gdot", count_only=True)
        self.function(problems, "pde_forcing", "problems.forcing")
        exact = ("exact", "problems.exact", "error_eval")
        self.factory(problems, "prothero_robinson_problem", [exact])
        self.factory(problems, "semilinear_heat_problem", [
            exact,
            ("nonlinearity", "problems.nonlinearity", None),
            ("nonlinearity_prime", "problems.nonlinearity", None),
        ])

        def trajectory(layer):
            def count(c, args, path):
                c[f"{layer}.steps"] += len(path.newton_iteration_counts)
                c[f"{layer}.newton_iters"] += int(path.newton_iteration_counts.sum())
            return count

        self.function(ode_solver, "solve", "ode_solver.solve", span=True,
                      after=trajectory("ode_solver"))
        self.function(ode_solver, "_newton_scalar", "ode_solver.newton")
        self.function(ode_solver, "conditional_mean_residual", "ode_solver.quad")
        self.function(pde_solver, "pde_solve", "pde_solver.solve", span=True,
                      after=trajectory("pde_solver"))
        self.function(pde_solver, "_newton_fem", "pde_solver.newton")

        self.function(fem1d, "load_vector", "fem1d.load_vector")
        self.function(fem1d, "assemble_nonlinearity", "fem1d.nonlinearity")
        self.function(fem1d, "assemble_nonlinearity_jacobian", "fem1d.jacobian")
        # dgtsv reads three bands and the right-hand side and writes x: 5m doubles
        self.function(fem1d, "tridiag_solve", "fem1d.tridiag_solve",
                      after=lambda c, a, r: c.update({"fem1d.tridiag_bytes": 40 * len(r)}))
        self.function(fem1d, "l2_error", "fem1d.l2_error", group="error_eval")
        self.method(fem1d.TriDiag, "matvec", "fem1d.matvec")

        self.function(harness, "run_mc", "harness.sweep", span=True)
        self.function(harness, "residual_study", "harness.sweep", span=True)
        self.function(harness, "write_error_csv", "harness.csv")
        self.function(harness, "write_residual_csv", "harness.csv")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def fingerprint(self) -> dict:
        """Every count; equal across runs of the same inputs."""
        return {**{f"calls:{k}": v[0] for k, v in self.stats.items()}, **self.counts}

    def layer_metrics(self) -> dict:
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for key, (n, inclusive, self_s) in self.stats.items():
            calls[key], incl[key], own[key] = n, inclusive, self_s
        counts = self.counts
        ode_steps = counts["ode_solver.steps"]
        pde_iters = counts["pde_solver.newton_iters"]
        m = {
            "rand_nodes.streams": calls["rand_nodes.stream"],
            "rand_nodes.stream_s": incl["rand_nodes.stream"],
            "rand_nodes.draws": counts["rand_nodes.draws"],
            "rand_nodes.taus_s": incl["rand_nodes.taus"],
            "problems.rhs_calls": calls["problems.rhs"],
            "problems.rhs_s": incl["problems.rhs"],
            "problems.sawtooth_calls": calls["problems.sawtooth_g"]
            + calls["problems.sawtooth_gdot"],
            "problems.exact_s": incl["problems.exact"],
            "problems.forcing_calls": calls["problems.forcing"],
            "problems.forcing_s": incl["problems.forcing"],
            "problems.nonlinearity_calls": calls["problems.nonlinearity"],
            "problems.nonlinearity_s": incl["problems.nonlinearity"],
            "ode_solver.solves": calls["ode_solver.solve"],
            "ode_solver.steps": ode_steps,
            "ode_solver.newton_iters": counts["ode_solver.newton_iters"],
            "ode_solver.rhs_per_step": calls["problems.rhs"] / ode_steps if ode_steps else 0.0,
            "ode_solver.solve_s": incl["ode_solver.solve"],
            "ode_solver.newton_s": incl["ode_solver.newton"],
            "ode_solver.self_s": own["ode_solver.solve"] + own["ode_solver.newton"],
            "ode_solver.quad_s": incl["ode_solver.quad"],
        }
        for fn in ("load_vector", "nonlinearity", "jacobian", "tridiag_solve",
                   "l2_error", "matvec"):
            m[f"fem1d.{fn}_calls"] = calls[f"fem1d.{fn}"]
            m[f"fem1d.{fn}_s"] = incl[f"fem1d.{fn}"]
        m["fem1d.tridiag_bytes"] = counts["fem1d.tridiag_bytes"]
        # every Newton call assembles the residual once before its first iteration
        trials = calls["fem1d.nonlinearity"] - counts["pde_solver.steps"]
        m.update({
            "pde_solver.solves": calls["pde_solver.solve"],
            "pde_solver.steps": counts["pde_solver.steps"],
            "pde_solver.newton_iters": pde_iters,
            "pde_solver.trials_per_iter": trials / pde_iters if pde_iters else 0.0,
            "pde_solver.solve_s": incl["pde_solver.solve"],
            "pde_solver.newton_s": incl["pde_solver.newton"],
            "pde_solver.self_s": own["pde_solver.solve"] + own["pde_solver.newton"],
            "harness.sweep_self_s": own["harness.sweep"],
            "harness.error_eval_s": self.group_time["error_eval"],
            "harness.csv_s": incl["harness.csv"],
        })
        return m
