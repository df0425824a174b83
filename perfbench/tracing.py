"""Span tracing installed from outside the package.

`install` wraps the public functions of each layer and sets the wrapper on
every module attribute that binds the original, so a call is traced however
it is reached (`solve` is bound in `nlaffine.cli`, `nlaffine.pide` and the
package itself; `dpp_gap` reaches it through `nlaffine.pide`).  Spans stay in
memory; `Tracer.summary` checks their nesting and folds them into per-name
call counts and self times.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import defaultdict


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.counts = defaultdict(int)

    def wrap(self, name, fn, before=None, after=None):
        """Return `fn` recording one span per call.  `before(args, kwargs)`
        and `after(result, args, kwargs)` update counts outside the span's
        own interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def count_values(self, payoff):
        """The same payoff with each scalar `value` call counted; no span, as
        one per call would swamp the trace."""
        inner = payoff.value
        counts = self.counts

        def value(x):
            counts["payoffs.value.calls"] += 1
            return inner(x)

        return dataclasses.replace(payoff, value=value)

    def summary(self) -> dict:
        """Per span name: [calls, self seconds].  A span's self time is its
        duration minus the part its child spans cover; every span must equal
        its self time plus its children, which fails when children overlap
        or leave their parent."""
        children = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            children[parent].append(i)
        per_name = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            kids = sorted((self.spans[k][1], self.spans[k][2]) for k in children[i])
            covered, cursor = 0.0, start
            for k_start, k_end in kids:
                lo, hi = max(k_start, cursor), min(k_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            duration = end - start
            self_s = duration - covered
            kids_s = sum(k_end - k_start for k_start, k_end in kids)
            if abs(self_s + kids_s - duration) > 1e-9 * max(1.0, duration):
                raise TraceError(
                    f"span {name}: self {self_s:.9f} s + children {kids_s:.9f} s "
                    f"!= span {duration:.9f} s"
                )
            calls, total = per_name.get(name, (0, 0.0))
            per_name[name] = (calls + 1, total + self_s)
        return {"spans": {k: list(v) for k, v in per_name.items()},
                "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap the layers of an imported `nlaffine` in place."""
    from nlaffine import cli, conditions, config, generator, montecarlo, params, payoffs, pide

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "nlaffine" or name.startswith("nlaffine.")]
    counts = tracer.counts

    def rebind(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def solved(surface, args, kwargs):
        vertices = len(surface.problem.theta_set.vertices())
        counts["pide.node_steps"] += surface.n_steps * surface.grid.n_nodes * vertices
        counts["pide.values_bytes"] += surface.values.nbytes

    def simulated(bundle, args, kwargs):
        counts["montecarlo.path_steps"] += bundle.n_paths * (len(bundle.times) - 1)

    gate_args = inspect.signature(conditions.uniqueness_gate)

    def gate_samples(args, kwargs):
        bound = gate_args.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["conditions.samples"] += (
            bound.arguments["n_samples"] * len(bound.arguments["theta_set"].vertices())
        )

    def written(key):
        """Count the bytes of the file a writer(obj, path) call produced."""

        def after(result, args, kwargs):
            counts[key] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

        return after

    functions = [
        (cli.cmd_solve, "cli.solve", None, None),
        (cli.cmd_simulate, "cli.simulate", None, None),
        (cli.cmd_check, "cli.check", None, None),
        (cli.cmd_compare, "cli.compare", None, None),
        (pide.solve, "pide.solve", None, solved),
        (pide.dpp_gap, "pide.dpp_gap", None, None),
        (pide.holder_exponent, "pide.holder_exponent", None, None),
        (montecarlo.simulate_paths, "montecarlo.simulate_paths", None, simulated),
        (montecarlo.estimate_expectation, "montecarlo.estimate_expectation", None, None),
        (montecarlo.lower_bound_sublinear, "montecarlo.lower_bound_sublinear", None, None),
        (montecarlo.bundle_to_csv, "montecarlo.bundle_to_csv", None,
         written("montecarlo.bundle_bytes")),
        (conditions.uniqueness_gate, "conditions.uniqueness_gate", gate_samples, None),
        (conditions.check_comparison_conditions, "conditions.check_comparison_conditions",
         None, None),
        (params.check_coefficient_bounds, "params.check_coefficient_bounds", None, None),
        (generator.sqrt_diffusion_lipschitz, "generator.sqrt_diffusion_lipschitz",
         None, None),
    ]
    for fn, name, before, after in functions:
        rebind(fn, tracer.wrap(name, fn, before, after))

    pide.ValueSurface.to_csv = tracer.wrap(
        "pide.to_csv", pide.ValueSurface.to_csv, after=written("pide.surface_bytes"))

    cfg_cls = config.ExperimentConfig
    from_file = cfg_cls.__dict__["from_file"].__func__
    cfg_cls.from_file = classmethod(tracer.wrap("config.from_file", from_file))
    for builder in ("theta_set", "mode", "grid", "payoff", "scheme", "sim_config"):
        setattr(cfg_cls, builder,
                tracer.wrap(f"config.{builder}", getattr(cfg_cls, builder)))

    make_payoff = payoffs.make_payoff

    def counted_make_payoff(*args, **kwargs):
        return tracer.count_values(make_payoff(*args, **kwargs))

    rebind(make_payoff, functools.wraps(make_payoff)(counted_make_payoff))
