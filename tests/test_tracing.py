"""The benchmark's span tracer (perfbench/tracing.py) wraps library functions
by name and reads attributes of their arguments and results; a rename in the
library must fail here rather than only in a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_CALLS = """
import json
import nlaffine as nl
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=0.1, alpha0=0.5)])
payoff = nl.make_payoff("square")
hat = nl.GeneratorMode.hat()
surface = nl.solve(ps, nl.Grid.line(-2.0, 2.0, 21), payoff, 0.25, hat,
                   scheme=nl.SchemeConfig(min_time_steps=8))
nl.dpp_gap(surface, surface.dt * (surface.n_steps // 2))
nl.uniqueness_gate(ps, ([-1.0], [1.0]), n_samples=8)
nl.lower_bound_sublinear(ps, [0.0], payoff, 0.25,
                         nl.SimConfig(dt=0.05, horizon=0.25, n_paths=16, seed=1), hat)
print(json.dumps(tracer.summary()))
"""


TRACED_PILOT = """
import json
import nlaffine as nl
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=b, alpha0=0.5)
                            for b in (0.1, -0.1)])
nl.lower_bound_sublinear(ps, [0.0], nl.make_payoff("square"), 0.25,
                         nl.SimConfig(dt=0.05, horizon=0.25, n_paths=40, seed=1),
                         nl.GeneratorMode.hat())
print(json.dumps(tracer.summary()))
"""


def traced_summary(script):
    """The (spans, counts) summary that `script` prints under the tracer."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    return summary["spans"], summary["counts"]


def test_traced_library_calls_summarise():
    spans, counts = traced_summary(TRACED_CALLS)
    for name in ("pide.dpp_gap", "conditions.uniqueness_gate",
                 "montecarlo.lower_bound_sublinear", "montecarlo.simulate_paths",
                 "params.check_coefficient_bounds", "generator.sqrt_diffusion_lipschitz",
                 "conditions.check_comparison_conditions"):
        assert spans[name][0] >= 1, name
    assert spans["pide.solve"][0] == 1  # dpp_gap marches without a second solve
    assert counts["pide.node_steps"] > 0
    assert counts["conditions.samples"] == 8
    assert counts["montecarlo.path_steps"] == 16 * 5


def test_two_vertex_lower_bound_traces_pilot_and_winner():
    # a pilot sweep of max(40 // 8, 1) = 5 paths per vertex, then the
    # winner's 40 paths, each over 5 steps
    spans, counts = traced_summary(TRACED_PILOT)
    assert spans["montecarlo.lower_bound_sublinear"][0] == 1
    assert spans["montecarlo.simulate_paths"][0] == 2
    assert counts["montecarlo.path_steps"] == (2 * 5 + 40) * 5
