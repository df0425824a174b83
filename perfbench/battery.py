"""battery_small: seeded random 1-D problems run in one process through the
library API, in the manner of acceptance criterion 5.

Problem i cycles through three kinds (half-space generalized compound
Poisson, hat mode, full space), one to three vertices plus one extra vertex,
zero to two jump atoms per vertex and two payoff pairs; the seed draws every
coefficient, atom size and weight, payoff level, grid size and horizon.  The
grid spacing is fixed at 0.05 and the coefficient ranges keep every solve on
the 128-step floor, so seeds differ in inputs, not in load.  Monte Carlo
streams are keyed as in criterion 5, by 1000 + problem index.
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np

import nlaffine as nl
from nlaffine.config import generalized_compound_poisson_set

N_PROBLEMS = 24
DX = 0.05
MIN_STEPS = 128
MC_PATHS = 4000
MC_STEPS = 64
KINDS = ("half", "hat", "full")


def _atoms(rng, count):
    atoms = []
    for _ in range(count):
        z = float(rng.uniform(0.2, 1.5)) * (1 if rng.random() < 0.7 else -1)
        atoms.append(([z], float(rng.uniform(0.1, 0.6))))
    return nl.AtomicLevyMeasure(atoms, dim=1) if atoms else nl.AtomicLevyMeasure.empty(1)


def make_problem(rng, i, wrap_payoff):
    kind = KINDS[i % len(KINDS)]
    n_vertices = 1 + (i // len(KINDS)) % 3
    if kind == "half":
        # one up and one down atom per vertex: intensity lam0 + lam1 x gives
        # thinning rejections, the down atom gives exits from the half-line
        h = nl.TruncationFunction(1.0)
        measures = [
            nl.AtomicLevyMeasure(
                [[float(rng.uniform(0.2, 1.5))], [-float(rng.uniform(0.2, 1.5))]],
                [float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0))],
            )
            for _ in range(n_vertices)
        ]
        lam0 = float(rng.uniform(0.1, 0.6))
        lam1 = float(rng.uniform(0.02, 0.1))
        thetas = generalized_compound_poisson_set(
            [lam0, lam0], [lam1, lam1], measures, h).vertices()
        mode = nl.GeneratorMode.standard(nl.StateSpace.half(1))
        # start inside: from the boundary point 0 the zero net drift rounds
        # to a tiny negative step and every path exits at its first step
        x0 = 1.0
    else:
        hat = kind == "hat"
        thetas = [
            nl.AffineParameter.scalar(
                beta0=float(rng.uniform(-0.3, 0.3)),
                beta1=float(rng.uniform(-0.1, 0.0)) if hat else 0.0,
                alpha0=float(rng.uniform(0.05, 0.25)),
                alpha1=float(rng.uniform(0.0, 0.005)) if hat else 0.0,
                nu0=_atoms(rng, (i + k) % 3),
            )
            for k in range(n_vertices)
        ]
        mode = nl.GeneratorMode.hat() if hat else nl.GeneratorMode.standard(
            nl.StateSpace.full(1))
        x0 = 0.0
    extra = nl.AffineParameter.scalar(
        beta0=float(rng.uniform(-0.3, 0.3)),
        alpha0=float(rng.uniform(0.05, 0.25)),
    )
    nodes = int(rng.integers(90, 120)) * 2 + 1  # odd, so 0 is a node
    half = 0.5 * (nodes - 1) * DX
    T = float(rng.uniform(0.25, 0.35))
    if i % 2 == 0:
        c = float(rng.uniform(0.3, 1.0))
        lo = nl.make_payoff("min_cap", c=c)
        hi = nl.make_payoff("min_cap", c=c + float(rng.uniform(0.2, 1.0)))
    else:
        lo = nl.make_payoff("cos")
        off = float(rng.uniform(0.1, 0.8))
        hi = wrap_payoff(nl.TestFunction(
            "cos+off", lambda x, o=off: math.cos(np.sum(x)) + o,
            lo.gradient, lo.hessian))
    return {
        "small": nl.FiniteParameterSet(thetas),
        "big": nl.FiniteParameterSet(list(thetas) + [extra]),
        "mode": mode,
        "grid": nl.Grid.line(-half, half, nodes),
        "T": T,
        "x0": [x0],
        "lo": lo,
        "hi": hi,
    }


class _Phases:
    """Wall time of top-level library calls per phase, and the process's
    peak RSS when each phase last ran."""

    def __init__(self):
        self.seconds = {"solve": 0.0, "check": 0.0, "simulate": 0.0, "compare": 0.0}
        self.rss_kb = dict.fromkeys(self.seconds, 0)

    def call(self, phase, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[phase] += time.perf_counter() - started
        self.rss_kb[phase] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result


def _compare(s_lo, s_hi, s_small, s_big, lb, T, x0):
    """The checks of criterion 5: exact orderings of the horizon layers, and
    the Monte Carlo bracket mean <= pide + 3 se + 5e-3."""
    pide_value = s_lo.value_at(T, x0)
    return {
        "payoff ordering": bool(np.all(s_lo.values[-1] <= s_hi.values[-1])),
        "set ordering": bool(np.all(s_small.values[-1] <= s_big.values[-1])),
        "mc bracket": bool(lb.mean <= pide_value + 3.0 * lb.se + 5e-3),
    }


def run(seed: int, wrap_payoff=lambda f: f) -> dict:
    """One pass over the battery.  Returns phase seconds, phase peak RSS and
    the outcome of every check."""
    rng = np.random.default_rng(seed)
    phases = _Phases()
    checks = []
    for i in range(N_PROBLEMS):
        p = make_problem(rng, i, wrap_payoff)
        small, big, mode, grid, T, x0 = (
            p[k] for k in ("small", "big", "mode", "grid", "T", "x0"))
        scheme = nl.SchemeConfig(min_time_steps=MIN_STEPS)
        s_lo = phases.call("solve", nl.solve, small, grid, p["lo"], T, mode, scheme=scheme)
        s_hi = phases.call("solve", nl.solve, small, grid, p["hi"], T, mode, scheme=scheme)
        s_big = phases.call("solve", nl.solve, big, grid, p["lo"], T, mode, scheme=scheme)
        common = nl.SchemeConfig(dt=s_big.dt)
        s_small = phases.call("solve", nl.solve, small, grid, p["lo"], T, mode, scheme=common)

        split = (s_lo.n_steps // 2) * s_lo.dt
        phases.call("check", nl.dpp_gap, s_lo, split)
        phases.call("check", nl.holder_exponent, s_lo, x0)

        sim = nl.SimConfig(dt=T / MC_STEPS, horizon=T, n_paths=MC_PATHS, seed=1000 + i)
        lb = phases.call("simulate", nl.lower_bound_sublinear, small, x0, p["lo"], T,
                         sim, mode)

        outcome = phases.call("compare", _compare, s_lo, s_hi, s_small, s_big, lb, T, x0)
        checks.extend([f"problem {i}: {name}", ok] for name, ok in outcome.items())
    return {"phase_s": phases.seconds, "phase_rss_kb": phases.rss_kb, "checks": checks}
