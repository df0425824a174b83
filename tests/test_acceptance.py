"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

import nlaffine as nl
from nlaffine.cli import main
from nlaffine.config import (
    compound_poisson_set,
    gaussian_box_set,
    generalized_compound_poisson_set,
)
from nlaffine.params import linear_part_norm, combined_atom_table


FULL = nl.GeneratorMode.standard(nl.StateSpace.full(1))
HALF = nl.GeneratorMode.standard(nl.StateSpace.half(1))


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def poisson_capped_mean(lam, cap, terms=31):
    return sum(
        math.exp(-lam) * lam**n / math.factorial(n) * min(n, cap)
        for n in range(terms)
    )


def crit1_problem():
    h = nl.TruncationFunction(1.0)
    m = nl.AtomicLevyMeasure([[1.0]], [1.0])
    b0 = 1.0 * float(h(np.array([1.0]))[0])  # lam * h-moment of the unit atom
    theta = nl.AffineParameter.scalar(beta0=b0, nu0=m)
    ps = nl.FiniteParameterSet([theta])
    grid = nl.Grid.line(-5.0, 10.0, 601)  # >= 400 nodes, 0 and the atom on-grid
    scheme = nl.SchemeConfig(cfl=0.4, min_time_steps=512)
    return theta, ps, grid, scheme, h


def crit2_problem():
    ps = gaussian_box_set([0.0, 0.0], [0.25, 1.0])
    grid = nl.Grid.line(-12.0, 12.0, 481)
    return ps, grid


class TestCriterion1:
    def test_compound_poisson_oracle(self):
        started = time.perf_counter()
        theta, ps, grid, scheme, h = crit1_problem()
        payoff = nl.make_payoff("min_cap", c=2.0)
        oracle = poisson_capped_mean(1.0, 2.0)

        mode = nl.GeneratorMode.standard(nl.StateSpace.full(1), h)
        surf = nl.solve(ps, grid, payoff, 1.0, mode, scheme=scheme)
        pide_err = abs(surf.value_at(1.0, [0.0]) - oracle)

        sim = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=100000, seed=7)
        mean, se = nl.estimate_expectation(theta, [0.0], payoff, 1.0, sim, mode)
        mc_err = abs(mean - oracle)
        elapsed = time.perf_counter() - started

        ok = pide_err <= 5e-3 and mc_err <= 3.0 * se and elapsed <= 30.0
        report(1, ok,
               f"oracle {oracle:.6f}; pide err {pide_err:.2e} (tol 5e-3); "
               f"mc err {mc_err:.2e} vs 3se {3*se:.2e}; {elapsed:.1f}s of 30s")


class TestCriterion2:
    def test_worst_case_diffusion(self):
        ps, grid = crit2_problem()
        surf = nl.solve(ps, grid, nl.make_payoff("square"), 1.0,
                        nl.GeneratorMode.hat())
        x = grid.axes[0]
        mask = surf.interior_mask(extra_margin=6.0)
        err = float(np.max(np.abs(surf.values[-1] - (x**2 + 1.0))[mask]))
        hi_vertex = max(
            range(len(ps.vertices())),
            key=lambda i: ps.vertices()[i].alpha[0, 0, 0],
        )
        argmax_ok = bool(np.all(surf.argmax_last[mask] == hi_vertex))
        ok = err <= 1e-2 and argmax_ok
        report(2, ok,
               f"interior-core err {err:.2e} (tol 1e-2) on {int(mask.sum())} "
               f"nodes; argmax at top variance everywhere: {argmax_ok}")


class TestCriterion3:
    def test_restart_identity(self):
        theta, ps, grid, scheme, h = crit1_problem()
        surf1 = nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), 1.0,
                         nl.GeneratorMode.standard(nl.StateSpace.full(1), h), scheme=scheme)
        gap1 = nl.dpp_gap(surf1, 0.5)

        ps2, grid2 = crit2_problem()
        surf2 = nl.solve(ps2, grid2, nl.make_payoff("square"), 1.0,
                         nl.GeneratorMode.hat())
        gap2 = nl.dpp_gap(surf2, 0.5, extra_margin=6.0)

        ok = gap1 <= 5e-3 and gap2 <= 5e-3
        report(3, ok, f"split at T/2: gaps {gap1:.2e} and {gap2:.2e} (tol 5e-3)")


class TestCriterion4:
    def test_frozen_outside_state_space(self):
        theta = nl.AffineParameter.scalar(
            beta0=0.1, beta1=-0.2, alpha1=0.3,
            nu0=nl.AtomicLevyMeasure([[0.5]], [0.4]),
            nu1=nl.AtomicLevyMeasure([[1.0]], [0.2]),
        )
        ps = nl.FiniteParameterSet([theta])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        payoff = nl.make_payoff("min_cap", c=2.0)
        surf = nl.solve(ps, grid, payoff, 0.6, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=128))
        x = grid.axes[0]
        neg = x < 0
        want = np.array([payoff.value(p) for p in grid.points()])
        frozen_exact = all(
            np.array_equal(surf.values[j][neg], want[neg])
            for j in range(surf.values.shape[0])
        )
        cfg = nl.SimConfig(dt=0.01, horizon=0.6, n_paths=2000, seed=9)
        b = nl.simulate_paths(theta, [-1.0], cfg, HALF)
        paths_ok = bool(
            np.all(b.terminal == -1.0)
            and np.all(b.exit_time == 0.0)
            and np.all(b.running_sup == 0.0)
        )
        ok = frozen_exact and paths_ok
        report(4, ok,
               f"pide frozen rows exact: {frozen_exact}; all {b.n_paths} paths "
               f"constant with exit time 0: {paths_ok}")


def random_ordering_config(rng):
    """One randomized problem for the ordering battery."""
    use_hat = rng.random() < 0.4
    n_vertices = int(rng.integers(1, 4))
    thetas = []
    for _ in range(n_vertices):
        atoms = []
        for _ in range(int(rng.integers(0, 3))):
            z = float(rng.uniform(0.2, 1.5)) * (1 if rng.random() < 0.7 else -1)
            atoms.append(([z], float(rng.uniform(0.1, 0.6))))
        nu0 = nl.AtomicLevyMeasure(atoms, dim=1) if atoms \
            else nl.AtomicLevyMeasure.empty(1)
        thetas.append(
            nl.AffineParameter.scalar(
                beta0=float(rng.uniform(-0.3, 0.3)),
                beta1=float(rng.uniform(-0.2, 0.0)) if use_hat else 0.0,
                alpha0=float(rng.uniform(0.05, 0.6)),
                alpha1=float(rng.uniform(0.0, 0.3)) if use_hat else 0.0,
                nu0=nu0,
            )
        )
    extra = nl.AffineParameter.scalar(
        beta0=float(rng.uniform(-0.3, 0.3)),
        alpha0=float(rng.uniform(0.05, 0.8)),
    )
    mode = nl.GeneratorMode.hat() if use_hat else FULL
    half = float(rng.uniform(4.0, 6.0))
    nodes = int(rng.integers(90, 120)) * 2 + 1  # odd, so 0 is a node
    grid = nl.Grid.line(-half, half, nodes)
    T = float(rng.uniform(0.25, 0.5))
    c = float(rng.uniform(0.3, 1.0))
    if rng.random() < 0.5:
        lo = nl.make_payoff("min_cap", c=c)
        hi = nl.make_payoff("min_cap", c=c + float(rng.uniform(0.2, 1.0)))
    else:
        lo = nl.make_payoff("cos")
        off = float(rng.uniform(0.1, 0.8))
        hi = nl.TestFunction("cos+off", lambda x, o=off: math.cos(np.sum(x)) + o,
                             lo.gradient, lo.hessian)
    return thetas, extra, mode, grid, T, lo, hi


class TestCriterion5:
    def test_ordering_battery(self):
        rng = np.random.default_rng(2024)
        n_configs = 50
        violations = []
        for i in range(n_configs):
            thetas, extra, mode, grid, T, lo, hi = random_ordering_config(rng)
            small = nl.FiniteParameterSet(thetas)
            big = nl.FiniteParameterSet(thetas + [extra])
            sch = nl.SchemeConfig(min_time_steps=128)

            s_lo = nl.solve(small, grid, lo, T, mode, scheme=sch)
            s_hi = nl.solve(small, grid, hi, T, mode, scheme=sch)
            if not np.all(s_lo.values[-1] <= s_hi.values[-1]):
                violations.append((i, "payoff ordering"))

            s_big_probe = nl.solve(big, grid, lo, T, mode, scheme=sch)
            common = nl.SchemeConfig(dt=s_big_probe.dt)
            s_small = nl.solve(small, grid, lo, T, mode, scheme=common)
            if not np.all(s_small.values[-1] <= s_big_probe.values[-1] + 0.0):
                # re-solve big with its own derived dt == common dt
                violations.append((i, "set ordering"))

            sim = nl.SimConfig(dt=T / 64, horizon=T, n_paths=4000,
                               seed=1000 + i)
            res = nl.lower_bound_sublinear(small, [0.0], lo, T, sim, mode)
            pide_val = s_lo.value_at(T, [0.0])
            if res.mean > pide_val + 3.0 * res.se + 5e-3:
                violations.append((i, "mc bracket"))
        ok = not violations
        report(5, ok, f"{n_configs} randomized configs, violations: {violations}")


class TestCriterion6:
    def test_vertex_sufficiency(self):
        rng = np.random.default_rng(77)
        worst = -np.inf
        checked = 0
        for _ in range(20):
            blo, bhi = sorted(rng.uniform(-0.6, 0.6, 2))
            alo, ahi = sorted(rng.uniform(0.05, 0.9, 2))
            l1lo, l1hi = sorted(rng.uniform(0.0, 0.4, 2))
            atoms = [([float(rng.uniform(0.3, 1.6))], float(rng.uniform(0.1, 0.7)))]
            nu0 = nl.AtomicLevyMeasure(atoms, dim=1)
            ps = nl.CoefficientBox(
                beta_lo=[[blo], [0.0]], beta_hi=[[bhi], [0.0]],
                alpha_lo=[[[alo]], [[l1lo]]], alpha_hi=[[[ahi]], [[l1hi]]],
                nu_tuples=[(nu0, nl.AtomicLevyMeasure.empty(1))],
            )
            vs = ps.vertices()
            mode = nl.GeneratorMode.hat()
            f = [nl.make_payoff("square"), nl.make_payoff("cos")][
                int(rng.integers(0, 2))
            ]
            for _ in range(50):
                y = rng.normal(size=1) * 2
                x = rng.normal(size=1) * 2
                vmax, _ = nl.worst_case_generator(ps, y, f, x, mode)
                lam = rng.dirichlet(np.ones(len(vs)))
                mix = vs[0]
                acc = lam[0]
                for w, t in zip(lam[1:], vs[1:]):
                    mix = mix.convex_combination(t, w / (acc + w))
                    acc += w
                val = nl.generator_value(mode.coefficients(mix), f, x, y)
                worst = max(worst, val - vmax)
                checked += 1
        ok = worst <= 1e-12
        report(6, ok,
               f"{checked} interior parameters over 20 boxes; worst excess "
               f"over vertex max {worst:.2e} (tol 1e-12)")


def _oracle_ratios(theta, comp, rng, n=100000):
    """Direct samples of |c0 + C x| / (|x| + 1) over spheres of radius
    10^k, k = -3..6, plus the origin."""
    d = theta.dim
    dirs = rng.normal(size=(n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.repeat(10.0 ** np.arange(-3, 7), n // 10)
    xs = np.vstack([dirs[: len(radii)] * radii[:, None], np.zeros((1, d))])
    den = np.linalg.norm(xs, axis=1) + 1.0
    if comp == "beta":
        vals = np.linalg.norm(theta.beta[0][None, :] + xs @ theta.beta[1:], axis=1)
    elif comp == "alpha":
        A = theta.alpha[0][None] + np.tensordot(xs, theta.alpha[1:], axes=(1, 0))
        if d == 1:
            vals = np.abs(A[:, 0, 0])
        else:
            m = 0.5 * (A[:, 0, 0] + A[:, 1, 1])
            r = np.sqrt((0.5 * (A[:, 0, 0] - A[:, 1, 1])) ** 2 + A[:, 0, 1] ** 2)
            vals = np.abs(m) + r
    else:
        atoms, W = combined_atom_table(theta.nu)
        if atoms.shape[0] == 0:
            return np.zeros(1)
        nrm = np.linalg.norm(atoms, axis=1)
        fac = np.minimum(nrm * nrm, nrm)
        wts = W[None, :, 0] + np.einsum("nd,md->nm", xs, W[:, 1:])
        vals = np.abs(wts) @ fac
    return vals / den


class TestCriterion7:
    def test_norm_oracle(self):
        from test_params import random_theta

        rng = np.random.default_rng(4242)
        worst_excess = 0.0
        worst_attain = 1.0
        for i in range(100):
            d = 1 if i % 2 == 0 else 2
            theta = random_theta(rng, d=d)
            for comp in ("beta", "alpha", "nu"):
                cf = nl.growth_norm(theta, comp)
                ratios = _oracle_ratios(theta, comp, rng)
                top = float(np.max(ratios))
                if cf == 0.0:
                    assert top <= 1e-12
                    continue
                worst_excess = max(worst_excess, top - cf)
                worst_attain = min(worst_attain, top / cf)
        ok = worst_excess <= 1e-12 and worst_attain >= 1.0 - 1e-3
        report(7, ok,
               f"100 parameters x 3 components; oracle excess {worst_excess:.2e} "
               f"(tol 1e-12), attainment {worst_attain:.6f} (needs >= 0.999)")


class TestCriterion8:
    def test_small_time_moment_bound(self):
        theta = nl.AffineParameter.scalar(alpha0=1.0)
        cfg = nl.SimConfig(dt=0.001, horizon=0.1, n_paths=100000, seed=5)
        t_grid = [0.001 * 2**k for k in range(7)] + [0.1]
        rep = nl.moment_bound_report(theta, [0.0], 1.0, t_grid, cfg, FULL)
        ok = 0.4 <= rep.slope <= 0.6 and rep.ratio_spread <= 5.0
        report(8, ok,
               f"log-log slope {rep.slope:.3f} (in [0.4, 0.6]); "
               f"constant spread {rep.ratio_spread:.2f} (<= 5)")


class TestCriterion9:
    def test_linear_bound_and_admissibility(self):
        from test_params import random_theta

        h = nl.TruncationFunction(1.0)
        pos_measure = nl.AtomicLevyMeasure([[0.5], [1.5]], [0.6, 0.4])
        registry = {
            "compound_poisson": compound_poisson_set([0.5, 2.0], [pos_measure], h),
            "generalized_compound_poisson": generalized_compound_poisson_set(
                [0.2, 1.0], [0.0, 0.5], [pos_measure], h
            ),
            "gaussian_box": gaussian_box_set([-0.5, 0.5], [0.25, 1.0]),
            "singleton": nl.FiniteParameterSet(
                [nl.AffineParameter.scalar(beta0=0.3, alpha0=0.4)]
            ),
        }
        lin_ok = all(nl.check_linear_bound(ps).passed for ps in registry.values())

        rng = np.random.default_rng(31)
        rand_ok = True
        for _ in range(100):
            theta = random_theta(rng, d=int(rng.integers(1, 3)))
            rand_ok &= nl.check_linear_bound(nl.FiniteParameterSet([theta])).passed

        cp = registry["compound_poisson"]
        gcp = registry["generalized_compound_poisson"]
        adm_ok = all(
            nl.check_admissible(t, HALF).admissible
            and nl.check_admissible(t, FULL).admissible
            for t in cp.vertices()
        ) and all(
            nl.check_admissible(t, HALF).admissible for t in gcp.vertices()
        )
        ok = lin_ok and rand_ok and adm_ok
        report(9, ok,
               f"registry linear bound: {lin_ok}; 100 random parameters: "
               f"{rand_ok}; example families admissible: {adm_ok}")


class TestCriterion10:
    def test_bitwise_determinism(self, tmp_path):
        config = {
            "dimension": 1,
            "parameter_set": {
                "kind": "example",
                "name": "compound_poisson",
                "lambda": [0.5, 1.0],
                "measures": [[[1.0, 0.7], [0.4, 0.3]]],
            },
            "state_space": {"kind": "full"},
            "mode": "standard",
            "payoff": {"name": "min_cap", "c": 2.0},
            "grid": {"lower": [-4.0], "upper": [8.0], "nodes": [241]},
            "horizon": 0.5,
            "scheme": {"cfl": 0.4, "min_time_steps": 128},
            "sim": {"dt": 0.01, "paths": 3000, "seed": 123, "x0": [0.0]},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        surf_same = (outs[0] / "surface.csv").read_bytes() == \
            (outs[1] / "surface.csv").read_bytes()
        bundle_same = (outs[0] / "bundle.csv").read_bytes() == \
            (outs[1] / "bundle.csv").read_bytes()
        ok = surf_same and bundle_same
        report(10, ok,
               f"surface.csv identical: {surf_same}; bundle.csv identical: "
               f"{bundle_same}")
