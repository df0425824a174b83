import math

import numpy as np
import pytest

import nlaffine as nl
from nlaffine.montecarlo import bundle_to_csv


FULL = nl.GeneratorMode.standard(nl.StateSpace.full(1))
HALF = nl.GeneratorMode.standard(nl.StateSpace.half(1))


def unit_jump_theta(lam=1.0, h=None):
    """Compound Poisson with unit jumps; drift carries the h-moment."""
    h = h or nl.TruncationFunction(1.0)
    m = nl.AtomicLevyMeasure([[1.0]], [lam])
    b0 = lam * float(h(np.array([1.0]))[0])
    return nl.AffineParameter.scalar(beta0=b0, nu0=m)


class TestDegenerateDynamics:
    def test_zero_parameter_constant_paths(self):
        cfg = nl.SimConfig(dt=0.1, horizon=1.0, n_paths=200, seed=3, store_paths=True)
        b = nl.simulate_paths(nl.AffineParameter.zero(1), [0.7], cfg, FULL)
        assert np.all(b.terminal == 0.7)
        assert np.all(b.running_sup == 0.0)
        assert np.all(np.isnan(b.exit_time))

    def test_start_outside_half_line(self):
        cfg = nl.SimConfig(dt=0.1, horizon=1.0, n_paths=100, seed=3, store_paths=True)
        theta = unit_jump_theta()
        b = nl.simulate_paths(theta, [-1.0], cfg, HALF)
        assert np.all(b.terminal == -1.0)
        assert np.all(b.exit_time == 0.0)

    def test_constant_payoff_exact(self):
        cfg = nl.SimConfig(dt=0.1, horizon=0.5, n_paths=500, seed=4)
        theta = nl.AffineParameter.scalar(alpha0=1.0)
        const = nl.TestFunction("c", lambda x: 0.1, lambda x: np.zeros_like(x),
                                lambda x: np.zeros((1, 1)))
        mean, se = nl.estimate_expectation(theta, [0.0], const, 0.5, cfg, FULL)
        assert mean == 0.1 and se == 0.0


class TestReproducibility:
    def test_bitwise_identical_given_seed(self):
        theta = nl.AffineParameter.scalar(beta0=0.2, alpha0=0.5,
                                          nu0=nl.AtomicLevyMeasure([[0.7]], [0.8]))
        cfg = nl.SimConfig(dt=0.02, horizon=0.5, n_paths=1000, seed=42)
        b1 = nl.simulate_paths(theta, [0.1], cfg, FULL)
        b2 = nl.simulate_paths(theta, [0.1], cfg, FULL)
        assert np.array_equal(b1.terminal, b2.terminal)
        assert np.array_equal(b1.running_sup, b2.running_sup)
        assert np.array_equal(b1.seeds, b2.seeds)

    def test_paths_independent_of_count(self):
        theta = nl.AffineParameter.scalar(beta0=0.2, alpha0=0.5,
                                          nu0=nl.AtomicLevyMeasure([[0.7]], [0.8]))
        big = nl.SimConfig(dt=0.02, horizon=0.5, n_paths=200, seed=42)
        small = nl.SimConfig(dt=0.02, horizon=0.5, n_paths=50, seed=42)
        b_big = nl.simulate_paths(theta, [0.1], big, FULL)
        b_small = nl.simulate_paths(theta, [0.1], small, FULL)
        assert np.array_equal(b_big.terminal[:50], b_small.terminal)

    def test_batching_invisible(self):
        theta = nl.AffineParameter.scalar(alpha0=0.5)
        a = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=300, seed=9, batch_size=300)
        bsz = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=300, seed=9, batch_size=64)
        ba = nl.simulate_paths(theta, [0.0], a, FULL)
        bb = nl.simulate_paths(theta, [0.0], bsz, FULL)
        assert np.array_equal(ba.terminal, bb.terminal)


class TestExitBehaviour:
    def exit_theta(self):
        # square-root diffusion, inward drift at the origin
        return nl.AffineParameter.scalar(beta0=1.0, alpha1=1.0)

    def test_frozen_after_exit_and_no_reentry(self):
        theta = nl.AffineParameter.scalar(
            beta0=0.05, alpha1=1.0,
        )
        cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=2000, seed=21,
                           store_paths=True)
        b = nl.simulate_paths(theta, [0.05], cfg, HALF)
        exited = ~np.isnan(b.exit_time)
        assert np.any(exited)  # Feller index below one: exits happen
        b.verify_frozen_after_exit()
        space = nl.StateSpace.half(1)
        for i in np.nonzero(exited)[0]:
            j = int(round(b.exit_time[i] / 0.05))
            assert not space.contains(b.skeletons[i, j])
            # frozen exactly at the first outside state, never back in
            assert np.all(b.skeletons[i, j:] == b.skeletons[i, j])

    def test_exit_fraction_shrinks_with_dt(self):
        theta = self.exit_theta()
        fractions = []
        for dt in (0.05, 0.0125):
            cfg = nl.SimConfig(dt=dt, horizon=1.0, n_paths=20000, seed=11)
            b = nl.simulate_paths(theta, [0.2], cfg, HALF)
            exits = int(np.sum(~np.isnan(b.exit_time)))
            # continuous-only dynamics: every exit is a no-jump exit
            assert b.no_jump_exit_count == exits
            fractions.append(exits / 20000)
        assert fractions[0] > 0.01  # coarse grid does step across the boundary
        assert fractions[0] / max(fractions[1], 1e-12) >= 2.0

    def test_clamp_box_flags_paths(self):
        theta = nl.AffineParameter.scalar(beta0=5.0)
        cfg = nl.SimConfig(dt=0.25, horizon=2.0, n_paths=50, seed=1,
                           clamp_box=([-1.0], [1.0]))
        b = nl.simulate_paths(theta, [0.0], cfg, FULL)
        assert b.flagged_count == 50

    def test_clamp_box_must_contain_start(self):
        cfg = nl.SimConfig(dt=0.1, horizon=1.0, n_paths=10, seed=1,
                           clamp_box=([1.0], [2.0]))
        with pytest.raises(ValueError, match="clamp box"):
            nl.simulate_paths(nl.AffineParameter.zero(1), [0.0], cfg, FULL)

    def test_negative_state_dependent_weight_rejected(self):
        # nu0 + x nu1 turns negative left of x = -0.1 while the bound over
        # the clamp box keeps candidates firing
        theta = nl.AffineParameter.scalar(
            beta0=-3.0,
            nu0=nl.AtomicLevyMeasure([[1.0]], [0.5]),
            nu1=nl.AtomicLevyMeasure([[1.0]], [5.0]),
        )
        cfg = nl.SimConfig(dt=0.05, horizon=2.0, n_paths=200, seed=2,
                           clamp_box=([-5.0], [5.0]))
        with pytest.raises(ValueError, match="negative jump weight"):
            nl.simulate_paths(theta, [0.5], cfg, FULL)


class TestDistributions:
    def test_compound_poisson_mean(self):
        theta = unit_jump_theta(lam=1.0)
        cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=40000, seed=2)
        ident = nl.TestFunction("id", lambda x: float(x[0]),
                                lambda x: np.ones(1), lambda x: np.zeros((1, 1)))
        mean, se = nl.estimate_expectation(theta, [0.0], ident, 1.0, cfg, FULL)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_pure_diffusion_second_moment(self):
        theta = nl.AffineParameter.scalar(alpha0=1.0)
        cfg = nl.SimConfig(dt=0.01, horizon=1.0, n_paths=40000, seed=8)
        mean, se = nl.estimate_expectation(theta, [0.0], nl.make_payoff("square"),
                                           1.0, cfg, FULL)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_capped_poisson_series_oracle(self):
        theta = unit_jump_theta(lam=1.0)
        cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=30000, seed=14)
        oracle = sum(math.exp(-1.0) / math.factorial(n) * min(n, 2)
                     for n in range(31))
        mean, se = nl.estimate_expectation(theta, [0.0],
                                           nl.make_payoff("min_cap", c=2.0),
                                           1.0, cfg, FULL)
        assert abs(mean - oracle) <= 3.0 * se

    def test_state_dependent_intensity_thinning(self):
        # intensity lam(x) = 1 + x, unit upward jumps on the half-line:
        # E[X_t] solves m' = 1 + m, m(0) = x0 -> m(t) = (1+x0) e^t - 1
        h = nl.TruncationFunction(1.0)
        m0 = nl.AtomicLevyMeasure([[1.0]], [1.0])
        theta = nl.AffineParameter.scalar(
            beta0=1.0, beta1=1.0, nu0=m0, nu1=nl.AtomicLevyMeasure([[1.0]], [1.0]),
        )
        cfg = nl.SimConfig(dt=0.005, horizon=0.5, n_paths=30000, seed=17)
        ident = nl.TestFunction("id", lambda x: float(x[0]),
                                lambda x: np.ones(1), lambda x: np.zeros((1, 1)))
        mean, se = nl.estimate_expectation(theta, [0.5], ident, 0.5, cfg, HALF)
        want = 1.5 * math.exp(0.5) - 1.0
        assert abs(mean - want) <= 3.0 * se + 0.01  # O(dt) intensity freezing bias


class TestMonotonicityAndBounds:
    def test_pathwise_payoff_ordering(self):
        theta = nl.AffineParameter.scalar(beta0=0.1, alpha0=0.4)
        cfg = nl.SimConfig(dt=0.02, horizon=0.5, n_paths=2000, seed=5)
        b = nl.simulate_paths(theta, [0.0], cfg, FULL)
        lo = nl.make_payoff("min_cap", c=0.5)
        hi = nl.make_payoff("min_cap", c=1.5)
        vlo = np.array([lo.value(x) for x in b.terminal])
        vhi = np.array([hi.value(x) for x in b.terminal])
        assert np.all(vlo <= vhi)

    def test_lower_bound_attained_at_dominating_vertex(self):
        # convex payoff under centered Gaussians: variance wants to be big
        ps = nl.CoefficientBox(
            beta_lo=[[0.0], [0.0]], beta_hi=[[0.0], [0.0]],
            alpha_lo=[[[0.25]], [[0.0]]], alpha_hi=[[[1.0]], [[0.0]]],
        )
        cfg = nl.SimConfig(dt=0.02, horizon=1.0, n_paths=4000, seed=6)
        res = nl.lower_bound_sublinear(ps, [0.0], nl.make_payoff("square"),
                                       1.0, cfg, FULL)
        assert ps.vertices()[res.vertex].alpha[0, 0, 0] == 1.0

    def test_singleton_lower_bound_matches_estimate(self):
        theta = nl.AffineParameter.scalar(alpha0=0.5)
        ps = nl.FiniteParameterSet([theta])
        cfg = nl.SimConfig(dt=0.02, horizon=0.5, n_paths=2000, seed=7)
        res = nl.lower_bound_sublinear(ps, [0.0], nl.make_payoff("square"),
                                       0.5, cfg, FULL)
        mean, se = nl.estimate_expectation(theta, [0.0], nl.make_payoff("square"),
                                           0.5, cfg, FULL)
        assert res.mean == mean and res.se == se and res.vertex == 0

    def test_winning_bundle_and_first_max(self):
        thetas = [nl.AffineParameter.scalar(alpha0=a) for a in (0.25, 1.0, 1.0, 0.5)]
        ps = nl.FiniteParameterSet(thetas)
        cfg = nl.SimConfig(dt=0.02, horizon=0.5, n_paths=2000, seed=6)
        res = nl.lower_bound_sublinear(ps, [0.0], nl.make_payoff("square"),
                                       0.5, cfg, FULL)
        # vertices 1 and 2 share their paths, so their means tie exactly
        assert res.all_means[1] == res.all_means[2] == max(res.all_means)
        assert res.vertex == 1
        want = nl.simulate_paths(thetas[1], [0.0], cfg, FULL)
        assert np.array_equal(res.bundle.terminal, want.terminal)
        assert np.array_equal(res.bundle.running_sup, want.running_sup)


class TestMomentBound:
    def test_zero_parameter_degenerate(self):
        cfg = nl.SimConfig(dt=0.001, horizon=0.1, n_paths=500, seed=1)
        rep = nl.moment_bound_report(nl.AffineParameter.zero(1), [0.0], 1.0,
                                     [0.001 * 2**k for k in range(5)], cfg, FULL)
        assert rep.degenerate
        assert all(m == 0.0 for m in rep.moments)

    def test_diffusion_sqrt_scaling(self):
        theta = nl.AffineParameter.scalar(alpha0=1.0)
        cfg = nl.SimConfig(dt=0.001, horizon=0.1, n_paths=20000, seed=3)
        tg = [0.001 * 2**k for k in range(7)]
        rep = nl.moment_bound_report(theta, [0.0], 1.0, tg, cfg, FULL)
        assert 0.4 <= rep.slope <= 0.6
        assert rep.ratio_spread <= 5.0

    def test_large_time_rejected(self):
        cfg = nl.SimConfig(dt=0.001, horizon=0.5, n_paths=100, seed=1)
        with pytest.raises(ValueError, match="small-time"):
            nl.moment_bound_report(nl.AffineParameter.zero(1), [0.0], 1.0,
                                   [0.5], cfg, FULL)

    def test_compound_poisson_ratio_stable(self):
        # p = 2: E[sup |X|^2] = t + t^2 matches the envelope t^2 + t exactly,
        # so the fitted constant is flat across the whole grid
        theta = unit_jump_theta(lam=1.0)
        cfg = nl.SimConfig(dt=0.001, horizon=0.1, n_paths=20000, seed=4)
        tg = [0.001 * 2**k for k in range(7)]
        rep = nl.moment_bound_report(theta, [0.0], 2.0, tg, cfg, FULL)
        assert rep.ratio_spread <= 5.0


class TestBundleCsv:
    def test_format(self, tmp_path):
        theta = nl.AffineParameter.scalar(beta0=0.05, alpha1=1.0)
        cfg = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=20, seed=13)
        b = nl.simulate_paths(theta, [0.05], cfg, HALF)
        p = tmp_path / "bundle.csv"
        bundle_to_csv(b, p)
        raw = p.read_bytes()
        lines = raw.split(b"\n")
        assert lines[0] == b"path_index,seed,terminal,running_sup,exit_time"
        assert len(lines) == 22  # header + 20 rows + trailing newline
        assert b"\r" not in raw
