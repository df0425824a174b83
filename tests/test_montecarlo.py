import hashlib
import math
import os
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlaffine as nl
from nlaffine import montecarlo, pide
from nlaffine.config import generalized_compound_poisson_set
from nlaffine.generator import CoefficientForm
from nlaffine.montecarlo import _draw_batch, _payoff_moments, bundle_to_csv
from nlaffine.params import WEIGHT_TOL, CoefficientError


FULL = nl.GeneratorMode.standard(nl.StateSpace.full(1))
HALF = nl.GeneratorMode.standard(nl.StateSpace.half(1))


def unit_jump_theta(lam=1.0, h=None):
    """Compound Poisson with unit jumps; drift carries the h-moment."""
    h = h or nl.TruncationFunction(1.0)
    m = nl.AtomicLevyMeasure([[1.0]], [lam])
    b0 = lam * float(h(np.array([1.0]))[0])
    return nl.AffineParameter.scalar(beta0=b0, nu0=m)


def jump_diffusion_stream(batch_size, n_paths=250):
    """Diffusion plus two atoms, one with a state-dependent weight, started
    near the half-line boundary: thinning rejects and paths exit."""
    theta = nl.AffineParameter.scalar(
        beta0=0.1, alpha0=0.4,
        nu0=nl.AtomicLevyMeasure([[0.5], [-0.3]], [0.4, 0.6]),
        nu1=nl.AtomicLevyMeasure([[0.5]], [0.3]),
    )
    cfg = nl.SimConfig(dt=0.04, horizon=0.6, n_paths=n_paths, seed=77,
                       batch_size=batch_size)
    return nl.simulate_paths(theta, [0.3], cfg, HALF)


def stream_digest(bundle):
    h = hashlib.sha256()
    for a in (bundle.terminal, bundle.running_sup, bundle.exit_time):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestSimConfig:
    @pytest.mark.parametrize("field, message", [
        ({"seed": -1}, "seed must lie in"),
        ({"seed": 2**64}, "seed must lie in"),
        ({"batch_size": 0}, "batch_size must be at least 1"),
        ({"batch_size": -3}, "batch_size must be at least 1"),
        ({"dt": math.nan}, "need finite dt > 0"),
        ({"dt": math.inf}, "need finite dt > 0"),
        ({"horizon": math.nan}, "finite horizon >= 0"),
        ({"horizon": math.inf}, "finite horizon >= 0"),
    ])
    def test_out_of_range_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            nl.SimConfig(**{"dt": 0.1, "horizon": 1.0, "n_paths": 10, **field})

    @pytest.mark.parametrize("field", [
        {"seed": 1.5}, {"seed": True}, {"n_paths": 2.5}, {"n_paths": True},
        {"n_paths": 10.0}, {"batch_size": 2.5}, {"batch_size": False},
    ])
    def test_integer_fields_must_be_integers(self, field):
        name, value = next(iter(field.items()))
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            nl.SimConfig(**{"dt": 0.1, "horizon": 1.0, "n_paths": 10, **field})

    def test_numpy_integers_accepted(self):
        cfg = nl.SimConfig(dt=0.1, horizon=0.2, n_paths=np.int64(3), seed=np.uint64(5),
                           batch_size=np.int32(2))
        assert nl.simulate_paths(nl.AffineParameter.scalar(alpha0=1.0), [0.0], cfg,
                                 FULL).n_paths == 3

    def test_largest_seed_accepted(self):
        cfg = nl.SimConfig(dt=0.1, horizon=0.2, n_paths=3, seed=2**64 - 1)
        b = nl.simulate_paths(nl.AffineParameter.scalar(alpha0=1.0), [0.0], cfg, FULL)
        assert np.all(np.isfinite(b.terminal))


class TestDegenerateDynamics:
    def test_zero_parameter_constant_paths(self):
        cfg = nl.SimConfig(dt=0.1, horizon=1.0, n_paths=200, seed=3)
        b = nl.simulate_paths(nl.AffineParameter.zero(1), [0.7], cfg, FULL)
        assert np.all(b.terminal == 0.7)
        assert np.all(b.running_sup == 0.0)
        assert np.all(np.isnan(b.exit_time))

    def test_start_outside_half_line(self):
        cfg = nl.SimConfig(dt=0.1, horizon=1.0, n_paths=100, seed=3)
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

    @pytest.mark.parametrize("batch_size", [64, 250])
    def test_stream_golden_digest(self, batch_size):
        """Pins the draws of every path: recorded with one Philox stream
        per (seed, 1,024-path block) and a sub-stream per kind of draw."""
        b = jump_diffusion_stream(batch_size)
        assert np.any(np.isnan(b.exit_time)) and not np.all(np.isnan(b.exit_time))
        assert stream_digest(b) == (
            "bf6c27560e395143a856f0ed6242edd6aa7cfca361339328dc4a47c6f559d391")

    def test_one_bit_generator_per_batch(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        jump_diffusion_stream(64)
        assert 1 <= len(built) <= math.ceil(250 / 64)


class TestBlockKeys:
    """Path i's draws depend only on (seed, i // BLOCK, i % BLOCK): 2,500
    paths cross two block boundaries."""

    @staticmethod
    def bundle_bytes(tmp_path, batch_size, n_paths=2500):
        p = tmp_path / f"bundle_{batch_size}_{n_paths}.csv"
        bundle_to_csv(jump_diffusion_stream(batch_size, n_paths), p)
        return p.read_bytes()

    def test_block_stream_is_the_documented_key(self):
        # rows 0-9 of block 1: Philox(key=(seed, 1)), kind i advanced i * 2**128
        def substream(kind):
            key = np.array([5, 1], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key).advance(kind << 128))

        Z, counts, pool, _ = _draw_batch(5, montecarlo.BLOCK, 10, 4, 1, True, 0.3)
        assert np.array_equal(Z, substream(0).standard_normal((10, 4, 1)))
        assert np.array_equal(counts, substream(1).poisson(0.3, (10, 4)))
        assert np.array_equal(pool, substream(2).random(2 * int(counts.sum())))

    def test_bundle_independent_of_batch_size(self, tmp_path):
        assert montecarlo.BLOCK == 1024
        files = [self.bundle_bytes(tmp_path, bs) for bs in (1000, 1024, 2500, 25000)]
        assert files[0].count(b"\n") == 2501
        assert all(f == files[0] for f in files[1:])

    def test_prefix_of_a_longer_run(self, tmp_path):
        longer = self.bundle_bytes(tmp_path, 25000).splitlines()
        assert self.bundle_bytes(tmp_path, 25000, 1500).splitlines() == longer[:1501]

    @staticmethod
    def record_generators(monkeypatch) -> list:
        """Every Generator built from now on, each counting the rows of
        normals and of Poisson counts it draws."""
        made = []

        class Recording(np.random.Generator):
            def __init__(self, bitgen):
                super().__init__(bitgen)
                self.rows = {"normal": 0, "count": 0}
                made.append(self)

            def standard_normal(self, size=None, dtype=np.float64, out=None):
                self.rows["normal"] += (size if out is None else out.shape)[0]
                return super().standard_normal(size, dtype=dtype, out=out)

            def poisson(self, lam=1.0, size=None):
                self.rows["count"] += size[0]
                return super().poisson(lam, size)

        monkeypatch.setattr(np.random, "Generator", Recording)
        return made

    def test_each_block_is_drawn_once(self, monkeypatch):
        made = self.record_generators(monkeypatch)
        jump_diffusion_stream(1000, 2500)
        # batches of 1,000 paths step blocks 0 and 1 whole and block 2's
        # 452 paths, each block drawn once: the batch [1000, 2000) steps on
        # the draws of blocks 0 and 1, not on a redraw of either
        drawn = [(int(g.bit_generator.state["state"]["key"][1]), g.rows["normal"])
                 for g in made]
        assert drawn == [(0, 1024), (1, 1024), (2, 452)]
        assert all(g.rows["count"] == g.rows["normal"] for g in made)

    def test_default_batches_skip_no_rows(self, monkeypatch):
        # a two-vertex sweep runs default batches of 6,144 paths, each drawn
        # once for both vertices and started on a block boundary, so no row
        # is drawn twice
        cfg = nl.SimConfig(dt=0.25, horizon=0.5, n_paths=2 * 24576 + 1500, seed=3)
        assert cfg.batch_size == 12 * montecarlo.BLOCK
        thetas = [nl.AffineParameter.scalar(
            alpha0=0.5, nu0=nl.AtomicLevyMeasure([[0.3]], [lam])) for lam in (0.5, 1.0)]
        made = self.record_generators(monkeypatch)
        nl.simulate_paths(nl.FiniteParameterSet(thetas), [0.0], cfg, FULL)
        for kind in ("normal", "count"):
            assert sum(g.rows[kind] for g in made) == cfg.n_paths

    def test_sub_block_batches_draw_every_row_once(self, monkeypatch):
        # 13 vertices at the default batch_size step 945-path batches, which
        # start mid-block; each block's draw set is drawn once and stepped
        # in turn, so 4,000 paths draw 4,000 rows of normals
        cfg = nl.SimConfig(dt=0.25, horizon=0.5, n_paths=4000, seed=3)
        assert montecarlo._paths_per_batch(cfg.batch_size, 13) == 945
        thetas = [nl.AffineParameter.scalar(alpha0=0.1 * (k + 1)) for k in range(13)]
        made = self.record_generators(monkeypatch)
        nl.simulate_paths(nl.FiniteParameterSet(thetas), [0.0], cfg, FULL)
        assert sum(g.rows["normal"] for g in made) == cfg.n_paths
        assert [int(g.bit_generator.state["state"]["key"][1]) for g in made] == [0, 1, 2, 3]


class TestExitBehaviour:
    def exit_theta(self):
        # square-root diffusion, inward drift at the origin
        return nl.AffineParameter.scalar(beta0=1.0, alpha1=1.0)

    def test_frozen_after_exit_and_no_reentry(self):
        theta = nl.AffineParameter.scalar(
            beta0=0.05, alpha1=1.0,
        )
        cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=2000, seed=21)
        b = nl.simulate_paths(theta, [0.05], cfg, HALF)
        exited = ~np.isnan(b.exit_time)
        assert np.any(exited)  # Feller index below one: exits happen
        # the reference keeps a row's state from its exit step on, so a
        # bit-for-bit match pins the frozen state and the exit step
        terminal, exit_time, _, _ = reference_thinning(theta, [0.05], cfg, HALF)
        assert b.terminal.tobytes() == terminal.tobytes()
        assert b.exit_time.tobytes() == exit_time.tobytes()
        # frozen at the first outside state, never back in
        assert not np.any(nl.StateSpace.half(1).contains_many(b.terminal[exited]))

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

    def test_zero_net_drift_holds_boundary_start(self):
        # a registry tuple on the half-line has zero net drift, so a path
        # started at the boundary x0 = 0 can leave only by a jump
        h = nl.TruncationFunction(1.0)
        m = nl.AtomicLevyMeasure([[0.4], [-0.2]], [0.3, 0.4])
        theta = generalized_compound_poisson_set([0.15, 0.15], [0.05, 0.05], [m],
                                                 h).vertices()[0]
        cfg = nl.SimConfig(dt=0.01, horizon=0.5, n_paths=2000, seed=1)
        b = nl.simulate_paths(theta, [0.0], cfg, nl.GeneratorMode.standard(HALF.space, h))
        assert b.no_jump_exit_count == 0
        assert 0 < np.sum(~np.isnan(b.exit_time)) < 2000

    def test_registry_tuples_compensate_exactly(self):
        rng = np.random.default_rng(0)
        h = nl.TruncationFunction(1.0)
        for _ in range(200):
            m = nl.AtomicLevyMeasure(rng.uniform(-1.5, 1.5, size=(2, 1)),
                                     rng.uniform(0.05, 1.0, size=2))
            lam0, lam1 = rng.uniform(0.01, 1.0, size=2)
            theta = generalized_compound_poisson_set([lam0, lam0], [lam1, lam1], [m],
                                                     h).vertices()[0]
            net = nl.GeneratorMode.standard(HALF.space, h).coefficients(theta).drift(
                np.zeros((1, 1)))
            assert net[0, 0] == 0.0

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

    @pytest.mark.parametrize("box", [([-3.0, -1.0], [3.0, 1.0]), ([np.nan], [3.0])],
                             ids=["two coordinates for d = 1", "NaN bound"])
    def test_clamp_box_of_bad_bounds_refused(self, box):
        # the 2-vector box flagged 20 of these 100 paths, as if it were [-1, 1],
        # and the NaN one all 100
        theta = nl.AffineParameter.scalar(alpha0=0.5)
        cfg = nl.SimConfig(dt=0.1, horizon=1.0, n_paths=100, seed=1, clamp_box=box)
        with pytest.raises(ValueError, match="clamp_box must be"):
            nl.simulate_paths(theta, [0.0], cfg, FULL)
        with pytest.raises(ValueError, match="clamp_box must be"):
            nl.lower_bound_sublinear(nl.FiniteParameterSet([theta]), [0.0],
                                     nl.make_payoff("square"), 1.0, cfg, FULL)

    def test_state_space_of_another_dimension_refused(self):
        # a 1-D tuple under a 2-D half-space: membership used to read only
        # the columns an (n, 1) array has, and 94 of these 100 paths exited
        theta = nl.AffineParameter.scalar(beta0=-1.0, alpha0=0.1)
        mode = nl.GeneratorMode.standard(nl.StateSpace.half(2))
        cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=100, seed=1)
        with pytest.raises(ValueError, match="state space of dimension 2 for "
                                             "parameters of dimension 1"):
            nl.simulate_paths(theta, [0.5], cfg, mode)
        with pytest.raises(ValueError, match="state space of dimension 2"):
            nl.lower_bound_sublinear(nl.FiniteParameterSet([theta]), [0.5],
                                     nl.make_payoff("square"), 1.0, cfg, mode)

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

    def test_vertex_solve_masks_is_refused(self):
        # the second vertex's diffusion is -0.5 at every state: the solver
        # masks it per node, but a constant-vertex law needs admissible
        # coefficients wherever its paths go, and the gate checks the box
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=0.2),
                                    nl.AffineParameter.scalar(beta0=3.0, alpha0=-0.5)])
        hat = nl.GeneratorMode.hat()
        square = nl.make_payoff("square")
        surface = nl.solve(ps, nl.Grid.line(-1.0, 1.0, 21), square, 0.1, hat)
        assert np.all(np.isfinite(surface.values))
        cfg = nl.SimConfig(dt=0.01, horizon=0.1, n_paths=100)
        with pytest.raises(CoefficientError, match=r"diffusion matrix not PSD at state \[0.3\]"):
            nl.lower_bound_sublinear(ps, [0.3], square, 0.1, cfg, hat)
        with pytest.raises(CoefficientError, match=r"not PSD at corner x = .* \(vertex 1\)"):
            nl.uniqueness_gate(ps, ([-1.0], [1.0]), n_samples=16)


def mixed_bounds():
    """Three diffusing vertices with jump-intensity bounds 0.5, 1.0, 0.5: the
    sweep thins at 1.0, vertex 1's own bound."""
    def theta(beta0, alpha0, lam):
        nu0 = nl.AtomicLevyMeasure([[0.5], [-0.3]], [lam, 0.2])
        return nl.AffineParameter.scalar(beta0=beta0, alpha0=alpha0, nu0=nu0)

    return nl.FiniteParameterSet([theta(0.1, 0.5, 0.3), theta(0.0, 0.4, 0.8),
                                  theta(-0.2, 0.3, 0.3)])


def hat_box_2d():
    """Eight diffusing 2-D vertices with one jump measure: one thinning bound."""
    zero = np.zeros((2, 2))
    nu0 = nl.AtomicLevyMeasure([[0.37, -0.61], [-0.37, 0.61]], [0.25, 0.25], dim=2)
    empty = nl.AtomicLevyMeasure.empty(2)
    return nl.CoefficientBox(
        beta_lo=np.zeros((3, 2)), beta_hi=np.zeros((3, 2)),
        alpha_lo=[[[0.25, -0.1], [-0.1, 0.25]], zero, zero],
        alpha_hi=[[[1.0, 0.1], [0.1, 1.0]], zero, zero],
        nu_tuples=[(nu0, empty, empty)])


SWEEPS = {
    # name: (parameter set, x0, t, mode, payoff, SimConfig)
    "mixed bounds, several batches": (
        mixed_bounds(), [0.2], 0.5, FULL, nl.make_payoff("min_cap", c=0.5),
        nl.SimConfig(dt=0.05, horizon=0.5, n_paths=300, seed=11, batch_size=3 * 128)),
    "zero horizon": (
        mixed_bounds(), [0.2], 0.0, FULL, nl.make_payoff("square"),
        nl.SimConfig(dt=0.05, horizon=0.0, n_paths=40, seed=11)),
    "2-D with jumps, several batches": (
        hat_box_2d(), [0.0, 0.0], 0.5, nl.GeneratorMode.hat(), nl.make_payoff("square"),
        nl.SimConfig(dt=0.05, horizon=0.5, n_paths=500, seed=4, batch_size=8 * 200)),
}


def own_bound(theta, x0, cfg, mode):
    """The thinning bound of theta's own simulate_paths."""
    return nl.simulate_paths(theta, x0, replace(cfg, n_paths=1), mode).thinning_bound


class TestSweep:
    """simulate_paths on a parameter set steps all vertices in one sweep on
    one draw set per batch, thinned at the largest vertex bound;
    lower_bound_sublinear picks its winner on such a sweep."""

    def test_one_vertex_sweep_is_simulate_paths(self):
        # the golden stream of test_stream_golden_digest, through a sweep
        theta = nl.AffineParameter.scalar(
            beta0=0.1, alpha0=0.4,
            nu0=nl.AtomicLevyMeasure([[0.5], [-0.3]], [0.4, 0.6]),
            nu1=nl.AtomicLevyMeasure([[0.5]], [0.3]),
        )
        cfg = nl.SimConfig(dt=0.04, horizon=0.6, n_paths=250, seed=77, batch_size=64)
        res = nl.lower_bound_sublinear(nl.FiniteParameterSet([theta]), [0.3],
                                       nl.make_payoff("square"), 0.6, cfg, HALF)
        assert stream_digest(res.bundle) == (
            "bf6c27560e395143a856f0ed6242edd6aa7cfca361339328dc4a47c6f559d391")
        own = jump_diffusion_stream(64)
        assert (res.mean, res.se) == _payoff_moments(nl.make_payoff("square"), own.terminal)
        assert (res.bundle.thinning_proposed, res.bundle.thinning_accepted) == (
            own.thinning_proposed, own.thinning_accepted)

    @pytest.mark.parametrize("case", list(SWEEPS))
    def test_independent_of_batch_size(self, case):
        ps, x0, t, mode, payoff, cfg = SWEEPS[case]
        V = len(ps.vertices())
        runs = [nl.lower_bound_sublinear(ps, x0, payoff, t, replace(cfg, batch_size=b),
                                         mode)
                for b in (cfg.batch_size, V * 7, V * montecarlo.BLOCK + 1, 10**6)]
        for res in runs[1:]:
            assert (res.all_means, res.all_ses, res.vertex) == (
                runs[0].all_means, runs[0].all_ses, runs[0].vertex)
            assert stream_digest(res.bundle) == stream_digest(runs[0].bundle)
            assert (res.bundle.thinning_proposed, res.bundle.thinning_accepted) == (
                runs[0].bundle.thinning_proposed, runs[0].bundle.thinning_accepted)

    @pytest.mark.parametrize("case", list(SWEEPS))
    def test_vertices_at_the_sweep_bound_match_their_own_runs(self, case):
        # thinning at a larger bound changes a vertex's draws, not its law;
        # a vertex whose own bound is the sweep's steps exactly as alone
        ps, x0, t, mode, _, cfg = SWEEPS[case]
        cfg = replace(cfg, horizon=t)
        sweep = nl.simulate_paths(ps, x0, cfg, mode)
        assert sweep.n_paths == len(ps.vertices()) * cfg.n_paths
        matched = 0
        for k, theta in enumerate(ps.vertices()):
            if own_bound(theta, x0, cfg, mode) == sweep.thinning_bound:
                own = nl.simulate_paths(theta, x0, cfg, mode)
                assert stream_digest(sweep.vertex(k)) == stream_digest(own)
                assert sweep.vertex(k).events.tolist() == own.events.tolist()
                matched += 1
        assert matched >= 1

    def test_mixed_bounds_thin_at_the_largest(self):
        ps, x0, t, mode, payoff, cfg = SWEEPS["mixed bounds, several batches"]
        sweep = nl.simulate_paths(ps, x0, cfg, mode)
        bounds = [own_bound(theta, x0, cfg, mode) for theta in ps.vertices()]
        assert bounds[0] == bounds[2] < bounds[1] == sweep.thinning_bound
        # one candidate stream, and no path stops on the full line: every
        # vertex sees the same candidates; vertex 1's constant intensity
        # equals the bound and accepts them all, the others about half
        _, proposed, accepted = sweep.events.T
        assert proposed[0] == proposed[1] == proposed[2] > 0
        assert accepted[0] < proposed[0] and accepted[1] == proposed[1]
        assert accepted[2] < proposed[2]

    def test_first_max_rule(self):
        # min(x, 0) is exactly 0 on paths that never go below 0: vertices 1
        # (jumps up, zero net drift) and 2 (drift up) tie at the maximum,
        # and the tie goes to vertex 1
        down = nl.AffineParameter.scalar(beta0=-0.5)
        up = nl.AffineParameter.scalar(beta0=0.1)
        cfg = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=200, seed=3)
        res = nl.lower_bound_sublinear(nl.FiniteParameterSet([down, unit_jump_theta(), up]),
                                       [0.0], nl.make_payoff("min_cap", c=0.0), 0.5, cfg,
                                       FULL)
        assert res.all_means[0] < res.all_means[1] == res.all_means[2] == 0.0
        assert res.vertex == 1
        assert res.bundle.thinning_proposed > 0

    def test_nan_mean_wins_only_as_vertex_zero(self):
        root = nl.TestFunction("root", lambda x: math.sqrt(x[0]) if x[0] >= 0 else math.nan,
                               lambda x: np.zeros(1), lambda x: np.zeros((1, 1)))
        down = nl.AffineParameter.scalar(beta0=-0.5)
        up = nl.AffineParameter.scalar(beta0=0.5)
        cfg = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=20, seed=3)
        for order, want in (([down, up], 0), ([up, down], 0), ([up, down, up], 0)):
            res = nl.lower_bound_sublinear(nl.FiniteParameterSet(order), [0.0], root,
                                           0.5, cfg, FULL)
            assert res.vertex == want
        assert math.isnan(res.all_means[1]) and res.mean == res.all_means[0] > 0

    @staticmethod
    def count_generators(monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs["key"].tolist())
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        return built

    @pytest.mark.parametrize("ps, x0, mode", [
        (hat_box_2d(), [0.0, 0.0], nl.GeneratorMode.hat()),
        (mixed_bounds(), [0.2], FULL),
    ])
    def test_one_generator_for_a_one_batch_sweep(self, monkeypatch, ps, x0, mode):
        built = self.count_generators(monkeypatch)
        cfg = nl.SimConfig(dt=0.1, horizon=0.5, n_paths=300, seed=8)
        nl.simulate_paths(ps, x0, cfg, mode)
        assert built == [[8, 0]]

    def test_one_generator_per_block(self, monkeypatch):
        built = self.count_generators(monkeypatch)
        ps = nl.FiniteParameterSet(mixed_bounds().vertices()[:2])
        cfg = nl.SimConfig(dt=0.1, horizon=0.5, n_paths=2500, seed=8, batch_size=2 * 128)
        nl.simulate_paths(ps, [0.2], cfg, FULL)
        # 20 batches of 128 paths, on the draw sets of blocks 0, 1 and 2
        assert built == [[8, 0], [8, 1], [8, 2]]

    def test_one_draw_set_alive(self, monkeypatch):
        alive, refs = [], []
        draw = montecarlo._draw_batch

        def recording(*key):
            alive.append(sum(ref() is not None for ref in refs))
            drawn = draw(*key)
            refs.append(weakref.ref(drawn[0]))
            return drawn

        monkeypatch.setattr(montecarlo, "_draw_batch", recording)
        ps, x0, t, mode, _, cfg = SWEEPS["mixed bounds, several batches"]
        nl.simulate_paths(ps, x0, replace(cfg, horizon=t, n_paths=2500), mode)
        # one draw per block, shared by the three vertices and stepped in
        # batches of 128 paths; the last block's set is gone before the
        # next is drawn
        assert alive == [0] * 3

    def test_draw_set_is_read_only(self):
        drawn = _draw_batch(5, 0, 10, 4, 1, True, 0.3)
        assert all(a is not None and not a.flags.writeable for a in drawn)
        assert _draw_batch(5, 0, 10, 4, 1, False, 0.0) == (None, None, None, None)

    @pytest.mark.parametrize("batch_size, V, paths", [
        (12 * 1024, 1, 12 * 1024), (12 * 1024, 3, 4 * 1024), (12 * 1024, 8, 1024),
        (12 * 1024, 12, 1024), (12 * 1024, 13, 945), (384, 3, 128), (5, 8, 1),
    ])
    def test_paths_per_batch(self, batch_size, V, paths):
        assert montecarlo._paths_per_batch(batch_size, V) == paths


class TestPilot:
    """With V > 1 vertices, lower_bound_sublinear picks its winner on a pilot
    sweep of max(N // 8, 1) paths per vertex, on a stream of its own, then
    reports the winner's own run of N paths on the base stream."""

    def test_no_selection_bias(self):
        # two drifts of one law's square: E X_1^2 = 0.5^2 + 1 under either,
        # so any winner picked without looking at its own draws is unbiased;
        # the largest mean over the draws that pick it sits about 7 se high
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=b, alpha0=1.0)
                                    for b in (0.5, -0.5)])
        square = nl.make_payoff("square")
        means = [nl.lower_bound_sublinear(
            ps, [0.0], square, 1.0,
            nl.SimConfig(dt=0.01, horizon=1.0, n_paths=2000, seed=seed), FULL).mean
            for seed in range(10000, 10200)]
        se = np.std(means, ddof=1) / math.sqrt(len(means))
        assert abs(np.mean(means) - 1.25) < 3 * se

    def test_winner_is_its_own_run(self):
        ps, x0, t, mode, payoff, cfg = SWEEPS["mixed bounds, several batches"]
        cfg = replace(cfg, horizon=t)
        lb = nl.lower_bound_sublinear(ps, x0, payoff, t, cfg, mode)
        theta = ps.vertices()[lb.vertex]
        own = nl.simulate_paths(theta, x0, cfg, mode)
        for field in montecarlo._PER_ROW:
            np.testing.assert_array_equal(getattr(lb.bundle, field), getattr(own, field))
        assert lb.bundle.events.tolist() == own.events.tolist()
        assert lb.bundle.thinning_bound == own.thinning_bound
        assert (lb.mean, lb.se) == nl.estimate_expectation(theta, x0, payoff, t, cfg, mode)

    def test_pilot_keys_are_marked(self, monkeypatch):
        # the pilot's 1,125 paths per vertex draw blocks 0 and 1 with the top
        # bit of the block word set, the winner's 9,000 paths blocks 0 .. 8
        # without it: no pilot draw is a base draw
        cfg = nl.SimConfig(dt=0.25, horizon=0.5, n_paths=9000, seed=3)
        thetas = [nl.AffineParameter.scalar(
            alpha0=0.5, nu0=nl.AtomicLevyMeasure([[0.3]], [lam])) for lam in (0.5, 1.0)]
        made = TestBlockKeys.record_generators(monkeypatch)
        lb = nl.lower_bound_sublinear(nl.FiniteParameterSet(thetas), [0.0],
                                      nl.make_payoff("square"), 0.5, cfg, FULL)
        keys = [g.bit_generator.state["state"]["key"].tolist() for g in made]
        assert keys == [[3, k | 2**63] for k in range(2)] + [[3, k] for k in range(9)]
        assert lb.pilot_paths == 1125
        for kind in ("normal", "count"):
            assert sum(g.rows[kind] for g in made[:2]) == lb.pilot_paths
            assert sum(g.rows[kind] for g in made[2:]) == cfg.n_paths


class TestThinningCounts:
    def test_constant_intensity_accepts_every_candidate(self):
        cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=2000, seed=2)
        b = nl.simulate_paths(unit_jump_theta(lam=1.0), [0.0], cfg, FULL)
        assert b.thinning_accepted == b.thinning_proposed
        # about lam * T * n_paths candidate events
        assert abs(b.thinning_proposed - 2000) <= 5 * math.sqrt(2000)

    def test_state_dependent_intensity_rejects_some(self):
        b = jump_diffusion_stream(64)
        again = jump_diffusion_stream(250)
        assert 0 < b.thinning_accepted < b.thinning_proposed
        assert (again.thinning_proposed, again.thinning_accepted) == (
            b.thinning_proposed, b.thinning_accepted)

    def test_no_jumps_no_candidates(self):
        cfg = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=50, seed=2)
        b = nl.simulate_paths(nl.AffineParameter.scalar(alpha0=1.0), [0.0], cfg, FULL)
        assert b.thinning_proposed == b.thinning_accepted == 0


def reference_thinning(theta, x0, cfg, mode):
    """A plain reference for the stepper: all V N rows in one batch, each
    step thinned rank by rank over the live rows with a candidate left, one
    vertex at a time, candidate by candidate, each path's next uniform kept
    in pos.  Returns (terminal, exit_time, flagged, events)."""
    thetas = theta.vertices() if isinstance(theta, nl.FiniteParameterSet) else [theta]
    forms = [mode.coefficients(t) for t in thetas]
    V, N, d = len(forms), cfg.n_paths, thetas[0].dim
    x0 = np.asarray(x0, dtype=float)
    lo, hi = cfg.clamp_box or montecarlo.default_clamp_box(x0)
    n_steps, dt = pide.step_count(cfg.horizon, cfg.dt)
    lam_bar = max(montecarlo._lam_bar(f, lo, hi) for f in forms)
    Z, counts, pool, pool_off = _draw_batch(cfg.seed, 0, N, n_steps, d,
                                            any(np.any(t.alpha) for t in thetas),
                                            lam_bar * dt)
    X = np.tile(x0, (V * N, 1))
    frozen = np.zeros(V * N, dtype=bool)
    exit_time = np.full(V * N, np.nan)
    flagged = np.zeros(V * N, dtype=bool)
    events = np.zeros((V, 3), dtype=np.int64)
    pos = None if pool_off is None else pool_off.copy()  # None: no jumps
    for j in range(n_steps):
        alive = ~frozen
        Xn = X.copy()
        for v, form in enumerate(forms):
            rows = slice(v * N, (v + 1) * N)
            Xn[rows] = X[rows] + dt * form.drift(X[rows])
            if Z is not None:
                root = montecarlo._diffusion_root(form.diffusion(X[rows]), X[rows],
                                                  alive[rows])
                Xn[rows] = Xn[rows] + math.sqrt(dt) * np.einsum("nij,nj->ni", root, Z[:, j])
        Xn = np.where(alive[:, None], Xn, X)
        jumped = np.zeros(V * N, dtype=bool)
        if counts is not None:
            cand = np.where(alive, np.tile(counts[:, j], V), 0)
            events[:, 1] += cand.reshape(V, N).sum(axis=1)
            for r in range(cand.max()):
                for v, form in enumerate(forms):
                    rows = v * N + np.flatnonzero(cand[v * N:(v + 1) * N] > r)
                    if not rows.size:
                        continue
                    w = form.jump_weights(Xn[rows])
                    if w.size and np.min(w) < -WEIGHT_TOL:
                        bad = Xn[rows][np.argmin(np.min(w, axis=1))]
                        raise CoefficientError(f"negative jump weight at state {bad}")
                    wpos = np.clip(w, 0.0, None)
                    lam = wpos.sum(axis=1)
                    for i, row in enumerate(rows):
                        u = pos[row % N] + 2 * r
                        if pool[u] * lam_bar < lam[i]:
                            atom = np.argmax(np.cumsum(wpos[i]) > pool[u + 1] * lam[i])
                            Xn[row] += form.atoms[atom]
                            jumped[row] = True
                            events[v, 2] += 1
            pos += 2 * counts[:, j]
        newly = alive & ~mode.inside(Xn)
        exit_time[newly] = (j + 1) * dt
        frozen |= newly
        events[:, 0] += (newly & ~jumped).reshape(V, N).sum(axis=1)
        out = alive & ~frozen & ~np.all((Xn >= lo) & (Xn <= hi), axis=1)
        flagged |= out
        frozen |= out
        X = Xn
    return X, exit_time, flagged, events


def _hat_1d():
    def theta(beta0, weights):
        return nl.AffineParameter.scalar(
            beta0=beta0, alpha0=0.3, alpha1=0.2,
            nu0=nl.AtomicLevyMeasure([[0.4], [-0.7]], weights))

    return nl.FiniteParameterSet([theta(0.1, [1.5, 0.8]), theta(-0.1, [0.5, 0.8])])


def _constant_weights():
    """Three vertices, the first two one run of equal weights: about three
    candidates per path and step, all accepted on the first two."""
    def theta(beta0, weights):
        return nl.AffineParameter.scalar(
            beta0=beta0, alpha0=0.2, nu0=nl.AtomicLevyMeasure([[0.3], [-0.2]], weights))

    return nl.FiniteParameterSet([theta(0.0, [20.0, 10.0]), theta(0.5, [20.0, 10.0]),
                                  theta(0.0, [5.0, 5.0])])


def _half_line_exits():
    """Two state-dependent vertices and a state-free one on the half-line:
    down jumps exit, up drift and jumps leave the clamp box."""
    def theta(w1):
        nu0 = nl.AtomicLevyMeasure([[0.5], [-0.8]], [1.0, 0.6])
        nu1 = nl.AtomicLevyMeasure([[0.5]], [w1]) if w1 else None
        return nl.AffineParameter.scalar(beta0=1.0, nu0=nu0, nu1=nu1)

    return nl.FiniteParameterSet([theta(0.3), theta(0.2), theta(0.0)])


def _mixed():
    """A state-free vertex between two whose diffusion and jump weights
    depend on the state: the state-dependent runs are not consecutive."""
    atoms = [[0.4], [-0.6]]

    def theta(alpha1, w1):
        return nl.AffineParameter.scalar(
            beta0=0.1, alpha0=0.3, alpha1=alpha1, nu0=nl.AtomicLevyMeasure(atoms, [1.0, 1.5]),
            nu1=nl.AtomicLevyMeasure([[0.4]], [w1]) if w1 else None)

    return nl.FiniteParameterSet([theta(0.1, 0.5), theta(0.0, 0.0), theta(0.05, 0.3)])


def _levy_with_exits():
    """One state-free law with diffusion on the half-line: paths exit by
    jumps and by diffusion."""
    return nl.AffineParameter.scalar(
        beta0=0.2, alpha0=0.2, nu0=nl.AtomicLevyMeasure([[0.3], [-0.5]], [2.0, 1.5]))


THINNING_CASES = {
    # name: (parameter set, x0, mode, SimConfig)
    "hat, d = 1": (_hat_1d(), [0.2], nl.GeneratorMode.hat(),
                   nl.SimConfig(dt=0.05, horizon=0.5, n_paths=300, seed=8)),
    "hat, d = 2": (hat_box_2d(), [0.0, 0.0], nl.GeneratorMode.hat(),
                   nl.SimConfig(dt=0.05, horizon=0.5, n_paths=200, seed=4)),
    "constant weights": (_constant_weights(), [0.0], FULL,
                         nl.SimConfig(dt=0.1, horizon=0.5, n_paths=200, seed=12)),
    "half-line exits": (_half_line_exits(), [0.3], HALF,
                        nl.SimConfig(dt=0.05, horizon=1.0, n_paths=300, seed=13,
                                     clamp_box=((-1.0,), (2.5,)))),
    "mixed": (_mixed(), [0.5], FULL,
              nl.SimConfig(dt=0.05, horizon=0.5, n_paths=300, seed=14,
                           clamp_box=((-1.5,), (2.5,)))),
    "Levy law with exits": (_levy_with_exits(), [0.3], HALF,
                            nl.SimConfig(dt=0.05, horizon=0.5, n_paths=300, seed=15)),
}


class TestThinningReference:
    """The stepper decides a state-free run's candidates ahead of its steps
    and thins the others' cells rank by rank; it matches the plain
    rank-by-rank reference bit for bit.  "hat, d = 2", "constant weights"
    and "Levy law with exits" are state-free laws with diffusion."""

    @pytest.mark.parametrize("batch_size", [7, 12 * montecarlo.BLOCK])
    @pytest.mark.parametrize("case", list(THINNING_CASES))
    def test_matches_reference(self, case, batch_size):
        ps, x0, mode, cfg = THINNING_CASES[case]
        b = nl.simulate_paths(ps, x0, replace(cfg, batch_size=batch_size), mode)
        terminal, exit_time, flagged, events = reference_thinning(ps, x0, cfg, mode)
        assert b.terminal.tobytes() == terminal.tobytes()
        assert b.exit_time.tobytes() == exit_time.tobytes()
        assert np.array_equal(b.flagged, flagged)
        assert b.events.tolist() == events.tolist()
        assert b.thinning_accepted > 0

    def test_cases_reach_what_they_name(self):
        ps, x0, mode, cfg = THINNING_CASES["half-line exits"]
        b = nl.simulate_paths(ps, x0, cfg, mode)
        assert b.no_jump_exit_count < np.sum(~np.isnan(b.exit_time))  # exits by jumps
        assert b.flagged_count > 0
        assert b.thinning_accepted < b.thinning_proposed
        ps, x0, mode, cfg = THINNING_CASES["constant weights"]
        b = nl.simulate_paths(ps, x0, cfg, mode)
        n_steps = pide.step_count(cfg.horizon, cfg.dt)[0]
        # more than two jumps per path and step on each of the first two vertices
        assert b.events[:2, 2].sum() > 2 * 2 * cfg.n_paths * n_steps
        assert (b.events[:2, 1] == b.events[:2, 2]).all()

    def test_negative_weight_names_the_reference_state(self):
        theta = nl.AffineParameter.scalar(
            beta0=0.1, alpha0=0.4, nu0=nl.AtomicLevyMeasure([[-0.3]], [0.6]),
            nu1=nl.AtomicLevyMeasure([[0.5]], [0.3]))
        cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=200, seed=3)
        with pytest.raises(CoefficientError) as ours:
            nl.simulate_paths(theta, [0.05], cfg, HALF)
        with pytest.raises(CoefficientError) as reference:
            reference_thinning(theta, [0.05], cfg, HALF)
        assert str(ours.value) == str(reference.value)

    @pytest.mark.parametrize("theta, message", [
        (nl.AffineParameter.scalar(alpha0=-0.2, nu0=nl.AtomicLevyMeasure([[0.5]], [1.0])),
         "diffusion matrix not PSD at state [0.]"),
        (nl.AffineParameter.scalar(nu0=nl.AtomicLevyMeasure([[0.5], [-0.3]], [1.0, -0.5])),
         "negative jump weight at state [-0.0325]"),
    ], ids=["constant alpha not PSD", "constant negative weight"])
    def test_constant_inadmissible_coefficient_names_the_reference_state(self, theta, message):
        # in a sweep after a state-dependent vertex, as a law of its own
        other = nl.AffineParameter.scalar(alpha0=0.3, alpha1=0.1,
                                          nu0=nl.AtomicLevyMeasure([[0.5]], [1.0]),
                                          nu1=nl.AtomicLevyMeasure([[0.5]], [0.2]))
        cfg = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=50, seed=1)
        for law in (theta, nl.FiniteParameterSet([other, theta])):
            with pytest.raises(CoefficientError) as ours:
                nl.simulate_paths(law, [0.0], cfg, FULL)
            with pytest.raises(CoefficientError) as reference:
                reference_thinning(law, [0.0], cfg, FULL)
            assert str(ours.value) == str(reference.value) == message


class TestStateFreeThinning:
    """A run whose coefficients do not depend on the state has them worked
    out once per sweep, and its candidates decided in windows, however many
    steps and candidates it has."""

    @staticmethod
    def count_calls(monkeypatch, *names):
        """The rows of each call of the CoefficientForm methods `names`."""
        calls = {}
        for name in names:
            method, calls[name] = getattr(CoefficientForm, name), []
            monkeypatch.setattr(CoefficientForm, name, lambda form, xs, f=method, c=calls[name]:
                                c.append(len(xs)) or f(form, xs))
        return calls

    def test_one_weighing_per_step(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "jump_weights")["jump_weights"]
        theta = nl.AffineParameter.scalar(
            alpha0=0.3, nu0=nl.AtomicLevyMeasure([[0.4], [-0.7]], [20.0, 20.0]))
        cfg = nl.SimConfig(dt=0.1, horizon=1.0, n_paths=500, seed=6)
        b = nl.simulate_paths(theta, [0.0], cfg, nl.GeneratorMode.hat())
        assert b.thinning_proposed > 10 * cfg.n_paths
        assert len(calls) == 1  # the bound's corners; no step weighs again

    @pytest.mark.parametrize("theta, mode", [
        (nl.AffineParameter.scalar(alpha0=0.3, nu0=nl.AtomicLevyMeasure([[0.4], [-0.7]],
                                                                        [20.0, 20.0])),
         nl.GeneratorMode.hat()),
        (nl.AffineParameter.scalar(beta0=0.2, alpha0=0.3,
                                   nu0=nl.AtomicLevyMeasure([[0.4], [-0.7]], [2.0, 3.0])),
         FULL),
    ], ids=["hat", "full line, constant weights"])
    def test_coefficient_calls_do_not_grow_with_the_steps(self, monkeypatch, theta, mode):
        calls = self.count_calls(monkeypatch, "drift", "diffusion", "jump_weights")
        made = []
        for horizon in (1.0, 4.0):  # 10 and 40 steps
            cfg = nl.SimConfig(dt=0.1, horizon=horizon, n_paths=500, seed=6)
            b = nl.simulate_paths(theta, [0.0], cfg, mode)
            assert b.thinning_accepted > 0
            made.append({name: len(rows) for name, rows in calls.items()})
            for rows in calls.values():
                rows.clear()
        assert made[0] == made[1] == {"drift": 0, "diffusion": 0, "jump_weights": 1}

    @pytest.mark.parametrize("window", [1, 7])
    @pytest.mark.parametrize("case", ["constant weights", "half-line exits", "hat, d = 2"])
    def test_windows_that_split_steps_and_cells(self, monkeypatch, case, window):
        ps, x0, mode, cfg = THINNING_CASES[case]
        whole = nl.simulate_paths(ps, x0, cfg, mode)
        monkeypatch.setattr(montecarlo, "WINDOW", window)
        split = nl.simulate_paths(ps, x0, cfg, mode)
        assert split.terminal.tobytes() == whole.terminal.tobytes()
        assert split.exit_time.tobytes() == whole.exit_time.tobytes()
        assert split.events.tolist() == whole.events.tolist()

    @pytest.mark.parametrize("lam, candidates", [(1e6, 40_026), (1e8, 4_000_265)])
    def test_large_constant_intensity(self, monkeypatch, lam, candidates):
        calls = self.count_calls(monkeypatch, "jump_weights")["jump_weights"]
        cfg = nl.SimConfig(dt=0.01, horizon=0.01, n_paths=4, seed=3)
        start = time.perf_counter()
        b = nl.simulate_paths(unit_jump_theta(lam=lam), [0.0], cfg, FULL)
        assert time.perf_counter() - start < 10.0
        assert b.thinning_proposed == b.thinning_accepted == candidates
        assert b.terminal.sum() == candidates  # unit jumps, zero net drift
        assert len(calls) == 1

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_large_constant_intensity_memory(self):
        # the weight-1e8 call above in a fresh process: its 8,000,530
        # uniforms take 64 MB; deciding all 4,000,265 candidates at once
        # took about 280 MB more.  VmHWM is this process's own peak RSS,
        # where ru_maxrss would carry over the peak of the process that
        # started it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import nlaffine as nl\n"
                "def peak_mb():\n"
                "    with open('/proc/self/status') as f:\n"
                "        line = next(s for s in f if s.startswith('VmHWM:'))\n"
                "    return int(line.split()[1]) / 1024\n"
                "h = nl.TruncationFunction(1.0)\n"
                "theta = nl.AffineParameter.scalar(beta0=1e8 * float(h([1.0])[0]),\n"
                "    nu0=nl.AtomicLevyMeasure([[1.0]], [1e8]))\n"
                "cfg = nl.SimConfig(dt=0.01, horizon=0.01, n_paths=4, seed=3)\n"
                "mode = nl.GeneratorMode.standard(nl.StateSpace.full(1))\n"
                "before = peak_mb()\n"
                "b = nl.simulate_paths(theta, [0.0], cfg, mode)\n"
                "print(b.thinning_accepted, peak_mb() - before)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        assert int(out[0]) == 4_000_265
        assert float(out[1]) <= 140.0  # MB


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

    @pytest.mark.parametrize("x0, p, t_grid, message", [
        ([0.0, 0.0], 1.0, [0.01], "initial state dimension mismatch"),
        ([0.0], 0.5, [0.01], "p must lie in [1, 2]"),
        ([0.0], 2.5, [0.01], "p must lie in [1, 2]"),
        ([0.0], 1.0, [], "t_grid holds no time"),
    ], ids=["x0_of_two_coordinates", "p_below_1", "p_above_2", "empty_t_grid"])
    def test_refusal_named(self, x0, p, t_grid, message):
        cfg = nl.SimConfig(dt=0.001, horizon=0.1, n_paths=10, seed=1)
        with pytest.raises(ValueError) as info:
            nl.moment_bound_report(nl.AffineParameter.scalar(alpha0=1.0), x0, p,
                                   t_grid, cfg, FULL)
        assert str(info.value) == message

    def test_large_time_rejected(self):
        cfg = nl.SimConfig(dt=0.001, horizon=0.5, n_paths=100, seed=1)
        with pytest.raises(ValueError, match="small-time"):
            nl.moment_bound_report(nl.AffineParameter.zero(1), [0.0], 1.0,
                                   [0.5], cfg, FULL)

    def test_time_off_the_step_grid_rejected(self):
        # steps of at most min(0.001, 0.003 / 4) cover 0.01 in 14 steps of
        # 0.000714..., and 0.003 lies between the 4th and the 5th
        cfg = nl.SimConfig(dt=0.001, horizon=0.1, n_paths=10, seed=1)
        with pytest.raises(ValueError, match="0.003 is off the step grid"):
            nl.moment_bound_report(nl.AffineParameter.scalar(alpha0=1.0), [0.0], 1.0,
                                   [0.003, 0.01], cfg, FULL)

    def test_compound_poisson_ratio_stable(self):
        # p = 2: E[sup |X|^2] = t + t^2 matches the envelope t^2 + t exactly,
        # so the fitted constant is flat across the whole grid
        theta = unit_jump_theta(lam=1.0)
        cfg = nl.SimConfig(dt=0.001, horizon=0.1, n_paths=20000, seed=4)
        tg = [0.001 * 2**k for k in range(7)]
        rep = nl.moment_bound_report(theta, [0.0], 2.0, tg, cfg, FULL)
        assert rep.ratio_spread <= 5.0


HALF_LINE_BUNDLE_DIGEST = "0e4ade33db9d009b4052d9a26efffac67bb93146982a016b4a5d5cb9c833c5bf"


def half_line_exit_bundle():
    theta = nl.AffineParameter.scalar(
        beta0=0.1, alpha0=0.3, nu0=nl.AtomicLevyMeasure([[-0.5], [0.3]], [0.6, 0.4]))
    cfg = nl.SimConfig(dt=0.05, horizon=1.0, n_paths=300, seed=21)
    return nl.simulate_paths(theta, [0.4], cfg, HALF)


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

    def test_golden_bytes_half_line_with_exits(self, tmp_path):
        """sha256 recorded on the (seed, block)-keyed stream; 128 of the 300
        paths exit, so the file mixes filled and empty exit_time fields."""
        b = half_line_exit_bundle()
        assert int(np.sum(~np.isnan(b.exit_time))) == 128
        p = tmp_path / "bundle.csv"
        bundle_to_csv(b, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == HALF_LINE_BUNDLE_DIGEST

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_golden_bytes_for_any_writer_count(self, tmp_path, monkeypatch, workers):
        # 64-row blocks make the 300 paths five chunks; 8 CPUs still fork 4 writers
        monkeypatch.setattr(montecarlo, "_CSV_BLOCK", 64)
        monkeypatch.setattr(pide, "usable_cpus", lambda: workers)
        p = tmp_path / "bundle.csv"
        bundle_to_csv(half_line_exit_bundle(), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == HALF_LINE_BUNDLE_DIGEST
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_golden_bytes_2d(self, tmp_path):
        theta = nl.AffineParameter(
            [[0.1, -0.2], [0.0, 0.0], [0.0, 0.0]],
            [[[0.5, 0.1], [0.1, 0.3]], np.zeros((2, 2)), np.zeros((2, 2))],
            (nl.AtomicLevyMeasure([[0.3, -0.2]], [0.7], dim=2),
             nl.AtomicLevyMeasure.empty(2), nl.AtomicLevyMeasure.empty(2)),
        )
        cfg = nl.SimConfig(dt=0.05, horizon=0.5, n_paths=200, seed=5)
        b = nl.simulate_paths(theta, [0.0, 0.0], cfg,
                              nl.GeneratorMode.standard(nl.StateSpace.full(2)))
        p = tmp_path / "bundle.csv"
        bundle_to_csv(b, p)
        assert p.read_bytes().startswith(
            b"path_index,seed,terminal1,terminal2,running_sup,exit_time\n")
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "d7f7a0a36848f619c823ade04ec4b20da886464d2119604798141334f305c6e7")
