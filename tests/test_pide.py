import errno
import hashlib
import math
import os
import signal

import numpy as np
import pytest

import nlaffine as nl
from nlaffine import pide
from nlaffine.config import ExperimentConfig
from nlaffine.pide import step_count


FULL = nl.GeneratorMode.standard(nl.StateSpace.full(1))
HALF = nl.GeneratorMode.standard(nl.StateSpace.half(1))


def payoff_sum(f, g):
    return nl.TestFunction(
        f"{f.name}+{g.name}",
        lambda x: f.value(x) + g.value(x),
        lambda x: np.asarray(f.gradient(x)) + np.asarray(g.gradient(x)),
        lambda x: np.asarray(f.hessian(x)) + np.asarray(g.hessian(x)),
    )


def const_payoff(c):
    return nl.TestFunction(
        f"const{c}", lambda x: c, lambda x: np.zeros_like(x),
        lambda x: np.zeros((x.shape[0], x.shape[0])),
    )


def mixed_theta():
    return nl.AffineParameter.scalar(
        beta0=0.1, beta1=-0.2, alpha0=0.0, alpha1=0.3,
        nu0=nl.AtomicLevyMeasure([[0.5]], [0.4]),
        nu1=nl.AtomicLevyMeasure([[1.0]], [0.2]),
    )


class TestGrid:
    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            nl.Grid.line(0.0, 1.0, 8)

    def test_node_lookup(self):
        g = nl.Grid.line(-1.0, 1.0, 21)
        assert g.node_index([0.0]) == (10,)
        with pytest.raises(ValueError):
            g.node_index([0.05001])

    @pytest.mark.parametrize("grid, x", [
        (nl.Grid.line(-1.0, 1.0, 21), [1.0, 5.0]),
        (nl.Grid([-1.0, -1.0], [1.0, 1.0], [21, 21]), [0.0]),
    ], ids=["two_coordinates_on_1d", "one_coordinate_on_2d"])
    def test_node_lookup_needs_one_coordinate_per_axis(self, grid, x):
        with pytest.raises(ValueError, match=f"{grid.dim}-D grid"):
            grid.node_index(x)

    @pytest.mark.parametrize("lower, upper, nodes, message", [
        ([math.nan], [1.0], [10], "grid bounds must be finite, got [nan] .. [1.0]"),
        ([0.0, -math.inf], [1.0, 1.0], [10, 10],
         "grid bounds must be finite, got [0.0, -inf] .. [1.0, 1.0]"),
        ([0.0], [1.0], [10.7], "node counts must be integers, got [10.7]"),
        ([-1e308], [1e308], [601], "grid spacing overflows: [-1e+308] .. [1e+308] spans "
                                   "more than the largest float"),
        ([0.0], [5e-323], [601], "grid spacing underflows: [0.0] squares to 0"),
        ([0.0, -1e-300], [1.0, 1e-300], [11, 601],
         "grid spacing underflows: [0.1, 3.333333333333333e-303] squares to 0"),
    ], ids=["nan_bound", "infinite_bound", "fractional_nodes", "overflowing_spacing",
            "zero_spacing", "spacing_square_underflows"])
    def test_bad_bounds_or_node_counts_refused(self, lower, upper, nodes, message):
        with pytest.raises(ValueError) as info:
            nl.Grid(lower, upper, nodes)
        assert str(info.value) == message

    def test_interior_mask(self):
        g = nl.Grid.line(0.0, 10.0, 101)
        m = g.interior_mask(2.0)
        assert m.sum() == 61
        assert not m[0] and m[50]


class TestSolveBasics:
    def test_constants_preserved(self):
        theta = mixed_theta()
        ps = nl.FiniteParameterSet([theta])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        surf = nl.solve(ps, grid, const_payoff(1.0), 0.5, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=64))
        assert np.max(np.abs(surf.values - 1.0)) <= 1e-12

    def test_initial_layer_is_exact_payoff(self):
        grid = nl.Grid.line(-1.0, 1.0, 41)
        f = nl.make_payoff("cos")
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=0.5)])
        surf = nl.solve(ps, grid, f, 0.1, FULL, scheme=nl.SchemeConfig(min_time_steps=16))
        want = np.array([f.value(p) for p in grid.points()])
        assert np.array_equal(surf.values[0], want)

    def test_frozen_outside_state_space(self):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        f = nl.make_payoff("min_cap", c=2.0)
        surf = nl.solve(ps, grid, f, 1.0, HALF, scheme=nl.SchemeConfig(min_time_steps=64))
        x = grid.axes[0]
        neg = x < 0
        want = np.array([f.value(p) for p in grid.points()])
        for j in range(surf.values.shape[0]):
            assert np.array_equal(surf.values[j][neg], want[neg])
        assert surf.value_at(1.0, [-1.0]) == f.value(np.array([-1.0]))

    def test_diffusion_closed_form(self):
        # E[cos(x + b t + sigma W_t)] = exp(-sigma^2 t / 2) cos(x + b t)
        b, sig2, T = 0.4, 0.8, 0.5
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=b, alpha0=sig2)])
        grid = nl.Grid.line(-8.0, 8.0, 321)
        surf = nl.solve(ps, grid, nl.make_payoff("cos"), T, FULL)
        x = grid.axes[0]
        true = math.exp(-sig2 * T / 2.0) * np.cos(x + b * T)
        mask = surf.interior_mask(extra_margin=3.0)
        # first-order upwind error ~ b dx |v_xx| T / 2 ~ 3e-3 at this grid
        assert np.max(np.abs(surf.values[-1] - true)[mask]) < 6e-3

    def test_nonfinite_payoff_rejected(self):
        grid = nl.Grid.line(-1.0, 1.0, 41)
        ps = nl.FiniteParameterSet([nl.AffineParameter.zero(1)])
        bad = nl.TestFunction("bad", lambda x: float("inf"),
                              lambda x: np.zeros_like(x), lambda x: np.zeros((1, 1)))
        with pytest.raises(nl.NonFiniteError):
            nl.solve(ps, grid, bad, 0.1, FULL)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflow_in_the_march_rejected_with_its_step(self):
        # a finite payoff whose first step overflows: the march checks every
        # step and names the one that failed
        grid = nl.Grid.line(-1.0, 1.0, 41)
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=1.0)])
        spike = nl.TestFunction("spike", lambda x: 1.7e308 if abs(x[0]) < 1e-9 else -1.7e308,
                                lambda x: np.zeros_like(x), lambda x: np.zeros((1, 1)))
        with pytest.raises(nl.NonFiniteError, match=r"^non-finite value produced at step 1$"):
            nl.solve(ps, grid, spike, 0.1, FULL)

    def test_cfl_violation_raises_with_bound(self):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=1.0)])
        grid = nl.Grid.line(-1.0, 1.0, 101)
        with pytest.raises(nl.CFLError, match="stability bound"):
            nl.solve(ps, grid, nl.make_payoff("square"), 1.0, FULL,
                     scheme=nl.SchemeConfig(dt=0.1))

    @pytest.mark.parametrize("cfl", [0.0, -0.4, 1.5, math.nan])
    def test_cfl_outside_unit_interval_rejected(self, cfl):
        with pytest.raises(ValueError, match=r"^cfl safety factor must lie in \(0, 1\]$"):
            nl.SchemeConfig(cfl=cfl)

    @pytest.mark.parametrize("mode, space_dim", [("standard", 1), ("standard", 2),
                                                 ("hat", None)])
    def test_grid_of_another_dimension_named(self, mode, space_dim):
        mode = nl.GeneratorMode.hat() if mode == "hat" else nl.GeneratorMode.standard(
            nl.StateSpace.full(space_dim))
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=0.5)])
        grid = nl.Grid([-1.0, -1.0], [1.0, 1.0], [11, 11])
        with pytest.raises(ValueError, match=r"^a grid of dimension 2 for parameters of "
                                             r"dimension 1$"):
            nl.solve(ps, grid, nl.make_payoff("square"), 0.5, mode)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            nl.SchemeConfig(dt=dt)

    @pytest.mark.parametrize("steps", [2.5, -3, True])
    def test_non_integer_or_negative_min_time_steps_rejected(self, steps):
        with pytest.raises(ValueError, match=f"min_time_steps must be an integer >= 0, "
                                             f"got {steps!r}$"):
            nl.SchemeConfig(min_time_steps=steps)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -0.1])
    def test_nonfinite_or_negative_horizon_rejected(self, horizon):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=1.0)])
        with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
            nl.solve(ps, nl.Grid.line(-1.0, 1.0, 21), nl.make_payoff("cos"), horizon, FULL)


class TestOrderingProperties:
    def test_payoff_monotonicity_exact(self):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        lo = nl.make_payoff("min_cap", c=0.5)
        hi = nl.make_payoff("min_cap", c=1.5)
        s_lo = nl.solve(ps, grid, lo, 0.5, HALF, scheme=nl.SchemeConfig(min_time_steps=64))
        s_hi = nl.solve(ps, grid, hi, 0.5, HALF, scheme=nl.SchemeConfig(min_time_steps=64))
        assert np.all(s_lo.values[-1] <= s_hi.values[-1])

    def test_sublinearity(self):
        thetas = [
            nl.AffineParameter.scalar(beta0=0.2, alpha0=0.3),
            nl.AffineParameter.scalar(beta0=-0.3, alpha0=0.6),
        ]
        ps = nl.FiniteParameterSet(thetas)
        grid = nl.Grid.line(-4.0, 4.0, 161)
        f = nl.make_payoff("cos")
        g = nl.make_payoff("min_cap", c=1.0)
        sch = nl.SchemeConfig(min_time_steps=64)
        s_f = nl.solve(ps, grid, f, 0.3, FULL, scheme=sch)
        s_g = nl.solve(ps, grid, g, 0.3, FULL, scheme=sch)
        s_fg = nl.solve(ps, grid, payoff_sum(f, g), 0.3, FULL, scheme=sch)
        assert np.all(s_fg.values[-1] <= s_f.values[-1] + s_g.values[-1] + 1e-12)

    def test_set_monotonicity_exact(self):
        thetas = [
            nl.AffineParameter.scalar(beta0=0.1, alpha0=0.3),
            nl.AffineParameter.scalar(beta0=-0.2, alpha0=0.5),
            nl.AffineParameter.scalar(beta0=0.3, alpha0=0.8),
        ]
        small = nl.FiniteParameterSet(thetas[:1])
        big = nl.FiniteParameterSet(thetas)
        grid = nl.Grid.line(-4.0, 4.0, 161)
        f = nl.make_payoff("cos")
        # common step so the per-step comparison argument applies exactly
        probe = nl.solve(big, grid, f, 0.3, FULL, scheme=nl.SchemeConfig(min_time_steps=64))
        sch = nl.SchemeConfig(dt=probe.dt)
        s_small = nl.solve(small, grid, f, 0.3, FULL, scheme=sch)
        s_big = nl.solve(big, grid, f, 0.3, FULL, scheme=sch)
        assert np.all(s_small.values[-1] <= s_big.values[-1])


class TestRestartConsistency:
    def test_zero_split(self):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        surf = nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), 0.5, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=64))
        assert nl.dpp_gap(surf, 0.0) == 0.0

    def test_full_split_reproduces_run(self):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        surf = nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), 0.5, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=64))
        assert nl.dpp_gap(surf, 0.5) == 0.0

    def test_misaligned_split_rejected(self):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        surf = nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), 0.5, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=64))
        with pytest.raises(ValueError, match="aligned"):
            nl.dpp_gap(surf, surf.dt * 1.5)

    @pytest.mark.parametrize("split_of", [
        lambda s: -s.dt, lambda s: (s.n_steps + 1) * s.dt,
        lambda s: math.inf, lambda s: math.nan,
    ], ids=["before_0", "past_horizon", "inf", "nan"])
    def test_split_outside_horizon_rejected(self, split_of):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 161)
        surf = nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), 0.5, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=64))
        with pytest.raises(ValueError, match="aligned"):
            nl.dpp_gap(surf, split_of(surf))

    def test_empty_interior_core_named(self):
        # an atom of norm 5 makes the margin max(r_jump, 10 dx) = 5, which
        # covers the whole of [-1, 1]
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(
            alpha0=0.5, nu0=nl.AtomicLevyMeasure([[5.0]], [0.1]))])
        surf = nl.solve(ps, nl.Grid.line(-1.0, 1.0, 21), nl.make_payoff("cos"), 0.5, FULL,
                        scheme=nl.SchemeConfig(min_time_steps=8))
        with pytest.raises(ValueError, match=r"^the interior core margin 5 leaves no "
                                             r"node of the grid \[-1.0\] .. \[1.0\]$"):
            nl.dpp_gap(surf, surf.n_steps // 2 * surf.dt)

    def test_half_split_small_gap(self):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 321)
        surf = nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), 1.0, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=256))
        assert nl.dpp_gap(surf, 0.5) <= 5e-3


class TestTimeGrid:
    @pytest.mark.parametrize("horizon, max_dt, floor, n_steps", [
        (0.0, 0.1, 0, 0),
        (0.0, 0.1, 256, 0),
        (0.1, 0.00025, 0, 400),  # the quotient is 400.00000000000006
        (1.0, math.inf, 0, 1),
        (1.0, 0.3, 0, 4),
        (1.0, 0.3, 16, 16),
    ])
    def test_step_count(self, horizon, max_dt, floor, n_steps):
        assert step_count(horizon, max_dt, floor) == (
            n_steps, horizon / n_steps if n_steps else 0.0)

    @pytest.mark.parametrize("horizon, max_dt", [(1e308, 1e-10), (1.0, 5e-324), (0.5, 0.0)])
    def test_uncountable_step_count_refused(self, horizon, max_dt):
        with pytest.raises(pide.NonFiniteError) as info:
            step_count(horizon, max_dt)
        assert str(info.value) == f"horizon {horizon!r} in steps of {max_dt!r}: too many to count"

    @pytest.mark.parametrize("horizon, max_dt, floor, message", [
        (1.0, 1e-300, 0, "horizon 1.0 in steps of 1e-300: 1e+300 steps"),
        (1.0, 0.5, 10**30, "a floor of 1e+30 steps"),
        (1.0, 1.0, 2**63, "a floor of 9.22337e+18 steps"),
    ])
    def test_count_no_index_holds_refused(self, horizon, max_dt, floor, message):
        with pytest.raises(pide.NonFiniteError) as info:
            step_count(horizon, max_dt, floor)
        assert str(info.value) == f"{message}, more than an array index can hold"

    def test_largest_indexable_count_accepted(self):
        n = int(np.iinfo(np.intp).max)
        assert step_count(1.0, 1.0, n) == (n, 1.0 / n)

    def test_zero_horizon_surface_reads_the_payoff(self):
        grid = nl.Grid.line(-1.0, 1.0, 21)
        f = nl.make_payoff("cos")
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=0.5)])
        surf = nl.solve(ps, grid, f, 0.0, FULL)
        assert surf.n_steps == 0
        assert surf.value_at(0.0, [0.5]) == f.value(np.array([0.5]))
        with pytest.raises(ValueError, match="not aligned"):
            surf.layer(0.1)

    @pytest.mark.parametrize("horizon, dt", [(0.3, 0.1), (0.1, 0.00025), (0.5, 0.07)])
    def test_solve_and_simulate_share_the_step_count(self, horizon, dt):
        # dx = 1 and alpha = 0.5 give a stable step of 0.8
        theta = nl.AffineParameter.scalar(alpha0=0.5)
        grid = nl.Grid.line(-10.0, 10.0, 21)
        surf = nl.solve(nl.FiniteParameterSet([theta]), grid, nl.make_payoff("cos"),
                        horizon, FULL, scheme=nl.SchemeConfig(dt=dt))
        bundle = nl.simulate_paths(theta, [0.0],
                                   nl.SimConfig(dt=dt, horizon=horizon, n_paths=1), FULL)
        assert len(bundle.times) == surf.n_steps + 1
        assert bundle.times[1] == surf.dt


class TestHolderExponent:
    def test_constant_payoff_flat(self):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=1.0)])
        grid = nl.Grid.line(-4.0, 4.0, 161)
        surf = nl.solve(ps, grid, const_payoff(2.0), 0.25, FULL)
        assert nl.holder_exponent(surf, [0.0]).flat

    def test_diffusion_sqrt_time(self):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=1.0)])
        grid = nl.Grid.line(-4.0, 4.0, 321)
        surf = nl.solve(ps, grid, nl.make_payoff("abs"), 0.25, FULL,
                        scheme=nl.SchemeConfig(min_time_steps=1024))
        rep = nl.holder_exponent(surf, [0.0])
        assert 0.4 <= rep.exponent <= 0.6

    def test_transport_linear_time(self):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=0.8)])
        grid = nl.Grid.line(-4.0, 4.0, 321)
        surf = nl.solve(ps, grid, nl.make_payoff("cos"), 0.25, FULL,
                        scheme=nl.SchemeConfig(min_time_steps=1024))
        rep = nl.holder_exponent(surf, [0.5])
        assert 0.8 <= rep.exponent <= 1.2

    def test_needs_time_resolution(self):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=0.1)])
        grid = nl.Grid.line(-4.0, 4.0, 161)
        surf = nl.solve(ps, grid, nl.make_payoff("cos"), 0.25, FULL,
                        scheme=nl.SchemeConfig(dt=0.05))
        assert surf.n_steps == 5
        with pytest.raises(ValueError, match="10 time nodes"):
            nl.holder_exponent(surf, [0.0])


class TestTwoDimensions:
    def test_isotropic_diffusion_on_square(self):
        sig2 = 0.7
        a = np.stack([sig2 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
        theta = nl.AffineParameter(np.zeros((3, 2)), a,
                                   tuple(nl.AtomicLevyMeasure.empty(2) for _ in range(3)))
        ps = nl.FiniteParameterSet([theta])
        grid = nl.Grid([-6, -6], [6, 6], [121, 121])
        mode = nl.GeneratorMode.standard(nl.StateSpace.full(2))
        surf = nl.solve(ps, grid, nl.make_payoff("square"), 0.5, mode,
                        scheme=nl.SchemeConfig(min_time_steps=64))
        X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
        true = X**2 + Y**2 + 2.0 * sig2 * 0.5
        mask = grid.interior_mask(3.0)
        assert np.max(np.abs(surf.values[-1] - true)[mask]) < 1e-3

    def test_cross_diffusion_monotone_stencil(self):
        a0 = np.array([[1.0, 0.4], [0.4, 1.0]])
        theta = nl.AffineParameter(np.zeros((3, 2)),
                                   np.stack([a0, np.zeros((2, 2)), np.zeros((2, 2))]),
                                   tuple(nl.AtomicLevyMeasure.empty(2) for _ in range(3)))
        ps = nl.FiniteParameterSet([theta])
        grid = nl.Grid([-6, -6], [6, 6], [121, 121])
        mode = nl.GeneratorMode.standard(nl.StateSpace.full(2))
        f = nl.TestFunction("sumsq", lambda x: (x[0] + x[1]) ** 2,
                            lambda x: 2 * (x[0] + x[1]) * np.ones(2),
                            lambda x: 2 * np.ones((2, 2)))
        surf = nl.solve(ps, grid, f, 0.5, mode, scheme=nl.SchemeConfig(min_time_steps=64))
        X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
        true = (X + Y) ** 2 + (1.0 + 0.8 + 1.0) * 0.5
        mask = grid.interior_mask(3.0)
        assert np.max(np.abs(surf.values[-1] - true)[mask]) < 1e-3

    def test_dominant_cross_term_rejected(self):
        # PSD, but on this anisotropic grid 0.5 a22 / dy^2 < 0.5 |a12| / (dx dy),
        # so the y-axis stencil coefficient goes negative
        a0 = np.array([[1.0, 0.9], [0.9, 1.0]])
        theta = nl.AffineParameter(np.zeros((3, 2)),
                                   np.stack([a0, np.zeros((2, 2)), np.zeros((2, 2))]),
                                   tuple(nl.AtomicLevyMeasure.empty(2) for _ in range(3)))
        ps = nl.FiniteParameterSet([theta])
        grid = nl.Grid([-2, -8], [2, 8], [41, 41])
        mode = nl.GeneratorMode.standard(nl.StateSpace.full(2))
        with pytest.raises(ValueError, match="cross-diffusion"):
            nl.solve(ps, grid, nl.make_payoff("square"), 0.1, mode)

    def test_jump_interpolation_2d(self):
        # pure jump to an off-grid target; constant payoff stays constant,
        # linear payoff matches the exact generator action
        m = nl.AtomicLevyMeasure([[0.37, -0.61]], [1.0], dim=2)
        theta = nl.AffineParameter(np.zeros((3, 2)), np.zeros((3, 2, 2)),
                                   (m, nl.AtomicLevyMeasure.empty(2),
                                    nl.AtomicLevyMeasure.empty(2)))
        ps = nl.FiniteParameterSet([theta])
        grid = nl.Grid([-5, -5], [5, 5], [101, 101])
        mode = nl.GeneratorMode.standard(nl.StateSpace.full(2))
        lin = nl.TestFunction("lin", lambda x: x[0] + 2 * x[1],
                              lambda x: np.array([1.0, 2.0]),
                              lambda x: np.zeros((2, 2)))
        T = 0.25
        surf = nl.solve(ps, grid, lin, T, mode, scheme=nl.SchemeConfig(min_time_steps=64))
        # the jump lands inside the unit ball, so on linear data the folded
        # compensator drift cancels the jump term exactly (interp is exact on
        # linear data); what remains is boundary contamination, which decays
        # like a Poisson tail in the hop count
        X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
        true = X + 2 * Y  # d/dt v = w (f(x+z) - f(x) - grad f . z) = 0
        mask = surf.interior_mask(extra_margin=2.0)
        assert np.max(np.abs(surf.values[-1] - true)[mask]) < 1e-5


def half_line_problem():
    """Two half-line vertices with atoms on both sides of a node (+0.37,
    -0.23, -0.61 on a 0.1 grid) and state-dependent weights; the ten nodes
    below 0 lie outside the state space."""
    E = nl.AtomicLevyMeasure
    ps = nl.FiniteParameterSet([
        nl.AffineParameter.scalar(beta0=0.3, beta1=-0.2, alpha1=0.4,
                                  nu0=E([[0.37], [-0.23]], [0.3, 0.2]),
                                  nu1=E([[0.37]], [0.1])),
        nl.AffineParameter.scalar(beta0=-0.1, alpha0=0.2, alpha1=0.1,
                                  nu0=E([[-0.61]], [0.5])),
    ])
    return ps, nl.Grid.line(-1.0, 3.0, 41)


def half_line_operator():
    ps, grid = half_line_problem()
    return pide._Operator(ps.vertices(), grid, HALF)


def half_line_surface(horizon=0.5):
    ps, grid = half_line_problem()
    return nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), horizon, HALF,
                    scheme=nl.SchemeConfig(min_time_steps=32))


def hat_box_config(out_dir):
    """A 2-D hat-mode coefficient box: 8 vertices, two off-grid atoms."""
    zero = [[0.0, 0.0], [0.0, 0.0]]
    atom = [0.37, -0.61]
    return {
        "dimension": 2,
        "parameter_set": {
            "kind": "box",
            "beta_lo": [[0.0, 0.0]] * 3,
            "beta_hi": [[0.0, 0.0]] * 3,
            "alpha_lo": [[[0.25, -0.1], [-0.1, 0.25]], zero, zero],
            "alpha_hi": [[[1.0, 0.1], [0.1, 1.0]], zero, zero],
            "nu_tuples": [[[[atom, 0.25], [[-z for z in atom], 0.25]], [], []]],
        },
        "mode": "hat",
        "payoff": {"name": "square"},
        "grid": {"lower": [-6.0, -6.0], "upper": [6.0, 6.0], "nodes": [31, 31]},
        "horizon": 0.5,
        "scheme": {"cfl": 0.4, "min_time_steps": 32},
        "output_dir": str(out_dir),
    }


def hat_box_problem():
    """hat_box_config as a library problem: every vertex is state-free."""
    cfg = ExperimentConfig.from_dict(hat_box_config("out"))
    return cfg.theta_set(), cfg.grid(), cfg.payoff(), cfg.horizon, cfg.mode(), cfg.scheme()


def hat_box_operator():
    theta_set, grid, _, _, mode, _ = hat_box_problem()
    return pide._Operator(theta_set.vertices(), grid, mode)


def hat_box_surface():
    *problem, scheme = hat_box_problem()
    return nl.solve(*problem, scheme=scheme)


class TestOperator:
    @staticmethod
    def reference(op, v):
        """sum_g C[g] sum_o S[g, o] (v[nbr[o]] - v) + pen, each offset
        gathered on its own; S @ diff is the operator's own contraction,
        whose BLAS summation order a Python loop would not reproduce."""
        diff = np.stack([v[op.nbr[o]] - v for o in range(op.nbr.shape[0])])
        stencils = op.S @ diff
        out = np.zeros(op.C.shape[1:])
        for g in range(op.C.shape[0]):
            out = out + op.C[g] * stencils[g]
        return out + op.pen

    @pytest.mark.parametrize("make", [half_line_operator,
                                      lambda: golden_2d_problem().problem.operator,
                                      hat_box_operator],
                             ids=["half_line_1d", "half_space_2d", "hat_box_2d"])
    def test_apply_is_the_stencil_sum(self, make):
        op = make()
        n = op.nbr.shape[1]
        assert op.nbr.dtype == np.intp
        assert op.nbr.min() >= 0 and op.nbr.max() < n  # take's "clip" moves nothing
        v = np.random.default_rng(5).standard_normal(n)
        assert np.array_equal(op.apply(v), self.reference(op, v))

    @pytest.mark.parametrize("make, state_free, admissible", [
        (lambda: criterion1_surface().problem.operator, True, True),
        (hat_box_operator, True, True),
        (half_line_operator, False, True),
        (lambda: golden_2d_problem().problem.operator, False, True),
        (lambda: pide._Operator([nl.AffineParameter.scalar(alpha0=0.2, alpha1=s)
                                 for s in (-0.1, 0.1)],
                                nl.Grid.line(-4.0, 4.0, 41), nl.GeneratorMode.hat()),
         False, False),
    ], ids=["criterion1", "hat_box_2d", "half_line_1d", "half_space_2d", "hat_two_covers"])
    def test_state_free_coefficients_are_stored_once(self, make, state_free, admissible):
        """A state-free set keeps one (stencil, vertex) column, read through
        a (G, K, n) broadcast; a set whose coefficients vary stays dense.  The
        penalty is a broadcast zero where every (vertex, node) is admissible."""
        op = make()
        _, K, n = op.C.shape
        assert op.state_free is state_free and n == op.nbr.shape[1]
        assert not op.C.flags.writeable
        if state_free:
            assert op.C.strides[-1] == 0  # one column, read at every node
        else:
            assert op.C.strides[-1] == op.C.itemsize
        assert op.pen.shape == op.inc.shape == (K, n)
        assert bool(op.adm.all()) is admissible
        if admissible:
            assert op.pen.strides[-1] == 0 and not op.pen.flags.writeable
            assert not op.pen.any() and not np.signbit(op.pen).any()
        else:
            assert op.pen.strides[-1] == op.pen.itemsize
            assert np.array_equal(op.pen, np.where(op.adm, 0.0, -np.inf))

    def test_a_varying_vertex_after_state_free_ones_makes_the_block_dense(self):
        """The block is allocated at the first vertex whose rows vary and
        takes the columns before it: the same C as with that vertex first."""
        E = nl.AtomicLevyMeasure
        free = [nl.AffineParameter.scalar(beta0=b, alpha0=0.2, nu0=E([[0.37]], [0.3]))
                for b in (0.1, -0.2)]
        varying = nl.AffineParameter.scalar(beta0=0.1, beta1=-0.3, nu0=E([[0.37]], [0.3]))
        grid = nl.Grid.line(-2.0, 2.0, 41)
        op = pide._Operator(free + [varying], grid, FULL)
        first = pide._Operator([varying] + free, grid, FULL)
        assert not op.state_free and op.C.strides[-1] == op.C.itemsize
        assert np.array_equal(op.C, first.C[:, [1, 2, 0]])
        assert all(np.array_equal(op.C[:, k], pide._Operator([theta], grid, FULL).C[:, 0])
                   for k, theta in enumerate(free))
        assert op.max_rate == first.max_rate

    def test_a_zero_of_the_other_sign_is_another_value(self):
        c = np.zeros((2, 5))
        assert pide._node_free(c) and pide._node_free(-c)
        c[1, 3] = -0.0
        assert not pide._node_free(c)
        c[0] = 1.5
        c[1] = -0.0
        assert pide._node_free(c)

    @pytest.mark.parametrize("make, rate", [
        (hat_box_operator, "0x1.8bfffffffffffp+3"),
        (lambda: pide._Operator(
            [nl.AffineParameter.scalar(beta0=0.1, alpha0=0.1,
                                       nu0=nl.AtomicLevyMeasure([[0.37]], [0.3]))],
            nl.Grid.line(-2.0, 2.0, 81), FULL), "0x1.4428f5c28f5c1p+5"),
    ], ids=["hat_box_2d", "one_atom_1d"])
    def test_max_rate_keeps_the_dense_sum(self, make, rate):
        """Recorded from an einsum over the dense C; summed over the stored
        column in einsum's other order, the 1-D rate would end ...5c2p+5."""
        op = make()
        assert op.state_free
        assert op.max_rate == float.fromhex(rate)

    def test_half_line_operator_has_zero_rows_and_two_sided_atoms(self):
        op = half_line_operator()
        # the ten nodes with x < 0 have no nonzero coefficient; all others do
        assert np.array_equal(np.flatnonzero(~op.C.any(axis=(0, 1))), np.arange(10))
        # node 20's neighbours: the upwind pair and the atoms' corners
        assert sorted(op.nbr[:, 20] - 20) == [-7, -6, -3, -2, -1, 1, 3, 4]
        assert op.nbr[:, 0].min() == 0 and op.nbr[:, 40].max() == 40  # clipped ends

    def test_nodes_outside_the_state_space_get_a_zero_increment(self):
        """Outside S every coefficient and every penalty is 0, so the one
        update leaves those nodes as they are: no node is frozen by hand."""
        op = half_line_operator()
        outside = np.arange(10)  # x < 0
        assert not op.C[:, :, outside].any() and not op.pen[:, outside].any()
        v = np.random.default_rng(7).standard_normal(op.nbr.shape[1])
        inc = op.apply(v)
        assert np.array_equal(inc[:, outside], np.zeros((inc.shape[0], 10)))
        layer, _ = next(op.steps(v, 1, 0.01))
        assert np.array_equal(layer[outside], v[outside])

    def test_far_atom_offset_is_clipped(self):
        # past 2**62 grid steps every corner is the boundary node; nearer
        # offsets keep their stencils bit for bit
        far = pide._interpolation_stencil(np.array([3e150, -0.25]))
        assert far == (((2**62, -1), 0.25), ((2**62, 0), 0.75))
        assert pide._interpolation_stencil(np.array([-2.0**62])) == (((-2**62,), 1.0),)
        assert pide._interpolation_stencil(np.array([2.5, -1.25])) == (
            ((2, -2), 0.125), ((2, -1), 0.375), ((3, -2), 0.125), ((3, -1), 0.375))

    def test_far_atom_solves(self):
        # criterion 1's law, no net drift: its unit atom lies 3e150 grid
        # steps away and lands on the boundary node
        theta = nl.AffineParameter.scalar(beta0=1.0, nu0=nl.AtomicLevyMeasure([[1.0]], [1.0]))
        surf = nl.solve(nl.FiniteParameterSet([theta]), nl.Grid.line(-1e-149, 1e-149, 61),
                        nl.make_payoff("min_cap", c=2.0), 1.0,
                        nl.GeneratorMode.standard(FULL.space, nl.TruncationFunction(1.0)),
                        scheme=nl.SchemeConfig(min_time_steps=16))
        assert surf.n_steps == 16 and np.all(np.isfinite(surf.values))


class TestSteps:
    """_Operator.steps, the one time loop: solve stores what it yields."""

    @pytest.mark.parametrize("make", [half_line_surface, lambda: golden_2d_problem()],
                             ids=["half_line_1d", "half_space_2d"])
    def test_yields_the_layers_solve_stores(self, make):
        surf = make()
        start = surf.values[0].ravel()
        marched = list(surf.problem.operator.steps(start, surf.n_steps, surf.dt))
        assert len(marched) == surf.n_steps
        for (layer, _), stored in zip(marched, surf.values[1:]):
            assert np.array_equal(layer, stored.ravel())
        last_inc = marched[-1][1]
        assert np.array_equal(np.argmax(last_inc, axis=0), surf.argmax_last.ravel())

    def test_zero_steps_yield_nothing(self):
        op = half_line_operator()
        assert list(op.steps(np.zeros(op.nbr.shape[1]), 0, 0.1)) == []

    def test_zero_horizon_keeps_one_layer_and_vertex_0(self):
        surf = half_line_surface(horizon=0.0)
        assert surf.values.shape == (1, 41)
        assert surf.argmax_last.shape == (41,) and not surf.argmax_last.any()


GOLDEN_SURFACES = [
    ("criterion1", "7b0dbe2eea5c50dd7e9f5e997ace20d87b61a7101c8bb6ce157c0c6d041b3469"),
    ("half_space_2d", "8bdf014016390e4453b7db21c52a1212131016892c0add24eeb08e1e02627a9f"),
    # the state-free 2-D path: a broadcast coefficient column
    ("hat_box", "4a87444f1cc37888cd0bf3ac3b86c067c9bc4caa3b2d5c6cb900fc510691830a"),
]


class TestSurfaceExport:
    def test_csv_format(self, tmp_path):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=0.5)])
        grid = nl.Grid.line(0.0, 1.0, 11)
        surf = nl.solve(ps, grid, nl.make_payoff("square"), 0.1, FULL,
                        scheme=nl.SchemeConfig(min_time_steps=4))
        path = tmp_path / "surface.csv"
        surf.to_csv(path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"t,x1,v"
        assert len(lines) == 1 + 5 * 11 + 1  # header + rows + trailing newline
        assert b"\r" not in path.read_bytes()

    @pytest.mark.parametrize("problem, digest", GOLDEN_SURFACES)
    def test_golden_bytes(self, tmp_path, problem, digest):
        """sha256 of surface.csv as written by the row-at-a-time writer that
        the per-layer writer replaced."""
        surf = golden_surface(problem)
        path = tmp_path / "surface.csv"
        surf.to_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def exact_ties(rng, count) -> np.ndarray:
    """Values odd m / 2^k whose exact decimal m 5^k / 10^k has 18
    significant digits, the last a 5: each lies halfway between two
    17-digit decimals, from about 1e-8 to 1e15."""
    out = []
    for k in rng.integers(3, 26, count).tolist():
        lo, hi = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        m = int(rng.integers(lo, hi)) | 1
        if len(str(m * 5 ** k)) == 18:
            out.append(math.ldexp(m, -k))
    return np.array(out)


def powers_of_ten() -> np.ndarray:
    """10^k for k = -5 .. 17 with both neighbours, and their negatives."""
    p = 10.0 ** np.arange(-5, 18)
    near = np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)])
    return np.concatenate([near, -near])


def edge_values() -> np.ndarray:
    """Values at every edge of format_17g's fixed-notation path."""
    return np.concatenate([
        [0.0, -0.0, 1e-5, -3e-7, 5e-324, -5e-324, 9.99e14, 1e15, 1e16, 1.7e308,
         -1.7e308, 1e-4, -1e-4, 120000.0, 0.5, 2.0 ** -14, np.inf, -np.inf, np.nan],
        exact_ties(np.random.default_rng(29), 40), powers_of_ten()])


def assert_formats_like_python(values) -> None:
    values = np.asarray(values, dtype=float)
    got = pide.format_17g(values)
    want = [b"%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


class TestFormat17g:
    """format_17g(values)[i] == b"%.17g" % values[i], byte for byte."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2911)
        for _ in range(4):  # 10^6 doubles of every exponent, sign and payload
            bits = rng.integers(0, 2 ** 64, size=250_000, dtype=np.uint64, endpoint=False)
            assert_formats_like_python(bits.view(np.float64))

    def test_fixed_notation_range(self):
        # random bit patterns put about 3% of their values on the fixed path
        rng = np.random.default_rng(2912)
        x = 10.0 ** rng.uniform(-4.5, 15.5, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        assert_formats_like_python(x)
        assert_formats_like_python(np.round(x * 1000.0) / 10.0 ** rng.integers(0, 9, x.size))

    def test_ties_and_powers_of_ten(self):
        ties = exact_ties(np.random.default_rng(2913), 20_000)
        assert ties.size > 15_000
        assert_formats_like_python(ties)
        assert_formats_like_python(-ties)
        assert_formats_like_python(powers_of_ten())
        assert_formats_like_python(edge_values())

    @pytest.mark.parametrize("values", [[], [2.5], [[1.0, -0.0], [np.nan, 1e-300]]],
                             ids=["empty", "one", "2-D"])
    def test_shapes(self, values):
        assert_formats_like_python(np.ravel(values))
        assert len(pide.format_17g(values)) == np.size(values)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_surface_of_edge_values(self, tmp_path, dim):
        """write_csv of hand-made layers against rows formatted one by one."""
        grid = (nl.Grid.line(-1.0, 2.0, 12) if dim == 1
                else nl.Grid([-1.0, -0.5], [2.0, 1.0], [10, 11]))
        ps = nl.FiniteParameterSet([nl.AffineParameter.zero(dim)])
        mode = nl.GeneratorMode.standard(nl.StateSpace.full(dim))
        march, _ = pide._prepare(ps, grid, nl.make_payoff("square"), 0.3, mode,
                                 nl.SchemeConfig(dt=0.1))
        values = np.resize(edge_values(), (march.n_steps + 1, grid.n_nodes))
        np.random.default_rng(dim).shuffle(values.ravel())
        path = tmp_path / "surface.csv"
        march.write_csv(path, iter(values))
        rows = [b"%.17g," % (j * march.dt) + b"".join(b"%.17g," % x for x in p)
                + b"%.17g\n" % v
                for j, layer in enumerate(values.tolist())
                for p, v in zip(grid.points().tolist(), layer)]
        header = b"t,x1,v\n" if dim == 1 else b"t,x1,x2,v\n"
        assert path.read_bytes() == header + b"".join(rows)


def no_child_left() -> bool:
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestWriterProcesses:
    """write_chunks formats with min(usable CPUs, chunks) processes; the
    bytes do not depend on their number, and none outlives the call."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A writer that never exits would hang the test; fail it instead."""
        def expire(signum, frame):
            raise TimeoutError("the writer processes did not finish in 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("problem, digest", GOLDEN_SURFACES)
    def test_golden_bytes_for_any_writer_count(self, tmp_path, monkeypatch, problem,
                                               digest, workers):
        surf = golden_surface(problem)
        monkeypatch.setattr(pide, "usable_cpus", lambda: workers)
        path = tmp_path / "surface.csv"
        assert surf.to_csv(path) == workers
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert no_child_left()

    def test_more_cpus_than_layers(self, tmp_path, monkeypatch):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(beta0=0.5)])
        surf = nl.solve(ps, nl.Grid.line(0.0, 1.0, 11), nl.make_payoff("square"), 0.0, FULL)
        assert surf.n_steps == 0
        monkeypatch.setattr(pide, "usable_cpus", lambda: 1)
        surf.to_csv(tmp_path / "one.csv")
        monkeypatch.setattr(pide, "usable_cpus", lambda: 4)
        assert surf.to_csv(tmp_path / "four.csv") == 1
        assert (tmp_path / "four.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_failing_writer_raises_and_is_reaped(self, tmp_path, monkeypatch):
        write_chunks = pide.write_chunks

        def poisoned(path, header, chunk, items, n):
            def layer(j, v):
                if j == 1:  # formatted by writer 1 of 2
                    raise RuntimeError("layer 1 does not format")
                return chunk(j, v)

            return write_chunks(path, header, layer, items, n)

        surf = criterion1_surface()
        monkeypatch.setattr(pide, "write_chunks", poisoned)
        monkeypatch.setattr(pide, "usable_cpus", lambda: 2)
        with pytest.raises(OSError):
            surf.to_csv(tmp_path / "surface.csv")
        assert no_child_left()

    def test_a_writer_error_keeps_its_errno_and_message(self, tmp_path, monkeypatch):
        def chunk(j, _):
            if j == 1:  # formatted by writer 1 of 2
                raise OSError(errno.ENOSPC, "No space left on device")
            return b"%d\n" % j

        monkeypatch.setattr(pide, "usable_cpus", lambda: 2)
        with pytest.raises(OSError) as raised:
            pide.write_chunks(tmp_path / "out", b"", chunk, range(4), 4)
        assert raised.value.errno == errno.ENOSPC
        assert raised.value.strerror == "No space left on device"
        assert no_child_left() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers, failing", [(2, 1), (3, 2), (3, 3)])
    def test_any_failure_reaps_every_writer(self, tmp_path, monkeypatch, workers, failing):
        # 512 KB chunks fill the pipes, so writers are still sending when
        # this process stops reading; chunk j = 0 mod workers fails here,
        # any other in a writer
        def chunk(j, _):
            if j == failing:
                raise ValueError(f"chunk {j}")
            return b"%d\n" % j * (1 << 18)

        monkeypatch.setattr(pide, "usable_cpus", lambda: workers)
        with pytest.raises(OSError if failing % workers else ValueError, match=f"chunk {failing}"):
            pide.write_chunks(tmp_path / "out", b"", chunk, range(8), 8)
        assert no_child_left()
        assert not (tmp_path / "out").exists()  # the partial file is removed

    @pytest.mark.parametrize("workers, failing", [(1, 3), (2, 0), (3, 4), (3, 7)])
    def test_failing_items_raise_and_reap(self, tmp_path, monkeypatch, workers, failing):
        """An item that cannot be made, as a march step that overflows,
        raises its own error in this process while the writers are busy."""
        def items():
            for j in range(8):
                if j == failing:
                    raise ZeroDivisionError(f"item {j}")
                yield j

        monkeypatch.setattr(pide, "usable_cpus", lambda: workers)
        with pytest.raises(ZeroDivisionError, match=f"item {failing}"):
            pide.write_chunks(tmp_path / "out", b"", lambda j, i: b"%d\n" % i * (1 << 18),
                              items(), 8)
        assert no_child_left()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_items_made_after_the_fork_reach_the_writers(self, tmp_path, monkeypatch,
                                                         workers):
        """Each item travels down a pipe: a writer formats what this process
        made after forking it, not what it inherited."""
        made = []

        def items():
            for j in range(7):
                made.append(j)
                yield np.full(3, float(j * j))

        monkeypatch.setattr(pide, "usable_cpus", lambda: workers)
        path = tmp_path / "out"
        assert pide.write_chunks(path, b"h\n", lambda j, v: b"%d:%r\n" % (j, v.tolist()),
                                 items(), 7) == workers
        assert path.read_bytes() == b"h\n" + b"".join(
            b"%d:%r\n" % (j, [float(j * j)] * 3) for j in range(7))
        assert made == list(range(7)) and no_child_left()

    def test_directory_fails_before_any_fork(self, tmp_path, monkeypatch):
        surf = criterion1_surface()
        monkeypatch.setattr(pide, "usable_cpus", lambda: 2)

        def fork():
            raise AssertionError("forked before opening the path")

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(IsADirectoryError):
            surf.to_csv(tmp_path)


def criterion1_surface():
    """The criterion-1 problem of TestGoldenValues: compound Poisson with unit
    jumps and intensity 1 on 601 nodes, 512 steps."""
    theta = nl.AffineParameter.scalar(beta0=1.0,
                                      nu0=nl.AtomicLevyMeasure([[1.0]], [1.0]))
    return nl.solve(nl.FiniteParameterSet([theta]), nl.Grid.line(-5.0, 10.0, 601),
                    nl.make_payoff("min_cap", c=2.0), 1.0,
                    nl.GeneratorMode.standard(FULL.space, nl.TruncationFunction(1.0)),
                    scheme=nl.SchemeConfig(cfl=0.4, min_time_steps=512))


def golden_surface(problem):
    return {"criterion1": criterion1_surface, "half_space_2d": golden_2d_problem,
            "hat_box": hat_box_surface}[problem]()


def golden_2d_problem():
    """Standard half-space problem in 2-D: two vertices, a drift that changes
    sign, an alpha_1 cross term that changes sign across the grid, and two
    off-grid atoms with state-dependent weights; every node is admissible."""
    za, zb = [0.37, -0.61], [-0.23, 0.44]
    E = nl.AtomicLevyMeasure
    nu = (E([za, zb], [0.3, 0.2], dim=2), E([za], [0.1], dim=2), E([zb], [0.05], dim=2))

    def theta(s, c):
        beta = np.array([[0.3 * s, -0.2 * s], [-0.2, 0.1], [0.05, -0.15 * s]])
        alpha = np.array([
            [[1.0 * c, 0.2], [0.2, 0.8 * c]],
            [[0.2, -0.15], [-0.15, 0.2]],
            [[0.1, 0.0], [0.0, 0.1]],
        ])
        return nl.AffineParameter(beta, alpha, nu)

    ps = nl.FiniteParameterSet([theta(1.0, 1.0), theta(-1.0, 0.7)])
    grid = nl.Grid([-1.0, -1.0], [3.0, 3.0], [21, 21])
    mode = nl.GeneratorMode.standard(nl.StateSpace.half(2))
    f = nl.TestFunction("bump", lambda x: float(np.cos(x[0]) * np.sin(x[1] + 0.3)),
                        lambda x: np.zeros(2), lambda x: np.zeros((2, 2)))
    return nl.solve(ps, grid, f, 0.2, mode, scheme=nl.SchemeConfig(min_time_steps=64))


class TestGoldenValues:
    """Regression values.  Step count, CFL rate, worst-case vertex map and
    horizon layer were recorded from the two-kernel solver this operator
    replaced; the dpp_gap values from a restart that rebuilt the operator
    in a second solve."""

    def check(self, surf, n_steps, max_rate, nodes):
        assert surf.n_steps == n_steps
        assert surf.problem.operator.max_rate == pytest.approx(max_rate, rel=1e-12)
        for idx, want in nodes.items():
            assert surf.values[-1][idx] == pytest.approx(want, rel=1e-12)

    def test_criterion1_problem(self):
        h = nl.TruncationFunction(1.0)
        theta = nl.AffineParameter.scalar(beta0=1.0,
                                          nu0=nl.AtomicLevyMeasure([[1.0]], [1.0]))
        surf = nl.solve(nl.FiniteParameterSet([theta]), nl.Grid.line(-5.0, 10.0, 601),
                        nl.make_payoff("min_cap", c=2.0), 1.0,
                        nl.GeneratorMode.standard(FULL.space, h),
                        scheme=nl.SchemeConfig(cfl=0.4, min_time_steps=512))
        self.check(surf, 512, 1.0, {
            (100,): -1.5024815636584847,
            (150,): -0.26844035299066943,
            (200,): 0.896721109228067,
            (220,): 1.2646006089867667,
            (240,): 1.6324801087454643,
            (260,): 1.8162400543727337,
            (290,): 2.0,
        })
        assert np.all(surf.argmax_last == 0)
        assert nl.dpp_gap(surf, 0.5) == 8.991307982886276e-05

    def test_half_space_2d_problem(self):
        surf = golden_2d_problem()
        assert nl.dpp_gap(surf, (surf.n_steps // 2) * surf.dt) == 4.353775038934415e-06
        self.check(surf, 64, 86.84749999999998, {
            (5, 5): 0.2871286145322958,
            (8, 12): 0.6893333063930314,
            (12, 8): 0.19446961015011924,
            (15, 15): -0.16223289486396275,
            (20, 20): -0.1119581795142984,
            (10, 3): -0.05394022521697594,  # outside the half-space: frozen
            (6, 19): 0.18463762238717907,
        })
        argmax = [
            "000000000000000000000",
            "000000000000000000000",
            "000000000000000000000",
            "000000000000000000000",
            "000000000000000000000",
            "000001111111100000000",
            "000001111111110000000",
            "000001111111110000000",
            "000001111111110000000",
            "000001111111111000000",
            "000001111111111100000",
            "000001111111111110000",
            "000001111111111111111",
            "000001111111111111111",
            "000001111111111111111",
            "000001111111111111111",
            "000001111111111111111",
            "000000001111111111111",
            "000000000011111111111",
            "000000000001111111111",
            "000000000000111111111",
        ]
        want = np.array([[int(c) for c in row] for row in argmax])
        assert np.array_equal(surf.argmax_last, want)
