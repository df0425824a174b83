import math

import numpy as np
import pytest

import nlaffine as nl


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

    def test_cfl_violation_raises_with_bound(self):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=1.0)])
        grid = nl.Grid.line(-1.0, 1.0, 101)
        with pytest.raises(nl.CFLError, match="stability bound"):
            nl.solve(ps, grid, nl.make_payoff("square"), 1.0, FULL,
                     scheme=nl.SchemeConfig(dt=0.1))


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

    def test_half_split_small_gap(self):
        ps = nl.FiniteParameterSet([mixed_theta()])
        grid = nl.Grid.line(-2.0, 6.0, 321)
        surf = nl.solve(ps, grid, nl.make_payoff("min_cap", c=2.0), 1.0, HALF,
                        scheme=nl.SchemeConfig(min_time_steps=256))
        assert nl.dpp_gap(surf, 0.5) <= 5e-3


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
        grid = nl.Grid.rect([-6, -6], [6, 6], [121, 121])
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
        grid = nl.Grid.rect([-6, -6], [6, 6], [121, 121])
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
        grid = nl.Grid.rect([-2, -8], [2, 8], [41, 41])
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
        grid = nl.Grid.rect([-5, -5], [5, 5], [101, 101])
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
    grid = nl.Grid.rect([-1.0, -1.0], [3.0, 3.0], [21, 21])
    mode = nl.GeneratorMode.standard(nl.StateSpace.half(2))
    f = nl.TestFunction("bump", lambda x: float(np.cos(x[0]) * np.sin(x[1] + 0.3)),
                        lambda x: np.zeros(2), lambda x: np.zeros((2, 2)))
    return nl.solve(ps, grid, f, 0.2, mode, scheme=nl.SchemeConfig(min_time_steps=64))


class TestGoldenValues:
    """Regression values recorded from the two-kernel solver this operator
    replaced; they pin step count, CFL rate, worst-case vertex map and the
    horizon layer."""

    def check(self, surf, n_steps, max_rate, nodes):
        assert surf.n_steps == n_steps
        assert surf.meta["max_rate"] == pytest.approx(max_rate, rel=1e-12)
        for idx, want in nodes.items():
            assert surf.values[-1][idx] == pytest.approx(want, rel=1e-12)

    def test_criterion1_problem(self):
        h = nl.TruncationFunction(1.0)
        theta = nl.AffineParameter.scalar(beta0=1.0,
                                          nu0=nl.AtomicLevyMeasure([[1.0]], [1.0]))
        surf = nl.solve(nl.FiniteParameterSet([theta]), nl.Grid.line(-5.0, 10.0, 601),
                        nl.make_payoff("min_cap", c=2.0), 1.0, FULL,
                        scheme=nl.SchemeConfig(cfl=0.4, min_time_steps=512), truncation=h)
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

    def test_half_space_2d_problem(self):
        surf = golden_2d_problem()
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
