import numpy as np
import pytest

import nlaffine as nl
from nlaffine.generator import NoAdmissibleVertexError
from nlaffine.montecarlo import _diffusion_root
from nlaffine.params import CoefficientError, truncation_moment

from test_params import random_theta, reference_coefficients, reference_generator


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.value(x + e) - f.value(x - e)) / (2 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    d = x.shape[0]
    H = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                f.value(x + ei + ej) - f.value(x + ei - ej)
                - f.value(x - ei + ej) + f.value(x - ei - ej)
            ) / (4 * h * h)
    return H


CONST = nl.TestFunction(
    "const", lambda x: 2.5, lambda x: np.zeros_like(x),
    lambda x: np.zeros((x.shape[0], x.shape[0])),
)


def form_of(h=nl.TruncationFunction(1.0), **coefficients):
    """The coefficient form of a d = 1 tuple on the full line; generator_value
    checks no admissibility, so signed measures evaluate too."""
    theta = nl.AffineParameter.scalar(**coefficients)
    return nl.GeneratorMode.standard(nl.StateSpace.full(1), h).coefficients(theta)


class TestJumpIntegral:
    def test_constant_function_vanishes(self):
        k = nl.AtomicLevyMeasure([[0.3], [2.0]], [1.0, -0.5])
        h = nl.TruncationFunction(1.0)
        assert nl.generator_value(form_of(h, nu0=k), CONST, [0.7], [0.7]) == 0.0

    def test_linear_function_small_jump_cancels(self):
        p = 1.7
        lin = nl.TestFunction("lin", lambda x: p * x[0],
                              lambda x: np.array([p]), lambda x: np.zeros((1, 1)))
        k = nl.AtomicLevyMeasure([[0.4]], [2.0])  # |z| <= 1, h(z) = z
        h = nl.TruncationFunction(1.0)
        val = nl.generator_value(form_of(h, nu0=k), lin, [3.0], [3.0])
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_square_large_jump(self):
        k = nl.AtomicLevyMeasure([[2.0]], [1.0])
        h = nl.TruncationFunction(1.0)
        val = nl.generator_value(form_of(h, nu0=k), nl.make_payoff("square"), [0.0], [0.0])
        assert val == pytest.approx(4.0, abs=1e-14)  # f(2) - f(0), h(2) = 0


class TestLinearGenerator:
    def test_zero_triplet(self):
        val = nl.generator_value(form_of(), nl.make_payoff("square"), [1.0], [1.0])
        assert val == 0.0

    def test_pure_drift_linear_payoff(self):
        p, b = 1.3, -0.7
        lin = nl.TestFunction("lin", lambda x: p * x[0],
                              lambda x: np.array([p]), lambda x: np.zeros((1, 1)))
        assert nl.generator_value(form_of(beta0=b), lin, [0.2], [0.2]) == \
            pytest.approx(p * b)

    def test_diffusion_on_square(self):
        sig2 = 0.49
        val = nl.generator_value(form_of(beta0=0.3, alpha0=sig2),
                                 nl.make_payoff("square"), [1.5], [1.5])
        assert val == pytest.approx(0.3 * 3.0 + sig2)


class TestWorstCaseGenerator:
    def test_singleton_equals_linear(self):
        rng = np.random.default_rng(10)
        space = nl.StateSpace.full(1)
        h = nl.TruncationFunction(1.0)
        mode = nl.GeneratorMode.standard(space, h)
        for _ in range(10):
            theta = random_theta(rng, signed=False)
            ps = nl.FiniteParameterSet([theta])
            y = rng.normal(size=1)
            x = rng.normal(size=1)
            _, a, k = reference_coefficients(theta, y, mode)
            if np.any(a < 0) or (k.n_atoms and k.min_weight() < 0):
                continue
            want = reference_generator(theta, nl.make_payoff("cos"), x, y, mode)
            got, idx = nl.worst_case_generator(ps, y, nl.make_payoff("cos"), x, mode)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert idx == 0

    def test_constant_payoff_gives_zero(self):
        rng = np.random.default_rng(11)
        thetas = [random_theta(rng, signed=False) for _ in range(3)]
        ps = nl.FiniteParameterSet(thetas)
        mode = nl.GeneratorMode.hat()
        val, _ = nl.worst_case_generator(ps, [0.5], CONST, [0.5], mode)
        assert val == 0.0

    def test_variance_box_picks_upper_endpoint(self):
        ps = nl.CoefficientBox(
            beta_lo=[[0.0], [0.0]], beta_hi=[[0.0], [0.0]],
            alpha_lo=[[[0.25]], [[0.0]]], alpha_hi=[[[1.0]], [[0.0]]],
        )
        mode = nl.GeneratorMode.hat()
        sq = nl.make_payoff("square")
        # oracle: evaluate both vertices directly
        vals = [
            nl.generator_value(mode.coefficients(t), sq, [0.3], [0.3])
            for t in ps.vertices()
        ]
        assert vals == [pytest.approx(0.25), pytest.approx(1.0)]
        got, idx = nl.worst_case_generator(ps, [0.3], sq, [0.3], mode)
        assert got == pytest.approx(1.0)
        assert ps.vertices()[idx].alpha[0, 0, 0] == 1.0

    def test_outside_state_space_zero(self):
        rng = np.random.default_rng(12)
        ps = nl.FiniteParameterSet([random_theta(rng, signed=False) for _ in range(3)])
        mode = nl.GeneratorMode.standard(nl.StateSpace.half(1))
        for f in (nl.make_payoff("square"), nl.make_payoff("cos")):
            val, _ = nl.worst_case_generator(ps, [-1.0], f, [0.4], mode)
            assert val == 0.0

    def test_monotone_in_parameter_set(self):
        rng = np.random.default_rng(13)
        mode = nl.GeneratorMode.hat()
        f = nl.make_payoff("cos")
        for _ in range(20):
            thetas = [random_theta(rng, signed=False) for _ in range(4)]
            small = nl.FiniteParameterSet(thetas[:2])
            big = nl.FiniteParameterSet(thetas)
            y = rng.normal(size=1)
            x = rng.normal(size=1)
            # jump weights are positive, so only the diffusion at y can fail
            if all(reference_coefficients(t, y, mode)[1][0, 0] < -1e-10 for t in thetas[:2]):
                with pytest.raises(NoAdmissibleVertexError):
                    nl.worst_case_generator(small, y, f, x, mode)
                continue
            v1, _ = nl.worst_case_generator(small, y, f, x, mode)
            v2, _ = nl.worst_case_generator(big, y, f, x, mode)
            assert v1 <= v2 + 1e-14

    def test_positive_homogeneity_and_argmax_invariance(self):
        rng = np.random.default_rng(14)
        mode = nl.GeneratorMode.hat()
        base = nl.make_payoff("cos")
        for lam in (0.5, 2.0, 7.3):
            scaled = nl.TestFunction(
                "sc", lambda x, l=lam: l * base.value(x),
                lambda x, l=lam: l * base.gradient(x),
                lambda x, l=lam: l * base.hessian(x),
            )
            thetas = [random_theta(rng, signed=False) for _ in range(4)]
            ps = nl.FiniteParameterSet(thetas)
            y = rng.normal(size=1)
            x = rng.normal(size=1)
            v, i = nl.worst_case_generator(ps, y, base, x, mode)
            vs, js = nl.worst_case_generator(ps, y, scaled, x, mode)
            assert vs == pytest.approx(lam * v, rel=1e-12, abs=1e-12)
            assert js == i

    def test_all_vertices_filtered_raises(self):
        theta = nl.AffineParameter.scalar(alpha0=-1.0)  # negative diffusion
        ps = nl.FiniteParameterSet([theta])
        mode = nl.GeneratorMode.standard(nl.StateSpace.full(1))
        with pytest.raises(NoAdmissibleVertexError):
            nl.worst_case_generator(ps, [0.0], nl.make_payoff("square"), [0.0], mode)

    @pytest.mark.parametrize("y, x", [([0.0, 0.0], [0.0]), ([0.0], [0.0, 0.0])])
    def test_wrong_length_state_rejected(self, y, x):
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=-1.0)])
        with pytest.raises(nl.params.DimensionError):
            nl.worst_case_generator(ps, y, nl.make_payoff("square"), x, nl.GeneratorMode.hat())

    def test_vertex_sufficiency_quick(self):
        # interior convex combinations never beat the vertex maximum
        rng = np.random.default_rng(15)
        mode = nl.GeneratorMode.hat()
        f = nl.make_payoff("square")
        for _ in range(10):
            ps = nl.CoefficientBox(
                beta_lo=[[-0.5], [0.0]], beta_hi=[[0.5], [0.3]],
                alpha_lo=[[[0.1]], [[0.0]]], alpha_hi=[[[0.8]], [[0.2]]],
            )
            vs = ps.vertices()
            y = rng.normal(size=1)
            x = rng.normal(size=1)
            vmax, _ = nl.worst_case_generator(ps, y, f, x, mode)
            for _ in range(20):
                lam = rng.dirichlet(np.ones(len(vs)))
                mix = vs[0]
                acc = lam[0]
                for w, t in zip(lam[1:], vs[1:]):
                    mix = mix.convex_combination(t, w / (acc + w))
                    acc += w
                val = nl.generator_value(mode.coefficients(mix), f, x, y)
                assert val <= vmax + 1e-12


class TestDerivativeConsistency:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        payoffs = [
            nl.make_payoff("square"),
            nl.make_payoff("cos"),
            nl.make_payoff("abs"),
            nl.make_payoff("min_cap", c=1.0),
        ]
        for f in payoffs:
            for _ in range(10):
                x = rng.normal(size=2) * 2
                # stay away from kinks of abs / min_cap
                if f.name.startswith("min_cap") and abs(x[0] - 1.0) < 1e-2:
                    continue
                if f.name == "abs" and np.linalg.norm(x) < 1e-2:
                    continue
                g = np.asarray(f.gradient(x))
                gfd = fd_gradient(f, x)
                scale = max(1.0, np.linalg.norm(gfd))
                assert np.linalg.norm(g - gfd) / scale < 1e-6
                H = np.asarray(f.hessian(x))
                Hfd = fd_hessian(f, x)
                hscale = max(1.0, np.linalg.norm(Hfd))
                assert np.linalg.norm(H - Hfd) / hscale < 1e-4


class TestArrayValues:
    """`TestFunction.values` on an (n, d) array equals `value` row by row,
    bit for bit, for every built-in payoff: the PIDE's initial layer and the
    Monte Carlo payoff moments read it."""

    @staticmethod
    def rows(d):
        rng = np.random.default_rng(40 + d)
        X = np.concatenate([rng.normal(size=(20000, d)) * 3.0,
                            rng.normal(size=(200, d)) * 1e150,
                            rng.normal(size=(200, d)) * 1e-150])
        kinks = np.zeros((6, d))
        kinks[:, 0] = [0.5, 0.5, -0.0, 0.0, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)]
        kinks[1, 1:] = -2.0
        return np.concatenate([X, kinks])

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name, params", [
        ("indicator_ge", {"c": 0.5}), ("min_cap", {"c": 0.5}), ("abs", {}),
        ("square", {}), ("cos", {}), ("min_cap", {"c": 0.0}), ("indicator_ge", {"c": 0.0}),
    ])
    def test_builtin_matches_scalar(self, name, params, d):
        f = nl.make_payoff(name, **params)
        X = self.rows(d)
        got = f.values(X)
        want = np.array([f.value(x) for x in X])
        assert got.dtype == np.float64 and got.shape == (X.shape[0],)
        assert got.tobytes() == want.tobytes()

    def test_scalar_only_callable_runs_row_by_row(self):
        seen = []

        def value(x):
            seen.append(x.shape)
            return x[0] + 2 * x[1]

        lin = nl.TestFunction("lin", value, lambda x: np.array([1.0, 2.0]),
                              lambda x: np.zeros((2, 2)))
        X = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]])
        assert lin.values(X).tolist() == [5.0, 1.0, 1.0]
        assert seen == [(2,)] * 3
        assert lin.values(np.empty((0, 2))).shape == (0,)


class TestModeTruncation:
    def test_standard_mode_holds_h(self):
        h = nl.TruncationFunction(0.4)
        assert nl.GeneratorMode.standard(nl.StateSpace.full(1), h).h is h
        assert nl.GeneratorMode.standard(nl.StateSpace.full(1)).h == nl.TruncationFunction(1.0)
        assert nl.GeneratorMode.hat().h == nl.TruncationFunction(1.0)

    @pytest.mark.parametrize("kwargs", [
        {"space": nl.StateSpace.full(1)},
        {"h": nl.TruncationFunction(2.0)},
    ])
    def test_hat_mode_refuses_what_it_would_ignore(self, kwargs):
        with pytest.raises(ValueError):
            nl.GeneratorMode("hat", **kwargs)

    @pytest.mark.parametrize("kind, message", [
        ("jump", "mode kind must be 'standard' or 'hat'"),
        ("standard", "a standard mode needs a state space; a hat mode has none"),
    ])
    def test_bad_kind_or_space_named(self, kind, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            nl.GeneratorMode(kind)


class TestCoefficientForm:
    """The array form read by the solver, the simulator and the gate agrees
    with the pointwise reference maps, with the drift compensated by
    sum_j w_j(x) h(z_j)."""

    @staticmethod
    def close(got, want):
        return np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["standard", "hat"])
    def test_matches_pointwise_triplets(self, kind, d):
        rng = np.random.default_rng(11 + d)
        h = nl.TruncationFunction(1.3)
        mode = (nl.GeneratorMode.standard(nl.StateSpace.half(d, 1), h) if kind == "standard"
                else nl.GeneratorMode.hat())
        # half the states have a negative first coordinate: outside the
        # half-space, and on the positive-part kink side in hat mode
        xs = rng.uniform(-2.0, 2.0, size=(250, d))
        assert np.sum(xs[:, 0] < 0) > 50
        for _ in range(4):
            theta = random_theta(rng, d=d)
            form = mode.coefficients(theta)
            b, a, w = form.at(xs)
            for i, x in enumerate(xs):
                tb, ta, tk = reference_coefficients(theta, x, mode)
                want_w = dict(zip(map(tuple, tk.atoms), tk.weights))
                assert set(want_w) <= set(map(tuple, form.atoms))
                got_w = np.array([want_w.get(tuple(z), 0.0) for z in form.atoms])
                net = tb - truncation_moment(tk.atoms, tk.weights, mode.h)
                assert self.close(b[i], net)
                assert self.close(a[i], ta)
                assert self.close(w[i], got_w)


def agreement_vertices(d):
    """Two vertices with drift, diffusion and atoms.  The first is admissible
    everywhere, with a cross term in d = 2; the second's diffusion turns
    negative for x^1 > 2/3 and, in standard mode, its jump weights for
    x^1 < -2/3 (d = 1) or x^2 < 0 (d = 2)."""
    m = lambda *pairs: nl.AtomicLevyMeasure(list(pairs), dim=d)
    if d == 1:
        return [
            nl.AffineParameter.scalar(beta0=0.3, alpha0=0.2,
                                      nu0=m(([0.35], 0.5), ([-0.73], 0.8))),
            nl.AffineParameter.scalar(beta0=-0.4, beta1=0.5, alpha0=0.2, alpha1=-0.3,
                                      nu0=m(([0.6], 0.4)), nu1=m(([0.6], 0.6))),
        ]
    empty = nl.AtomicLevyMeasure.empty(2)
    return [
        nl.AffineParameter([[0.3, -0.2], [0.0, 0.0], [0.0, 0.0]],
                           [[[0.3, 0.1], [0.1, 0.2]], np.zeros((2, 2)), np.zeros((2, 2))],
                           (m(([0.3, -0.45], 0.6), ([-0.5, 0.2], 0.4)), empty, empty)),
        nl.AffineParameter([[-0.1, 0.2], [0.2, 0.0], [0.0, -0.3]],
                           [np.diag([0.2, 0.25]), np.diag([-0.3, 0.05]), np.zeros((2, 2))],
                           (m(([0.4, 0.4], 0.3)), m(([0.4, 0.4], 0.2)),
                            m(([-0.25, 0.6], 0.1)))),
    ]


class TestOperatorMatchesPointwiseGenerator:
    """The assembled operator and the pointwise worst-case generator read one
    coefficient form and one admissibility rule.  Upwind, cross and
    interpolation stencils are exact on affine functions, so max_k L_k of an
    affine payoff equals the pointwise sup wherever the stencils stay on the
    grid."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["standard", "hat"])
    def test_affine_payoff(self, kind, d):
        p = np.array([1.7]) if d == 1 else np.array([1.3, -0.6])
        f = nl.TestFunction("lin", lambda x: float(p @ x), lambda x: p,
                            lambda x: np.zeros((d, d)))
        ps = nl.FiniteParameterSet(agreement_vertices(d))
        mode = (nl.GeneratorMode.standard(nl.StateSpace.half(d, 1)) if kind == "standard"
                else nl.GeneratorMode.hat())
        grid = nl.Grid([-2.0] * d, [2.0] * d, [41] * d if d == 1 else [21] * d)
        surf = nl.solve(ps, grid, f, 0.0, mode)
        op = surf.problem.operator
        got = np.max(op.apply(surf.values[0].ravel()), axis=0)
        core = grid.interior_mask(surf.r_jump + np.max(grid.dx)).ravel()
        assert np.any(~op.adm[1, core])  # the mask acts on the core
        for x, g in zip(grid.points()[core], got[core]):
            want, _ = nl.worst_case_generator(ps, x, f, x, mode)
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want))

    def test_hat_vertex_masked_by_both(self):
        # the second vertex's diffusion is -0.5 at every state: the solver
        # masks it, and so does the pointwise generator, which would
        # otherwise pick it for its drift (value 1.8 - 0.5 = 1.3)
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(alpha0=0.2),
                                    nl.AffineParameter.scalar(beta0=3.0, alpha0=-0.5)])
        mode = nl.GeneratorMode.hat()
        sq = nl.make_payoff("square")
        val, idx = nl.worst_case_generator(ps, [0.3], sq, [0.3], mode)
        assert idx == 0 and val == pytest.approx(0.2)
        grid = nl.Grid.line(-1.0, 1.0, 21)
        op = nl.solve(ps, grid, sq, 0.0, mode).problem.operator
        assert op.adm[:, grid.node_index([0.3])[0]].tolist() == [True, False]


def hat_diffusion_set(*alpha):
    """One hat-mode vertex with no drift or jumps and diffusion coefficients
    alpha_0, ..., alpha_d."""
    alpha = np.array(alpha, dtype=float)
    d = alpha.shape[-1]
    empty = nl.AtomicLevyMeasure.empty(d)
    return nl.FiniteParameterSet(
        [nl.AffineParameter(np.zeros((d + 1, d)), alpha, (empty,) * (d + 1))])


class TestSqrtDiffusionLipschitz:
    def test_constant_diffusion_zero(self):
        theta = nl.AffineParameter.scalar(alpha0=0.7)
        est = nl.sqrt_diffusion_lipschitz(nl.FiniteParameterSet([theta]), ([0.0], [4.0]))
        assert est.constant == 0.0

    def test_sqrt_slope_on_positive_box(self):
        # a(x) = x+ on [1, 4]: the slope peaks at 1/(2 sqrt(1)) = 1/2
        theta = nl.AffineParameter.scalar(alpha1=1.0)
        est = nl.sqrt_diffusion_lipschitz(nl.FiniteParameterSet([theta]), ([1.0], [4.0]))
        assert est.constant == 0.5

    def test_slope_across_zero_is_true_supremum(self):
        # a(x) = 0.2 + 0.5 x+ on [-1, 4]: sup of the derivative, at x = 0+
        theta = nl.AffineParameter.scalar(alpha0=0.2, alpha1=0.5)
        est = nl.sqrt_diffusion_lipschitz(nl.FiniteParameterSet([theta]), ([-1.0], [4.0]))
        assert est.constant == 0.5 / (2.0 * np.sqrt(0.2))

    def test_kink_at_zero_blows_up(self):
        theta = nl.AffineParameter.scalar(alpha1=1.0)
        est = nl.sqrt_diffusion_lipschitz(nl.FiniteParameterSet([theta]), ([-1.0], [4.0]))
        assert est.constant == np.inf

    def test_singular_axis_blows_up_in_2d(self):
        # a(x) = diag(1, x2+): the second eigenvalue leaves 0 linearly
        ps = hat_diffusion_set(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0]))
        est = nl.sqrt_diffusion_lipschitz(ps, ([-1.0, -1.0], [2.0, 2.0]))
        assert est.constant == np.inf
        assert est.vertex == 0 and est.state[1] in (-1.0, 0.0)

    def test_constant_kernel_decides_on_largest_eigenvalue(self):
        # a(x) = (1 + x1+ / 2) [[1, 1], [1, 1]]: kernel (1, -1) everywhere,
        # and sqrt a = sqrt(2 + x1+) u u^T with u = (1, 1)/sqrt 2
        ones = np.ones((2, 2))
        ps = hat_diffusion_set(ones, 0.5 * ones, np.zeros((2, 2)))
        est = nl.sqrt_diffusion_lipschitz(ps, ([-1.0, -1.0], [2.0, 2.0]))
        assert est.constant == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), rel=1e-12)

    def test_bounds_sampled_secant_slopes(self):
        # the constant bounds every secant of the closed-form root the
        # simulator steps with, on random 1-D and 2-D boxes and PSD maps
        rng = np.random.default_rng(41)
        hat = nl.GeneratorMode.hat()
        for trial in range(60):
            d = 1 + trial % 2
            b = rng.normal(size=(d + 1, d, d))
            ps = hat_diffusion_set(*(b @ np.swapaxes(b, 1, 2)))
            lo, hi = np.sort(rng.uniform(-3.0, 3.0, size=(2, d)), axis=0)
            width = hi - lo
            est = nl.sqrt_diffusion_lipschitz(ps, (lo, hi))
            x = lo + rng.uniform(size=(300, d)) * width
            x[:100] = est.state  # the corner that decides the constant
            step = rng.normal(size=x.shape) * width * 10.0 ** -rng.uniform(0, 4, (300, 1))
            y = np.clip(x + step, lo, hi)
            gap = np.linalg.norm(x - y, axis=1)
            keep = gap >= 1e-4 * np.linalg.norm(width)
            form = hat.coefficients(ps.vertices()[0])
            live = np.ones(len(x), dtype=bool)
            diff = (_diffusion_root(form.diffusion(x), x, live)
                    - _diffusion_root(form.diffusion(y), y, live))
            slope = np.max(np.abs(np.linalg.eigvalsh(diff)), axis=-1)[keep] / gap[keep]
            assert np.isfinite(est.constant)
            assert np.max(slope) <= est.constant * (1.0 + 1e-6)

    def test_non_psd_named(self):
        theta = nl.AffineParameter.scalar(alpha0=-0.5)
        with pytest.raises(CoefficientError, match="PSD at corner x = \\[0.\\] \\(vertex 0\\)"):
            nl.sqrt_diffusion_lipschitz(nl.FiniteParameterSet([theta]), ([0.0], [1.0]))
