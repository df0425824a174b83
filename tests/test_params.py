import numpy as np
import pytest

import nlaffine as nl
from nlaffine.params import (
    DimensionError,
    affine_at,
    combined_atom_table,
    linear_part_norm,
    parameter_growth,
)


def random_measure(rng, d=1, max_atoms=4, signed=True):
    n = int(rng.integers(0, max_atoms + 1))
    if n == 0:
        return nl.AtomicLevyMeasure.empty(d)
    z = rng.normal(size=(n, d)) * 1.5
    z = z[np.linalg.norm(z, axis=1) > 1e-6]
    if z.shape[0] == 0:
        return nl.AtomicLevyMeasure.empty(d)
    w = rng.normal(size=z.shape[0]) if signed else rng.uniform(0.1, 2.0, z.shape[0])
    return nl.AtomicLevyMeasure(z, w, dim=d)


def random_theta(rng, d=1, with_jumps=True, signed=True):
    beta = rng.normal(size=(d + 1, d))
    alpha = rng.normal(size=(d + 1, d, d))
    alpha = 0.5 * (alpha + np.transpose(alpha, (0, 2, 1)))
    nus = tuple(
        random_measure(rng, d, signed=signed) if with_jumps else nl.AtomicLevyMeasure.empty(d)
        for _ in range(d + 1)
    )
    return nl.AffineParameter(beta, alpha, nus)


def shared_atom_theta(rng, d=2, max_atoms=5):
    """Like random_theta, but nu_i = sum_j w_ij delta_{z_j} over one atom set
    with signed weights, so the rows of the weight table point anywhere."""
    theta = random_theta(rng, d=d, with_jumps=False)
    z = rng.normal(size=(int(rng.integers(1, max_atoms + 1)), d)) * 1.5
    w = rng.normal(size=(d + 1, z.shape[0]))
    nus = tuple(nl.AtomicLevyMeasure(z, w_i, dim=d) for w_i in w)
    return nl.AffineParameter(theta.beta, theta.alpha, nus)


class TestAtomicLevyMeasure:
    def test_origin_atom_rejected(self):
        with pytest.raises(ValueError):
            nl.AtomicLevyMeasure([[0.0]], [1.0])

    @pytest.mark.parametrize("atom, weight", [
        (1e400, 1.0), (1.0, float("nan")),
    ])
    def test_non_finite_rejected(self, atom, weight):
        with pytest.raises(ValueError, match="must be finite"):
            nl.AtomicLevyMeasure([[atom]], [weight])

    def test_merging_and_sorting(self):
        m = nl.AtomicLevyMeasure([[1.0], [1.0 + 1e-13], [-2.0]], [0.5, 0.25, 1.0])
        assert m.n_atoms == 2
        assert m.atoms[0, 0] == -2.0  # canonical lexicographic order
        assert m.weights[1] == 0.75

    def test_zero_weights_dropped(self):
        m = nl.AtomicLevyMeasure([[1.0], [1.0]], [2.0, -2.0])
        assert m.is_empty()

    def test_norm_examples(self):
        assert nl.AtomicLevyMeasure.empty(1).norm() == 0.0
        m = nl.AtomicLevyMeasure([[0.5]], [4.0])
        assert m.norm() == pytest.approx(1.0, abs=1e-15)
        m2 = nl.AtomicLevyMeasure([[2.0], [-0.1]], [1.0, -3.0])
        assert m2.norm() == pytest.approx(2.03, abs=1e-14)

    def test_norm_homogeneity_and_triangle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = random_measure(rng)
            m = random_measure(rng)
            c = float(rng.normal())
            assert k.scaled(c).norm() == pytest.approx(
                abs(c) * k.norm(), rel=1e-12, abs=1e-14
            )
            assert (k + m).norm() <= k.norm() + m.norm() + 1e-12

    def test_addition_merges_atoms(self):
        a = nl.AtomicLevyMeasure([[1.0]], [2.0])
        b = nl.AtomicLevyMeasure([[1.0], [3.0]], [0.5, 1.0])
        s = a + b
        assert s.n_atoms == 2
        assert s.weights[0] == 2.5

    def test_union_table_affine_combination(self):
        rng = np.random.default_rng(1)
        ms = [random_measure(rng, d=2) for _ in range(3)]
        atoms, W = combined_atom_table(ms)
        c = rng.normal(size=3)
        combo = ms[0].scaled(c[0]) + ms[1].scaled(c[1]) + ms[2].scaled(c[2])
        w_table = W @ c
        keep = w_table != 0.0
        ref = nl.AtomicLevyMeasure(atoms[keep], w_table[keep], dim=2) if keep.any() \
            else nl.AtomicLevyMeasure.empty(2)
        assert ref == combo

    def test_union_table_merges_atoms_chained_across_measures(self):
        # nu_0's two atoms are farther apart than the merge tolerance, but
        # nu_1's atom lies within it of both, so all three are one union atom
        nu0 = nl.AtomicLevyMeasure([[1.0], [1.0 + 1.5e-12]], [0.2, 0.3])
        nu1 = nl.AtomicLevyMeasure([[1.0 + 7.5e-13]], [0.1])
        assert nu0.n_atoms == 2
        atoms, W = combined_atom_table([nu0, nu1])
        assert atoms.shape == (1, 1) and abs(atoms[0, 0] - 1.0) <= 1.5e-12
        assert W.tolist() == [[0.5, 0.1]]


def reference_coefficients(theta, x, mode):
    """theta at one state straight from (beta, alpha, nu) with measure
    arithmetic, as (b, a, k) with the uncompensated drift b: zero outside
    the state space in standard mode; alpha on x+ and k = nu_0 in hat mode."""
    d = theta.dim
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not mode.inside(x[None, :])[0]:
        return np.zeros(d), np.zeros((d, d)), nl.AtomicLevyMeasure.empty(d)
    b = theta.beta[0] + theta.beta[1:].T @ x
    xa = np.maximum(x, 0.0) if mode.is_hat else x
    a = theta.alpha[0] + np.tensordot(xa, theta.alpha[1:], axes=(0, 0))
    k = theta.nu[0]
    if not mode.is_hat:
        for xi, m in zip(x, theta.nu[1:]):
            k = k + m.scaled(float(xi))
    return b, a, k


def reference_generator(theta, f, x, y, mode):
    """grad f . b + 1/2 tr[Hess f a] + sum_j w_j [f(x + z_j) - f(x) -
    grad f . h(z_j)] with (b, a, k) = reference_coefficients at y."""
    b, a, k = reference_coefficients(theta, y, mode)
    h = mode.h
    x = np.atleast_1d(np.asarray(x, dtype=float))
    grad = np.asarray(f.gradient(x), dtype=float)
    fx = f(x)
    jumps = sum(w * (f(x + z) - fx - grad @ h(z)) for z, w in zip(k.atoms, k.weights))
    return float(grad @ b) + 0.5 * float(np.trace(f.hessian(x) @ a)) + jumps


class TestAffineEvaluation:
    """CoefficientForm.at at single states: drift compensated by
    sum_j w_j h(z_j) with the unit-ball h."""

    def test_outside_state_space_exact_zero(self):
        rng = np.random.default_rng(2)
        mode = nl.GeneratorMode.standard(nl.StateSpace.half(1))
        for _ in range(20):
            theta = random_theta(rng)
            b, a, w = mode.coefficients(theta).at(np.array([[-abs(rng.normal()) - 1e-9]]))
            assert np.all(b == 0.0) and np.all(a == 0.0) and np.all(w == 0.0)

    def test_constant_part_at_member(self):
        m = nl.AtomicLevyMeasure([[1.0]], [2.0])
        theta = nl.AffineParameter.scalar(beta0=0.3, alpha0=0.7, nu0=m)
        form = nl.GeneratorMode.standard(nl.StateSpace.half(1)).coefficients(theta)
        b, a, w = form.at(np.array([[5.0]]))
        assert b[0, 0] == 0.3 - 2.0 and a[0, 0, 0] == 0.7  # h(1) = 1
        assert np.array_equal(form.atoms, m.atoms) and np.array_equal(w[0], m.weights)

    def test_affine_drift(self):
        theta = nl.AffineParameter.scalar(beta0=1.0, beta1=2.0)
        form = nl.GeneratorMode.standard(nl.StateSpace.half(1)).coefficients(theta)
        b, _, _ = form.at(np.array([[3.0]]))
        assert b[0, 0] == pytest.approx(7.0, abs=1e-15)

    def test_measure_combination_merges(self):
        nu0 = nl.AtomicLevyMeasure([[1.0]], [1.0])
        nu1 = nl.AtomicLevyMeasure([[1.0], [2.0]], [0.5, 1.0])
        theta = nl.AffineParameter.scalar(nu0=nu0, nu1=nu1)
        form = nl.GeneratorMode.standard(nl.StateSpace.half(1)).coefficients(theta)
        _, _, w = form.at(np.array([[2.0]]))
        assert form.atoms.shape[0] == 2
        assert w[0, 0] == pytest.approx(2.0)  # 1 + 2*0.5 at atom 1

    def test_hat_positive_part_and_constant_jumps(self):
        theta = nl.AffineParameter.scalar(beta0=1.0, beta1=-1.0,
                                          alpha0=0.4, alpha1=2.0,
                                          nu0=nl.AtomicLevyMeasure([[1.0]], [1.0]),
                                          nu1=nl.AtomicLevyMeasure([[2.0]], [5.0]))
        form = nl.GeneratorMode.hat().coefficients(theta)
        _, a, _ = form.at(np.array([[-1.0]]))
        assert a[0, 0, 0] == pytest.approx(0.4)  # x+ = 0
        b, _, w = form.at(np.array([[2.0]]))
        assert b[0, 0] == pytest.approx(-2.0)  # 1 - 2, less h(1) = 1
        # jump component frozen at nu0 exactly
        assert np.array_equal(form.atoms, theta.nu[0].atoms)
        assert np.array_equal(w[0], theta.nu[0].weights)

    @pytest.mark.parametrize("shape", [(2, 1), (2, 1, 1), (2, 4)],
                             ids=["vector", "matrix", "weight rows"])
    def test_closed_form_at_d1_is_tensordot(self, shape):
        # bit for bit, signed zeros included.  The constant part is never
        # -0.0: where x c_1 is -0.0, tensordot's own sign of that zero
        # depends on the size of its output, and c_0 = -0.0 would show it
        rng = np.random.default_rng(7)
        special = np.array([0.0, -0.0, -1.5, 2.0, -1e-300, 1e300])
        for n in (1, 2, 37):
            for _ in range(40):
                c = rng.normal(size=shape)
                c[0].flat[rng.random(c[0].size) < 0.3] = 0.0
                c[1].flat[rng.random(c[1].size) < 0.3] = rng.choice([0.0, -0.0])
                xs = np.where(rng.random((n, 1)) < 0.5, rng.choice(special, (n, 1)),
                              rng.normal(size=(n, 1)))
                ours = affine_at(c, xs)
                ref = c[0] + np.tensordot(xs, c[1:], axes=(1, 0))
                assert ours.shape == ref.shape
                assert ours.tobytes() == ref.tobytes()


def theta_2d(alpha1, alpha2, nu1=(), nu2=()):
    """A d = 2 tuple whose only nonzero parts are alpha_1, alpha_2, nu_1, nu_2,
    the measures given as (atom, weight) pairs."""
    nu = [nl.AtomicLevyMeasure(list(m), dim=2) if m else nl.AtomicLevyMeasure.empty(2)
          for m in ((), nu1, nu2)]
    return nl.AffineParameter(np.zeros((3, 2)),
                              [np.zeros((2, 2)), alpha1, alpha2], nu)


def mesh_sup(theta, comp, n=2**16):
    """sup over 2^16 equally spaced unit directions of the linear part's norm."""
    t = 2.0 * np.pi * np.arange(n) / n
    u = np.column_stack([np.cos(t), np.sin(t)])
    if comp == "alpha":
        a = np.tensordot(u, theta.alpha[1:], axes=(1, 0))
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    atoms, W = combined_atom_table(theta.nu[1:])
    n_z = np.linalg.norm(atoms, axis=1)
    return float(np.max(np.abs(u @ W.T) @ np.minimum(n_z * n_z, n_z)))


class TestGrowthNorms:
    @pytest.mark.parametrize("theta, comp, expected", [
        (theta_2d(np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]]), "alpha", 1.0),
        (theta_2d(np.eye(2), np.diag([1.0, -1.0])), "alpha", np.sqrt(2.0)),
        (theta_2d(np.zeros((2, 2)), np.zeros((2, 2)), [([2.0, 0.0], 1.0)],
                  [([0.0, 3.0], 1.0)]), "nu", np.sqrt(13.0)),
        # rows of W in the second and third quadrants: the sup 11 sits at
        # u = (0, 1), on a thin arc between two nearby zero lines
        (theta_2d(np.zeros((2, 2)), np.zeros((2, 2)),
                  [([1.0, 0.0], -1.0), ([0.0, 1.0], -1.0)],
                  [([1.0, 0.0], -0.5), ([0.0, 1.0], 0.5), ([0.0, -1.0], 10.0)]),
         "nu", 11.0),
    ])
    def test_hand_cases_2d(self, theta, comp, expected):
        assert linear_part_norm(theta, comp) == pytest.approx(expected, rel=1e-15)

    def test_closed_form_2d_vs_fine_mesh(self):
        # the mesh misses a smooth maximum by O(h^2), about 1e-9 relative
        rng = np.random.default_rng(21)
        thetas = [random_theta(rng, d=2) for _ in range(50)]
        thetas += [shared_atom_theta(rng) for _ in range(50)]
        for theta in thetas:
            for comp in ("alpha", "nu"):
                cf = linear_part_norm(theta, comp)
                mesh = mesh_sup(theta, comp) if cf else 0.0
                assert mesh <= cf * (1.0 + 1e-12)
                assert mesh >= cf * (1.0 - 1e-6)

    def test_dimension_three_rejected(self):
        with pytest.raises(DimensionError, match="1 or 2"):
            nl.AffineParameter(np.zeros((4, 3)), np.zeros((4, 3, 3)),
                               [nl.AtomicLevyMeasure.empty(3)] * 4)

    def test_zero_linear_part(self):
        theta = nl.AffineParameter.scalar(beta0=3.0, alpha0=-2.0)
        assert nl.growth_norm(theta, "beta") == pytest.approx(3.0)
        assert nl.growth_norm(theta, "alpha") == pytest.approx(2.0)

    def test_pure_linear(self):
        theta = nl.AffineParameter.scalar(beta1=2.0)
        assert nl.growth_norm(theta, "beta") == pytest.approx(2.0)

    def test_closed_form_vs_sampling(self):
        # quick version of the acceptance oracle: never exceeded, nearly met
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            theta = random_theta(rng, d=d)
            for comp in ("beta", "alpha", "nu"):
                cf = nl.growth_norm(theta, comp)
                dirs = rng.normal(size=(4000, d))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                radii = np.repeat(10.0 ** np.arange(-3, 7), 400)
                xs = dirs * radii[:, None]
                best = 0.0
                for x in xs[:: 40]:  # subsample for speed
                    if comp == "beta":
                        v = np.linalg.norm(theta.beta[0] + theta.beta[1:].T @ x)
                    elif comp == "alpha":
                        a = theta.alpha[0] + np.tensordot(x, theta.alpha[1:], (0, 0))
                        v = np.max(np.abs(np.linalg.eigvalsh(a)))
                    else:
                        k = theta.nu[0]
                        for xi, m in zip(x, theta.nu[1:]):
                            k = k + m.scaled(float(xi))
                        v = k.norm()
                    best = max(best, v / (np.linalg.norm(x) + 1.0))
                assert best <= cf + 1e-12

    def test_linear_bound_zero_case(self):
        theta = nl.AffineParameter.scalar(beta0=1.0, alpha0=1.0)
        rep = nl.check_linear_bound(nl.FiniteParameterSet([theta]))
        assert rep.passed
        assert rep.per_parameter[0]["linear_norm_sum"] == 0.0

    def test_linear_bound_random_singletons(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = random_theta(rng, d=int(rng.integers(1, 3)))
            rep = nl.check_linear_bound(nl.FiniteParameterSet([theta]))
            assert rep.passed
            assert rep.per_parameter[0]["margin"] >= -1e-9


class TestCoefficientBounds:
    def test_small_jump_mass_examples(self):
        m = nl.AtomicLevyMeasure([[0.1]], [1.0])
        theta = nl.AffineParameter.scalar(nu0=m)
        ps = nl.FiniteParameterSet([theta])
        assert nl.small_jump_mass(ps, 0.2) == pytest.approx(0.01)
        assert nl.small_jump_mass(ps, 0.05) == 0.0

    def test_vanishes_below_smallest_atom(self):
        m = nl.AtomicLevyMeasure([[0.5], [2.0]], [1.0, 1.0])
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(nu0=m)])
        assert nl.small_jump_mass(ps, 0.49) == 0.0

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = random_theta(rng, signed=False)
            ps = nl.FiniteParameterSet([theta])
            deltas = np.sort(rng.uniform(0.01, 3.0, 5))
            vals = [nl.small_jump_mass(ps, float(dl)) for dl in deltas]
            assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_report_fields(self):
        m = nl.AtomicLevyMeasure([[0.5]], [1.0])
        ps = nl.FiniteParameterSet([nl.AffineParameter.scalar(nu0=m)])
        rep = nl.check_coefficient_bounds(ps)
        assert rep.passed
        assert rep.min_atom_norm == pytest.approx(0.5)


class TestAdmissibility:
    def test_compound_poisson_full_line(self):
        h = nl.TruncationFunction(1.0)
        m = nl.AtomicLevyMeasure([[-1.0], [2.0]], [0.5, 0.5])
        from nlaffine.config import compound_poisson_set

        ps = compound_poisson_set([1.0, 1.0], [m], h)
        full = nl.GeneratorMode.standard(nl.StateSpace.full(1), h)
        res = nl.check_admissible(ps.vertices()[0], full)
        assert res.admissible, res.violations

    def test_diffusion_on_half_line_rejected(self):
        theta = nl.AffineParameter.scalar(alpha0=0.2)
        res = nl.check_admissible(theta, nl.GeneratorMode.standard(nl.StateSpace.half(1)))
        assert not res.admissible
        assert any("alpha0" in v for v in res.violations)

    def test_zero_parameter_admissible_everywhere(self):
        zero = nl.AffineParameter.zero(1)
        for space in (nl.StateSpace.half(1), nl.StateSpace.full(1)):
            assert nl.check_admissible(zero, nl.GeneratorMode.standard(space)).admissible

    def test_needs_dimension_one(self):
        with pytest.raises(Exception):
            nl.check_admissible(nl.AffineParameter.zero(2),
                                nl.GeneratorMode.standard(nl.StateSpace.full(2)))

    def test_half_line_uses_compensated_drift(self):
        # beta0 = 0.1 is nonnegative, but the unit-ball h takes the atom at
        # 0.5 out of the drift: the net drift at 0 is 0.1 - 0.5 = -0.4
        theta = nl.AffineParameter.scalar(beta0=0.1, nu0=nl.AtomicLevyMeasure([[0.5]], [1.0]))
        res = nl.check_admissible(theta, nl.GeneratorMode.standard(nl.StateSpace.half(1)))
        assert not res.admissible
        assert any("-0.4" in v for v in res.violations), res.violations

    def test_half_line_atom_outside_the_ball(self):
        # with an h of radius 0.4 the atom at 0.5 carries no compensation
        theta = nl.AffineParameter.scalar(beta0=0.1, nu0=nl.AtomicLevyMeasure([[0.5]], [1.0]))
        mode = nl.GeneratorMode.standard(nl.StateSpace.half(1), nl.TruncationFunction(0.4))
        res = nl.check_admissible(theta, mode)
        assert res.admissible, res.violations

    def test_hat_mode_refused(self):
        with pytest.raises(ValueError):
            nl.check_admissible(nl.AffineParameter.zero(1), nl.GeneratorMode.hat())

    @pytest.mark.parametrize("space, coefficients, violations", [
        ("half", {"alpha1": -0.1}, ["alpha1 >= 0 violated (alpha1 = -0.1)"]),
        ("half", {"beta0": 1.0, "nu0": ([[0.5]], [-0.2])},
         ["nu0 >= 0 violated (min weight -0.2)"]),
        ("half", {"beta0": 1.0, "nu0": ([[-0.5]], [0.2])},
         ["nu0 support in the positive half-line violated"]),
        ("half", {"nu0": ([[0.5], [0.51], [0.52]], [1.7e308] * 3)},
         ["beta0 - sum nu0 h >= 0 violated (net drift -inf)",
          "nu0 small-jump first moment not finite"]),
        ("full", {"alpha0": -0.1}, ["alpha0 >= 0 violated (alpha0 = -0.1)"]),
        ("full", {"alpha1": 0.1}, ["alpha1 = 0 violated (alpha1 = 0.1)"]),
        ("full", {"nu1": ([[0.5]], [0.2])}, ["nu1 = 0 violated"]),
        ("full", {"nu0": ([[0.5]], [-0.2])}, ["nu0 >= 0 violated (min weight -0.2)"]),
    ], ids=["half_alpha1", "half_negative_nu0", "half_nu0_support", "half_nu0_moment",
            "full_alpha0", "full_alpha1", "full_nu1", "full_negative_nu0"])
    def test_each_violation_named(self, space, coefficients, violations):
        kwargs = {k: nl.AtomicLevyMeasure(*v) if k.startswith("nu") else v
                  for k, v in coefficients.items()}
        mode = nl.GeneratorMode.standard(getattr(nl.StateSpace, space)(1))
        with np.errstate(over="ignore"):  # the 1.7e308 weights' sums overflow
            res = nl.check_admissible(nl.AffineParameter.scalar(**kwargs), mode)
        assert not res.admissible
        assert res.violations == violations


class TestTruncation:
    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            nl.TruncationFunction(0.0)

    def test_sampled_inequalities(self):
        # ||z - h(z)|| <= C (||z||^2 ^ ||z||) and ||h(z)|| <= C (||z|| ^ 1)
        # with C = 1/radius for the ball truncation
        rng = np.random.default_rng(6)
        for radius in (1.0, 0.5, 0.25):
            h = nl.TruncationFunction(radius)
            ch = 1.0 / radius
            z = rng.normal(size=(10000, 2)) * rng.uniform(0.01, 3.0, size=(10000, 1))
            hz = h(z)
            n = np.linalg.norm(z, axis=1)
            lhs1 = np.linalg.norm(z - hz, axis=1)
            lhs2 = np.linalg.norm(hz, axis=1)
            assert np.all(lhs1 <= ch * np.minimum(n * n, n) + 1e-12)
            assert np.all(lhs2 <= ch * np.minimum(n, 1.0) + 1e-12)


class TestVertexEnumeration:
    def test_finite_identity_in_order(self):
        rng = np.random.default_rng(7)
        thetas = [random_theta(rng) for _ in range(3)]
        ps = nl.FiniteParameterSet(thetas)
        assert ps.vertices() == thetas

    def test_box_two_free_intervals(self):
        ps = nl.CoefficientBox(
            beta_lo=[[0.0], [0.0]], beta_hi=[[1.0], [0.0]],
            alpha_lo=[[[0.25]], [[0.0]]], alpha_hi=[[[1.0]], [[0.0]]],
        )
        vs = ps.vertices()
        assert len(vs) == 4
        combos = {(v.beta[0, 0], v.alpha[0, 0, 0]) for v in vs}
        assert combos == {(0.0, 0.25), (1.0, 0.25), (0.0, 1.0), (1.0, 1.0)}

    def test_point_box_single_vertex(self):
        ps = nl.CoefficientBox(
            beta_lo=[[0.3], [0.1]], beta_hi=[[0.3], [0.1]],
            alpha_lo=[[[0.5]], [[0.0]]], alpha_hi=[[[0.5]], [[0.0]]],
        )
        assert len(ps.vertices()) == 1

    def test_vertex_cap(self):
        # d = 2 with all 15 coordinates free: 2**15 vertices, above the cap 4096
        beta_hi = np.ones((3, 2))
        alpha_hi = np.tile([[1.0, 0.5], [0.5, 1.0]], (3, 1, 1))
        with pytest.raises(ValueError, match="32768 vertices, above the cap 4096; coarsen"):
            nl.CoefficientBox(np.zeros((3, 2)), beta_hi, np.zeros((3, 2, 2)), alpha_hi)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            nl.FiniteParameterSet([])

    def test_deterministic_order(self):
        ps = nl.CoefficientBox(
            beta_lo=[[0.0], [0.0]], beta_hi=[[1.0], [0.0]],
            alpha_lo=[[[0.25]], [[0.0]]], alpha_hi=[[[1.0]], [[0.0]]],
        )
        a = [(v.beta[0, 0], v.alpha[0, 0, 0]) for v in ps.vertices()]
        b = [(v.beta[0, 0], v.alpha[0, 0, 0]) for v in ps.vertices()]
        assert a == b

    def test_box_vertices_built_once(self):
        ps = nl.CoefficientBox(
            beta_lo=[[0.0], [0.0]], beta_hi=[[1.0], [0.0]],
            alpha_lo=[[[0.25]], [[0.0]]], alpha_hi=[[[1.0]], [[0.0]]],
        )
        assert all(a is b for a, b in zip(ps.vertices(), ps.vertices()))

    def test_hat_box2d_vertex_order(self):
        # the benchmark's 2-D hat box: a11, a12 and a22 of alpha_0 are free;
        # the first free coefficient toggles fastest
        zero = [[0.0, 0.0], [0.0, 0.0]]
        atom = [0.37, -0.61]
        nu0 = nl.AtomicLevyMeasure([atom, [-z for z in atom]], [0.25, 0.25])
        empty = nl.AtomicLevyMeasure.empty(2)
        ps = nl.CoefficientBox(
            beta_lo=np.zeros((3, 2)), beta_hi=np.zeros((3, 2)),
            alpha_lo=[[[0.25, -0.1], [-0.1, 0.25]], zero, zero],
            alpha_hi=[[[1.0, 0.1], [0.1, 1.0]], zero, zero],
            nu_tuples=[(nu0, empty, empty)],
        )
        vs = ps.vertices()
        assert [(v.alpha[0, 0, 0], v.alpha[0, 0, 1], v.alpha[0, 1, 1]) for v in vs] == [
            (0.25, -0.1, 0.25), (1.0, -0.1, 0.25), (0.25, 0.1, 0.25), (1.0, 0.1, 0.25),
            (0.25, -0.1, 1.0), (1.0, -0.1, 1.0), (0.25, 0.1, 1.0), (1.0, 0.1, 1.0),
        ]
        assert all(v.alpha[0, 1, 0] == v.alpha[0, 0, 1] and v.nu[0] == nu0 for v in vs)

    def test_box_vertex_order_with_jump_tuples(self):
        # free beta_0, beta_1 and alpha_1; one block of eight per jump tuple
        m1 = nl.AtomicLevyMeasure([[0.5]], [1.0])
        m2 = nl.AtomicLevyMeasure([[-0.3]], [2.0])
        empty = nl.AtomicLevyMeasure.empty(1)
        tuples = [(m1, empty), (empty, m2)]
        ps = nl.CoefficientBox(
            beta_lo=[[-0.5], [0.0]], beta_hi=[[0.5], [0.3]],
            alpha_lo=[[[0.2]], [[0.1]]], alpha_hi=[[[0.2]], [[0.4]]],
            nu_tuples=tuples,
        )
        got = [(v.beta[0, 0], v.beta[1, 0], v.alpha[0, 0, 0], v.alpha[1, 0, 0],
                tuples.index(v.nu)) for v in ps.vertices()]
        assert got == [
            (b0, b1, 0.2, a1, k)
            for k in (0, 1) for a1 in (0.1, 0.4) for b1 in (0.0, 0.3) for b0 in (-0.5, 0.5)
        ]


def _box(d=1, nu_tuples=None, **corners):
    """A box with alpha_0 in [0.25, 1] * I and every other bound 0; keyword
    arguments replace corners."""
    bounds = dict(beta_lo=np.zeros((d + 1, d)), beta_hi=np.zeros((d + 1, d)),
                  alpha_lo=np.zeros((d + 1, d, d)), alpha_hi=np.zeros((d + 1, d, d)))
    bounds["alpha_lo"][0] = 0.25 * np.eye(d)
    bounds["alpha_hi"][0] = np.eye(d)
    bounds.update(corners)
    return nl.CoefficientBox(nu_tuples=nu_tuples, **bounds)


EMPTY1 = nl.AtomicLevyMeasure.empty(1)
EMPTY2 = nl.AtomicLevyMeasure.empty(2)
ZERO2 = np.zeros((2, 2))


class TestOneValidator:
    """AffineParameter decides what a valid tuple is, for a tuple given
    directly and for the corners and vertices of a box."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: _box(beta_hi=np.zeros((3, 2)), alpha_hi=np.zeros((3, 2, 2))),
         DimensionError, "box corners have dimensions 1 and 2"),
        (lambda: _box(d=3), DimensionError, "dimension must be 1 or 2, got 3"),
        (lambda: _box(d=2, alpha_lo=np.array([[[0.25, 0.1], [0.0, 0.25]]] + [ZERO2] * 2)),
         ValueError, "alpha components must be symmetric (gap 1.000e-01)"),
        (lambda: _box(nu_tuples=[(EMPTY1,) * 3]), DimensionError, "need 2 jump measures, got 3"),
        (lambda: _box(nu_tuples=[(EMPTY2, EMPTY2)]), DimensionError,
         "jump measure dimension mismatch"),
        (lambda: _box(beta_lo=np.array([[1.0], [0.0]])), ValueError,
         "interval lower bounds exceed upper bounds"),
        (lambda: _box(beta_hi=np.array([[np.inf], [0.0]])), ValueError,
         "beta and alpha must be finite"),
        (lambda: nl.AffineParameter([0.1, 0.0], [0.5, 0.0], (EMPTY1, EMPTY1)),
         DimensionError, "beta must have shape (d+1, d), got (2,)"),
        (lambda: nl.AffineParameter([[0.1], [0.0]], [0.5, 0.0]),
         DimensionError, "alpha must have shape (d+1, d, d), got (2,)"),
        # an infinite drift made solve divide by a zero stable step; a NaN
        # drift made lower_bound_sublinear return NaN without an error
        (lambda: nl.AffineParameter.scalar(beta0=np.inf), ValueError,
         "beta and alpha must be finite"),
        (lambda: nl.AffineParameter.scalar(beta0=np.nan), ValueError,
         "beta and alpha must be finite"),
        (lambda: nl.AffineParameter.scalar(alpha1=np.nan), ValueError,
         "beta and alpha must be finite"),
        # the parts of a set, a state space and a measure must agree in dimension
        (lambda: nl.FiniteParameterSet([nl.AffineParameter.zero(1),
                                        nl.AffineParameter.zero(2)]),
         DimensionError, "mixed dimensions in parameter set"),
        (lambda: nl.StateSpace(1, 2), DimensionError, "nonneg_coords must lie in [0, dim]"),
        (lambda: nl.StateSpace(2, -1), DimensionError, "nonneg_coords must lie in [0, dim]"),
        (lambda: nl.AtomicLevyMeasure([[1.0], [2.0]], [0.5]), DimensionError,
         "atom array and weights are inconsistent"),
    ])
    def test_malformed_input_raises(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert message in str(info.value)

    def test_omitted_nu_means_no_jumps(self):
        theta = nl.AffineParameter(np.zeros((3, 2)), np.zeros((3, 2, 2)))
        assert theta.nu == (EMPTY2,) * 3

    def test_box_bounds_within_tolerance_are_symmetrised(self):
        lo = np.array([[[0.25, 0.1], [0.1 + 4e-10, 0.25]]] + [ZERO2] * 2)
        hi = np.array([[[1.0, 0.2], [0.2, 1.0]]] + [ZERO2] * 2)
        ps = _box(d=2, alpha_lo=lo, alpha_hi=hi)
        got = sorted({(v.alpha[0, 0, 1], v.alpha[0, 1, 0]) for v in ps.vertices()})
        mid = 0.5 * (0.1 + (0.1 + 4e-10))
        assert len(ps) == 8 and got == [(mid, mid), (0.2, 0.2)]


class TestGrowthBound:
    def test_consistency_with_parts(self):
        rng = np.random.default_rng(8)
        thetas = [random_theta(rng) for _ in range(4)]
        ps = nl.FiniteParameterSet(thetas)
        assert nl.growth_bound(ps) == pytest.approx(
            max(parameter_growth(t) for t in thetas)
        )

    def test_linear_bound_against_growth(self):
        rng = np.random.default_rng(9)
        thetas = [random_theta(rng) for _ in range(4)]
        ps = nl.FiniteParameterSet(thetas)
        K = nl.growth_bound(ps)
        for t in thetas:
            lhs = sum(linear_part_norm(t, c) for c in ("beta", "alpha", "nu"))
            assert lhs <= 3.0 * K + 1e-9
