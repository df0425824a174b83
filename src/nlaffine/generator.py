"""Classical affine generator and its worst-case (sup over a parameter set)
version, evaluated on callables with supplied derivatives."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import (
    PSD_TOL,
    WEIGHT_TOL,
    AffineParameter,
    CoefficientError,
    DimensionError,
    FiniteParameterSet,
    StateSpace,
    TruncationFunction,
    _as_vector,
    affine_at,
    combined_atom_table,
    min_eigenvalue,
    truncation_moment,
)


@dataclass(frozen=True)
class TestFunction:
    """Scalar function with explicit gradient and Hessian callables.  The
    optional `array_value` evaluates every row of an (n, d) array at once and
    must equal `value` row by row, bit for bit: a built-in payoff is written
    once, as its array form, and its `value` is the one-row case."""

    name: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    array_value: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> float:
        return float(self.value(np.atleast_1d(np.asarray(x, dtype=float))))

    def values(self, points) -> np.ndarray:
        """The function at each row of an (n, d) array.  Without an array
        form `value` runs row by row: a scalar callable handed the whole array
        could broadcast to wrong values (x[0] + 2 * x[1] adds rows)."""
        points = np.asarray(points, dtype=float)
        if self.array_value is not None:
            return self.array_value(points)
        return np.array([self.value(x) for x in points], dtype=float)


class GeneratorMode:
    """standard: affine coefficients with the state-space indicator,
    compensated with the model's truncation function h.  hat: drift affine,
    diffusion affine in the positive part, constant jump measure, unit-ball h."""

    __slots__ = ("kind", "space", "h")

    def __init__(self, kind: str, space: StateSpace | None = None,
                 h: TruncationFunction = TruncationFunction(1.0)):
        if kind not in ("standard", "hat"):
            raise ValueError("mode kind must be 'standard' or 'hat'")
        if (kind == "standard") != (space is not None):
            raise ValueError("a standard mode needs a state space; a hat mode has none")
        if kind == "hat" and h != TruncationFunction(1.0):
            raise ValueError("hat mode fixes the unit-ball truncation")
        self.kind, self.space, self.h = kind, space, h

    @classmethod
    def standard(cls, space: StateSpace,
                 h: TruncationFunction = TruncationFunction(1.0)) -> "GeneratorMode":
        return cls("standard", space, h)

    @classmethod
    def hat(cls) -> "GeneratorMode":
        return cls("hat")

    @property
    def is_hat(self) -> bool:
        return self.kind == "hat"

    def inside(self, xs: np.ndarray) -> np.ndarray:
        """State-space indicator of each row of an (n, d) state array; hat
        mode has no state space."""
        if self.is_hat:
            return np.ones(xs.shape[0], dtype=bool)
        return self.space.contains_many(xs)

    def coefficients(self, theta: AffineParameter) -> "CoefficientForm":
        """theta's coefficient map under this mode as array forms."""
        if self.is_hat:
            m = theta.nu[0]
            atoms = m.atoms
            W = np.column_stack([m.weights, np.zeros((m.n_atoms, theta.dim))])
        else:
            atoms, W = combined_atom_table(theta.nu)
        compensation = np.array([truncation_moment(atoms, w, self.h) for w in W.T])
        return CoefficientForm(self, atoms, W, theta.beta - compensation, theta.alpha)

    def __repr__(self) -> str:
        return f"GeneratorMode({self.kind})"


@dataclass(frozen=True)
class CoefficientForm:
    """One vertex's coefficients as affine forms in the state, evaluated on
    (n, d) state arrays: atoms z_j (m, d) with weights
    w_j(x) = W[j, 0] + sum_i x^i W[j, i], the compensated drift
    beta - sum_j W_j h(z_j) as (d+1, d) rows, and alpha.  Hat mode takes
    alpha on the positive part x+ and freezes the jump measure at nu_0."""

    mode: GeneratorMode
    atoms: np.ndarray
    W: np.ndarray
    net_drift: np.ndarray
    alpha: np.ndarray

    def drift(self, xs: np.ndarray) -> np.ndarray:
        return affine_at(self.net_drift, xs)

    def diffusion(self, xs: np.ndarray) -> np.ndarray:
        return affine_at(self.alpha, np.maximum(xs, 0.0) if self.mode.is_hat else xs)

    def jump_weights(self, xs: np.ndarray) -> np.ndarray:
        return affine_at(self.W.T, xs)

    def at(self, xs: np.ndarray):
        """(drift, diffusion, jump weights) at each row of xs, times the
        state-space indicator."""
        ind = self.mode.inside(xs).astype(float)
        return (self.drift(xs) * ind[:, None], self.diffusion(xs) * ind[:, None, None],
                self.jump_weights(xs) * ind[:, None])


def admissible(a: np.ndarray, w: np.ndarray):
    """The one admissibility rule, for one state or a stack of states: the
    diffusion a is positive semidefinite to PSD_TOL and every jump weight in
    w is at least -WEIGHT_TOL."""
    ok = min_eigenvalue(a) >= -PSD_TOL
    if w.shape[-1]:
        ok &= np.min(w, axis=-1) >= -WEIGHT_TOL
    return ok


def generator_value(form: CoefficientForm, f: TestFunction, x, y) -> float:
    """grad f . b + 0.5 tr[Hess f a] + sum_j w_j (f(x + z_j) - f(x)), one
    vertex's linear generator with coefficients at y and derivatives at x.
    b is the compensated drift, so it carries -grad f . h(z_j); no
    admissibility check is applied, so signed measures evaluate too."""
    d = form.alpha.shape[-1]
    x = _as_vector(x, d)
    (b,), (a,), (w,) = form.at(_as_vector(y, d)[None, :])
    grad = np.asarray(f.gradient(x), dtype=float)
    hess = np.asarray(f.hessian(x), dtype=float)
    fx = f(x)
    jumps = sum(wj * (f(x + z) - fx) for z, wj in zip(form.atoms, w))
    return float(grad @ b) + 0.5 * float(np.trace(hess @ a)) + jumps


class NoAdmissibleVertexError(RuntimeError):
    pass


def worst_case_generator(theta_set: FiniteParameterSet, y, f: TestFunction, x,
                         mode: GeneratorMode) -> tuple[float, int]:
    """Maximum of the linear generator over the vertex enumeration, with
    coefficients evaluated at y and derivatives at x.

    Vertices whose coefficients at y fail `admissible` are excluded (the
    probabilistic cone restriction), the same mask the solver applies.
    Ties at the maximum resolve to the lowest vertex index.  Returns
    (value, argmax index).
    """
    x, y = _as_vector(x, theta_set.dim), _as_vector(y, theta_set.dim)
    best: float | None = None
    best_idx = -1
    for i, theta in enumerate(theta_set.vertices()):
        form = mode.coefficients(theta)
        _, a, w = form.at(y[None, :])
        if not admissible(a[0], w[0]):
            continue
        val = generator_value(form, f, x, y)
        if best is None or val > best:
            best, best_idx = val, i
    if best is None:
        raise NoAdmissibleVertexError(
            f"no vertex has admissible coefficients at y = {y}"
        )
    return best, best_idx


@dataclass
class LipschitzEstimate:
    constant: float  # inf when the slope of the root is unbounded
    state: np.ndarray  # the corner that decides the constant
    vertex: int


def sqrt_diffusion_lipschitz(theta_set: FiniteParameterSet, box) -> LipschitzEstimate:
    """Lipschitz constant over a box of x -> sqrt a(x) for the hat-mode
    diffusion a(x) = alpha_0 + sum_i x_i+ alpha_i, maximised over vertices.

    a is affine in x+, which ranges over the box [lo+, hi+] whose corners are
    the images of the box corners, and lambda_min is concave, so its minimum
    over the box is attained at a box corner.  A corner that is not PSD
    raises CoefficientError, which is exact over the whole box.  With that
    minimum lam > PSD_TOL, the constant is sqrt(sum ||alpha_i||^2) /
    (2 sqrt(lam)) over the axes along which x_i+ moves, by
    ||sqrt A - sqrt B|| <= ||A - B|| / (sqrt lam_min(A) + sqrt lam_min(B))
    (van Hemmen & Ando, Lett. Math. Phys. 4, 1980).  Otherwise, with v the
    kernel vector at the minimising corner, v.alpha_i v != 0 on a moving
    axis makes the slope unbounded (inf); if there is none, PSD forces
    alpha_i v = 0, the kernel is constant and the same rule decides on
    lambda_max.  When that minimum is 0 too, the constant is inf if a moving
    alpha_i is nonzero and 0 if none is.
    """
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    if lo.shape != (theta_set.dim,) or hi.shape != lo.shape:
        raise DimensionError("box dimension mismatch")
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    moving = hi > np.maximum(lo, 0.0)
    hat = GeneratorMode.hat()
    best = LipschitzEstimate(0.0, corners[0], 0)
    for vi, theta in enumerate(theta_set.vertices()):
        lam, vecs = np.linalg.eigh(hat.coefficients(theta).diffusion(corners))
        j = int(np.argmin(lam[:, 0]))
        if lam[j, 0] < -PSD_TOL:
            raise CoefficientError(
                f"diffusion map is not PSD at corner x = {corners[j]} (vertex {vi})")
        slopes = theta.alpha[1:][moving]
        v = vecs[j, :, 0]
        c = 0 if lam[j, 0] > PSD_TOL or np.any(np.abs(slopes @ v @ v) > PSD_TOL) else -1
        j = int(np.argmin(lam[:, c]))
        if lam[j, c] > PSD_TOL:
            spread = np.sqrt(np.sum(np.linalg.norm(slopes, 2, axis=(1, 2)) ** 2))
            constant = float(spread / (2.0 * np.sqrt(lam[j, c])))
        else:
            constant = np.inf if np.any(slopes) else 0.0
        if constant > best.constant:
            best = LipschitzEstimate(constant, corners[j], vi)
    return best
