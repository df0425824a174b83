"""Classical affine generator and its worst-case (sup over a parameter set)
version, evaluated on callables with supplied derivatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.random  # lazy in numpy: load it at import, not in the first draw

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

SLOPE_CAP = 1e6  # sampled sqrt-Lipschitz slopes above this count as blow-up


@dataclass(frozen=True)
class TestFunction:
    """Scalar function with explicit gradient and Hessian callables."""

    name: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> float:
        return float(self.value(np.atleast_1d(np.asarray(x, dtype=float))))


class GeneratorMode:
    """standard: affine coefficients with the state-space indicator.
    hat: drift affine, diffusion affine in the positive part, constant jump
    measure; forces the unit-ball truncation."""

    __slots__ = ("kind", "space")

    def __init__(self, kind: str, space: StateSpace | None = None):
        if kind not in ("standard", "hat"):
            raise ValueError("mode kind must be 'standard' or 'hat'")
        if kind == "standard" and space is None:
            raise ValueError("standard mode needs a state space")
        self.kind = kind
        self.space = space

    @classmethod
    def standard(cls, space: StateSpace) -> "GeneratorMode":
        return cls("standard", space)

    @classmethod
    def hat(cls) -> "GeneratorMode":
        return cls("hat")

    @property
    def is_hat(self) -> bool:
        return self.kind == "hat"

    def truncation(self, h: TruncationFunction | None) -> TruncationFunction:
        if self.is_hat:
            return TruncationFunction(1.0)
        return h if h is not None else TruncationFunction(1.0)

    def inside(self, xs: np.ndarray) -> np.ndarray:
        """State-space indicator of each row of an (n, d) state array; hat
        mode has no state space."""
        if self.is_hat:
            return np.ones(xs.shape[0], dtype=bool)
        return self.space.contains_many(xs)

    def coefficients(self, theta: AffineParameter,
                     h: TruncationFunction | None = None) -> "CoefficientForm":
        """theta's coefficient map under this mode as array forms."""
        h = self.truncation(h)
        if self.is_hat:
            m = theta.nu[0]
            atoms = m.atoms
            W = np.column_stack([m.weights, np.zeros((m.n_atoms, theta.dim))])
        else:
            atoms, W = combined_atom_table(theta.nu)
        compensation = np.array([truncation_moment(atoms, w, h) for w in W.T])
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
                         mode: GeneratorMode,
                         h: TruncationFunction | None = None) -> tuple[float, int]:
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
        form = mode.coefficients(theta, h)
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


def matrix_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, of one matrix or of
    each matrix in a stack (..., d, d); eigenvalues in [-PSD_TOL, 0) are
    clipped to zero, anything below raises."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    at = np.swapaxes(a, -1, -2)
    if a.shape[-1] != a.shape[-2] or np.max(np.abs(a - at), initial=0.0) > 1e-9:
        raise ValueError("matrix_sqrt expects a symmetric matrix")
    vals, vecs = np.linalg.eigh(0.5 * (a + at))
    if np.any(vals[..., 0] < -PSD_TOL):
        raise ValueError(f"matrix is not PSD (min eigenvalue {np.min(vals[..., 0]):.3e})")
    s = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (s + np.swapaxes(s, -1, -2))


@dataclass
class LipschitzEstimate:
    constant: float
    pair: tuple[np.ndarray, np.ndarray]
    vertex: int
    blown_up: bool  # exceeded the slope cap, treated as a Lipschitz failure


def sqrt_diffusion_lipschitz(theta_set: FiniteParameterSet, sample_box,
                             n_samples: int = 200, seed: int = 0) -> LipschitzEstimate:
    """Sampled Lipschitz constant of x -> sqrt of the positive-part diffusion
    map, maximised over vertices and point pairs.

    The pair pool combines uniform draws with geometrically graded offsets
    (down to 1e-14 of the box width) so square-root kinks at coordinate
    hyperplanes and box corners show up as slope blow-up.
    """
    lo = np.atleast_1d(np.asarray(sample_box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(sample_box[1], dtype=float))
    d = lo.shape[0]
    if d != theta_set.dim:
        raise DimensionError("sample box dimension mismatch")
    width = hi - lo
    rng = np.random.default_rng(seed)
    pts = lo + rng.uniform(size=(n_samples, d)) * width
    # graded probes near the corners and near each coordinate zero-plane
    probes = [lo.copy(), hi.copy()]
    for i in range(d):
        scale = width[i] if width[i] > 0 else 1.0
        for k in range(0, 15, 2):
            off = scale * 10.0**-k
            p = lo.copy()
            p[i] = min(lo[i] + off, hi[i])
            probes.append(p)
            if lo[i] < 0.0 < hi[i]:
                q = 0.5 * (lo + hi)
                q[i] = min(10.0**-k * scale, hi[i])
                probes.append(q)
    pts = np.vstack([pts, probes])

    # pairs (I, J) into pts: consecutive points, then each point with graded
    # offsets along every axis
    n = pts.shape[0]
    scale = np.where(width > 0, width, 1.0)
    steps = scale[:, None] * np.array([10.0**-k for k in (2, 5, 8, 11, 14)])
    q = np.repeat(pts[:, None, None, :], d, axis=1).repeat(steps.shape[1], axis=2)
    axis = np.arange(d)
    q[:, axis, :, axis] = np.minimum(pts.T[:, :, None] + steps[:, None, :],
                                     hi[:, None, None])
    q = q.reshape(-1, d)
    owner = np.repeat(np.arange(n), q.shape[0] // n)
    moved = np.any(q != pts[owner], axis=1)
    I = np.concatenate([np.arange(n - 1), owner[moved]])
    J = np.concatenate([np.arange(1, n), n + np.arange(int(moved.sum()))])
    pts = np.vstack([pts, q[moved]])
    gap = np.linalg.norm(pts[I] - pts[J], axis=1)
    I, J, gap = I[gap > 0], J[gap > 0], gap[gap > 0]

    hat = GeneratorMode.hat()
    best = 0.0
    best_pair = (pts[0], pts[0])
    best_vertex = 0
    for vi, theta in enumerate(theta_set.vertices()):
        a = hat.coefficients(theta).diffusion(pts)
        bad = min_eigenvalue(a) < -PSD_TOL
        if np.any(bad):
            raise CoefficientError(
                f"diffusion map is not PSD at x = {pts[np.argmax(bad)]} (vertex {vi})"
            )
        root = matrix_sqrt(a)
        slope = np.max(np.abs(np.linalg.eigvalsh(root[I] - root[J])), axis=-1) / gap
        k = int(np.argmax(slope)) if slope.size else 0
        if slope.size and slope[k] > best:
            best, best_pair, best_vertex = float(slope[k]), (pts[I[k]], pts[J[k]]), vi
    return LipschitzEstimate(
        constant=best,
        pair=best_pair,
        vertex=best_vertex,
        blown_up=best > SLOPE_CAP,
    )
