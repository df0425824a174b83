"""Parameters, parameter sets, Levy measures and the growth norms built on them.

An affine coefficient map is a tuple theta = (beta, alpha, nu) of d+1 drift
vectors, d+1 symmetric matrices and d+1 finite atomic jump measures.  It is
evaluated at a state x as

    b(x) = (beta_0 + sum_i x^i beta_i) * 1_S(x)
    a(x) = (alpha_0 + sum_i x^i alpha_i) * 1_S(x)
    k(x) = (nu_0 + sum_i x^i nu_i) * 1_S(x)

where S is the state space.  Everything in this module is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

ATOM_MERGE_TOL = 1e-12
PSD_TOL = 1e-10
WEIGHT_TOL = 1e-12
DEFAULT_VERTEX_CAP = 4096
# direction-mesh resolution for operator norms without a closed form
DEFAULT_DIRECTIONS = {2: 720, 3: 3000}


class DimensionError(ValueError):
    pass


def _as_vector(x, d: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (d,):
        raise DimensionError(f"expected vector of dimension {d}, got shape {x.shape}")
    return x


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    if a.shape == (1, 1):
        return abs(float(a[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def min_eigenvalue(a: np.ndarray):
    """Smallest eigenvalue of a symmetric matrix (a float), or of each matrix
    in a stack (..., d, d) (an array); closed form for d <= 2."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 1:
        m = a[..., 0, 0]
    elif a.shape[-1] == 2:
        tr = a[..., 0, 0] + a[..., 1, 1]
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        m = 0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4 * det, 0.0)))
    else:
        m = np.linalg.eigvalsh(a)[..., 0]
    return float(m) if a.ndim == 2 else m


# ---------------------------------------------------------------------------
# atomic jump measures


class AtomicLevyMeasure:
    """Finite (signed) measure on R^d minus the origin, stored as atoms.

    Atoms within ATOM_MERGE_TOL of each other are merged (weights summed) and
    zero-weight atoms are dropped, so measure arithmetic is canonical.
    """

    __slots__ = ("dim", "atoms", "weights")

    def __init__(self, atoms, weights=None, dim: int | None = None):
        if weights is None:
            pairs = list(atoms)
            atoms = [p[0] for p in pairs]
            weights = [p[1] for p in pairs]
        z = np.asarray(atoms, dtype=float)
        w = np.asarray(weights, dtype=float)
        if z.size == 0:
            if dim is None:
                raise DimensionError("empty measure needs an explicit dimension")
            z = np.zeros((0, dim))
            w = np.zeros(0)
        if z.ndim == 1:
            z = z[:, None] if dim in (None, 1) else z[None, :]
        if dim is None:
            dim = z.shape[1]
        if z.shape != (w.shape[0], dim):
            raise DimensionError("atom array and weights are inconsistent")
        norms = np.linalg.norm(z, axis=1)
        if np.any(norms <= ATOM_MERGE_TOL):
            raise ValueError("atom at the origin is not a valid jump size")
        z, w = _merge_atoms(z, w)
        self.dim = int(dim)
        self.atoms = z
        self.atoms.setflags(write=False)
        self.weights = w
        self.weights.setflags(write=False)
        # finiteness of the defining integral; trivially true for finite lists
        assert np.isfinite(self.norm())

    @classmethod
    def empty(cls, dim: int) -> "AtomicLevyMeasure":
        return cls([], [], dim=dim)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def is_empty(self) -> bool:
        return self.n_atoms == 0

    def norm(self) -> float:
        """sum_i |w_i| * (||z_i||^2 ^ ||z_i||)."""
        if self.is_empty():
            return 0.0
        n = np.linalg.norm(self.atoms, axis=1)
        return float(np.sum(np.abs(self.weights) * np.minimum(n * n, n)))

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def positive_mass(self) -> float:
        return float(np.sum(np.clip(self.weights, 0.0, None)))

    def min_weight(self) -> float:
        return float(np.min(self.weights)) if self.n_atoms else 0.0

    def scaled(self, c: float) -> "AtomicLevyMeasure":
        if c == 0.0 or self.is_empty():
            return AtomicLevyMeasure.empty(self.dim)
        return AtomicLevyMeasure(self.atoms, c * self.weights, dim=self.dim)

    def __add__(self, other: "AtomicLevyMeasure") -> "AtomicLevyMeasure":
        if self.dim != other.dim:
            raise DimensionError("cannot add measures of different dimension")
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        z = np.vstack([self.atoms, other.atoms])
        w = np.concatenate([self.weights, other.weights])
        return AtomicLevyMeasure(z, w, dim=self.dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomicLevyMeasure)
            and self.dim == other.dim
            and self.atoms.shape == other.atoms.shape
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({z.tolist()}, {w!r})" for z, w in zip(self.atoms, self.weights)
        )
        return f"AtomicLevyMeasure(d={self.dim}, [{pairs}])"


def _merge_atoms(z: np.ndarray, w: np.ndarray):
    """Merge atoms closer than ATOM_MERGE_TOL, drop zero weights, sort."""
    n = z.shape[0]
    if n == 0:
        return z, w
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(z[i] - z[j]) <= ATOM_MERGE_TOL:
                parent[find(j)] = find(i)
    roots = np.array([find(i) for i in range(n)])
    uniq = np.unique(roots)
    zm = np.array([z[r] for r in uniq])
    wm = np.array([w[roots == r].sum() for r in uniq])
    keep = wm != 0.0
    zm, wm = zm[keep], wm[keep]
    if zm.shape[0]:
        order = np.lexsort(zm.T[::-1])
        zm, wm = zm[order], wm[order]
    return np.ascontiguousarray(zm), np.ascontiguousarray(wm)


def levy_norm(k: AtomicLevyMeasure) -> float:
    return k.norm()


def combined_atom_table(measures) -> tuple[np.ndarray, np.ndarray]:
    """Union atom list for a family of measures sharing a dimension.

    Returns (atoms, W) with atoms of shape (n, d) and W of shape (n, m):
    column j holds the weight each union atom carries in measures[j], so the
    affine combination c_0*nu_0 + ... has union weights W @ c.
    """
    measures = list(measures)
    dim = measures[0].dim
    all_z = [m.atoms for m in measures if m.n_atoms]
    if not all_z:
        return np.zeros((0, dim)), np.zeros((0, len(measures)))
    z = np.vstack(all_z)
    # canonical union via the merge machinery with unit probe weights
    union, _ = _merge_atoms(z, np.ones(z.shape[0]))
    W = np.zeros((union.shape[0], len(measures)))
    for j, m in enumerate(measures):
        for zi, wi in zip(m.atoms, m.weights):
            dist = np.linalg.norm(union - zi, axis=1)
            idx = int(np.argmin(dist))
            if dist[idx] > ATOM_MERGE_TOL:
                raise AssertionError("atom missing from union table")
            W[idx, j] += wi
    return union, W


# ---------------------------------------------------------------------------
# state spaces and truncation functions


@dataclass(frozen=True)
class StateSpace:
    """Full space, or the canonical half-space with the first m coordinates
    nonnegative."""

    dim: int
    nonneg_coords: int = 0  # 0 means the full space

    def __post_init__(self):
        if not 0 <= self.nonneg_coords <= self.dim:
            raise DimensionError("nonneg_coords must lie in [0, dim]")

    @classmethod
    def full(cls, dim: int) -> "StateSpace":
        return cls(dim, 0)

    @classmethod
    def half(cls, dim: int, nonneg_coords: int | None = None) -> "StateSpace":
        return cls(dim, dim if nonneg_coords is None else nonneg_coords)

    @property
    def is_full(self) -> bool:
        return self.nonneg_coords == 0

    def contains(self, x) -> bool:
        if self.is_full:
            return True
        x = _as_vector(x, self.dim)
        return bool(np.all(x[: self.nonneg_coords] >= 0.0))

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised membership for an (n, d) array of states."""
        xs = np.asarray(xs, dtype=float)
        if self.is_full:
            return np.ones(xs.shape[0], dtype=bool)
        return np.all(xs[:, : self.nonneg_coords] >= 0.0, axis=1)


@dataclass(frozen=True)
class TruncationFunction:
    """h(z) = z on the closed ball of the given radius, 0 outside."""

    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("truncation radius must be positive")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            return z if np.linalg.norm(z) <= self.radius else np.zeros_like(z)
        inside = np.linalg.norm(z, axis=-1) <= self.radius
        return z * inside[..., None]

    @property
    def sup_norm(self) -> float:
        return self.radius


def truncation_constant(h: TruncationFunction) -> float:
    """Constant C with ||z - h(z)|| <= C (||z||^2 ^ ||z||) and
    ||h(z)|| <= C (||z|| ^ 1); radius**-2 * sup_norm works for the ball
    truncation, i.e. 1/radius."""
    if h.radius <= 0:
        raise ValueError("truncation radius must be positive")
    return h.sup_norm / h.radius**2


# ---------------------------------------------------------------------------
# affine parameters


class AffineParameter:
    """One coefficient tuple theta = (beta, alpha, nu).

    beta: (d+1, d) array, rows beta_0..beta_d
    alpha: (d+1, d, d) array of symmetric matrices alpha_0..alpha_d
    nu: tuple of d+1 AtomicLevyMeasure
    """

    __slots__ = ("dim", "beta", "alpha", "nu")

    def __init__(self, beta, alpha, nu):
        beta = np.asarray(beta, dtype=float)
        if beta.ndim == 1:  # scalar case given as flat d+1 values
            beta = beta[:, None]
        d = beta.shape[1]
        if beta.shape != (d + 1, d):
            raise DimensionError(f"beta must have shape (d+1, d), got {beta.shape}")
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim == 1:
            alpha = alpha[:, None, None]
        if alpha.shape != (d + 1, d, d):
            raise DimensionError(f"alpha must have shape (d+1, d, d), got {alpha.shape}")
        sym_gap = np.max(np.abs(alpha - np.transpose(alpha, (0, 2, 1)))) if d > 1 else 0.0
        if sym_gap > 1e-9:
            raise ValueError(f"alpha components must be symmetric (gap {sym_gap:.3e})")
        alpha = 0.5 * (alpha + np.transpose(alpha, (0, 2, 1)))
        nu = tuple(nu)
        if len(nu) != d + 1:
            raise DimensionError(f"need d+1 jump measures, got {len(nu)}")
        for m in nu:
            if m.dim != d:
                raise DimensionError("jump measure dimension mismatch")
        self.dim = d
        self.beta = beta
        self.beta.setflags(write=False)
        self.alpha = alpha
        self.alpha.setflags(write=False)
        self.nu = nu

    @classmethod
    def zero(cls, dim: int) -> "AffineParameter":
        return cls(
            np.zeros((dim + 1, dim)),
            np.zeros((dim + 1, dim, dim)),
            tuple(AtomicLevyMeasure.empty(dim) for _ in range(dim + 1)),
        )

    @classmethod
    def scalar(cls, beta0=0.0, beta1=0.0, alpha0=0.0, alpha1=0.0,
               nu0=None, nu1=None) -> "AffineParameter":
        """Convenience constructor for d = 1."""
        nu0 = nu0 if nu0 is not None else AtomicLevyMeasure.empty(1)
        nu1 = nu1 if nu1 is not None else AtomicLevyMeasure.empty(1)
        return cls([[beta0], [beta1]], [[[alpha0]], [[alpha1]]], (nu0, nu1))

    def beta_linear(self) -> np.ndarray:
        """Matrix of the linear drift part: column i is beta_i."""
        return self.beta[1:].T

    def convex_combination(self, other: "AffineParameter", lam: float) -> "AffineParameter":
        """(1 - lam) * self + lam * other."""
        nu = tuple(
            a.scaled(1.0 - lam) + b.scaled(lam) for a, b in zip(self.nu, other.nu)
        )
        return AffineParameter(
            (1 - lam) * self.beta + lam * other.beta,
            (1 - lam) * self.alpha + lam * other.alpha,
            nu,
        )

    def __repr__(self) -> str:
        return f"AffineParameter(d={self.dim})"


@dataclass(frozen=True)
class Triplet:
    """Differential characteristics (b, a, k) at one state."""

    b: np.ndarray
    a: np.ndarray
    k: AtomicLevyMeasure

    def __post_init__(self):
        d = self.b.shape[0]
        if self.a.shape != (d, d) or self.k.dim != d:
            raise DimensionError("triplet components disagree on dimension")

    @property
    def dim(self) -> int:
        return self.b.shape[0]


def triplet_at(theta: AffineParameter, x, space: StateSpace) -> Triplet:
    """Affine map with the state-space indicator: zero outside the space."""
    d = theta.dim
    if space.dim != d:
        raise DimensionError("state space dimension mismatch")
    x = _as_vector(x, d)
    if not space.contains(x):
        return Triplet(np.zeros(d), np.zeros((d, d)), AtomicLevyMeasure.empty(d))
    b = theta.beta[0] + theta.beta[1:].T @ x
    a = theta.alpha[0] + np.tensordot(x, theta.alpha[1:], axes=(0, 0))
    k = theta.nu[0]
    for xi, m in zip(x, theta.nu[1:]):
        if xi != 0.0 and not m.is_empty():
            k = k + m.scaled(float(xi))
    return Triplet(b, 0.5 * (a + a.T), k)


def hat_triplet_at(theta: AffineParameter, x) -> Triplet:
    """Modified coefficient map: drift affine in x, diffusion affine in the
    coordinate-wise positive part of x, jump measure frozen at nu_0.  No
    state-space indicator."""
    d = theta.dim
    x = _as_vector(x, d)
    xp = np.maximum(x, 0.0)
    b = theta.beta[0] + theta.beta[1:].T @ x
    a = theta.alpha[0] + np.tensordot(xp, theta.alpha[1:], axes=(0, 0))
    return Triplet(b, 0.5 * (a + a.T), theta.nu[0])


# ---------------------------------------------------------------------------
# parameter sets


class ParameterSet:
    """Base class; concrete sets provide a finite vertex enumeration."""

    def vertices(self) -> list[AffineParameter]:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError


class FiniteParameterSet(ParameterSet):
    def __init__(self, parameters):
        parameters = list(parameters)
        if not parameters:
            raise ValueError("parameter set must be non-empty")
        d = parameters[0].dim
        for p in parameters:
            if p.dim != d:
                raise DimensionError("mixed dimensions in parameter set")
        self._params = parameters

    def vertices(self) -> list[AffineParameter]:
        return list(self._params)

    @property
    def dim(self) -> int:
        return self._params[0].dim

    def __len__(self) -> int:
        return len(self._params)


class CoefficientBox(ParameterSet):
    """Independent closed intervals for every scalar drift/diffusion
    coefficient, crossed with a finite list of jump-measure tuples.

    Vertices are the Cartesian product of the interval endpoints (free, i.e.
    non-degenerate intervals only) with the listed jump tuples, in a fixed
    deterministic order.
    """

    def __init__(self, beta_lo, beta_hi, alpha_lo, alpha_hi, nu_tuples=None,
                 vertex_cap: int = DEFAULT_VERTEX_CAP):
        beta_lo = np.asarray(beta_lo, dtype=float)
        beta_hi = np.asarray(beta_hi, dtype=float)
        if beta_lo.ndim == 1:
            beta_lo, beta_hi = beta_lo[:, None], beta_hi[:, None]
        d = beta_lo.shape[1]
        alpha_lo = np.asarray(alpha_lo, dtype=float)
        alpha_hi = np.asarray(alpha_hi, dtype=float)
        if alpha_lo.ndim == 1:
            alpha_lo, alpha_hi = alpha_lo[:, None, None], alpha_hi[:, None, None]
        if beta_lo.shape != (d + 1, d) or beta_hi.shape != (d + 1, d):
            raise DimensionError("beta bounds must have shape (d+1, d)")
        if alpha_lo.shape != (d + 1, d, d) or alpha_hi.shape != (d + 1, d, d):
            raise DimensionError("alpha bounds must have shape (d+1, d, d)")
        if np.any(beta_lo > beta_hi) or np.any(alpha_lo > alpha_hi):
            raise ValueError("interval lower bounds exceed upper bounds")
        for arr in (alpha_lo, alpha_hi):
            if d > 1 and np.max(np.abs(arr - np.transpose(arr, (0, 2, 1)))) > 1e-9:
                raise ValueError("alpha bounds must be symmetric")
        if nu_tuples is None:
            nu_tuples = [tuple(AtomicLevyMeasure.empty(d) for _ in range(d + 1))]
        nu_tuples = [tuple(t) for t in nu_tuples]
        if not nu_tuples:
            raise ValueError("parameter set must be non-empty")
        for t in nu_tuples:
            if len(t) != d + 1 or any(m.dim != d for m in t):
                raise DimensionError("jump tuple dimension mismatch")
        self._d = d
        self.beta_lo, self.beta_hi = beta_lo, beta_hi
        self.alpha_lo, self.alpha_hi = alpha_lo, alpha_hi
        self.nu_tuples = nu_tuples
        self.vertex_cap = vertex_cap
        # free coordinates in a fixed order: beta entries (component, coord),
        # then alpha upper-triangle entries (component, i, j)
        free = []
        for c in range(d + 1):
            for i in range(d):
                if beta_lo[c, i] != beta_hi[c, i]:
                    free.append(("beta", c, i, 0))
        for c in range(d + 1):
            for i in range(d):
                for j in range(i, d):
                    if alpha_lo[c, i, j] != alpha_hi[c, i, j]:
                        free.append(("alpha", c, i, j))
        self._free = free
        count = (1 << len(free)) * len(nu_tuples)
        if count > vertex_cap:
            raise ValueError(
                f"box enumerates {count} vertices, above the cap {vertex_cap}; "
                "coarsen the box (fix more intervals) or list parameters explicitly"
            )

    @property
    def dim(self) -> int:
        return self._d

    def vertices(self) -> list[AffineParameter]:
        d = self._d
        out = []
        nbits = len(self._free)
        for nu in self.nu_tuples:
            for v in range(1 << nbits):
                beta = self.beta_lo.copy()
                alpha = self.alpha_lo.copy()
                for p, (kind, c, i, j) in enumerate(self._free):
                    hi = bool((v >> p) & 1)
                    if kind == "beta":
                        beta[c, i] = self.beta_hi[c, i] if hi else self.beta_lo[c, i]
                    else:
                        val = self.alpha_hi[c, i, j] if hi else self.alpha_lo[c, i, j]
                        alpha[c, i, j] = val
                        alpha[c, j, i] = val
                out.append(AffineParameter(beta, alpha, nu))
        return out


def enumerate_vertices(theta_set: ParameterSet) -> list[AffineParameter]:
    return theta_set.vertices()


# ---------------------------------------------------------------------------
# growth norms: sup_x ||c0 + C x|| / (||x|| + 1)


def _circle_mesh(n: int) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * i / n)
    theta = np.pi * (1 + 5**0.5) * i
    return np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def _refine_circle(g, mesh_vals: np.ndarray, n: int) -> float:
    """Refine every local maximum of g(angle) found on a circular mesh."""
    best = float(np.max(mesh_vals))
    step = 2.0 * np.pi / n
    left = np.roll(mesh_vals, 1)
    right = np.roll(mesh_vals, -1)
    for i in np.nonzero((mesh_vals >= left) & (mesh_vals >= right))[0]:
        lo, hi = (i - 1) * step, (i + 1) * step
        res = minimize_scalar(
            lambda t: -g(np.array([np.cos(t), np.sin(t)])),
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-14},
        )
        best = max(best, float(-res.fun))
    return best


def _direction_sup(g, d: int, directions: int | None = None) -> float:
    """sup over unit vectors of g(u), via a deterministic mesh plus local
    refinement.  Exact for d = 1."""
    if d == 1:
        return max(g(np.array([1.0])), g(np.array([-1.0])))
    n = directions or DEFAULT_DIRECTIONS.get(d)
    if n is None:
        raise DimensionError("direction meshes are provided for d <= 3 only")
    if d == 2:
        mesh = _circle_mesh(n)
        vals = np.array([g(u) for u in mesh])
        return _refine_circle(g, vals, n)
    mesh = _fibonacci_sphere(n)
    vals = np.array([g(u) for u in mesh])
    best = float(np.max(vals))
    for i in np.argsort(vals)[-12:]:
        u0 = mesh[i]
        ang0 = np.array([np.arccos(np.clip(u0[2], -1, 1)), np.arctan2(u0[1], u0[0])])

        def neg(ang):
            s, t = ang
            u = np.array([np.sin(s) * np.cos(t), np.sin(s) * np.sin(t), np.cos(s)])
            return -g(u)

        res = minimize(neg, ang0, method="Nelder-Mead",
                       options={"xatol": 1e-13, "fatol": 1e-15})
        best = max(best, float(-res.fun))
    return best


def growth_norm(theta: AffineParameter, component: str,
                directions: int | None = None) -> float:
    """sup_x ||c0 + C x|| / (||x|| + 1) for one component of theta.

    Equals max(||c0||, ||C||_op): the ratio r -> (||c0|| + r ||C||_op)/(1 + r)
    is monotone between its values at r = 0 and r -> infinity.  The operator
    norm of the linear part is exact for the drift (spectral norm) and for
    d = 1; otherwise it is a mesh-plus-refinement supremum over directions.
    """
    d = theta.dim
    if component == "beta":
        c0 = float(np.linalg.norm(theta.beta[0]))
        lin = theta.beta[1:].T
        cop = float(np.linalg.norm(lin, 2)) if np.any(lin) else 0.0
        return max(c0, cop)
    if component == "alpha":
        c0 = spectral_norm(theta.alpha[0])
        lin = theta.alpha[1:]
        if not np.any(lin):
            return c0
        if d == 1:
            return max(c0, spectral_norm(lin[0]))

        def g(u):
            return spectral_norm(np.tensordot(u, lin, axes=(0, 0)))

        return max(c0, _direction_sup(g, d, directions))
    if component == "nu":
        c0 = theta.nu[0].norm()
        lin = theta.nu[1:]
        if all(m.is_empty() for m in lin):
            return c0
        atoms, W = combined_atom_table(lin)
        n = np.linalg.norm(atoms, axis=1)
        fac = np.minimum(n * n, n)

        def g(u):
            return float(fac @ np.abs(W @ u))

        return max(c0, _direction_sup(g, d, directions))
    raise ValueError(f"unknown component {component!r}")


def linear_part_norm(theta: AffineParameter, component: str,
                     directions: int | None = None) -> float:
    """Operator norm of the linear part alone (the c0 = 0 case)."""
    d = theta.dim
    if component == "beta":
        lin = theta.beta[1:].T
        return float(np.linalg.norm(lin, 2)) if np.any(lin) else 0.0
    if component == "alpha":
        lin = theta.alpha[1:]
        if not np.any(lin):
            return 0.0
        if d == 1:
            return spectral_norm(lin[0])
        return _direction_sup(
            lambda u: spectral_norm(np.tensordot(u, lin, axes=(0, 0))), d, directions
        )
    if component == "nu":
        lin = theta.nu[1:]
        if all(m.is_empty() for m in lin):
            return 0.0
        atoms, W = combined_atom_table(lin)
        n = np.linalg.norm(atoms, axis=1)
        fac = np.minimum(n * n, n)
        return _direction_sup(lambda u: float(fac @ np.abs(W @ u)), d, directions)
    raise ValueError(f"unknown component {component!r}")


def parameter_growth(theta: AffineParameter) -> float:
    return sum(growth_norm(theta, c) for c in ("beta", "alpha", "nu"))


def growth_bound(theta_set: ParameterSet) -> float:
    """Largest growth-norm sum over the vertex enumeration."""
    return max(parameter_growth(t) for t in theta_set.vertices())


def small_jump_mass(theta_set: ParameterSet, x, delta: float,
                    space: StateSpace | None = None) -> float:
    """sup over vertices of the second moment of jumps of size <= delta of
    the evaluated measure at x."""
    best = -np.inf
    for theta in theta_set.vertices():
        if space is None:
            k = hat_triplet_at(theta, x).k
        else:
            k = triplet_at(theta, x, space).k
        if k.is_empty():
            val = 0.0
        else:
            n = np.linalg.norm(k.atoms, axis=1)
            val = float(np.sum(k.weights * (n * n) * (n <= delta)))
        best = max(best, val)
    return best


@dataclass
class LinearBoundReport:
    bound: float  # three times the growth bound
    per_parameter: list[dict] = field(default_factory=list)
    passed: bool = True


def check_linear_bound(theta_set: ParameterSet) -> LinearBoundReport:
    """Verify per vertex that the summed operator norms of the linear parts
    stay below three times the set growth bound; report margins."""
    K = growth_bound(theta_set)
    rep = LinearBoundReport(bound=3.0 * K)
    for i, theta in enumerate(theta_set.vertices()):
        lhs = sum(linear_part_norm(theta, c) for c in ("beta", "alpha", "nu"))
        margin = rep.bound - lhs
        ok = margin >= -1e-9
        rep.per_parameter.append(
            {"index": i, "linear_norm_sum": lhs, "margin": margin, "passed": ok}
        )
        rep.passed = rep.passed and ok
    return rep


@dataclass
class CoefficientBoundReport:
    growth: float
    growth_finite: bool
    small_jump_table: dict  # delta -> {x tuple -> mass}
    small_jump_vanishes: bool
    min_atom_norm: float | None
    passed: bool


def check_coefficient_bounds(theta_set: ParameterSet,
                             delta_grid=None,
                             x_samples=None,
                             space: StateSpace | None = None) -> CoefficientBoundReport:
    """Growth bound plus the small-jump second-moment profile on a delta
    grid.  For atomic measures the profile is identically zero below the
    smallest atom norm, so the vanishing-limit requirement is exact."""
    d = theta_set.dim
    K = growth_bound(theta_set)
    norms = [
        float(np.linalg.norm(z))
        for theta in theta_set.vertices()
        for m in theta.nu
        for z in m.atoms
    ]
    min_atom = min(norms) if norms else None
    if delta_grid is None:
        top = max(norms) if norms else 1.0
        delta_grid = [top * 2.0**-k for k in range(8)]
    if x_samples is None:
        x_samples = [np.zeros(d), np.ones(d)]
    table = {}
    for delta in delta_grid:
        row = {}
        for x in x_samples:
            x = _as_vector(x, d)
            row[tuple(x.tolist())] = small_jump_mass(theta_set, x, float(delta), space)
        table[float(delta)] = row
    return CoefficientBoundReport(
        growth=K,
        growth_finite=bool(np.isfinite(K)),
        small_jump_table=table,
        small_jump_vanishes=True,  # exact: no atoms at the origin
        min_atom_norm=min_atom,
        passed=bool(np.isfinite(K)),
    )


# ---------------------------------------------------------------------------
# admissibility (d = 1)


@dataclass
class AdmissibilityResult:
    admissible: bool
    violations: list[str]


def check_admissible(theta: AffineParameter, space: StateSpace) -> AdmissibilityResult:
    """One-dimensional admissibility for the half-line or the full line."""
    if theta.dim != 1:
        raise DimensionError("admissibility check is defined for d = 1")
    tol = WEIGHT_TOL
    b0 = float(theta.beta[0, 0])
    a0 = float(theta.alpha[0, 0, 0])
    a1 = float(theta.alpha[1, 0, 0])
    nu0, nu1 = theta.nu
    bad: list[str] = []
    if space.nonneg_coords == 1:
        if b0 < -tol:
            bad.append(f"beta0 >= 0 violated (beta0 = {b0})")
        if abs(a0) > tol:
            bad.append(f"alpha0 = 0 violated (alpha0 = {a0})")
        if a1 < -tol:
            bad.append(f"alpha1 >= 0 violated (alpha1 = {a1})")
        for name, m in (("nu0", nu0), ("nu1", nu1)):
            if m.n_atoms and m.min_weight() < -tol:
                bad.append(f"{name} >= 0 violated (min weight {m.min_weight()})")
            if m.n_atoms and np.any(m.atoms[:, 0] <= 0.0):
                bad.append(f"{name} support in the positive half-line violated")
            if m.n_atoms:
                z = np.abs(m.atoms[:, 0])
                first_moment = float(np.sum(np.abs(m.weights) * np.minimum(z, 1.0)))
                if not np.isfinite(first_moment):
                    bad.append(f"{name} small-jump first moment not finite")
    elif space.is_full:
        if a0 < -tol:
            bad.append(f"alpha0 >= 0 violated (alpha0 = {a0})")
        if abs(a1) > tol:
            bad.append(f"alpha1 = 0 violated (alpha1 = {a1})")
        if not nu1.is_empty():
            bad.append("nu1 = 0 violated")
        if nu0.n_atoms and nu0.min_weight() < -tol:
            bad.append(f"nu0 >= 0 violated (min weight {nu0.min_weight()})")
    else:
        raise ValueError("unsupported state space for admissibility")
    return AdmissibilityResult(admissible=not bad, violations=bad)
