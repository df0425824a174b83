"""Parameters, parameter sets, Levy measures and the growth norms built on them.

An affine coefficient map in d = 1 or d = 2 space dimensions is a tuple
theta = (beta, alpha, nu) of d+1 drift vectors, d+1 symmetric matrices and
d+1 finite atomic jump measures.  It is evaluated at a state x as

    b(x) = (beta_0 + sum_i x^i beta_i) * 1_S(x)
    a(x) = (alpha_0 + sum_i x^i alpha_i) * 1_S(x)
    k(x) = (nu_0 + sum_i x^i nu_i) * 1_S(x)

where S is the state space.  Everything in this module is immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

ATOM_MERGE_TOL = 1e-12
PSD_TOL = 1e-10
WEIGHT_TOL = 1e-12
VERTEX_CAP = 4096  # most vertices a CoefficientBox enumerates


class DimensionError(ValueError):
    pass


class CoefficientError(ValueError):
    """A coefficient map evaluated where it is not admissible: a diffusion
    that is not positive semidefinite or a negative jump weight."""


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
    """Smallest eigenvalue of a symmetric 1x1 or 2x2 matrix (a float), or of
    each matrix in a stack (..., d, d) (an array), in closed form."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 1:
        m = a[..., 0, 0]
    else:
        tr = a[..., 0, 0] + a[..., 1, 1]
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        m = 0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4 * det, 0.0)))
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
        if not np.isfinite(self.norm()):
            raise ValueError("jump measure atoms and weights must be finite")

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
    """Merge atoms closer than ATOM_MERGE_TOL, summing their weights (one per
    atom, or one row per atom), drop atoms whose weights are all zero, sort."""
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
    uniq = np.flatnonzero(roots == np.arange(n))
    zm = np.array([z[r] for r in uniq])
    wm = np.array([w[roots == r].sum(axis=0) for r in uniq])
    keep = np.any(wm.reshape(uniq.size, -1) != 0.0, axis=1)
    zm, wm = zm[keep], wm[keep]
    if zm.shape[0]:
        order = np.lexsort(zm.T[::-1])
        zm, wm = zm[order], wm[order]
    return np.ascontiguousarray(zm), np.ascontiguousarray(wm)


def combined_atom_table(measures) -> tuple[np.ndarray, np.ndarray]:
    """Union atom list for a family of measures sharing a dimension.

    Returns (atoms, W) with atoms of shape (n, d) and W of shape (n, m):
    column j holds the weight each union atom carries in measures[j], so the
    affine combination c_0*nu_0 + ... has union weights W @ c.
    """
    measures = list(measures)
    z = np.vstack([m.atoms for m in measures])
    column = np.repeat(np.arange(len(measures)), [m.n_atoms for m in measures])
    W = np.zeros((z.shape[0], len(measures)))
    W[np.arange(z.shape[0]), column] = np.concatenate([m.weights for m in measures])
    return _merge_atoms(z, W)


def atom_norms(measures) -> np.ndarray:
    """Euclidean norm of every atom of the given measures, in order."""
    return np.array([np.linalg.norm(z) for m in measures for z in m.atoms])


def jump_tails(k: AtomicLevyMeasure, r: float) -> tuple[float, float]:
    """Tails of an atomic measure at radius r: the small-jump second moment
    sum w |z|^2 1{|z| <= r} and the large-jump mass sum w 1{|z| > r}."""
    if k.is_empty():
        return 0.0, 0.0
    n = np.linalg.norm(k.atoms, axis=1)
    with np.errstate(over="ignore"):  # an overflow to inf is caught downstream
        return (float(np.sum(k.weights * (n * n) * (n <= r))),
                float(np.sum(k.weights * (n > r))))


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


def truncation_moment(atoms: np.ndarray, weights: np.ndarray,
                      h: TruncationFunction) -> np.ndarray:
    """sum_j w_j h(z_j): an elementwise product, then a sum over the atoms in
    order.  Authoring a drift and compensating one both go through here, so
    a tuple authored with h has a compensated drift of exactly zero."""
    hz = np.array([h(z) for z in atoms]).reshape(-1, atoms.shape[1])
    with np.errstate(over="ignore"):  # an overflow to inf is caught downstream
        return np.sum(weights[:, None] * hz, axis=0)


# ---------------------------------------------------------------------------
# affine parameters


class AffineParameter:
    """One coefficient tuple theta = (beta, alpha, nu) in d = 1 or d = 2
    space dimensions.

    beta: (d+1, d) array, rows beta_0..beta_d
    alpha: (d+1, d, d) array of symmetric matrices alpha_0..alpha_d
    nu: tuple of d+1 AtomicLevyMeasure, or None for no jumps

    This constructor is the one place that decides what a valid tuple is.
    """

    __slots__ = ("dim", "beta", "alpha", "nu")

    def __init__(self, beta, alpha, nu=None):
        beta = np.asarray(beta, dtype=float)
        if beta.ndim != 2 or beta.shape[0] != beta.shape[1] + 1:
            raise DimensionError(f"beta must have shape (d+1, d), got {beta.shape}")
        d = beta.shape[1]
        if d not in (1, 2):
            raise DimensionError(f"dimension must be 1 or 2, got {d}")
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (d + 1, d, d):
            raise DimensionError(f"alpha must have shape (d+1, d, d), got {alpha.shape}")
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(alpha))):
            raise ValueError("beta and alpha must be finite")
        sym_gap = np.max(np.abs(alpha - np.transpose(alpha, (0, 2, 1))))
        if sym_gap > 1e-9:
            raise ValueError(f"alpha components must be symmetric (gap {sym_gap:.3e})")
        alpha = 0.5 * (alpha + np.transpose(alpha, (0, 2, 1)))
        nu = (AtomicLevyMeasure.empty(d),) * (d + 1) if nu is None else tuple(nu)
        if len(nu) != d + 1:
            raise DimensionError(f"need {d + 1} jump measures, got {len(nu)}")
        if any(m.dim != d for m in nu):
            raise DimensionError("jump measure dimension mismatch")
        self.dim = d
        self.beta = beta
        self.beta.setflags(write=False)
        self.alpha = alpha
        self.alpha.setflags(write=False)
        self.nu = nu

    @classmethod
    def zero(cls, dim: int) -> "AffineParameter":
        return cls(np.zeros((dim + 1, dim)), np.zeros((dim + 1, dim, dim)))

    @classmethod
    def scalar(cls, beta0=0.0, beta1=0.0, alpha0=0.0, alpha1=0.0,
               nu0=None, nu1=None) -> "AffineParameter":
        """Convenience constructor for d = 1."""
        empty = AtomicLevyMeasure.empty(1)
        return cls([[beta0], [beta1]], [[[alpha0]], [[alpha1]]],
                   (empty if nu0 is None else nu0, empty if nu1 is None else nu1))

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


def affine_at(c: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """c_0 + sum_i x^i c_i for every row x of an (n, d) state array, where c
    stacks the d+1 coefficients (vectors, matrices or weight rows)."""
    if c.shape[0] == 2:  # d = 1 written out: tensordot's bits at less call cost
        return c[0] + xs.reshape(-1, *(1,) * (c.ndim - 1)) * c[1]
    return c[0] + np.tensordot(xs, c[1:], axes=(1, 0))


# ---------------------------------------------------------------------------
# parameter sets


class FiniteParameterSet:
    """A non-empty vertex list of one dimension; worst cases are sups over it."""

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


class CoefficientBox(FiniteParameterSet):
    """Independent closed intervals for every scalar drift/diffusion
    coefficient, crossed with a finite list of jump-measure tuples.  The
    corners (beta_lo, alpha_lo) and (beta_hi, alpha_hi) are checked as
    AffineParameter tuples, and each jump tuple as its vertices are built.

    The vertices, enumerated once here, are the Cartesian product of the
    free (non-degenerate) interval endpoints with the listed jump tuples:
    a block per jump tuple, in which the first free coefficient toggles
    fastest.
    """

    def __init__(self, beta_lo, beta_hi, alpha_lo, alpha_hi, nu_tuples=None):
        lo, hi = AffineParameter(beta_lo, alpha_lo), AffineParameter(beta_hi, alpha_hi)
        d = lo.dim
        if hi.dim != d:
            raise DimensionError(f"box corners have dimensions {d} and {hi.dim}")
        if np.any(lo.beta > hi.beta) or np.any(lo.alpha > hi.alpha):
            raise ValueError("interval lower bounds exceed upper bounds")
        nu_tuples = [None] if nu_tuples is None else list(nu_tuples)
        # free coordinates in a fixed order: beta entries (component, coord),
        # then alpha upper-triangle entries (component, i, j)
        free = [("beta", c, i, 0) for c in range(d + 1) for i in range(d)
                if lo.beta[c, i] != hi.beta[c, i]]
        free += [("alpha", c, i, j) for c in range(d + 1) for i in range(d)
                 for j in range(i, d) if lo.alpha[c, i, j] != hi.alpha[c, i, j]]
        count = (1 << len(free)) * len(nu_tuples)
        if count > VERTEX_CAP:
            raise ValueError(
                f"box enumerates {count} vertices, above the cap {VERTEX_CAP}; "
                "coarsen the box (fix more intervals) or list parameters explicitly"
            )
        vertices = []
        for nu in nu_tuples:
            for ends in itertools.product((lo, hi), repeat=len(free)):
                beta, alpha = lo.beta.copy(), lo.alpha.copy()
                # product toggles its last factor fastest: that is free[0]
                for end, (kind, c, i, j) in zip(reversed(ends), free):
                    if kind == "beta":
                        beta[c, i] = end.beta[c, i]
                    else:
                        alpha[c, i, j] = alpha[c, j, i] = end.alpha[c, i, j]
                vertices.append(AffineParameter(beta, alpha, nu))
        super().__init__(vertices)


# ---------------------------------------------------------------------------
# growth norms: sup_x ||c0 + C x|| / (||x|| + 1)


def _alpha_sup_2d(lin: np.ndarray) -> float:
    """sup over unit u of the spectral norm of u^1 A_1 + u^2 A_2.

    A symmetric 2x2 matrix M has ||M|| = |tr M|/2 + ||((M11 - M22)/2, M12)||,
    which here reads |p.u| + ||G u||, so the supremum is the maximum over
    unit v of ||p + G^T v||.  Its square is a trigonometric polynomial of
    degree 2 in the angle t of v; the critical angles are the arguments of
    the roots of its derivative times e^{2it}, a quartic in e^{it}.  t = 0
    is added for the constant case, where that quartic vanishes."""
    p = 0.5 * (lin[:, 0, 0] + lin[:, 1, 1])
    G = np.array([0.5 * (lin[:, 0, 0] - lin[:, 1, 1]), lin[:, 0, 1]])
    g1, g2 = G
    # ||p + G^T v||^2 = c + a1 cos t + b1 sin t + a2 cos 2t + b2 sin 2t
    a1, b1 = 2.0 * (p @ g1), 2.0 * (p @ g2)
    a2, b2 = 0.5 * (g1 @ g1 - g2 @ g2), g1 @ g2
    quartic = [b2 + 1j * a2, 0.5 * (b1 + 1j * a1), 0.0, 0.5 * (b1 - 1j * a1), b2 - 1j * a2]
    t = np.append(np.angle(np.roots(quartic)), 0.0)
    v = np.column_stack([np.cos(t), np.sin(t)])
    return float(np.max(np.linalg.norm(p + v @ G, axis=1)))


def _nu_sup_2d(fac: np.ndarray, W: np.ndarray) -> float:
    """sup over unit u of sum_j fac_j |W_j . u| for W of shape (m, 2).

    The sum is linear on each arc between consecutive zeros of the W_j . u,
    where it equals g . u with g = sum_j s_j fac_j W_j for the arc's sign
    pattern s; the supremum is the largest ||g||, probed once per arc.  The
    zeros are taken modulo pi so that the 2m boundaries lie in [0, 2 pi)."""
    zeros = np.mod(np.arctan2(W[:, 1], W[:, 0]) + 0.5 * np.pi, np.pi)
    t = np.sort(np.concatenate([zeros, zeros + np.pi]))
    mid = 0.5 * (t + np.append(t[1:], t[0] + 2.0 * np.pi))
    s = np.sign(np.column_stack([np.cos(mid), np.sin(mid)]) @ W.T)
    return float(np.max(np.linalg.norm((s * fac) @ W, axis=1)))


def linear_part_norm(theta: AffineParameter, component: str) -> float:
    """Operator norm sup over unit u of ||sum_i u^i c_i||, the linear part of
    one component of theta, in closed form: the spectral norm for the drift,
    and for alpha and nu the exact supremum over the line (d = 1) or the
    circle (d = 2)."""
    if component == "beta":
        lin = theta.beta[1:].T
        return float(np.linalg.norm(lin, 2)) if np.any(lin) else 0.0
    if component == "alpha":
        lin = theta.alpha[1:]
        if not np.any(lin):
            return 0.0
        return spectral_norm(lin[0]) if theta.dim == 1 else _alpha_sup_2d(lin)
    if component == "nu":
        lin = theta.nu[1:]
        if all(m.is_empty() for m in lin):
            return 0.0
        atoms, W = combined_atom_table(lin)
        n = np.linalg.norm(atoms, axis=1)
        fac = np.minimum(n * n, n)
        return float(fac @ np.abs(W[:, 0])) if theta.dim == 1 else _nu_sup_2d(fac, W)
    raise ValueError(f"unknown component {component!r}")


def growth_norm(theta: AffineParameter, component: str) -> float:
    """sup_x ||c0 + C x|| / (||x|| + 1) for one component of theta.

    Equals max(||c0||, ||C||_op): the ratio r -> (||c0|| + r ||C||_op)/(1 + r)
    is monotone between its values at r = 0 and r -> infinity.
    """
    lin = linear_part_norm(theta, component)
    if component == "beta":
        return max(float(np.hypot.reduce(np.abs(theta.beta[0]))), lin)  # no squares to overflow
    if component == "alpha":
        return max(spectral_norm(theta.alpha[0]), lin)
    return max(theta.nu[0].norm(), lin)


def parameter_growth(theta: AffineParameter) -> float:
    return sum(growth_norm(theta, c) for c in ("beta", "alpha", "nu"))


def growth_bound(theta_set: FiniteParameterSet) -> float:
    """Largest growth-norm sum over the vertex enumeration."""
    return max(parameter_growth(t) for t in theta_set.vertices())


def small_jump_mass(theta_set: FiniteParameterSet, delta: float) -> float:
    """sup over vertices of the second moment of jumps of size <= delta of
    the hat-mode jump measure, which is nu_0 at every state."""
    return max(jump_tails(theta.nu[0], delta)[0] for theta in theta_set.vertices())


@dataclass
class LinearBoundReport:
    bound: float  # three times the growth bound
    per_parameter: list[dict] = field(default_factory=list)
    passed: bool = True


def check_linear_bound(theta_set: FiniteParameterSet) -> LinearBoundReport:
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
    small_jump_table: dict  # delta -> mass
    min_atom_norm: float | None
    passed: bool


def check_coefficient_bounds(theta_set: FiniteParameterSet) -> CoefficientBoundReport:
    """Growth bound plus the hat-mode small-jump second-moment profile on
    eight dyadic deltas below the largest atom norm.  For atomic measures
    the profile is identically zero below the smallest atom norm, so the
    vanishing-limit requirement is exact."""
    K = growth_bound(theta_set)
    norms = atom_norms(m for theta in theta_set.vertices() for m in theta.nu)
    min_atom = float(norms.min()) if norms.size else None
    top = float(norms.max()) if norms.size else 1.0
    table = {delta: small_jump_mass(theta_set, delta)
             for delta in (top * 2.0**-k for k in range(8))}
    return CoefficientBoundReport(
        growth=K,
        small_jump_table=table,
        min_atom_norm=min_atom,
        passed=bool(np.isfinite(K)),
    )
