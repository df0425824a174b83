"""Jump-diffusion path simulation for constant coefficient tuples, with
statistical lower bounds for the worst-case expectation.

Stepping is Euler for the continuous part plus exact atomic jump sampling by
thinning: candidate events arrive at the constant rate lam_bar (an upper
bound for the state-dependent intensity over the clamp box) and are accepted
with probability intensity(state)/lam_bar; accepted events draw the jump
size from the normalised atom weights at the current state.  A batch finds
its candidate cells, the (path, step) pairs with candidates, once, so a step
touches only its own.

A coefficient with no linear part does not depend on where a path is (a
Levy law; hat mode's jump weights always).  For a run of such vertices the
sweep works out dt b, the diffusion root and its PSD check once, and each
batch decides every candidate's acceptance and atom before the steps that
use them, in windows of at most WINDOW candidates (a step with more is
split); a step then adds the fixed drift, multiplies the fixed root by its
normals and adds its live rows' accepted atoms.  Only the other vertices
have their coefficients evaluated at each step, run by run into the
run's own rows, and their candidates thinned rank by rank, as do a
constant diffusion that is not PSD and a constant negative weight, so
CoefficientError names the state a path meets it at.

Drift convention: the drift coefficient b is the rate of the finite-variation
part relative to the mode's truncation function h, so the simulated
increments are

    dX = (b(X) - sum_j w_j(X) h(z_j)) dt + sqrt(a(X)) dW + raw jumps.

Raw jumps are added without separate compensation; the h-dependent term above
is what the canonical decomposition assigns to the continuous drift once the
jump martingale and the compensator are recombined into raw jumps.  h belongs
to the model: GeneratorMode holds it, so a solve and a simulation under one
mode compensate alike, and a tuple's drift must be authored with that h (the
solver/simulator agreement tests pin this convention).

The compensated drift, the diffusion and the jump weights come from
GeneratorMode.coefficients, the one array coefficient form that the PIDE
operator and the hypothesis gate read as well.  The compensation and the
registry's drift authoring share params.truncation_moment, so a registry
tuple has a net drift of exactly zero and a path started on the boundary of
the half-line leaves it only by a jump.

Block k of BLOCK = 1,024 paths owns the counter-based random stream
Philox(key=(base seed, k)); kind i of draw starts its own sub-stream at
counter (0, 0, i, 0), 2**128 i steps in, and is drawn for the block's rows
in one call: path i's draws depend only on
(base seed, i // BLOCK, i % BLOCK), so results are bitwise reproducible and
independent of the batch size (BATCH_ROWS rows) and of the number of
paths simulated alongside.  simulate_paths steps one parameter or a sweep
of V vertices with one stepper over (vertex, path) rows: each block of
paths is drawn once per sweep, and its V copies step on that one draw set
(common random numbers), thinned at one bound, the largest of the
vertices' lam_bar.
Thinning at any bound at or above the intensity is exact in law, and a
vertex whose own bound is the largest gets the paths of its own
simulate_paths bit for bit.  Payoffs are scored on the (N, d) terminal
array at once (TestFunction.values).

lower_bound_sublinear picks its winning vertex on such a sweep of N // 8
paths per vertex drawn from a pilot stream, keyed (base seed, k | 2**63),
which no base block of any seed shares; it then runs only the winner, on
the base stream, so the reported mean is estimated on draws that took no
part in choosing it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # lazy in numpy: load it at import, not in the first draw

from .generator import CoefficientForm, GeneratorMode, TestFunction
from .params import (
    PSD_TOL,
    WEIGHT_TOL,
    AffineParameter,
    CoefficientError,
    FiniteParameterSet,
    min_eigenvalue,
)
from .pide import NonFiniteError, format_17g, grid_index, step_count, write_chunks


BLOCK = 1024  # paths per Philox key (seed, block)
# Set in the block word of every key of the pilot sweep: block indices stay
# far below it, so no pilot key is the key of any base block of any seed.
PILOT_STREAM = 1 << 63
PILOT_SHARE = 8  # the pilot sweep runs max(N // PILOT_SHARE, 1) paths per vertex
# numpy's Generator.poisson raises "lam value too large" above this mean
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))
# candidates of the state-free jump runs decided at once; bounds the
# decisions' working set at a few MB whatever the intensity
WINDOW = 1 << 16
# (vertex, path) rows per batch: a V-vertex sweep steps the most whole blocks
# of paths whose V copies fit, or BATCH_ROWS // V paths of one block's draw
# set at a time below one block (see _paths_per_batch)
BATCH_ROWS = 12 * BLOCK


@dataclass(frozen=True)
class SimConfig:
    """n_paths paths per vertex, stepped by dt to horizon on seed's streams."""

    dt: float
    horizon: float
    n_paths: int
    seed: int = 0
    clamp_box: tuple | None = None  # (lower, upper); default x0 +- 10 (1 + |x0|)

    def __post_init__(self):
        for name in ("n_paths", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not (0.0 < self.dt < math.inf and 0.0 <= self.horizon < math.inf
                and self.n_paths >= 1):
            raise ValueError("need finite dt > 0, finite horizon >= 0 and at least one path")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class PathBundle:
    """The paths of V constant-vertex laws from one start, vertex-major: rows
    k N .. (k + 1) N - 1 are vertex k's N paths (V = 1 for one parameter),
    one slice of each array.  The sweep allocates these (V N)-row arrays up
    front and writes each batch of paths into them in place."""

    times: np.ndarray
    terminal: np.ndarray          # (V N, d)
    running_sup: np.ndarray       # (V N,) sup_s |X_s - X_0|
    exit_time: np.ndarray         # (V N,) float; nan when the path never left
    seeds: np.ndarray             # (V N,) labels mixed from (seed, path), not stream keys
    flagged: np.ndarray           # (V N,) left the clamp box; frozen and counted
    events: np.ndarray            # (V, 3) per vertex: no-jump exits, candidates, accepted
    thinning_bound: float         # lam_bar, the candidates' rate
    sup_snapshots: dict | None    # step index -> (V N,) running sup at that step

    @property
    def n_paths(self) -> int:
        return self.terminal.shape[0]

    @property
    def flagged_count(self) -> int:
        return int(np.sum(self.flagged))

    @property
    def no_jump_exit_count(self) -> int:
        """Exits recorded on steps without a jump event."""
        return int(self.events[:, 0].sum())

    @property
    def thinning_proposed(self) -> int:
        """Candidate jump events at rate thinning_bound on live paths."""
        return int(self.events[:, 1].sum())

    @property
    def thinning_accepted(self) -> int:
        """Of those, the candidates accepted as jumps."""
        return int(self.events[:, 2].sum())


def _path_seed_labels(seed: int, count: int) -> np.ndarray:
    idx = np.arange(count, dtype=np.uint64)
    mix = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):  # modular 64-bit mixing is intended
        return (np.uint64(seed) * mix + idx) * mix


def _lam_bar(form: CoefficientForm, lo: np.ndarray, hi: np.ndarray) -> float:
    """Intensity bound over the clamp box: per atom, the largest affine
    weight over the box corners, positive part, summed.  A coordinate that
    no weight depends on adds nothing: where the box is infinite along it,
    its corners sit at 0, so that inf * 0 makes no NaN."""
    if not form.atoms.shape[0]:
        return 0.0
    free = ~(np.isfinite(lo) & np.isfinite(hi)) & ~form.W[:, 1:].any(axis=0)
    corners = np.array(list(itertools.product(*zip(np.where(free, 0.0, lo),
                                                   np.where(free, 0.0, hi)))))
    with np.errstate(over="ignore", invalid="ignore"):  # _Sweep refuses inf or nan
        vals = form.jump_weights(corners)  # (2^d, m)
        return float(np.sum(np.clip(np.max(vals, axis=0), 0.0, None)))


def _diffusion_root(A: np.ndarray, xs: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Closed-form PSD square root of each (1x1 or 2x2) diffusion matrix.  A
    matrix of a `live` row that is not PSD raises."""
    mineig = np.where(live, min_eigenvalue(A), np.inf)
    if np.any(mineig < -PSD_TOL):
        bad = xs[np.argmin(mineig)]
        raise CoefficientError(f"diffusion matrix not PSD at state {bad}")
    if A.shape[-1] == 1:
        return np.sqrt(np.clip(A, 0.0, None))
    tr = A[:, 0, 0] + A[:, 1, 1]
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    s = np.sqrt(np.clip(det, 0.0, None))
    denom = np.sqrt(np.clip(tr + 2.0 * s, 0.0, None))
    denom = np.where(denom > 0, denom, 1.0)
    return (A + s[:, None, None] * np.eye(2)[None, :, :]) / denom[:, None, None]


def default_clamp_box(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = 10.0 * (1.0 + np.linalg.norm(x0))
    return x0 - r, x0 + r


def _start(x0, d: int, cfg: SimConfig,
           mode: GeneratorMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x0 as a d-vector and the clamp box (lo, hi), which must contain it; a
    standard mode's state space must have the parameters' dimension d."""
    if not mode.is_hat and mode.space.dim != d:
        raise ValueError(f"state space of dimension {mode.space.dim} for parameters "
                         f"of dimension {d}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (d,):
        raise ValueError("initial state dimension mismatch")
    lo, hi = cfg.clamp_box if cfg.clamp_box is not None else default_clamp_box(x0)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != (d,) or hi.shape != (d,) or np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError(f"clamp_box must be (lower, upper), each {d} numbers and no NaN, "
                         f"got {lo.tolist()}, {hi.tolist()}")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("clamp box must contain the initial point")
    return x0, lo, hi


def _draw_batch(seed: int, b0: int, B: int, n_steps: int, d: int,
                has_diffusion: bool, lam_dt: float, stream: int = 0) -> tuple:
    """The draws (Z, counts, pool, pool_off) of paths b0 .. b0 + B - 1 over
    n_steps steps, b0 a multiple of BLOCK: normals Z (B, n_steps, d) when
    the law diffuses; when lam_dt > 0, candidate jump counts (B, n_steps)
    of mean lam_dt and two uniforms per candidate in `pool`, path i's from
    pool_off[i] on.  Absent draws are None; the arrays are read-only.
    Block k's draws of kind i (0 normals, 1 counts, 2 uniforms) come from
    Philox(key=(seed, k | stream), counter=(0, 0, i, 0)), in one path-major
    call into the batch's array, from the block's first row on; stream is 0
    or PILOT_STREAM."""
    Z = counts = pool = pool_off = None

    def blocks(kind: int):
        """(generator of kind's sub-stream, batch rows) of each block."""
        for r0 in range(0, B, BLOCK):
            key = np.array([seed, (b0 + r0) // BLOCK | stream], dtype=np.uint64)
            bitgen = np.random.Philox(key=key, counter=[0, 0, kind, 0])
            yield np.random.Generator(bitgen), slice(r0, min(r0 + BLOCK, B))

    if n_steps and has_diffusion:
        Z = np.empty((B, n_steps, d))
        for rng, rows in blocks(0):
            rng.standard_normal(out=Z[rows])
    if n_steps and lam_dt > 0.0:
        counts = np.empty((B, n_steps), dtype=np.int64)
        for rng, rows in blocks(1):
            counts[rows] = rng.poisson(lam_dt, (rows.stop - rows.start, n_steps))
        lens = 2 * counts.sum(axis=1)
        ends = np.cumsum(lens)
        pool_off = ends - lens
        pool = np.empty(int(ends[-1]))
        for rng, rows in blocks(2):
            rng.random(out=pool[pool_off[rows.start]:ends[rows.stop - 1]])
    drawn = (Z, counts, pool, pool_off)
    for a in drawn:
        if a is not None:
            a.flags.writeable = False
    return drawn


def _across(op, a: np.ndarray) -> np.ndarray:
    """op folded over the d <= 2 columns of an (n, d) array: for np.add the
    row sums add.reduce(a, axis=1) gives, bit for bit, without its per-row
    reduction overhead."""
    return functools.reduce(op, a.T)


def _paths_per_batch(V: int) -> int:
    """Paths per batch of a V-vertex sweep: the most whole blocks whose
    V-fold rows fit in BATCH_ROWS, or BATCH_ROWS // V (at least one) when
    that is below one block; such batches step one block's draw set in
    turn."""
    P = max(BATCH_ROWS // V, 1)
    return P - P % BLOCK if P >= BLOCK else P


def _runs(forms: list[CoefficientForm], *fields: str) -> list[tuple[int, int, CoefficientForm]]:
    """(first vertex, end vertex, form) of each run of consecutive vertices
    whose `fields` coefficient arrays are equal: one call evaluates a run's
    rows, row by row exactly as one call per vertex would."""
    runs = []
    for v, form in enumerate(forms):
        if runs and all(np.array_equal(getattr(form, f), getattr(runs[-1][2], f))
                        for f in fields):
            runs[-1][1] = v + 1
        else:
            runs.append([v, v + 1, form])
    return [tuple(run) for run in runs]


def _split(runs, fixed) -> tuple[list, list]:
    """The runs whose fixed(form) is None, and (first vertex, end vertex,
    fixed(form)) of the others."""
    varying, constant = [], []
    for v0, v1, form in runs:
        c = fixed(form)
        (varying if c is None else constant).append((v0, v1, form if c is None else c))
    return varying, constant


class _Sweep:
    """The V coefficient forms of a sweep, stepped over (vertex, path) rows,
    row v B + i for vertex v and the batch's path i, into `bundle`: its
    final (V N)-row arrays, allocated up front (seeds aside) and written a
    batch at a time through (V, N) reshape views.

    Each coefficient is split by runs of equal vertices (_runs) into the
    runs evaluated at each step, each into its own rows (drift_runs,
    diffusion_runs, jump_runs), and the state-free ones worked out here:
    fixed_drift holds dt b, fixed_root the PSD root, and fixed_jumps the
    atoms, the intensity and the cumulated weights (see the module
    docstring)."""

    def __init__(self, thetas, x0, cfg: SimConfig, mode: GeneratorMode,
                 snapshot_steps: tuple[int, ...], stream: int):
        V, d, N = len(thetas), thetas[0].dim, cfg.n_paths
        self.x0, self.lo, self.hi = _start(x0, d, cfg, mode)
        self.cfg, self.mode, self.stream = cfg, mode, stream
        self.n_steps, self.dt = step_count(cfg.horizon, cfg.dt)
        forms = [mode.coefficients(theta) for theta in thetas]

        def fixed_drift(form):
            return None if np.any(form.net_drift[1:]) else self.dt * form.net_drift[0]

        def fixed_root(form):  # one that is not PSD raises at the state a path meets it
            if np.any(form.alpha[1:]) or min_eigenvalue(form.alpha[0]) < -PSD_TOL:
                return None
            return _diffusion_root(form.alpha[:1], self.x0[None], True)[0]

        def fixed_thinning(form):  # and so does a negative weight
            if np.any(form.W[:, 1:]) or np.min(form.W[:, 0]) < -WEIGHT_TOL:
                return None
            wpos = np.clip(form.W[None, :, 0], 0.0, None)  # one row, as thin clips it
            with np.errstate(over="ignore"):  # an inf intensity is refused below
                return form.atoms, wpos.sum(axis=1)[0], np.cumsum(wpos, axis=1)[0]

        self.drift_runs, self.fixed_drift = _split(_runs(forms, "net_drift"), fixed_drift)
        self.diffusion_runs, self.fixed_root = _split(_runs(forms, "alpha"), fixed_root)
        # no atoms, no jumps
        self.jump_runs, self.fixed_jumps = _split(
            [run for run in _runs(forms, "W", "atoms") if run[2].atoms.size], fixed_thinning)
        self.lam_bar = max(_lam_bar(form, self.lo, self.hi) for form in forms)
        self.diffuses = any(np.any(theta.alpha) for theta in thetas)
        if self.n_steps and not self.lam_bar * self.dt < POISSON_LAM_MAX:
            raise NonFiniteError(f"jump intensity bound {self.lam_bar:.6g} over the clamp "
                                 f"box gives a candidate mean of {self.lam_bar * self.dt:.6g} "
                                 f"per step, not below the Poisson sampler's limit "
                                 f"{POISSON_LAM_MAX:.6g}")
        self.bundle = PathBundle(
            times=self.dt * np.arange(self.n_steps + 1),
            terminal=np.empty((V * N, d)), running_sup=np.zeros(V * N),
            exit_time=np.full(V * N, np.nan), seeds=None,  # set in simulate_paths
            flagged=np.zeros(V * N, dtype=bool), events=np.zeros((V, 3), dtype=np.int64),
            thinning_bound=self.lam_bar,
            sup_snapshots={j: np.zeros(V * N) for j in snapshot_steps} or None,
        )

    def step_draw_set(self, d0: int, d1: int, P: int) -> None:
        """Paths d0 .. d1 - 1, d0 a multiple of BLOCK, on one draw set:
        drawn once, then stepped P paths at a time."""
        drawn = _draw_batch(self.cfg.seed, d0, d1 - d0, self.n_steps, self.x0.shape[0],
                            self.diffuses, self.lam_bar * self.dt, self.stream)
        for p0 in range(d0, d1, P):
            p1 = min(p0 + P, d1)
            self.step_batch(p0, p1, drawn, slice(p0 - d0, p1 - d0))

    def step_batch(self, p0: int, p1: int, drawn: tuple, rows: slice) -> None:
        """Paths p0 .. p1 - 1 of every vertex, on rows `rows` of the draw
        set `drawn`.  Every row steps and frozen rows keep their state;
        only live rows are checked for admissible coefficients and
        thinned."""
        mode, x0, lo, hi, dt, lam_bar = (self.mode, self.x0, self.lo, self.hi,
                                         self.dt, self.lam_bar)
        bundle, snaps = self.bundle, self.bundle.sup_snapshots or {}
        V, B, d = bundle.events.shape[0], p1 - p0, x0.shape[0]

        def rows_of(a):  # paths p0 .. p1 - 1 of every vertex, a (V, B, ...) view
            return a.reshape(V, -1, *a.shape[1:])[:, p0:p1]

        Z, counts, pool, pool_off = drawn
        if Z is not None:
            Z = Z[rows]
            root = np.empty((V * B, d, d))
            for v0, v1, c in self.fixed_root:
                root[v0 * B:v1 * B] = c
        drift = np.empty((V * B, d))  # dt b
        for v0, v1, c in self.fixed_drift:
            drift[v0 * B:v1 * B] = c
        if counts is not None:
            # the batch's cells (path, step) by step; the pool runs as counts.ravel()
            counts = counts[rows]
            cells = np.flatnonzero(counts)
            n_cand = counts.ravel()[cells]
            first = pool_off[rows.start] + 2 * (np.cumsum(n_cand) - n_cand)
            path, step = np.divmod(cells, self.n_steps)
            order = np.argsort(step, kind="stable")
            path, n_cand, first = path[order], n_cand[order], first[order]
            cut = np.searchsorted(step[order], np.arange(self.n_steps + 1))
            # candidates counted by cell, then rank: cell c's are K[c] ..
            # K[c + 1] - 1, step j's S[j] .. S[j + 1] - 1
            K = np.concatenate(([0], np.cumsum(n_cand)))
            S = K[cut]
            # the vertices of the varying and of the state-free jump runs
            jv, fv = (np.array([v for v0, v1, _ in runs for v in range(v0, v1)], dtype=np.intp)
                      for runs in (self.jump_runs, self.fixed_jumps))
        sqdt = math.sqrt(dt) if dt else 0.0
        X = np.tile(x0, (V * B, 1))
        frozen = np.zeros(V * B, dtype=bool)
        exit_time = np.full(V * B, np.nan)
        if not mode.inside(x0[None, :])[0]:
            frozen[:] = True
            exit_time[:] = 0.0
        flagged = np.zeros(V * B, dtype=bool)
        running = np.zeros(V * B)
        events = np.zeros((3, V * B), dtype=np.int64)  # per row, as in bundle.events
        seen = np.zeros(B, dtype=np.int64)  # each path's candidates up to this step

        def freeze(now):
            """Freeze the rows of mask `now`, counting the candidates they saw."""
            frozen[now] = True
            events[1, now] = seen[np.flatnonzero(now) % B]

        def jump(hit, z):
            """Add z[i] to row hit[i] of Xn, in order."""
            np.add.at(Xn, hit, z)
            jumped[hit] = True
            np.add.at(events[2], hit, 1)

        def thin(form, rows, u):
            """Thin one candidate of each row rows[i] of Xn, its uniform pair
            from pool[u[i]] on, at weights read once per row (a negative one
            raises)."""
            xm = Xn[rows]
            w = form.jump_weights(xm)
            if np.min(w) < -WEIGHT_TOL:
                bad = xm[np.argmin(np.min(w, axis=1))]
                raise CoefficientError(f"negative jump weight at state {bad}")
            wpos = np.clip(w, 0.0, None)
            lam = wpos.sum(axis=1)
            acc = pool[u] * lam_bar < lam
            cw = np.cumsum(wpos[acc], axis=1)
            choice = np.argmax(cw > (pool[u[acc] + 1] * lam[acc])[:, None], axis=1)
            jump(rows[acc], form.atoms[choice])

        def decide(w0, live):
            """The state-free runs' decisions on candidates w0 .. w1 - 1 of
            the `live` paths: the whole steps that fit in WINDOW candidates,
            else WINDOW candidates of one step.  Returns w1 and, per run,
            each accepted candidate's cell and atom, in candidate order."""
            w1 = S[np.searchsorted(S, w0 + WINDOW, "right") - 1]
            if w1 <= w0:
                w1 = w0 + WINDOW
            c0, c1 = np.searchsorted(K, w0, "right") - 1, np.searchsorted(K, w1)
            start = np.maximum(K[c0:c1], w0)
            n = (np.minimum(K[c0 + 1:c1 + 1], w1) - start) * live[path[c0:c1]]
            # each candidate's uniform pair: its cell's first in the window, two per rank
            u = np.repeat(first[c0:c1] + 2 * (start - K[c0:c1]) - 2 * (np.cumsum(n) - n), n)
            u += 2 * np.arange(u.size)
            cell = np.repeat(np.arange(c0, c1), n)
            u_lam_bar = pool[u] * lam_bar
            decided = []
            for _, _, (_, lam, cw) in self.fixed_jumps:
                acc = np.flatnonzero(u_lam_bar < lam)
                # argmax(cw > t): the first cumulated weight above t, 0 when none is
                choice = np.searchsorted(cw, pool[u[acc] + 1] * lam, "right")
                choice[choice == cw.size] = 0
                decided.append((cell[acc], choice))
            return w1, decided

        w1 = 0  # the end of the decided window
        for j in range(self.n_steps):
            alive = ~frozen
            any_frozen = np.any(frozen)
            if not np.all(frozen):
                if counts is not None:
                    seen += counts[:, j]
                for v0, v1, form in self.drift_runs:
                    drift[v0 * B:v1 * B] = dt * form.drift(X[v0 * B:v1 * B])
                Xn = X + drift
                if Z is not None:
                    for v0, v1, form in self.diffusion_runs:
                        r = slice(v0 * B, v1 * B)
                        root[r] = _diffusion_root(form.diffusion(X[r]), X[r], alive[r])
                    z = np.broadcast_to(Z[:, j], (V, B, d)).reshape(V * B, d)
                    Xn = Xn + sqdt * np.einsum("nij,nj->ni", root, z)
                if any_frozen:
                    Xn = np.where(alive[:, None], Xn, X)
                jumped = np.zeros(V * B, dtype=bool)
                if counts is not None and self.fixed_jumps:
                    k, stop = S[j], S[j + 1]
                    while k < stop:  # more than once only in a step split by windows
                        if k == w1:
                            w1, decided = decide(k, ~frozen.reshape(V, B)[fv].all(axis=0))
                        for (v0, v1, (atoms, _, _)), (cell, choice) in zip(
                                self.fixed_jumps, decided):
                            a, b = np.searchsorted(cell, cut[j:j + 2])
                            # (row, rank) order: each vertex's rows in turn
                            hit = (np.arange(v0, v1)[:, None] * B + path[cell[a:b]]).ravel()
                            z = np.tile(atoms[choice[a:b]], (v1 - v0, 1))
                            if any_frozen:
                                keep = alive[hit]
                                hit, z = hit[keep], z[keep]
                            jump(hit, z)
                        k = min(stop, w1)
                if counts is not None and jv.size and cut[j] < cut[j + 1]:
                    # step j's cells on each varying vertex's live copy, in
                    # row order, rank r after rank r - 1
                    s = slice(cut[j], cut[j + 1])
                    crow = (jv[:, None] * B + path[s]).ravel()
                    live = alive[crow]
                    crow, cn = crow[live], np.tile(n_cand[s], jv.size)[live]
                    cf = np.tile(first[s], jv.size)[live]
                    for r in range(int(cn.max(initial=0))):
                        for v0, v1, form in self.jump_runs:
                            a, b = np.searchsorted(crow, (v0 * B, v1 * B))
                            sel = a + np.flatnonzero(cn[a:b] > r)
                            if sel.size:
                                thin(form, crow[sel], cf[sel] + 2 * r)
                # exits (standard mode): post-step membership; never re-enter
                newly = alive & ~mode.inside(Xn)
                if np.any(newly):
                    exit_time[newly] = (j + 1) * dt
                    freeze(newly)
                    events[0] += newly & ~jumped
                # clamp box
                out = alive & ~frozen & ~_across(np.logical_and, (Xn >= lo) & (Xn <= hi))
                if np.any(out):
                    flagged[out] = True
                    freeze(out)
                # |Xn - x0| as np.linalg.norm computes it; a frozen row's
                # distance is the one it had when it froze
                moved = Xn - x0
                np.maximum(running, np.sqrt(_across(np.add, moved * moved)), out=running)
                X = Xn
            if (j + 1) in snaps:
                rows_of(snaps[j + 1])[:] = running.reshape(V, B)
        freeze(~frozen)  # the rows live at the horizon
        rows_of(bundle.terminal)[:] = X.reshape(V, B, d)
        rows_of(bundle.running_sup)[:] = running.reshape(V, B)
        rows_of(bundle.exit_time)[:] = exit_time.reshape(V, B)
        rows_of(bundle.flagged)[:] = flagged.reshape(V, B)
        bundle.events += events.reshape(3, V, B).sum(axis=2).T


def simulate_paths(theta: AffineParameter | FiniteParameterSet, x0, cfg: SimConfig,
                   mode: GeneratorMode, snapshot_steps: tuple[int, ...] = (),
                   *, _stream: int = 0, _batch_paths: int = 0) -> PathBundle:
    """Paths of the law with theta fixed, from x0; for a parameter set, one
    sweep of its vertices' constant laws, in one bundle of V N rows (see
    PathBundle).  A diffusion that is not PSD or a negative jump weight at
    a state a live path visits raises CoefficientError: a constant-vertex
    law needs admissible coefficients at every such state, and it cannot
    mask the vertex per node the way the PIDE's sup does.  A jump
    intensity bound with no finite rate per step raises NonFiniteError.
    _stream = PILOT_STREAM draws the pilot sweep's stream (see _draw_batch);
    _batch_paths > 0 paths per batch replace _paths_per_batch(V)."""
    thetas = theta.vertices() if isinstance(theta, FiniteParameterSet) else [theta]
    sweep = _Sweep(thetas, x0, cfg, mode, snapshot_steps, _stream)
    P = _batch_paths or _paths_per_batch(len(thetas))
    D = max(P, BLOCK)  # paths per draw set: whole blocks, so no row is drawn twice
    for d0 in range(0, cfg.n_paths, D):
        sweep.step_draw_set(d0, min(d0 + D, cfg.n_paths), P)
    bundle = sweep.bundle
    # labelled after stepping, so the labels never add to a batch's peak memory
    bundle.seeds = np.tile(_path_seed_labels(cfg.seed, cfg.n_paths), len(thetas))
    return bundle


def _payoff_moments(payoff: TestFunction, terminal: np.ndarray) -> tuple[float, float]:
    vals = payoff.values(terminal)
    if np.all(vals == vals[0]):
        return float(vals[0]), 0.0
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(vals.shape[0]))
    return mean, se


def estimate_expectation(theta: AffineParameter, x0, payoff: TestFunction,
                         t: float, cfg: SimConfig,
                         mode: GeneratorMode) -> tuple[float, float]:
    """Sample mean and standard error of payoff(X_t) under one parameter."""
    bundle = simulate_paths(theta, x0, replace(cfg, horizon=t), mode)
    return _payoff_moments(payoff, bundle.terminal)


@dataclass
class LowerBoundResult:
    mean: float
    vertex: int
    se: float
    all_means: list[float]   # per vertex, on the pilot sweep when V > 1
    all_ses: list[float]
    bundle: PathBundle       # the winning vertex's own run of N paths
    pilot_paths: int         # paths per vertex of the pilot sweep; 0 when V = 1


def lower_bound_sublinear(theta_set: FiniteParameterSet, x0, payoff: TestFunction,
                          t: float, cfg: SimConfig,
                          mode: GeneratorMode) -> LowerBoundResult:
    """Best constant-parameter estimate over the vertex enumeration.  Every
    fixed-parameter law is feasible for the uncertainty set, so the mean of
    any vertex chosen without looking at the draws that estimate it is a
    lower bound in expectation for the worst-case expectation.

    With V > 1 vertices a pilot sweep of max(N // PILOT_SHARE, 1) paths
    per vertex, on the pilot stream (common random numbers across the
    vertices), picks the winner: the largest pilot mean, a tie to the first
    vertex, and a NaN mean wins only as vertex 0's, which no later mean
    displaces.  Then only the winner runs, on the base stream: N paths of
    its own simulate_paths, thinned at its own bound, give mean, se and
    bundle, which the pilot never saw, so the bound has no selection bias.
    all_means and all_ses are the pilot's.  With V = 1 there is no pilot.
    A vertex whose coefficients are not admissible at a state its paths
    visit raises CoefficientError (see simulate_paths), even where `solve`
    masks that vertex per node."""
    thetas = theta_set.vertices()
    V, cfg = len(thetas), replace(cfg, horizon=t)
    best, pilot_paths, means, ses = 0, 0, [], []
    if V > 1:
        pilot_paths = max(cfg.n_paths // PILOT_SHARE, 1)
        pilot = simulate_paths(theta_set, x0, replace(cfg, n_paths=pilot_paths), mode,
                               _stream=PILOT_STREAM)
        for k in range(V):
            mean, se = _payoff_moments(
                payoff, pilot.terminal[k * pilot_paths:(k + 1) * pilot_paths])
            means.append(mean)
            ses.append(se)
            if mean > means[best]:
                best = k
        del pilot  # released before the winner's run
    # stepped at the full sweep's paths per batch, which bounds a batch's
    # memory as the sweep would; the bytes do not depend on the batch size
    bundle = simulate_paths(thetas[best], x0, cfg, mode, _batch_paths=_paths_per_batch(V))
    mean, se = _payoff_moments(payoff, bundle.terminal)
    return LowerBoundResult(mean, best, se, means or [mean], ses or [se], bundle,
                            pilot_paths)


@dataclass
class MomentBoundReport:
    t_grid: list[float]
    moments: list[float]
    ratios: list[float]
    empirical_constant: float | None
    ratio_spread: float | None
    slope: float | None
    degenerate: bool


def moment_bound_report(theta: AffineParameter, x0, p: float, t_grid,
                        cfg: SimConfig, mode: GeneratorMode) -> MomentBoundReport:
    """Estimate m(t) = E[sup_{s<=t} |X_s - X_0|^p] on a small-time grid and
    fit it against (1 + |x0|)^p (t^p + t^(p/2)); every t must lie on the
    paths' step grid, steps of at most min(cfg.dt, min(t_grid) / 4)."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError("t_grid holds no time")
    if t_grid[-1] > 0.1 + 1e-12:
        raise ValueError("moment fit is a small-time check; keep max(t) <= 0.1")
    cfg = replace(cfg, dt=min(cfg.dt, t_grid[0] / 4.0), horizon=t_grid[-1])
    n_steps, dt = step_count(cfg.horizon, cfg.dt)
    steps = [grid_index(t, 0.0, dt, n_steps + 1) for t in t_grid]
    if None in steps:
        raise ValueError(f"t_grid time {t_grid[steps.index(None)]} is off the step grid")
    bundle = simulate_paths(theta, np.atleast_1d(x0), cfg, mode,
                            snapshot_steps=tuple(steps))
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    scale = (1.0 + float(np.linalg.norm(x0v))) ** p
    moments = [float(np.mean(bundle.sup_snapshots[j] ** p)) for j in steps]
    denoms = [scale * (t**p + t ** (p / 2.0)) for t in t_grid]
    ratios = [m / q for m, q in zip(moments, denoms)]
    if max(moments) <= 1e-300:
        return MomentBoundReport(t_grid, moments, ratios, None, None, None, True)
    pos = [r for r in ratios if r > 0]
    slope = float(
        np.polyfit(np.log(t_grid), np.log(np.maximum(moments, 1e-300)), 1)[0]
    )
    return MomentBoundReport(
        t_grid=t_grid,
        moments=moments,
        ratios=ratios,
        empirical_constant=max(ratios),
        ratio_spread=(max(pos) / min(pos)) if pos else None,
        slope=slope,
        degenerate=False,
    )


_CSV_BLOCK = 4096  # rows per chunk of write_chunks; bounds the writer's memory


def bundle_to_csv(bundle: PathBundle, path) -> None:
    """Rows path_index,seed,terminal,running_sup,exit_time (terminal columns
    expand per coordinate for d = 2); LF endings, every float C's %.17g, an
    empty exit_time for a path that never left.  Each block of rows is one
    item and one chunk of write_chunks: its terminal columns, running_sup
    and the exit times of the paths that left go through one format_17g
    pass."""
    d = bundle.terminal.shape[1]
    term_cols = ["terminal"] if d == 1 else [f"terminal{i+1}" for i in range(d)]
    header = ["path_index", "seed"] + term_cols + ["running_sup", "exit_time"]
    row = b"%d,%d," + b"%s," * (d + 1) + b"%s\n"
    starts = range(0, bundle.n_paths, _CSV_BLOCK)

    def block(k: int, cols) -> bytes:
        seeds, terminal, running_sup, exit_time = cols
        m = len(seeds)
        left = np.flatnonzero(~np.isnan(exit_time))
        text = format_17g(np.concatenate([terminal.T.ravel(), running_sup, exit_time[left]]))
        exits = [b""] * m
        for i, e in zip(left.tolist(), text[(d + 1) * m:]):
            exits[i] = e
        rows = zip(range(starts[k], starts[k] + m), seeds.tolist(),
                   *(text[c * m:(c + 1) * m] for c in range(d + 1)), exits)
        return b"".join(map(row.__mod__, rows))

    cols = (bundle.seeds, bundle.terminal, bundle.running_sup, bundle.exit_time)
    blocks = (tuple(c[b0:b0 + _CSV_BLOCK] for c in cols) for b0 in starts)
    write_chunks(path, (",".join(header) + "\n").encode(), block, blocks, len(starts))
