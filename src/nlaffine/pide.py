"""Explicit monotone finite-difference solver for the worst-case Kolmogorov
equation  d/dt v = sup over the parameter set of the affine generator,
with initial condition v(0, .) = payoff.

Scheme: forward Euler in time, v <- v + dt * max_k L_k v, marched by one
step iterator, _Operator.steps, which yields each layer as it is made.  Its
consumers keep what they read: solve stores every layer in a ValueSurface;
dpp_gap's restart keeps only its running layer; `nlaffine solve` hands each
layer to the surface.csv writers as it comes (March.write_csv) and keeps
only the two its restart check reads, at horizon - split and at the
horizon.  One discrete generator per vertex is written as coefficients
times difference stencils,

    L_k v(x) = sum_g C[g, k, x] * sum_{(o, w) in D_g} w * (v(x + o) - v(x)),

the same construction in one and two dimensions.  The stencils are upwind
first differences per axis and sign (carrying the drift and the central
diffusion share), the two diagonal pairs of the 2-D cross term, sign-adapted,
and the (bi)linear interpolation corners of each atom, weighted by the atom's
intensity.  The coefficients come from GeneratorMode.coefficients, the one
array coefficient form that the Monte Carlo stepper and the hypothesis gate
read as well; its drift already carries the compensator -sum_j w_j h(z_j),
so every jump weight stays nonnegative.  Outside the state space the form
vanishes, so the same update keeps those nodes' values: no separate freeze.
A state-free set (the same C at every node) stores one column of C per
(stencil, vertex), broadcast over the nodes: the same bits in less memory.

Monotonicity is checked on the assembled operator: C >= 0 on admissible
nodes (only a cross term stronger than the diagonal terms can break it), and
dt * rate <= cfl <= 1 with rate = sum_g C_g * mass(D_g).  Together they make
every weight of the update nonnegative, so payoff and set ordering and
sublinearity hold exactly.

Boundary policy is constant extension (offsets are clipped to the grid);
accuracy statements are made on an interior core, whose margin from the
boundary is the largest atom norm or 10 grid steps, whichever is more.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import pickle
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .generator import GeneratorMode, NoAdmissibleVertexError, TestFunction, admissible
from .params import CoefficientError, FiniteParameterSet, atom_norms


class CFLError(RuntimeError):
    pass


class NonFiniteError(RuntimeError):
    pass


def grid_tol(v: float) -> float:
    """How far a time or coordinate v may lie from a grid point it matches."""
    return 1e-9 * max(1.0, abs(v))


def grid_index(v: float, origin: float, step: float, count: int) -> int | None:
    """The j in [0, count) with origin + j * step within grid_tol(v) of v,
    or None; a zero step has the one point origin."""
    q = (v - origin) / (step or 1.0)
    j = int(round(q)) if abs(q) < count else -1
    ok = 0 <= j < count and abs(origin + j * step - v) <= grid_tol(v)
    return j if ok else None


def step_count(horizon: float, max_dt: float, floor: int = 0) -> tuple[int, float]:
    """(n_steps, dt) for the fewest steps, at least `floor`, no longer than
    max_dt, that cover [0, horizon]; horizon 0 takes no step.  A step that
    is not positive, a count that overflows or one that no array index can
    hold raises NonFiniteError."""
    ratio = horizon / max_dt if max_dt > 0 else math.inf
    if horizon and not ratio < math.inf:
        raise NonFiniteError(f"horizon {horizon!r} in steps of {max_dt!r}: too many to count")
    n = max(floor, 1, math.ceil(ratio - 1e-12)) if horizon else 0
    if n > np.iinfo(np.intp).max:
        why = "a floor of" if n == floor else f"horizon {horizon!r} in steps of {max_dt!r}:"
        raise NonFiniteError(f"{why} {n:.6g} steps, more than an array index can hold")
    return n, horizon / max(n, 1)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _digit_words() -> np.ndarray:
    """The four ASCII digits of every g < 10,000 as one uint32 word each,
    then the same words with the digits that end g in zeros NUL: words
    copied whole, so byte order does not matter.  Built at the first
    format_17g call, so that a command that writes no CSV does not."""
    ascii = np.arange(48, 58, dtype=np.uint8)
    words = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    kept = False  # a nonzero digit here or after
    for i in (3, 2, 1, 0):
        digit = ascii.reshape((10,) + (1,) * (3 - i))  # along the axis of digit i
        kept = kept | (digit != 48)
        words[0, ..., i] = digit
        words[1, ..., i] = digit * kept
    return words.view(np.uint32).ravel()


_POW10 = np.array([float(10 ** s) for s in range(23)])  # exact doubles
_POW5 = np.array([5 ** s for s in range(23)], dtype=np.uint64)
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)


def _round17(a: np.ndarray, mant: np.ndarray, ex: np.ndarray, E: np.ndarray) -> np.ndarray:
    """N = round_half_even(a * 10^(16 - E)) for a = mant * 2^(ex - 53),
    exactly.  The float estimate N0 is exact to a few units and even (it
    exceeds 2^53 wherever N has 17 digits); the rest, D / 2^k with
    D = mant * 5^s - N0 * 2^k and k = 53 - s - ex >= 1, is exact in
    wrapping uint64 arithmetic because |D| < 2^52, and exact as a double."""
    s = 16 - E
    k = 53 - s - ex
    N0 = np.rint(a * _POW10[s])
    D = (mant * _POW5[s] - (N0.astype(np.uint64) << k.astype(np.uint64))).view(np.int64)
    return N0.astype(np.int64) + np.rint(np.ldexp(D.astype(float), -k)).astype(np.int64)


def _digits17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, E, N) for the flat array v: fast marks 1e-4 <= |v| < 1e15,
    and there |v| rounds to N * 10^(E - 16) with 10^16 <= N < 10^17, so
    that E is the exponent %.17g prints.  E starts as floor(log10 |v|) and
    moves by one where N shows it was off."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0  # a stand-in: format_17g gives these to Python
    m, ex = np.frexp(a)
    mant = (m * 2.0 ** 53).astype(np.uint64)
    del m
    E = np.floor(np.log10(a)).astype(np.int32)
    N = _round17(a, mant, ex, E)
    off = np.flatnonzero((N >= 10 ** 17) | (N < 10 ** 16))
    while off.size:
        E[off] += np.where(N[off] >= 10 ** 17, 1, -1)
        N[off] = _round17(a[off], mant[off], ex[off], E[off])
        off = off[(N[off] >= 10 ** 17) | (N[off] < 10 ** 16)]
    return fast, E, N


def _ascii17(N: np.ndarray) -> np.ndarray:
    """The 17 digits of each N as an (n, 17) uint8 ASCII array, its
    trailing zeros NUL: d0, then four groups of four from the word table."""
    hi, lo = (half.astype(np.uint32) for half in np.divmod(N, 10 ** 8))
    d0, hi = np.divmod(hi, 10 ** 8)
    g1, g2 = np.divmod(hi, 10_000)
    g3, g4 = np.divmod(lo, 10_000)
    # group i takes the stripped word where every later group is 0
    table = _digit_words()
    words = np.empty((N.size, 5), dtype=np.uint32)
    words[:, 1] = table[g1 + 10_000 * ((lo == 0) & (g2 == 0))]
    words[:, 2] = table[g2 + 10_000 * (lo == 0)]
    words[:, 3] = table[g3 + 10_000 * (g4 == 0)]
    words[:, 4] = table[g4 + 10_000]
    digits = words.view(np.uint8)[:, 3:]
    digits[:, 0] = d0 + 48
    return digits


def _rows17(E: np.ndarray, sign: np.ndarray, N: np.ndarray) -> np.ndarray:
    """The fixed-notation text of sign * N * 10^(E - 16) for each row, as
    an S24 array: laid out in blocks of equal (E, sign) with slices,
    NUL-padded."""
    key = ((E + 4) * 2 + sign).astype(np.int16)  # E is -4 .. 14
    order = np.argsort(key, kind="stable")
    key = key[order]
    digits = _ascii17(N[order])
    out = np.zeros((N.size, 24), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for p, q in zip(starts, starts[1:] + [N.size]):
        e, s = divmod(int(key[p]), 2)
        e -= 4
        row, d = out[p:q], digits[p:q]
        if s:
            row[:, 0] = 45  # '-'
        if e >= 0:  # integer digits, a point unless no fraction is left, fraction
            np.maximum(d[:, :e + 1], 48, out=row[:, s:s + e + 1])
            row[:, s + e + 1] = (d[:, e + 1] != 0) * 46
            row[:, s + e + 2:s + 18] = d[:, e + 1:]
        else:  # 0.000 and the digits
            row[:, s:s + 1 - e] = _LEAD[:1 - e]
            row[:, s + 1 - e:s + 18 - e] = d
    rows = np.empty(N.size, dtype="S24")
    rows[order] = out.view("S24").ravel()
    return rows


def format_17g(values) -> list[bytes]:
    """[b"%.17g" % v for v in values], byte for byte, in one array pass.

    A finite v with 1e-4 <= |v| < 1e15 prints in fixed notation from its
    17 correctly rounded digits (_digits17, _rows17), read back as
    NUL-stripped bytes.  Every other value (zeros, subnormals, tiny, huge,
    inf and nan) takes Python's own formatting."""
    v = np.asarray(values, dtype=float).ravel()
    fast, E, N = _digits17(v)
    text = _rows17(E, np.signbit(v), N).tolist()
    for i in np.flatnonzero(~fast).tolist():
        text[i] = b"%.17g" % v[i]
    return text


def write_chunks(path, header: bytes, chunk, items, n: int) -> int:
    """Write header, then chunk(j, item) for the first n items of the
    iterable `items`, to path and return W, the number of processes that
    formatted the chunks: min(usable_cpus(), n), or 1 where os.fork is
    missing.

    The W - 1 writers are forked before the first item is taken, so the
    items may be made while the file is written, as a march makes its
    layers.  This process formats the chunks j = 0 mod W; every other item
    goes, pickled and length-prefixed, down the pipe of writer j mod W,
    which sends chunk(j, item) back the same way.  Each writer has at most
    one item in flight: this process receives and writes the chunks it is
    owed before it writes its own, so it has received a writer's chunk
    j - W before it sends that writer item j, and neither side waits on the
    other.  The file is written in chunk order, so its bytes do not depend
    on W.  The path is opened before any fork.  Every writer is reaped
    before this returns or raises; one that fails or sends short raises
    OSError.  Whatever is raised once the path is open, the partial file is
    removed."""
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(header)
            w = max(1, min(usable_cpus(), n)) if hasattr(os, "fork") else 1
            ends, pids = [], []  # per writer: this process's (send, receive) pipe ends
            try:
                for c in range(1, w):
                    down, up = os.pipe(), os.pipe()
                    ends.append((open(down[1], "wb"), open(up[0], "rb")))
                    # this process's copies of the writer's ends close once forked
                    with open(down[0], "rb") as inp, open(up[1], "wb") as out:
                        pid = os.fork()
                        if pid == 0:
                            _writer(inp, out, ends, chunk, range(c, n, w))
                    pids.append(pid)
                sent = []  # writers owing a chunk, in chunk order
                for j, item in zip(range(n), items):
                    if j % w:
                        _send(ends[j % w - 1][0], pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
                        sent.append(j % w)
                        continue
                    data = chunk(j, item)
                    for c in sent:
                        fh.write(_receive(ends[c - 1][1]))
                    sent.clear()
                    fh.write(data)
                for c in sent:
                    fh.write(_receive(ends[c - 1][1]))
            finally:
                for pair in ends:
                    for end in pair:  # a writer still reading or sending sees the pipe end
                        with contextlib.suppress(BrokenPipeError):  # unsent bytes of a dead writer
                            end.close()
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            if any(codes):
                raise OSError(f"writer processes of {path} exited with status {codes}")
    except BaseException:
        os.remove(path)  # what was written before the failure is no use
        raise
    return w


def _writer(inp, out, ends, chunk, js) -> None:
    """A forked writer's whole life: for j in js, receive item j from `inp`
    and send chunk(j, item) down `out`, or the errno and message of an
    exception; leave by os._exit, 1 on any exception, so that no atexit
    handler runs and no inherited buffer is flushed."""
    code = 1
    try:
        for pair in ends:  # this process's ends of its own pipes and earlier writers'
            for end in pair:
                end.close()
        for j in js:
            _send(out, chunk(j, pickle.loads(_receive(inp))))
        code = 0
    except BaseException as exc:  # write_chunks raises it as an OSError
        with contextlib.suppress(OSError):  # write_chunks may have stopped reading
            _send(out, pickle.dumps(exc.args if isinstance(exc, OSError) else (repr(exc),)), -1)
    finally:
        os._exit(code)


def _send(fh, data: bytes, sign: int = 1) -> None:
    """data, after its 8-byte length (negated for a writer's error), down a pipe."""
    fh.write((sign * len(data)).to_bytes(8, "little", signed=True))
    fh.write(data)
    fh.flush()


def _receive(reader) -> bytes:
    """The next length-prefixed message from a pipe; a writer's error is raised."""
    head = reader.read(8)
    size = int.from_bytes(head, "little", signed=True)
    data = reader.read(abs(size))
    if len(head) < 8 or len(data) < abs(size):
        raise OSError("a process at the other end of a writer pipe ended early")
    if size < 0:
        raise OSError(*pickle.loads(data))
    return data


class Grid:
    """Uniform rectilinear grid in one or two dimensions."""

    def __init__(self, lower: Sequence[float], upper: Sequence[float],
                 nodes: Sequence[int]):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        counts = np.atleast_1d(np.asarray(nodes, dtype=float))
        if not (lower.shape == upper.shape == counts.shape):
            raise ValueError("grid specs disagree on dimension")
        if lower.shape[0] not in (1, 2):
            raise ValueError("grids are supported in one and two dimensions")
        if not np.all(np.isfinite(lower) & np.isfinite(upper)):
            raise ValueError(f"grid bounds must be finite, got {lower.tolist()} .. "
                             f"{upper.tolist()}")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(upper - lower)):
                raise ValueError(f"grid spacing overflows: {lower.tolist()} .. "
                                 f"{upper.tolist()} spans more than the largest float")
        if not np.all(np.isfinite(counts) & (counts == np.round(counts))):
            raise ValueError(f"node counts must be integers, got {counts.tolist()}")
        nodes = counts.astype(int)
        if np.any(nodes < 10):
            raise ValueError("need at least 8 interior nodes per axis")
        if np.any(upper <= lower):
            raise ValueError("grid spacing must be positive")
        self.lower, self.upper = lower, upper
        self.shape = tuple(int(n) for n in nodes)
        self.dx = (upper - lower) / (nodes - 1)
        if not np.all(self.dx * self.dx > 0.0):  # the stencils divide by dx_i dx_j
            raise ValueError(f"grid spacing underflows: {self.dx.tolist()} squares to 0")
        self.axes = [
            lower[i] + self.dx[i] * np.arange(nodes[i]) for i in range(len(nodes))
        ]

    @classmethod
    def line(cls, lo: float, hi: float, n: int) -> "Grid":
        return cls([lo], [hi], [n])

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """All nodes as an (n_nodes, d) array, first axis slowest."""
        if self.dim == 1:
            return self.axes[0][:, None]
        X, Y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def node_index(self, x) -> tuple[int, ...]:
        x = np.asarray(x, dtype=float).ravel()
        idx = tuple(map(grid_index, x.tolist(), self.lower.tolist(), self.dx.tolist(),
                        self.shape))  # plain floats: numpy scalars are slower here
        if x.shape != (self.dim,) or None in idx:
            raise ValueError(f"{x} is not a node of the {self.dim}-D grid")
        return idx

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask (grid shape) of nodes at least `margin` from every
        boundary."""
        masks = [
            (ax >= self.lower[i] + margin - 1e-12)
            & (ax <= self.upper[i] - margin + 1e-12)
            for i, ax in enumerate(self.axes)
        ]
        if self.dim == 1:
            return masks[0]
        return masks[0][:, None] & masks[1][None, :]


@dataclass(frozen=True)
class SchemeConfig:
    cfl: float = 0.4                    # safety factor in (0, 1]
    dt: float | None = None             # explicit step; must satisfy the bound
    min_time_steps: int = 256           # accuracy floor for forward Euler

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl safety factor must lie in (0, 1]")
        if not (self.dt is None or self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        m = self.min_time_steps
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
            raise ValueError(f"min_time_steps must be an integer >= 0, got {m!r}")


@dataclass
class ProblemSpec:
    theta_set: FiniteParameterSet
    grid: Grid
    scheme: SchemeConfig
    operator: _Operator


@dataclass(eq=False)
class March:
    """A march set up over [0, horizon]: its problem, its n_steps steps of
    dt, and the set-up a surface records.  Layer j is time j * dt."""

    problem: ProblemSpec
    dt: float
    n_steps: int
    horizon: float
    payoff_name: str
    stable_dt: float
    r_jump: float  # the largest atom norm: the interior core's margin

    @property
    def grid(self) -> Grid:
        return self.problem.grid

    def steps(self, start: np.ndarray):
        """The n_steps steps from the flat layer `start`: _Operator.steps."""
        return self.problem.operator.steps(start, self.n_steps, self.dt)

    def restart(self, split: float, extra_margin: float = 0.0):
        """(j, mask): dpp_gap restarts from layer n_steps - j, at time
        horizon - split, and compares on the interior core `mask` (None for
        split 0, an empty check).  A split off the time grid or an empty core
        raises ValueError; neither needs a layer."""
        j = grid_index(split, 0.0, self.dt, self.n_steps + 1)
        if j is None:
            raise ValueError(f"split {split} is not aligned to the time grid")
        return j, (self.interior_mask(extra_margin) if j else None)

    def restart_gap(self, split: float, start: np.ndarray, end: np.ndarray,
                    mask: np.ndarray) -> tuple[float, int]:
        """March the operator again over [0, split] from the layer `start`
        at time horizon - split, by its own step count, and return the
        largest distance to the horizon layer `end` on `mask`, with that
        step count."""
        n_steps, dt = _n_steps(split, self.problem.scheme, self.stable_dt)
        for restarted, _ in self.problem.operator.steps(start.ravel(), n_steps, dt):
            pass
        return float(np.max(np.abs(restarted - end.ravel())[mask.ravel()])), n_steps

    def interior_mask(self, extra_margin: float = 0.0) -> np.ndarray:
        """The interior core: nodes at least max(r_jump, 10 dx) + extra_margin
        inside every face of the grid.  Raises ValueError when it is empty."""
        margin = max(self.r_jump, 10.0 * float(np.max(self.grid.dx))) + extra_margin
        mask = self.grid.interior_mask(margin)
        if not mask.any():
            raise ValueError(
                f"the interior core margin {margin:g} leaves no node of the grid "
                f"{self.grid.lower.tolist()} .. {self.grid.upper.tolist()}")
        return mask

    def write_csv(self, path, layers) -> int:
        """Write the n_steps + 1 flat layers taken from `layers` in time
        order as rows t,x1[,x2],v, 17 significant digits, LF line endings.
        The rows are time-major: one block of grid-node rows per layer, in
        stable node order (x1 outer, x2 inner), with the layer time j * dt
        nondecreasing down the file; `nlaffine compare` bisects the file on
        that order to read one layer.  Every float is C's %.17g.  The node
        coordinates are formatted once, into a template with a time and a
        value slot per node; each layer fills its time slot once and its
        values in one format_17g pass, and write_chunks spreads the layers
        over processes as they come.  Returns their number; the bytes do not
        depend on it."""
        fmt = b"%%s" + b"%.17g," * self.grid.dim + b"%%s\n"
        template = b"".join(fmt % tuple(p) for p in self.grid.points().tolist())
        cols = ["t", "x1", "v"] if self.grid.dim == 1 else ["t", "x1", "x2", "v"]

        def layer(j: int, v: np.ndarray) -> bytes:
            slots = [b"%.17g," % (j * self.dt)] * (2 * v.shape[0])
            slots[1::2] = format_17g(v)
            return template % tuple(slots)

        return write_chunks(path, ",".join(cols).encode() + b"\n", layer, layers,
                            self.n_steps + 1)


@dataclass(eq=False)
class ValueSurface(March):
    """A march run with every layer stored: v(t_j, x_i) on the grid,
    time-major, and the vertex attaining the max at each node in the last
    step."""

    values: np.ndarray
    argmax_last: np.ndarray

    def layer(self, t: float) -> np.ndarray:
        j = grid_index(t, 0.0, self.dt, self.n_steps + 1)
        if j is None:
            raise ValueError(f"time {t} is not aligned to the surface step {self.dt}")
        return self.values[j]

    def value_at(self, t: float, x) -> float:
        return float(self.layer(t)[self.grid.node_index(x)])

    def to_csv(self, path) -> int:
        """write_csv of the stored layers."""
        return self.write_csv(path, self.values.reshape(self.n_steps + 1, -1))


# ---------------------------------------------------------------------------
# the discrete generator: nonnegative coefficients times difference stencils


def _interpolation_stencil(offset: np.ndarray) -> tuple:
    """Multilinear interpolation at x + offset (in grid steps) as
    (corner offset, weight) pairs.  An offset is clipped at +-2**62 steps:
    every corner past that reaches the boundary node anyway, and the
    neighbour indices stay within int64."""
    offset = np.clip(offset, -2.0**62, 2.0**62)
    base = np.floor(offset)
    frac = offset - base
    out = []
    for corner in itertools.product((0, 1), repeat=offset.shape[0]):
        w = 1.0
        for f, c in zip(frac, corner):
            w *= f if c else 1.0 - f
        if w:
            out.append((tuple(int(b) + c for b, c in zip(base, corner)), float(w)))
    return tuple(out)


def _node_free(c: np.ndarray) -> bool:
    """Whether each row of c holds one value at every node, bit for bit (+0.0 is not -0.0)."""
    return bool((c.view(np.uint64) == c[:, :1].view(np.uint64)).all())


class _Operator:
    """L_k v(x) = sum_g C[g, k, x] (D_g v)(x) for every vertex k, where each
    stencil D_g v(x) = sum of weight * (v(clip(x + offset)) - v(x)) over its
    (offset, weight) pairs; clipping to the grid is constant extension.
    The clipped neighbours form one (offsets, n) index table, so apply
    reads every v(clip(x + offset)) of a step in one gather.

    Stencils: one per axis and sign (upwind drift plus the central diffusion
    share), the two diagonal pairs of every cross term, and one multilinear
    corner stencil per distinct atom.  Identical stencils share one row.
    Inadmissible (vertex, node) pairs get zero coefficients and a -inf
    penalty, so they never attain the max.  C, read-only (G, K, n), is a
    broadcast of one column if every row is bitwise the same at every node
    (state_free), else dense; pen is a broadcast of zeros if every pair is
    admissible."""

    def __init__(self, vertices, grid: Grid, mode: GeneratorMode):
        d, n, dx = grid.dim, grid.n_nodes, grid.dx
        eye = np.eye(d, dtype=int)
        stencils: dict = {}

        def register(stencil) -> int:
            return stencils.setdefault(stencil, len(stencils))

        def unit_weights(*offsets) -> tuple:
            return tuple((tuple(int(c) for c in o), 1.0) for o in offsets)

        for e in eye:
            register(unit_weights(e))
            register(unit_weights(-e))
        pairs = list(itertools.combinations(range(d), 2))
        for i, j in pairs:
            register(unit_weights(eye[i] + eye[j], -eye[i] - eye[j]))
            register(unit_weights(eye[i] - eye[j], eye[j] - eye[i]))
        forms = [mode.coefficients(theta) for theta in vertices]
        atom_rows = [[register(_interpolation_stencil(z / dx)) for z in f.atoms]
                     for f in forms]

        pts = grid.points()
        G, K = len(stencils), len(vertices)
        C = compact = np.empty((G, K, 1))  # a column per vertex until a vertex's rows vary
        adm = np.empty((K, n), dtype=bool)
        for k, (form, rows) in enumerate(zip(forms, atom_rows)):
            b, a, w = form.at(pts)
            adm[k] = admissible(a, w)
            c = np.zeros((G, n)) if C is compact else C[:, k]
            diag = 0.5 * np.clip(np.diagonal(a, axis1=1, axis2=2), 0.0, None) / dx**2
            for p, (i, j) in enumerate(pairs):
                cross = 0.5 * a[:, i, j] / (dx[i] * dx[j])
                diag[:, [i, j]] -= np.abs(cross)[:, None]
                c[2 * d + 2 * p] = np.maximum(cross, 0.0)
                c[2 * d + 2 * p + 1] = np.maximum(-cross, 0.0)
            for i in range(d):
                c[2 * i] = diag[:, i] + np.maximum(b[:, i], 0.0) / dx[i]
                c[2 * i + 1] = diag[:, i] + np.maximum(-b[:, i], 0.0) / dx[i]
            for g, wz in zip(rows, np.clip(w, 0.0, None).T):
                c[g] += wz
            c[:, ~adm[k]] = 0.0
            if np.any(c[:, adm[k]] < -1e-9):
                raise CoefficientError(
                    "cross-diffusion exceeds the diagonal terms; the 2-D "
                    "stencil cannot stay monotone on this problem"
                )
            if C is compact and _node_free(c):
                C[:, k] = c[:, :1]
            elif C is compact:  # the dense block, filled in place from here on
                C = np.zeros((G, K, n))
                C[:, :k], C[:, k] = compact[:, :k], c
        self.state_free = C is compact
        self.C = np.broadcast_to(C, (G, K, n))
        self.adm = adm
        self.pen = np.broadcast_to(0.0, (K, n)) if adm.all() else np.where(adm, 0.0, -np.inf)
        # dt * rate <= 1 keeps the update's weights nonnegative; summed as einsum sums a dense C
        mass = np.array([sum(w for _, w in s) for s in stencils])
        self.max_rate = float(np.max(sum(m * c for m, c in zip(mass, C))))

        offsets = sorted({o for s in stencils for o, _ in s})
        column = {o: t for t, o in enumerate(offsets)}
        self.S = np.zeros((len(stencils), len(offsets)))
        for g, s in enumerate(stencils):
            for o, w in s:
                self.S[g, column[o]] += w
        idx = np.indices(grid.shape).reshape(d, n)
        top = np.array(grid.shape)[:, None] - 1
        # (offsets, n) np.intp flat indices, each inside the grid: take's
        # mode="clip" then moves none, and only spares numpy a bounds buffer
        self.nbr = np.stack([
            np.ravel_multi_index(np.clip(idx + np.array(o)[:, None], 0, top), grid.shape)
            for o in offsets
        ])
        # per-step buffers, reused so that a march allocates only its layers:
        # v(x + offset) - v(x), each stencil's sum of those, and apply's result
        self.diff = np.empty(self.nbr.shape)
        self.stencil_sums = np.empty((len(stencils), n))
        self.inc = np.empty((K, n))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(L_k v)(x) + pen for every vertex k and node x, shape (K, n), in
        a buffer that the next call overwrites."""
        v.take(self.nbr, out=self.diff, mode="clip")
        self.diff -= v
        np.matmul(self.S, self.diff, out=self.stencil_sums)
        np.einsum("gkn,gn->kn", self.C, self.stencil_sums, out=self.inc)
        self.inc += self.pen
        return self.inc

    def steps(self, v: np.ndarray, n_steps: int, dt: float):
        """n_steps explicit steps v <- v + dt * max_k L_k v from the flat
        layer v, one update at every node (outside the state space every
        coefficient is 0, so a node keeps its value).  Yields each new layer,
        a fresh array, with its step's (K, n) increments from apply, which
        the next step overwrites."""
        for step in range(1, n_steps + 1):
            inc = self.apply(v)
            new = inc.max(axis=0)  # new = v + dt * max_k, bit for bit
            new *= dt
            new += v
            if not np.isfinite(new).all():
                raise NonFiniteError(f"non-finite value produced at step {step}")
            v = new
            yield v, inc


def default_jump_radius(theta_set: FiniteParameterSet) -> float:
    norms = atom_norms(m for theta in theta_set.vertices() for m in theta.nu)
    return float(norms.max()) if norms.size else 0.0


def _n_steps(horizon: float, scheme: SchemeConfig,
             stable_dt: float) -> tuple[int, float]:
    """(n_steps, dt) of a march over [0, horizon]: steps of at most scheme.dt,
    or at least scheme.min_time_steps steps of at most stable_dt."""
    if scheme.dt is not None:
        return step_count(horizon, scheme.dt)
    return step_count(horizon, stable_dt, scheme.min_time_steps)


def _prepare(theta_set: FiniteParameterSet, grid: Grid, payoff: TestFunction,
             horizon: float, mode: GeneratorMode,
             scheme: SchemeConfig | None) -> tuple[March, np.ndarray]:
    """Everything `solve` does before its first step: the operator, the
    admissibility cover, the rate and CFL checks and the step count, as a
    March, with the flat payoff layer to march from."""
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon!r}")
    scheme = scheme or SchemeConfig()
    if theta_set.dim != grid.dim:
        raise ValueError(f"a grid of dimension {grid.dim} for parameters of "
                         f"dimension {theta_set.dim}")
    if not mode.is_hat and mode.space.dim != grid.dim:
        raise ValueError("state space and grid dimensions differ")

    op = _Operator(theta_set.vertices(), grid, mode)
    uncovered = ~np.any(op.adm, axis=0)
    if np.any(uncovered):
        raise NoAdmissibleVertexError(
            f"no admissible vertex at state {grid.points()[uncovered][0]}")

    max_rate = op.max_rate
    if not math.isfinite(max_rate):
        raise NonFiniteError(f"the operator's total outflow rate is {max_rate}: "
                             f"the coefficients overflow on the grid")
    stable_dt = scheme.cfl / max_rate if max_rate > 0 else math.inf
    if scheme.dt is not None and scheme.dt > stable_dt * (1 + 1e-12):
        raise CFLError(
            f"requested dt {scheme.dt} violates the stability bound "
            f"{stable_dt:.6g} (cfl {scheme.cfl}, max rate {max_rate:.6g})"
        )
    n_steps, dt = _n_steps(horizon, scheme, stable_dt)
    start = np.empty(grid.n_nodes)
    start[:] = payoff.values(grid.points())
    if not np.all(np.isfinite(start)):
        raise NonFiniteError("payoff is not finite on the grid")
    return March(ProblemSpec(theta_set, grid, scheme, op), dt, n_steps, horizon,
                 payoff.name, stable_dt, default_jump_radius(theta_set)), start


def solve(theta_set: FiniteParameterSet, grid: Grid, payoff: TestFunction,
          horizon: float, mode: GeneratorMode,
          scheme: SchemeConfig | None = None) -> ValueSurface:
    """March the explicit scheme from the payoff to the horizon and store
    every layer.

    The step satisfies  dt * rate <= cfl  at every admissible node/vertex
    pair, where rate = sum_g C_g * mass(D_g) is the total outflow of the
    operator; with C >= 0 this keeps the update monotone.
    """
    march, start = _prepare(theta_set, grid, payoff, horizon, mode, scheme)
    values = np.empty((march.n_steps + 1, grid.n_nodes))
    values[0] = start
    inc = np.zeros((1, grid.n_nodes))  # a zero-step horizon reads vertex 0
    for j, (layer, inc) in enumerate(march.steps(start), 1):
        values[j] = layer
    return ValueSurface(**vars(march),
                        values=values.reshape((march.n_steps + 1,) + grid.shape),
                        argmax_last=np.argmax(inc, axis=0).reshape(grid.shape))


def dpp_gap(surface: ValueSurface, split: float,
            extra_margin: float = 0.0) -> float:
    """Restart consistency: march the surface's operator again over
    [0, split] from the stored layer at time (horizon - split) and compare
    with the stored terminal layer on the interior core.  The restart takes
    its own step count by the rule `solve` uses, so for 0 < split < horizon
    this is a genuine two-stage versus one-stage check; split = horizon
    reproduces the identical run and split = 0 is empty.  A split that is
    not a time of the surface's grid on [0, horizon], or an empty interior
    core, raises ValueError.
    """
    j, mask = surface.restart(split, extra_margin)
    if not j:
        return 0.0
    return surface.restart_gap(split, surface.values[surface.n_steps - j],
                               surface.values[-1], mask)[0]


@dataclass
class HolderReport:
    exponent: float | None
    residual: float | None
    flat: bool
    n_points: int
    deltas: list = field(default_factory=list)
    diffs: list = field(default_factory=list)


def holder_exponent(surface: ValueSurface, x) -> HolderReport:
    """Least-squares slope of log |v(delta, x) - v(0, x)| against log delta
    over dyadic deltas at the grid node x.  Deltas below 8 time steps are
    excluded (they probe the discretisation, not the solution)."""
    if surface.n_steps < 10:
        raise ValueError("need at least 10 time nodes")
    series = surface.values[(slice(None),) + surface.grid.node_index(x)]
    js = []
    j = surface.n_steps
    while j >= 8:
        js.append(j)
        j //= 2
    deltas = np.array([j * surface.dt for j in js])
    diffs = np.array([abs(series[j] - series[0]) for j in js])
    keep = diffs > 1e-12
    if not np.any(keep):
        return HolderReport(None, None, True, 0)
    ld = np.log(deltas[keep])
    lv = np.log(diffs[keep])
    if ld.shape[0] < 2:
        return HolderReport(None, None, True, int(ld.shape[0]))
    coef, res, *_ = np.polyfit(ld, lv, 1, full=True)
    residual = float(res[0]) if len(res) else 0.0
    return HolderReport(
        exponent=float(coef[0]),
        residual=residual,
        flat=False,
        n_points=int(ld.shape[0]),
        deltas=deltas[keep].tolist(),
        diffs=diffs[keep].tolist(),
    )
