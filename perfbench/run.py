"""Benchmark for nlaffine: three closed-loop workloads, each checked for
correct output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One parent process runs one child process at a time (see child.py), so at
most one command or problem is in flight.  Workloads:

- readme_cp1d: the README compound-Poisson config through
  solve --dpp-split 0.5, simulate, check, compare; one fresh process per
  command.  Monte Carlo and output writers dominate.
- hat_box2d: a 2-D hat-mode coefficient box (8 vertices, two off-grid jump
  atoms) through the same four commands with --dpp-split 0.25.  The 2-D
  march, the uniqueness gate and a 52 MB surface.csv dominate.
- battery_small: 24 seeded random 1-D problems through the library API in
  one process (battery.py).  Per-call set-up dominates.

BENCHMARK.json registers hat_box2d and battery_small only.  readme_cp1d's
check and compare calls last 0.1-0.25 s, so each is a point reading of a
host whose speed can swing by half for tens of seconds; its run values
spread too far for a regression gate.  It stays runnable by name.

With --trace 0 the run measures for --seconds and prints the end-to-end
metrics as means over every sample in the run (see report).  A CLI run
runs the four commands once, then repeats single commands on their
outputs for the rest of the run, each time the one with the fewest
samples (see CliWorkload.run_pass), and checks what each repetition
writes.  total_s sums the four commands' mean process times, spawn to
exit; setup_s is the mean per-process set-up times the processes in one
chain (topped up with set-up probes to at least eight samples).  A battery run repeats
whole passes.  With --trace 1 it runs one untraced pass and two traced
passes, requires the traced passes to give identical counts, and prints
the per-layer metrics and the tracing overhead.  --workload all does both
for every workload.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  Every check is one attempted
operation; a failed check is a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
DEFAULT_SEED = 2024
DEFAULT_SECONDS = 60
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 8
# A call longer than this averages over the host's swings in speed; a
# shorter one is a point sample.
SAMPLE_SPAN_S = 2.0
TRACED_PASSES = 2

END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("simulate_s", "s"),
    ("check_s", "s"),
    ("compare_s", "s"),
    ("total_s", "s"),
    ("solve_peak_rss_mb", "MB"),
    ("simulate_peak_rss_mb", "MB"),
    ("compare_peak_rss_mb", "MB"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("cli.solve.self_s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.check.self_s", "s"),
    ("cli.compare.self_s", "s"),
    ("config.load_s", "s"),
    ("pide.solve.calls", "count"),
    ("pide.solve_s", "s"),
    ("pide.node_steps", "count"),
    ("pide.node_steps_per_s", "1/s"),
    ("pide.to_csv_s", "s"),
    ("pide.surface_bytes", "B"),
    ("pide.to_csv_MBps", "MB/s"),
    ("pide.dpp_gap_s", "s"),
    ("pide.holder_s", "s"),
    ("pide.values_bytes", "B"),
    ("montecarlo.simulate_paths.calls", "count"),
    ("montecarlo.simulate_paths_s", "s"),
    ("montecarlo.path_steps", "count"),
    ("montecarlo.path_steps_per_s", "1/s"),
    ("montecarlo.sweep_ratio", "ratio"),
    ("montecarlo.estimate_s", "s"),
    ("montecarlo.lower_bound_s", "s"),
    ("montecarlo.bundle_to_csv_s", "s"),
    ("montecarlo.bundle_bytes", "B"),
    ("conditions.uniqueness_gate.calls", "count"),
    ("conditions.uniqueness_gate_s", "s"),
    ("conditions.comparison_s", "s"),
    ("conditions.samples", "count"),
    ("params.check_coefficient_bounds.calls", "count"),
    ("params.check_coefficient_bounds_s", "s"),
    ("generator.sqrt_diffusion_lipschitz_s", "s"),
    ("payoffs.value.calls", "count"),
    ("trace.overhead_frac", "ratio"),
]
UNITS = dict(END_TO_END + PER_LAYER)
COMMANDS = ("solve", "simulate", "check", "compare")


class Ops:
    """Checks made so far: each is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def spawn(job: dict, tmp: str) -> dict:
    """Run one child to completion; returns its record plus `setup_s`, the
    time from spawn until the measured call was entered."""
    fd, job_path = tempfile.mkstemp(suffix=".json", dir=tmp)
    job["record"] = job_path + ".out"
    with os.fdopen(fd, "w") as fh:
        json.dump(job, fh)
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD, job_path], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ended = time.monotonic()
    if proc.returncode != 0 or not os.path.exists(job["record"]):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {job}")
    with open(job["record"]) as fh:
        record = json.load(fh)
    if record["code"] != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    record["setup_s"] = record["t_entry"] - spawned
    record["call_s"] = record["t_exit"] - record["t_entry"]
    record["wall_s"] = ended - spawned
    return record


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def last_layer(path: str, n_nodes: int) -> list[list[float]]:
    """The last n_nodes rows of a surface.csv, i.e. its final time layer,
    read from the end of the file."""
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(0, size - 200 * n_nodes))
        lines = fh.read().splitlines()[-n_nodes:]
    rows = [[float(v) for v in line.split(b",")] for line in lines]
    if len(rows) != n_nodes or len({r[0] for r in rows}) != 1:
        raise ValueError(f"{path}: no complete final layer of {n_nodes} rows")
    return rows


def flush(directory: str) -> None:
    """fsync every file in `directory`, so that the kernel does not write
    them back while a later command is timed."""
    for entry in os.scandir(directory):
        if entry.is_file():
            fd = os.open(entry.path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# workloads


def poisson_capped_mean(lam: float, cap: int, terms: int = 31) -> float:
    return sum(math.exp(-lam) * lam**n / math.factorial(n) * min(n, cap)
               for n in range(terms))


README_CONFIG = {
    "dimension": 1,
    "parameter_set": {"kind": "example", "name": "compound_poisson",
                      "lambda": [0.5, 1.0], "measures": [[[1.0, 1.0]]]},
    "state_space": {"kind": "full"},
    "mode": "standard",
    "payoff": {"name": "min_cap", "c": 2.0},
    "grid": {"lower": [-5.0], "upper": [10.0], "nodes": [601]},
    "horizon": 1.0,
    "scheme": {"cfl": 0.4, "min_time_steps": 512},
    "sim": {"dt": 0.05, "paths": 100000, "seed": 7, "x0": [0.0]},
    "output_dir": "out",
}

HAT_ATOM = [0.37, -0.61]
HAT_WEIGHT = 0.25
_zero2 = [[0.0, 0.0], [0.0, 0.0]]
HAT_BOX_CONFIG = {
    "dimension": 2,
    "parameter_set": {
        "kind": "box",
        "beta_lo": [[0.0, 0.0]] * 3,
        "beta_hi": [[0.0, 0.0]] * 3,
        "alpha_lo": [[[0.25, -0.1], [-0.1, 0.25]], _zero2, _zero2],
        "alpha_hi": [[[1.0, 0.1], [0.1, 1.0]], _zero2, _zero2],
        "nu_tuples": [[[[HAT_ATOM, HAT_WEIGHT], [[-z for z in HAT_ATOM], HAT_WEIGHT]],
                       [], []]],
    },
    "mode": "hat",
    "payoff": {"name": "square"},
    "grid": {"lower": [-6.0, -6.0], "upper": [6.0, 6.0], "nodes": [81, 81]},
    "horizon": 0.5,
    "scheme": {"cfl": 0.4, "min_time_steps": 128},
    "sim": {"dt": 0.05, "paths": 10000, "seed": 7, "x0": [0.0, 0.0]},
}


def check_readme(out: str, ops: Ops) -> None:
    oracle = poisson_capped_mean(1.0, 2)
    layer = last_layer(os.path.join(out, "surface.csv"), 601)
    v0 = min(layer, key=lambda r: abs(r[1]))[-1]
    ops.check("readme_cp1d: |v(1, 0) - oracle| <= 5e-3", abs(v0 - oracle) <= 5e-3)


def check_hat_box(out: str, ops: Ops) -> None:
    # worst case of |x|^2: largest trace of alpha_0 plus the jump second moment
    shift = 0.5 * (2.0 + 2.0 * HAT_WEIGHT * sum(z * z for z in HAT_ATOM))
    layer = last_layer(os.path.join(out, "surface.csv"), 81 * 81)
    err = max(abs(v - (x1 * x1 + x2 * x2 + shift))
              for _, x1, x2, v in layer if max(abs(x1), abs(x2)) <= 3.0)
    ops.check("hat_box2d: max |v(0.5, x) - oracle| <= 1e-2 on |x| <= 3", err <= 1e-2)
    ops.check("hat_box2d: uniqueness certified",
              read_json(os.path.join(out, "meta.json"))["uniqueness_certified"] is True)


class CliWorkload:
    """The four CLI commands on one config, one fresh process each."""

    processes = len(COMMANDS)

    def __init__(self, name, config, split, check):
        self.name, self.config, self.split, self._check = name, config, split, check

    def run_pass(self, seed, trace, ops, hashes, tmp, deadline=None):
        """solve, simulate, check, compare once; then, given a `deadline`,
        repeat single commands on the same output directory until it: each
        time the command with the fewest samples that still fits.  A call
        counts as call_s / SAMPLE_SPAN_S samples, at least one, so short
        commands get more samples than long ones, spread over the run."""
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(self.config, fh)
        out = os.path.join(tmp, "out")
        argvs = {
            "solve": ["solve", "--config", cfg_path, "--out", out,
                      "--dpp-split", str(self.split)],
            "simulate": ["simulate", "--config", cfg_path, "--out", out,
                         "--seed", str(seed)],
            "check": ["check", "--config", cfg_path, "--out", out],
            "compare": ["compare", "--surface", os.path.join(out, "surface.csv"),
                        "--estimate", os.path.join(out, "estimate.json")],
        }

        runs = {cmd: [] for cmd in COMMANDS}

        def run(cmd):
            record = spawn({"kind": "cli", "argv": argvs[cmd], "trace": trace}, tmp)
            if os.path.isdir(out):
                flush(out)
            ops.check(f"{self.name}: {cmd} exits 0", record["code"] == 0)
            if record["code"] == 0:
                self._check_outputs(cmd, out, ops, hashes)
            runs[cmd].append(record)
            return record["code"] == 0

        def samples(cmd):
            span = statistics.median(r["call_s"] for r in runs[cmd])
            return len(runs[cmd]) * max(1.0, span / SAMPLE_SPAN_S)

        ok = all([run(cmd) for cmd in COMMANDS])
        while ok and deadline is not None:
            fits = [cmd for cmd in COMMANDS
                    if time.monotonic() + runs[cmd][-1]["wall_s"] <= deadline]
            if not fits:
                break
            ok = run(min(fits, key=samples))

        records = [r for cmd in COMMANDS for r in runs[cmd]]
        return {
            "setup": [r["setup_s"] for r in records],
            "e2e": {
                **{f"{cmd}_s": [r["call_s"] for r in runs[cmd]] for cmd in COMMANDS},
                **{f"{cmd}_peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in runs[cmd]]
                   for cmd in ("solve", "simulate", "compare")},
                # one solve-to-compare chain: each command's mean process
                # time, spawn to exit, so process starts count
                "total_s": [sum(statistics.fmean(r["wall_s"] for r in runs[cmd])
                                for cmd in COMMANDS)],
                "peak_rss_mb": [max(r["maxrss_kb"] for r in records) / 1024.0],
            },
            "trace": [r["trace"] for r in records] if trace else [],
        }

    def _check_outputs(self, cmd, out, ops, hashes):
        """The checks on what `cmd` just wrote."""
        if cmd == "solve":
            self._check(out, ops)
            gap = read_json(os.path.join(out, "dpp.json"))["gap"]
            ops.check(f"{self.name}: dpp gap <= 5e-3", gap <= 5e-3)
        elif cmd == "compare":
            ops.check(f"{self.name}: compare ordering ok",
                      read_json(os.path.join(out, "comparison.json"))["ordering_ok"] is True)
        name = {"solve": "surface.csv", "simulate": "bundle.csv"}.get(cmd)
        if name is not None:
            digest = sha256(os.path.join(out, name))
            if name in hashes:
                ops.check(f"{self.name}: {name} identical across repetitions",
                          digest == hashes[name])
            hashes.setdefault(name, digest)


class BatteryWorkload:
    """battery.py in one fresh process.  Its phases stand in for the
    commands: solve = top-level solve calls, check = dpp_gap and
    holder_exponent, simulate = lower_bound_sublinear, compare = the
    ordering and bracket checks; phase peak RSS is the process's peak when
    the phase last ran."""

    name = "battery_small"
    processes = 1

    def run_pass(self, seed, trace, ops, hashes, tmp, deadline=None):
        record = spawn({"kind": "battery", "seed": seed, "trace": trace}, tmp)
        for name, ok in record["checks"]:
            ops.check(f"{self.name}: {name}", ok)
        phase_s, rss_kb = record["phase_s"], record["phase_rss_kb"]
        return {
            "setup": [record["setup_s"]],
            "e2e": {
                **{f"{phase}_s": [phase_s[phase]] for phase in COMMANDS},
                **{f"{phase}_peak_rss_mb": [rss_kb[phase] / 1024.0]
                   for phase in ("solve", "simulate", "compare")},
                "total_s": [record["wall_s"]],
                "peak_rss_mb": [record["maxrss_kb"] / 1024.0],
            },
            "trace": [record["trace"]] if trace else [],
        }


WORKLOADS = {
    "readme_cp1d": CliWorkload("readme_cp1d", README_CONFIG, 0.5, check_readme),
    "hat_box2d": CliWorkload("hat_box2d", HAT_BOX_CONFIG, 0.25, check_hat_box),
    "battery_small": BatteryWorkload(),
}


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(summaries: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the counts that must repeat
    exactly between passes."""
    spans = defaultdict(lambda: [0, 0.0])
    counts = defaultdict(int)
    for summary in summaries:
        for name, (calls, self_s) in summary["spans"].items():
            spans[name][0] += calls
            spans[name][1] += self_s
        for name, value in summary["counts"].items():
            counts[name] += value

    def calls(name):
        return spans[name][0] if name in spans else 0

    def self_s(name):
        return spans[name][1] if name in spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"cli.{cmd}.self_s": self_s(f"cli.{cmd}") for cmd in COMMANDS}
    m["config.load_s"] = sum(s for name, (_, s) in spans.items()
                             if name.startswith("config."))
    m["pide.solve.calls"] = calls("pide.solve")
    m["pide.solve_s"] = self_s("pide.solve")
    m["pide.node_steps"] = counts["pide.node_steps"]
    m["pide.node_steps_per_s"] = ratio(m["pide.node_steps"], m["pide.solve_s"])
    m["pide.to_csv_s"] = self_s("pide.to_csv")
    m["pide.surface_bytes"] = counts["pide.surface_bytes"]
    m["pide.to_csv_MBps"] = ratio(m["pide.surface_bytes"] / 1e6, m["pide.to_csv_s"])
    m["pide.dpp_gap_s"] = self_s("pide.dpp_gap")
    m["pide.holder_s"] = self_s("pide.holder_exponent")
    m["pide.values_bytes"] = counts["pide.values_bytes"]
    m["montecarlo.simulate_paths.calls"] = calls("montecarlo.simulate_paths")
    m["montecarlo.simulate_paths_s"] = self_s("montecarlo.simulate_paths")
    m["montecarlo.path_steps"] = counts["montecarlo.path_steps"]
    m["montecarlo.path_steps_per_s"] = ratio(m["montecarlo.path_steps"],
                                             m["montecarlo.simulate_paths_s"])
    m["montecarlo.sweep_ratio"] = ratio(m["montecarlo.simulate_paths.calls"],
                                        calls("montecarlo.estimate_expectation"))
    m["montecarlo.estimate_s"] = self_s("montecarlo.estimate_expectation")
    m["montecarlo.lower_bound_s"] = self_s("montecarlo.lower_bound_sublinear")
    m["montecarlo.bundle_to_csv_s"] = self_s("montecarlo.bundle_to_csv")
    m["montecarlo.bundle_bytes"] = counts["montecarlo.bundle_bytes"]
    m["conditions.uniqueness_gate.calls"] = calls("conditions.uniqueness_gate")
    m["conditions.uniqueness_gate_s"] = self_s("conditions.uniqueness_gate")
    m["conditions.comparison_s"] = self_s("conditions.check_comparison_conditions")
    m["conditions.samples"] = counts["conditions.samples"]
    m["params.check_coefficient_bounds.calls"] = calls("params.check_coefficient_bounds")
    m["params.check_coefficient_bounds_s"] = self_s("params.check_coefficient_bounds")
    m["generator.sqrt_diffusion_lipschitz_s"] = self_s("generator.sqrt_diffusion_lipschitz")
    m["payoffs.value.calls"] = counts["payoffs.value.calls"]
    exact = {"counts": dict(sorted(counts.items())),
             "calls": {name: c for name, (c, _) in sorted(spans.items())}}
    return m, exact


def upper_percentile(samples: list[float]):
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99):
        if len(samples) * (100 - p) / 100 >= 10:
            best = (f"p{p}", statistics.quantiles(samples, n=100)[p - 1])
    return best


def measure(workload, seed: int, seconds: float, trace: bool, ops: Ops) -> dict:
    """Run the passes of one invocation; returns {metric: samples}."""
    hashes = {}
    started = time.monotonic()

    def one_pass(traced, deadline=None):
        tmp = tempfile.mkdtemp(dir=WORK)
        try:
            return workload.run_pass(seed, traced, ops, hashes, tmp, deadline)
        finally:
            shutil.rmtree(tmp)

    if trace:
        untraced = one_pass(False)
        traced = [one_pass(True) for _ in range(TRACED_PASSES)]
        per_pass = [layer_metrics(p["trace"]) for p in traced]
        for _, exact in per_pass[1:]:
            if exact != per_pass[0][1]:
                raise RuntimeError(
                    "traced passes disagree on counts:\n"
                    f"{json.dumps(per_pass[0][1])}\n{json.dumps(exact)}")
        metrics = {name: [m[name] for m, _ in per_pass] for name in per_pass[0][0]}
        metrics["trace.overhead_frac"] = [
            p["e2e"]["total_s"][0] / untraced["e2e"]["total_s"][0] - 1.0 for p in traced]
        return metrics

    deadline = started + seconds
    passes = []
    while True:
        passes.append(one_pass(False, deadline))
        if time.monotonic() + passes[-1]["e2e"]["total_s"][0] > deadline:
            break
    setup = [s for p in passes for s in p["setup"]]
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(spawn({"kind": "probe", "trace": False}, tmp)["setup_s"])
    finally:
        shutil.rmtree(tmp)
    metrics = {"setup_s": [workload.processes * s for s in setup]}
    metrics.update({name: [v for p in passes for v in p["e2e"][name]]
                    for name, _ in END_TO_END[1:]})
    return metrics


# ---------------------------------------------------------------------------
# provenance and report


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {var: os.environ.get(var, "unset") for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
    }


def report(title: str, metrics: dict) -> dict:
    """Print each metric's mean, median, highest well-sampled percentile and
    sample count; the mean is the value reported.  Samples are short
    readings of a host whose speed swings by a quarter from second to
    second, and over 13 runs of hat_box2d on a 2-vCPU VM their mean spread
    less than their median (compare_s: interquartile range 0.18 of the
    median against 0.27)."""
    print(title)
    print(f"  {'metric':<40} {'mean':>14} {'median':>14} {'upper':>20} {'n':>4}  unit")
    out = {}
    for name, samples in metrics.items():
        value = statistics.fmean(samples)
        upper = upper_percentile(samples)
        upper_text = f"{upper[0]} {upper[1]:.6g}" if upper else "-"
        print(f"  {name:<40} {value:>14.6g} {statistics.median(samples):>14.6g} "
              f"{upper_text:>20} {len(samples):>4}  {UNITS[name]}")
        out[name] = {"value": value, "unit": UNITS[name]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nlaffine", "__init__.py")):
        print(f"no nlaffine sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    ops = Ops()
    metrics = {}
    try:
        if args.workload == "all":
            for name, workload in WORKLOADS.items():
                for trace in (False, True):
                    part = report(f"{name} ({'traced' if trace else 'untraced'})",
                                  measure(workload, args.seed, args.seconds, trace, ops))
                    metrics.update({f"{name}.{k}": v for k, v in part.items()})
        else:
            metrics = report(
                f"{args.workload} ({'traced' if args.trace else 'untraced'})",
                measure(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), ops))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    print(f"checks: {ops.attempted} attempted, {len(ops.failures)} failed")
    print(json.dumps({"correct": not ops.failures, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
