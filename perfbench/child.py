"""One benchmark child process: a CLI command, a battery pass, or a set-up
probe.

    python3 perfbench/child.py JOB.json

JOB.json names the kind, its arguments, whether to trace, and the file the
child writes its record to: when `cli.main` was entered (or the battery's
first call made) and left, the command's exit code, the process's peak RSS
from its own rusage, and the trace summary.  The parent times the spawn, so
set-up is interpreter start plus imports.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, SRC)
    import nlaffine
    import nlaffine.cli

    if not os.path.abspath(nlaffine.__file__).startswith(SRC + os.sep):
        print(f"nlaffine was imported from {nlaffine.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    record = {}
    if job["kind"] == "cli":
        record["t_entry"] = time.monotonic()
        record["code"] = nlaffine.cli.main(job["argv"])
    elif job["kind"] == "battery":
        import battery

        wrap_payoff = tracer.count_values if tracer else (lambda f: f)
        record["t_entry"] = time.monotonic()
        record.update(battery.run(job["seed"], wrap_payoff))
        record["code"] = 0
    else:  # set-up probe
        record["t_entry"] = time.monotonic()
        record["code"] = 0
    record["t_exit"] = time.monotonic()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(job["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
