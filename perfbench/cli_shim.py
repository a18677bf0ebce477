"""Run one traced `quivergrass.cli` invocation in a fresh interpreter.

Usage: PYTHONPATH=src python3 perfbench/cli_shim.py <verb> [args...]

Imports the command line, installs the tracer, calls `quivergrass.cli.main`
with the arguments, and appends one line to stderr: the trace tag followed
by this invocation's per-layer metrics as JSON. When PERFBENCH_SPAWN holds
the parent's monotonic clock reading at spawn time, the metrics include the
start-up time up to the import of `quivergrass.cli`.
"""

import time  # isort: skip

import quivergrass.cli  # isort: skip

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import TRACE_TAG  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        rc = quivergrass.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    metrics = tracer.layer_metrics()
    spawned = os.environ.get("PERFBENCH_SPAWN")
    if spawned:
        metrics["cli.startup_s"] = IMPORTED - float(spawned)
    if os.environ.get("PERFBENCH_SPANS"):
        tracer.dump(Path(os.environ["PERFBENCH_SPANS"]))
    sys.stderr.write(TRACE_TAG + json.dumps(metrics) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
