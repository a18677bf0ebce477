"""quivergrass benchmark runner.

    python3 perfbench/run.py --workload {extension,count,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout (the library is imported from
./src). One process, no threads: set-up is timed in fresh interpreters,
then whole rounds of the workload's fixed job list run until S seconds have
passed. Every job's output is checked against the oracles in this directory
after its round, outside the timing. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (where rounds
alternate untraced and traced, and `trace.overhead_s` is their difference).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 9
# Seconds the calibration kernel takes at the nominal speed that reported
# times are scaled to (about its median on the 2-core machine the reference
# figures in README.md come from).
REFERENCE_S = 0.016
# Kernel passes per round, spread evenly between its jobs; their median
# sets the round's scale factor.
CALIBRATIONS_PER_ROUND = 30
_KERNEL = [[Fraction(((5 * i + 3) * (j + 2) ** 2 + i * j) % 17 - 8, 1 + (i + j) % 3)
            for j in range(18)] for i in range(14)]


def calibrate() -> float:
    """Seconds for one pass of a fixed pure-Python kernel.

    The machine this runs on changes speed by tens of percent within
    minutes, so each round's times are scaled by REFERENCE_S over the median
    of the kernel times taken between that round's jobs. The kernel does
    what the library spends its time on: exact row reduction of a Fraction
    matrix whose entries grow as it goes, then integer arithmetic and small
    allocations. Of the kernels tried, this one followed the workloads' own
    speed most closely (see README.md); a tiny 8x9 elimination reacted to
    the machine's phases more strongly than the jobs did.
    """
    start = time.perf_counter()
    rows = [list(r) for r in _KERNEL]
    n, r = len(rows), 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    cells = {(i, i % 5): [i] * 3 for i in range(3000)}
    del cells
    return time.perf_counter() - start


def scale(calibrations: list) -> float:
    return REFERENCE_S / statistics.median(calibrations)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_library():
    sys.path.insert(0, str(wl.SRC))
    import quivergrass

    if Path(quivergrass.__file__).resolve().parent != (wl.SRC / "quivergrass").resolve():
        raise ImportError(f"quivergrass was imported from {quivergrass.__file__}, not {wl.SRC}")
    return quivergrass


def build_jobs(workload: str, seed: int, smoke: bool) -> list:
    qg = None if workload == "cli" else import_library()
    return wl.WORKLOADS[workload](qg, seed, smoke)


def time_setup(args) -> tuple:
    """Seconds from spawning a fresh interpreter to its workload being set up,
    and the scale factor from the calibration passes between the probes.

    The probe imports the library, builds the inputs, hulls and reductions,
    prints "ready" and exits; the clock stops at that line.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    out, calibrations = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES + 1):
        calibrations += [calibrate() for _ in range(CALIBRATIONS_PER_ROUND // 3)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                                cwd=wl.ROOT, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        out.append(elapsed)
    # The first probe of a run pays for bytecode compilation after a fresh
    # checkout and for a CPU coming out of idle; it is not a set-up cost.
    return out[1:] or out, scale(calibrations)


def run_round(jobs: list, order: list, traced: bool, tracer=None) -> tuple:
    """Run every job once, with calibration passes spread between the jobs.

    Returns ([(index, seconds, result, error)], scale factor for the round).
    In-process workloads are traced by `tracer`; command-line jobs trace
    themselves in their child process when `traced` is set.
    """
    records, calibrations = [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for k, idx in enumerate(order):
            passes = ((k + 1) * CALIBRATIONS_PER_ROUND // len(order)
                      - k * CALIBRATIONS_PER_ROUND // len(order))
            calibrations += [calibrate() for _ in range(passes)]
            if tracer is not None:
                tracer.current_job = idx
            t = time.perf_counter()
            try:
                result, err = jobs[idx].run(traced), None
            except Exception as exc:  # a failing job is counted, the round goes on
                result, err = None, exc
            records.append((idx, time.perf_counter() - t, result, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records, scale(calibrations)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.results = 0
        self.reported: set = set()
        self.per_job: dict = {}
        self.round_jobs: list = []
        self.scales: list = []

    def add(self, jobs: list, records: list, factor: float) -> None:
        """Check one round's results and record its raw times and scale factor."""
        self.scales.append(factor)
        self.round_jobs.append([dt for _, dt, _, _ in records])
        for idx, dt, result, err in records:
            job = jobs[idx]
            self.attempted += 1
            self.per_job.setdefault(idx, []).append(dt)
            if err is not None:
                status, detail, n = "wrong", "".join(
                    traceback.format_exception_only(type(err), err)).strip(), 0
            else:
                status, detail, n = job.check(result)
            self.results += n
            if status != "ok":
                self.failed += 1
                self.correct = self.correct and status == "p0"
                if (idx, status) not in self.reported:
                    self.reported.add((idx, status))
                    print(f"perfbench: {status}: {job.name}: {detail}", file=sys.stderr)

    def rounds(self, scaled: bool = True) -> list:
        return [sum(r) * (f if scaled else 1.0) for r, f in zip(self.round_jobs, self.scales)]

    def times(self, scaled: bool) -> dict:
        """run_s, job_p50_s, job_max_s and results_per_s, scaled or raw."""
        factors = self.scales if scaled else [1.0] * len(self.scales)
        jobs = [dt * f for r, f in zip(self.round_jobs, factors) for dt in r]
        return {
            "run_s": statistics.median(self.rounds(scaled)),
            "job_p50_s": statistics.median(jobs),
            "job_max_s": statistics.median(max(r) * f for r, f in zip(self.round_jobs, factors)),
            "results_per_s": self.results / sum(jobs),
        }


def peak_rss_mib(workload: str, records: list) -> float:
    if workload == "cli":
        return max(r[2]["maxrss_kib"] for r in records if r[2]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cli_trace_metrics(records: list) -> dict:
    """Sum one traced round's per-invocation metrics; start-up is the median."""
    per = [r[2]["trace"] for r in records if r[2] and r[2].get("trace")]
    total: dict = {}
    for m in per:
        for k, v in m.items():
            total[k] = total.get(k, 0) + v
    starts = [m["cli.startup_s"] for m in per if "cli.startup_s" in m]
    if starts:
        total["cli.startup_s"] = statistics.median(starts)
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quivergrass benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny job lists, one round")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # One CPU for this process and its children, so that the calibration
    # passes measure the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (wl.SRC / "quivergrass" / "__init__.py").is_file():
        return fail(f"no library sources under {wl.SRC}; run from a quivergrass checkout")
    if args.setup_probe:
        build_jobs(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    setup, setup_scale = time_setup(args)
    jobs = build_jobs(args.workload, args.seed, args.smoke)
    rng = random.Random(args.seed)
    plain, traced = Tally(), Tally()
    traced_metrics, last_records = [], []
    tracer = tr.Tracer() if args.trace and args.workload != "cli" else None
    start = time.perf_counter()
    while not plain.round_jobs or (not args.smoke and time.perf_counter() - start < args.seconds):
        order = list(range(len(jobs)))
        rng.shuffle(order)
        records, factor = run_round(jobs, order, False)
        plain.add(jobs, records, factor)
        last_records = records
        if args.trace:
            records, factor = run_round(jobs, order, True, tracer)
            traced.add(jobs, records, factor)
            if tracer is not None:
                traced_metrics.append(tracer.layer_metrics())
            else:
                traced_metrics.append(cli_trace_metrics(records))
    if tracer is not None:
        tracer.dump(wl.OUT / f"{args.workload}.spans")

    if args.trace:
        keys = {k for m in traced_metrics for k in m}
        merged = {k: statistics.median(m.get(k, 0) for m in traced_metrics) for k in keys}
        merged["trace.overhead_s"] = (statistics.median(traced.rounds())
                                      - statistics.median(plain.rounds()))
        metrics = {k: {"value": v, "unit": tr.PER_LAYER[k]}
                   for k, v in tr.finish_metrics(merged).items()}
    # The same time metrics unscaled, as measured: printed on stderr and
    # kept in the timings file, beside the scaled ones in the result line.
    raw = {"setup_s": statistics.median(setup), **plain.times(scaled=False)}
    if not args.trace:
        units = {"setup_s": "s", "run_s": "s", "job_p50_s": "s", "job_max_s": "s",
                 "results_per_s": "1/s", "peak_rss_mib": "MiB"}
        values = {"setup_s": raw["setup_s"] * setup_scale, **plain.times(scaled=True),
                  "peak_rss_mib": peak_rss_mib(args.workload, last_records)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    wl.OUT.mkdir(exist_ok=True)
    (wl.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.timings.json").write_text(
        json.dumps({"unscaled": raw, "setup": setup, "setup_scale": setup_scale,
                    "rounds": plain.rounds(scaled=False), "scales": plain.scales,
                    "traced_rounds": traced.rounds(scaled=False),
                    "jobs": [j.name for j in jobs], "job_seconds": plain.per_job}) + "\n",
        encoding="utf-8")
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    print(f"perfbench: {args.workload} seed {args.seed}: {len(plain.round_jobs)} rounds of "
          f"{len(jobs)} jobs, {failed}/{attempted} failed", file=sys.stderr)
    print("perfbench: unscaled " + " ".join(f"{k}={v:.4g}" for k, v in raw.items()),
          file=sys.stderr)
    print(json.dumps({"correct": plain.correct and traced.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
