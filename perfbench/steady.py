"""Steadiness check: two sets of benchmark runs compared against BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--seconds S] [--first-seed 1]

For every workload and end-to-end metric it prints, per set, the median and
the interquartile spread as a share of the median (statistics.quantiles,
n=4): "steady" when it is within a third of the metric's bound, "within
bound" when it is within the bound itself. With two sets it also prints how
far the second median moved from the first, in either direction, which must
stay within the bound, and whether the share of failed operations is
identical. Beside the spread of each time it prints the spread of the same
metric unscaled, as each run reports it on stderr. Each run uses its own
seed; set k uses seeds first-seed + k*runs onward. Exits 1 if a spread
exceeds its bound, a median moved by more than its bound, or the failed
shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    line = next(x for x in proc.stderr.splitlines() if x.startswith("perfbench: unscaled "))
    result["unscaled"] = {k: float(v) for k, v in (kv.split("=") for kv in line.split()[2:])}
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="two sets of runs, compared with the bounds")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                runs.append(one_run(workload, seed, args.seconds))
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{m['name']}={runs[-1]['metrics'][m['name']]['value']:.4g}" for m in metrics),
                    file=sys.stderr, flush=True)
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{workload}: failed share {sorted(shares)} correct={correct}")
        ok &= len(shares) == 1 and correct
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            within = all(s <= bound for s in spreads)
            margin = all(s <= bound / 3 for s in spreads)
            verdict = "steady" if margin else "within bound" if within else "NOT STEADY"
            line = (f"  {name:14s} bound {bound:.2f}  median "
                    + " / ".join(f"{x:.4g}" for x in meds)
                    + "  spread " + " / ".join(f"{s:.3f}" for s in spreads) + f"  {verdict}")
            if name in sets[0][0]["unscaled"]:
                line += "  unscaled spread " + " / ".join(
                    f"{spread([r['unscaled'][name] for r in runs]):.3f}" for runs in sets)
            if len(meds) == 2:
                shift = (meds[1] - meds[0]) / meds[0]
                moved = abs(shift) <= bound
                line += f"  second moved by {shift:+.3f} {'ok' if moved else 'TOO FAR'}"
                ok &= moved
            ok &= within
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
